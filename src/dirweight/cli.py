"""Command-line front end.

Subcommands: check-condition, classify, gram, eval-kernel, von-mangoldt.
Reports are JSON (source of truth) with a CSV projection where tabular;
every report embeds its resolved config, so a report file can be passed
back via --config to reproduce the run.  Exit codes: 0 nonnegative/PSD,
1 config or usage error, 2 certified violation/indefinite, 3 inconclusive.

Progress and diagnostics go to stderr; stdout carries machine-readable
content only (when --stdout is set or for the query-style subcommands).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from datetime import datetime, timezone

import numpy as np

from . import condition, kernel, weights

SCHEMA_VERSION = "1.0"

_COMMON_KEYS = {
    "family", "delta", "k", "n_max", "methods", "tol", "mode",
    "kernel", "grid", "alpha", "n", "s", "u", "out", "timestamp",
}

_EXIT_BY_VERDICT = {
    condition.NONNEG_EXACT: 0,
    condition.NONNEG_TOL: 0,
    condition.NEGATIVE: 2,
    condition.INCONCLUSIVE: 3,
    kernel.PSD_TOL: 0,
    kernel.INDEFINITE: 2,
    kernel.INCONCLUSIVE: 3,
}


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if "schema_version" in data and "config" in data:
        data = data["config"]  # a previous report: rerun from its embedded config
    unknown = set(data) - _COMMON_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _config(args, keys) -> dict:
    """The --config file with the flags named in keys, --no-timestamp and
    --stdout laid over it."""
    cfg = _load_config(args.config)
    cfg.update((key, getattr(args, key)) for key in keys if getattr(args, key, None) is not None)
    if args.no_timestamp:
        cfg["timestamp"] = False
    cfg["stdout_flag"] = args.stdout
    return cfg


def _family(cfg: dict) -> weights.WeightFamily:
    fam_cfg = cfg.get("family")
    if fam_cfg is None:
        raise ConfigError("a weight family is required ('family' in the config)")
    try:
        return weights.family_from_config(fam_cfg)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _config_int(cfg: dict, key: str, default=None) -> int:
    """cfg[key] (default when absent) via weights._int; bad values are config errors."""
    try:
        return weights._int(cfg.get(key, default))
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e


def _config_pair(value, key: str) -> complex:
    """A [re, im] pair of config scalars (see weights._float) as a complex."""
    try:
        if not (isinstance(value, list) and len(value) == 2):
            raise ValueError(f"expected a pair [re, im], got {value!r}")
        return complex(*map(weights._float, value))
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e


def _delta(cfg: dict) -> float | None:
    """The top-level delta override; strings such as "1/2" parse as rationals."""
    return weights._optional_float(cfg.get("delta"))


def _apply_mode(fam: weights.WeightFamily, cfg: dict, delta) -> None:
    mode = cfg.get("mode", "auto")
    if mode not in ("auto", "exact", "float"):
        raise ConfigError(f"mode must be auto/exact/float, got {mode!r}")
    if mode == "float":
        fam.exact = False
    elif mode == "exact":
        d = fam.delta if delta is None else delta
        if not (fam.exact and d == 0.0):
            raise ConfigError(
                "exact mode needs rational weights and delta = 0 "
                f"(family {fam.name}, delta {d})"
            )


def _report_envelope(command: str, cfg: dict, result: dict) -> dict:
    """The report around result; it embeds the resolved config, less the
    runtime-only stdout_flag."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {k: v for k, v in cfg.items() if k != "stdout_flag"},
        "result": result,
    }
    if cfg.get("timestamp", True):
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    return out


def _emit(report, cfg: dict, default_prefix: str | None, with_csv: bool = False) -> None:
    """Write a report: ``report`` is the envelope dict, whose floats that
    are not finite become the strings "inf", "-inf" and "nan"
    (condition._strict_json), or an iterable of (JSON text, CSV text) pairs
    whose parts join to the JSON report and to its CSV projection, written
    next to the JSON file when ``with_csv``."""
    if isinstance(report, dict):
        report = [(json.dumps(condition._strict_json(report), sort_keys=True, indent=2), "")]
    out_prefix = cfg.get("out")
    to_stdout = cfg.get("stdout_flag", False)
    if out_prefix is None and not to_stdout:
        if default_prefix is None:
            to_stdout = True
        else:
            out_prefix = default_prefix
    if out_prefix:
        report = list(report) if to_stdout else report  # the JSON is written twice
        paths = [f"{out_prefix}.json", f"{out_prefix}.csv"][: 1 + with_csv]
        with ExitStack() as stack:
            files = [stack.enter_context(open(path, "w", newline=newline))
                     for path, newline in zip(paths, (None, ""))]
            for pieces in report:
                for fh, text in zip(files, pieces):
                    fh.write(text)
            files[0].write("\n")
        for path in paths:
            print(f"wrote {path}", file=sys.stderr)
    if to_stdout:
        sys.stdout.writelines(text for text, _ in report)
        sys.stdout.write("\n")


def _condition_report(envelope: dict, report: condition.ConditionReport):
    """The check-condition report as (JSON, CSV) text pairs (see _emit).  The
    JSON is byte-identical to json.dumps(envelope with report.to_json_dict(),
    sort_keys=True, indent=2): report.render writes the records array."""
    text = json.dumps(condition._strict_json(envelope), sort_keys=True, indent=2)
    # keys are sorted, so only result.tol and result.verdict follow the
    # records placeholder: its last occurrence is the one
    head, _, tail = text.rpartition('"records": []')
    yield head + '"records": ', ""
    yield from report.render(head[head.rfind("\n") + 1 :])
    yield tail, ""


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check_condition(args) -> int:
    cfg = _config(args, ["delta", "k", "n_max", "tol", "mode", "out"])
    if args.methods is not None:
        cfg["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    cfg.setdefault("n_max", 1000)

    fam = _family(cfg)
    delta = _delta(cfg)
    _apply_mode(fam, cfg, delta)
    methods = cfg.get("methods", ["divisor_sum"])
    if not (isinstance(methods, list) and all(isinstance(m, str) for m in methods)):
        raise ConfigError(f"methods: expected a list of method names, got {methods!r}")
    tol = weights._float(cfg.get("tol", condition.DEFAULT_TOL))
    k = None if cfg.get("k") is None else _config_int(cfg, "k")

    print(f"checking condition for {fam.name} up to n = {cfg['n_max']}", file=sys.stderr)
    report = condition.check_range(
        fam, delta, k, _config_int(cfg, "n_max"), methods=tuple(methods), tol=tol
    )
    envelope = _report_envelope("check-condition", cfg, report.to_json_dict(with_records=False))
    _emit(_condition_report(envelope, report), cfg, "condition_report", with_csv=True)
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return _EXIT_BY_VERDICT[report.verdict]


def cmd_classify(args) -> int:
    cfg = _config(args, ["delta", "n_max", "tol", "out"])
    cfg.setdefault("n_max", 2000)

    fam = _family(cfg)
    delta = _delta(cfg)
    n_max = _config_int(cfg, "n_max")
    tol = weights._float(cfg.get("tol", condition.DEFAULT_TOL))

    result: dict = {
        "family": fam.name,
        "kind": fam.kind,
        "start_index": fam.start_index,
        "sigma": fam.sigma,
        "delta": fam.delta,
        "growth_bound": list(fam.growth_bound),
        "exact_values": fam.exact,
    }
    routes = []

    if fam.kind in ("multiplicative", "additive"):
        mult = fam.kind == "multiplicative"
        growth = result["growth_check"] = condition.prime_power_check(fam, delta, n_max, tol)
        # check_range runs each factored route at one start index only
        if growth["passed"] and fam.start_index == (1 if mult else 2) and (
                mult or growth["delta_nonpositive"]):
            routes.append("multiplicative product route" if mult else "additive per-term route")

    base = fam.params.get("base")
    if isinstance(base, weights.WeightFamily) and base.kind == "multiplicative":
        # at delta = 0 the factor of p^r is w_(p^r) - w_(p^(r-1))
        increasing = condition.prime_power_check(base, 0.0, n_max)["passed"]
        result["one_plus_base"] = {
            "name": base.name,
            "prime_power_values_increasing": increasing,
        }
        if increasing:
            routes.append("one-plus composition route")

    sample = {"n_max": n_max}
    last = fam.last_index
    if last is not None and n_max > last:  # a finite list of values ends here
        sample = {"n_max": last, "clamped_from": n_max}
    report = condition.check_range(fam, delta, None, sample["n_max"], tol=tol)
    result["condition_sample"] = {
        **sample,
        "delta": report.delta,
        "verdict": report.verdict,
        "counts": report.counts(),
    }
    if report.verdict in (condition.NONNEG_EXACT, condition.NONNEG_TOL):
        routes.append("direct condition route")

    try:  # at the delta the condition sample ran at
        smooth = weights.smooth_growth_diagnostic(fam, max(report.delta, 0.0) + 0.5, 3)
        result["smooth_sum_diagnostic"] = {"delta": report.delta, **smooth}
    except ValueError:
        pass
    result["applicable_routes"] = routes

    envelope = _report_envelope("classify", cfg, result)
    _emit(envelope, cfg, None)
    return 0


def cmd_gram(args) -> int:
    cfg = _config(args, ["delta", "tol", "kernel", "out"])
    if args.points:
        pts = [complex(chunk.strip()) for chunk in args.points.split(";")]
        cfg["grid"] = {"points": [[p.real, p.imag] for p in pts]}
    if args.n_points is not None:
        cfg.setdefault("grid", {})["n_points"] = args.n_points

    fam = _family(cfg)
    grid_cfg = cfg.get("grid") or {}
    if not isinstance(grid_cfg, dict):
        raise ConfigError(f"grid: expected an object, got {grid_cfg!r}")
    unknown = set(grid_cfg) - {"points", "n_points"}
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    pts = grid_cfg.get("points")
    if not (pts is None or isinstance(pts, list)):
        raise ConfigError(f"grid.points: expected a list of [re, im] pairs, got {pts!r}")
    points = None if pts is None else [_config_pair(p, "grid.points") for p in pts]
    route = cfg.get("kernel", "series")
    tol = weights._float(cfg.get("tol", 1e-10))

    print(f"gram check for {fam.name} via {route} kernel", file=sys.stderr)
    check = kernel.gram_psd(
        fam,
        delta=_delta(cfg),
        points=points,
        kernel=route,
        tol=tol,
        n_points=_config_int(grid_cfg, "n_points", 8),
    )
    envelope = _report_envelope("gram", cfg, check.to_json_dict())
    _emit(envelope, cfg, "gram_report")
    print(
        f"min eigenvalue {check.min_eigenvalue:.3e}, "
        f"budget {check.budget:.3e}, verdict {check.verdict}",
        file=sys.stderr,
    )
    return _EXIT_BY_VERDICT[check.verdict]


def cmd_eval_kernel(args) -> int:
    cfg = _config(args, ["delta", "tol", "kernel", "out"])
    if args.s is not None:
        cfg["s"] = [complex(args.s).real, complex(args.s).imag]
    if args.u is not None:
        cfg["u"] = [complex(args.u).real, complex(args.u).imag]

    fam = _family(cfg)
    if "s" not in cfg:
        raise ConfigError("eval-kernel needs a point --s")
    s = _config_pair(cfg["s"], "s")
    u = _config_pair(cfg["u"], "u") if "u" in cfg else s
    route = cfg.get("kernel", "weight")
    tol = weights._float(cfg.get("tol", 1e-8))
    delta = _delta(cfg)

    try:
        if route == "weight":
            ev = kernel.weight_kernel(fam, s, u, tol=tol)
        elif route == "ratio":
            ev = kernel.condition_kernel_ratio(fam, s, u, delta=delta, tol=tol)
        elif route == "series":
            ev = kernel.condition_kernel_series(fam, delta, s, u, tol=tol)
        else:
            raise ConfigError(f"unknown kernel route {route!r}")
    except ValueError as e:
        raise ConfigError(str(e)) from e

    result = {
        "kernel": route,
        "s": [s.real, s.imag],
        "u": [u.real, u.imag],
        "value": [ev.value.real, ev.value.imag],
        "tail_bound": ev.tail_bound,
        "certified": ev.certified,
        "n_terms": ev.n_terms,
    }
    envelope = _report_envelope("eval-kernel", cfg, result)
    _emit(envelope, cfg, None)
    return 0 if ev.certified else 3


def cmd_von_mangoldt(args) -> int:
    cfg = _config(args, ["alpha", "n", "n_max", "out"])
    alpha = _config_int(cfg, "alpha", 1)

    if cfg.get("n") is not None:
        n = _config_int(cfg, "n")
        values = [(n, condition.von_mangoldt_alpha(n, alpha))]
    else:
        n_max = _config_int(cfg, "n_max", 100)
        values = list(zip(range(2, n_max + 1), condition.von_mangoldt_range(n_max, alpha)))
    result = {
        "alpha": alpha,
        "values": [{"n": n, "value": v} for n, v in values],
        # diagnostic only: classical vanishing past alpha distinct primes
        "zero_count": sum(1 for _, v in values if v == 0.0),
        "min_value": min((v for _, v in values), default=0.0),
    }
    envelope = _report_envelope("von-mangoldt", cfg, result)
    rows = "".join(f"{n},{v!r}\r\n" for n, v in values)
    _emit([(json.dumps(envelope, sort_keys=True, indent=2), "n,value\r\n" + rows)], cfg,
          None, with_csv=True)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like config errors: exit 2 means a certified
    violation.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> float:
    """A flag value as a float; exact rationals such as 1/2 are accepted."""
    try:
        return weights._optional_float(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (or a previous report)")
    p.add_argument("--delta", type=_rational, default=None,
                   help="override the family's declared delta")
    p.add_argument("--tol", type=float, default=None, help="numeric tolerance")
    p.add_argument("--out", default=None, help="output path prefix (.json/.csv)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp for byte-identical reruns")
    p.add_argument("--stdout", action="store_true",
                   help="print the JSON report to stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dirweight",
        description="Weighted Dirichlet series toolkit: condition checks, "
                    "prime-power checks, kernel evaluation, Gram diagnostics.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check-condition",
                       help="evaluate the Mobius-convolution condition on a range")
    _add_common(p)
    p.add_argument("--k", type=int, default=None, help="start index of the sum")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--methods", default=None,
                   help="comma list from divisor_sum,mult_product,additive_Tt")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const", const="exact")
    mode.add_argument("--float", dest="mode", action="store_const", const="float")
    p.set_defaults(mode=None, func=cmd_check_condition)

    p = sub.add_parser("classify",
                       help="check the prime-power signs and report applicable routes")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gram", help="Gram positivity witness on a point grid")
    _add_common(p)
    p.add_argument("--kernel", choices=kernel.ROUTES, default=None)
    p.add_argument("--points", default=None,
                   help="semicolon list of complex points, e.g. '1.2;1.5+0.3j'")
    p.add_argument("--n-points", type=int, default=None, dest="n_points")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("eval-kernel", help="evaluate one kernel entry")
    _add_common(p)
    p.add_argument("--kernel", choices=kernel.ROUTES, default=None)
    p.add_argument("--s", default=None, help="complex point, e.g. '1.2+0.3j'")
    p.add_argument("--u", default=None, help="second point (defaults to s)")
    p.set_defaults(func=cmd_eval_kernel)

    p = sub.add_parser("von-mangoldt",
                       help="generalized von Mangoldt values (Mobius * log^alpha)")
    _add_common(p)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="single index")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.set_defaults(func=cmd_von_mangoldt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 1
    try:
        with np.errstate(all="ignore"):  # a value that is not finite is inconclusive
            return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except condition.MethodDisagreement as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_BY_VERDICT[condition.INCONCLUSIVE]


if __name__ == "__main__":
    sys.exit(main())
