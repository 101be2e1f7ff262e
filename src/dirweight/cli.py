"""Command-line front end.

Subcommands: check-condition, classify, gram, eval-kernel, von-mangoldt.
Reports are JSON (source of truth); check-condition and von-mangoldt stream
their rows into it and into a CSV projection through one writer, _spliced.
Every report embeds the config keys it read, so a report file passed back via
--config reruns it.  Exit codes: 0 nonnegative/PSD, 1 config or usage
error, 2 certified violation/indefinite, 3 inconclusive.

Progress and diagnostics go to stderr; stdout carries machine-readable
content only (when --stdout is set or for the query-style subcommands).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
from contextlib import ExitStack
from datetime import datetime, timezone

import numpy as np

from . import condition, kernel, weights

SCHEMA_VERSION = "1.0"

atexit.register(gc.freeze)  # shutdown then leaves the imports' cycles to the OS uncollected

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


def _family(v) -> weights.WeightFamily:
    """The family config as a WeightFamily; its errors name their own keys."""
    if v is None:
        raise ConfigError("a weight family is required ('family' in the config)")
    try:
        return weights.family_from_config(v)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _optional(read):
    """read, except that None means not given."""
    return lambda v: None if v is None else read(v)


def _checked(what: str, ok, parse=lambda v: v):
    """The reader of parse(v) for which ok holds, else an error: expected what."""
    def read(v):
        x = parse(v)
        if not ok(x):
            raise ValueError(f"expected {what}, got {v!r}")
        return x
    return read


def _integer(lo: int, hi: float = math.inf):
    """The reader of a config integer (see weights._int) in [lo, hi]."""
    what = f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]"
    return _checked(what, lambda x: lo <= x <= hi, weights._int)


def _pair(v) -> complex:
    """A [re, im] pair of config scalars (see weights._float) as a complex."""
    if not (isinstance(v, list) and len(v) == 2):
        raise ValueError(f"expected a pair [re, im], got {v!r}")
    return complex(*map(weights._float, v))


def _grid(v) -> tuple:
    """(points, n_points): the grid's points as complexes (None: the default grid of n_points)."""
    if not isinstance(v, dict):
        raise ValueError(f"expected an object, got {v!r}")
    weights._known("keys", v, {"points", "n_points"})
    pts = v.get("points")
    if not (pts is None or isinstance(pts, list)):
        raise ConfigError(f"grid.points: expected a list of [re, im] pairs, got {pts!r}")
    points = None if pts is None else [weights._keyed("grid.points", _pair, p, ConfigError)
                                       for p in pts]
    n_points = _integer(1, kernel.MAX_POINTS)
    return points, weights._keyed("n_points", n_points, v.get("n_points", 8), ConfigError)


#: Every top-level config key and its reader, which returns the value or raises ValueError.
_READERS = {
    "family": _family,
    "delta": _optional(weights._finite_float),  # "1/2" is a rational
    "k": _optional(_integer(1)),
    "n_max": _integer(1),
    "methods": _checked(f"one or more distinct methods of {'/'.join(condition.METHODS)}",
                        lambda v: len(set(v) & set(condition.METHODS)) == len(v) > 0,
                        _checked("a list of method names", lambda v: isinstance(v, list)
                                 and all(isinstance(m, str) for m in v))),
    "tol": _checked("a finite number > 0", lambda x: math.isfinite(x) and x > 0, weights._float),
    "mode": _checked("auto/exact/float", lambda v: v in ("auto", "exact", "float")),
    "kernel": _checked("/".join(kernel.ROUTES), lambda v: v in kernel.ROUTES),
    "grid": _grid,
    "alpha": _integer(1),
    "n": _optional(_integer(2)),
    "s": _pair,
    "u": _pair,
    "out": _checked("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "timestamp": _checked("true or false", lambda v: isinstance(v, bool)),
}


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
    unknown = set(data) - set(_READERS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _config(args, reads: str, embedded=None, **defaults) -> dict:
    """out, timestamp and the keys in reads, embedded and defaults: each from the flags, else
    the --config file, else embedded, else defaults, parsed once by its reader in _READERS.
    "config" holds those keys as given, no unread one, for the report to embed; "outputs"
    the report files and whether the JSON goes to stdout: PREFIX.json (and PREFIX.csv) for
    out, else for the subcommand's default prefix (args.report) unless --stdout is set;
    stdout alone without either.  A run is refused if a report file is the --config file."""
    cfg = {**(embedded or {}), **_load_config(args.config)}
    cfg.update((key, v) for key in _READERS if (v := getattr(args, key, None)) is not None)
    if getattr(args, "n_points", None) is not None and isinstance(cfg.setdefault("grid", {}), dict):
        cfg["grid"]["n_points"] = args.n_points
    keys = {"out", "timestamp", *reads.split(), *(embedded or {}), *defaults}
    cfg = {key: v for key, v in cfg.items() if key in keys}  # an unread key is left out
    val = {key: weights._keyed(key, _READERS[key], v, ConfigError)
           for key, v in {**defaults, **cfg}.items()}
    default, with_csv = args.report
    prefix, to_stdout = val.get("out"), args.stdout
    if prefix is None and not to_stdout:
        prefix, to_stdout = default, default is None
    paths = [f"{prefix}.json", f"{prefix}.csv"][: 1 + with_csv] if prefix else []
    for path in paths:
        if args.config and os.path.exists(path) and os.path.samefile(path, args.config):
            raise ConfigError(f"the report {path} would overwrite the config {args.config}")
    val.update(config=cfg, outputs=(paths, to_stdout))
    return val


def _report_envelope(command: str, cfg: dict, result: dict) -> dict:
    """The report around result; it embeds the config as given (see _config)."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": cfg["config"],
        "result": result,
    }
    if cfg.get("timestamp", True):
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    return out


def _emit(report, cfg: dict) -> None:
    """Write a report to cfg["outputs"] (see _config): ``report`` is the envelope dict, whose
    floats that are not finite become the strings "inf", "-inf" and "nan"
    (condition._strict_json), or an iterable of (JSON text, CSV text) pairs whose parts join to
    the JSON report and to its CSV projection.  Each file is renamed into place after the last
    piece, so a run that fails writes no report and leaves an earlier one intact."""
    if isinstance(report, dict):
        report = [(json.dumps(condition._strict_json(report), sort_keys=True, indent=2), "")]
    paths, to_stdout = cfg["outputs"]
    if paths:
        report = list(report) if to_stdout else report  # the JSON is written twice
        temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
        try:
            with ExitStack() as stack:
                files = [stack.enter_context(open(temp, "w", newline=newline))
                         for temp, newline in zip(temps, (None, ""))]
                for pieces in report:
                    for fh, text in zip(files, pieces):
                        fh.write(text)
                files[0].write("\n")
            for temp, path in zip(temps, paths):
                os.replace(temp, path)
                print(f"wrote {path}", file=sys.stderr)
        finally:
            for temp in filter(os.path.exists, temps):
                os.remove(temp)
    if to_stdout:
        sys.stdout.writelines(text for text, _ in report)
        sys.stdout.write("\n")


def _spliced(envelope: dict, key: str, rows, *args):
    """The report as (JSON, CSV) text pairs (see _emit): json.dumps(envelope, sort_keys=True,
    indent=2) with rows(*args, pad), one row a line, streamed into the empty list result[key]
    at its indent pad.  Only scalars sort after key in a result: the last '"key": []' is its."""
    text = json.dumps(condition._strict_json(envelope), sort_keys=True, indent=2)
    head, _, tail = text.rpartition(f'"{key}": []')
    yield head + f'"{key}": ', ""
    yield from rows(*args, head[head.rfind("\n") + 1 :])
    yield tail, ""


def _value_rows(ns: np.ndarray, values: np.ndarray, pad: str, chunk: int = 1 << 14):
    """The von-mangoldt rows {"n": n, "value": v}, one a line, and "n,value", from
    ConditionReport.render's column tokens; every entry is distinct, so the key text
    stays out of the tokens, which JSON and CSV then share."""
    yield "[", "n,value\r\n"
    for lo in range(0, len(ns), chunk):
        (n, _), (value, csv) = (condition._column_tokens(c[lo : lo + chunk]) for c in (ns, values))
        yield (condition._join(f',\n{pad}  {{"n": ', n, ', "value": ', value, "}")[lo == 0 :],
               condition._join(n, ",", csv, "\r\n"))
    yield ("]" if len(ns) == 0 else f"\n{pad}]"), ""


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check_condition(args) -> int:
    cfg = _config(args, "delta k", embedded={"n_max": 1000}, family=None,
                  methods=["divisor_sum"], tol=condition.DEFAULT_TOL, mode="auto")
    fam, delta = cfg["family"], cfg.get("delta")
    if cfg["mode"] == "float":
        fam.exact = False
    elif cfg["mode"] == "exact" and not (mode := condition._mode(fam, delta))[1]:
        raise ConfigError(f"exact mode needs rational weights and delta = 0 (family {fam.name}, "
                          f"delta {mode[0]})")
    last = fam.last_index
    if last is not None and cfg["n_max"] > last:  # classify clamps instead
        raise ConfigError(f"n_max: expected at most {last}, the last index of {fam.name}, "
                          f"got {cfg['n_max']}")

    print(f"checking condition for {fam.name} up to n = {cfg['n_max']}", file=sys.stderr)
    report = condition.check_range(
        fam, delta, cfg.get("k"), cfg["n_max"], methods=tuple(cfg["methods"]), tol=cfg["tol"]
    )
    envelope = _report_envelope("check-condition", cfg, report.to_json_dict())
    _emit(_spliced(envelope, "records", report.render), cfg)
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return _EXIT_BY_VERDICT[report.verdict]


def cmd_classify(args) -> int:
    cfg = _config(args, "delta", embedded={"n_max": 2000}, family=None, tol=condition.DEFAULT_TOL)
    fam, delta, n_max, tol = cfg["family"], cfg.get("delta"), cfg["n_max"], cfg["tol"]

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

    if fam.kind in condition.FACTORED:
        mult = fam.kind == "multiplicative"
        growth = result["growth_check"] = condition.prime_power_check(fam, delta, n_max, tol)
        # check_range runs each factored route at one start index only
        if growth["passed"] and fam.start_index == condition.FACTORED[fam.kind][1] and (
                mult or growth["delta_nonpositive"]):
            routes.append("multiplicative product route" if mult else "additive per-term route")

    base = fam.params.get("base")
    if isinstance(base, weights.WeightFamily) and base.kind == "multiplicative":
        # at delta = 0 the factor of p^r is w_(p^r) - w_(p^(r-1))
        increasing = condition.prime_power_check(base, 0.0, n_max, tol)["passed"]
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
    result["applicable_routes"] = routes

    envelope = _report_envelope("classify", cfg, result)
    _emit(envelope, cfg)
    return 0


def cmd_gram(args) -> int:
    cfg = _config(args, "delta", family=None, kernel="series", tol=1e-10, grid={})
    fam, route, (points, n_points) = cfg["family"], cfg["kernel"], cfg["grid"]

    print(f"gram check for {fam.name} via {route} kernel", file=sys.stderr)
    check = kernel.gram_psd(
        fam,
        delta=cfg.get("delta"),
        points=points,
        kernel=route,
        tol=cfg["tol"],
        n_points=n_points,
    )
    envelope = _report_envelope("gram", cfg, check.to_json_dict())
    _emit(envelope, cfg)
    print(
        f"min eigenvalue {check.min_eigenvalue:.3e}, "
        f"budget {check.budget:.3e}, verdict {check.verdict}",
        file=sys.stderr,
    )
    return _EXIT_BY_VERDICT[check.verdict]


def cmd_eval_kernel(args) -> int:
    cfg = _config(args, "delta s u", family=None, kernel="weight", tol=1e-8)
    if "s" not in cfg:
        raise ConfigError("eval-kernel needs a point --s")
    fam, route, tol, delta = cfg["family"], cfg["kernel"], cfg["tol"], cfg.get("delta")
    s, u = cfg["s"], cfg.get("u", cfg["s"])

    if route == "weight":
        ev = kernel.weight_kernel(fam, s, u, tol=tol)
    elif route == "ratio":
        ev = kernel.condition_kernel_ratio(fam, s, u, delta=delta, tol=tol)
    else:
        ev = kernel.condition_kernel_series(fam, delta, s, u, tol=tol)

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
    _emit(envelope, cfg)
    return 0 if ev.certified else 3


def cmd_von_mangoldt(args) -> int:
    cfg = _config(args, "n", alpha=1, n_max=100)
    alpha, n = cfg["alpha"], cfg.get("n")

    if n is not None:
        ns, values = np.array([n]), np.array([condition.von_mangoldt_alpha(n, alpha)])
    else:
        values = condition.von_mangoldt_range(cfg["n_max"], alpha)
        ns = np.arange(2, len(values) + 2)
    result = {
        "alpha": alpha,
        "values": [],  # streamed by _value_rows
        # diagnostic only: classical vanishing past alpha distinct primes
        "zero_count": int(np.count_nonzero(values == 0.0)),
        "min_value": float(values.min()) if len(values) else 0.0,
    }
    envelope = _report_envelope("von-mangoldt", cfg, result)
    _emit(_spliced(envelope, "values", _value_rows, ns, values), cfg)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like config errors: exit 2 means a certified violation.
    Subparsers inherit the class, so each refuses its own unknown arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, rest = super().parse_known_args(args, namespace)
        if rest:
            self.error(f"unrecognized arguments: {' '.join(rest)}")
        return namespace, rest


def _rational(text: str) -> float:
    """A flag value as a float; exact rationals such as 1/2 are accepted."""
    try:
        return weights._float(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _point(text: str) -> list:
    """A complex flag value such as 1.5+0.3j as the config's [re, im] pair."""
    z = complex(text)
    return [z.real, z.imag]


def _points(text: str) -> dict:
    """A semicolon list of complex flag values as the config's grid of [re, im] pairs."""
    return {"points": [_point(chunk) for chunk in text.split(";")]}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dirweight",
        description="Weighted Dirichlet series toolkit: condition checks, "
                    "prime-power checks, kernel evaluation, Gram diagnostics.",
    )
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (or a previous report)")
    common.add_argument("--out", default=None, help="output path prefix (.json/.csv)")
    common.add_argument("--no-timestamp", dest="timestamp", action="store_false", default=None,
                        help="omit the timestamp for byte-identical reruns")
    common.add_argument("--stdout", action="store_true", help="print the JSON report to stdout")
    # the subcommands that read a family add its delta and a tolerance
    family = argparse.ArgumentParser(add_help=False, parents=[common])
    family.add_argument("--delta", type=_rational, default=None, help="override the family's delta")
    family.add_argument("--tol", type=float, default=None, help="numeric tolerance")

    p = sub.add_parser("check-condition", parents=[family],
                       help="evaluate the Mobius-convolution condition on a range")
    p.add_argument("--k", type=int, default=None, help="start index of the sum")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--methods", default=None,
                   type=lambda text: [m.strip() for m in text.split(",") if m.strip()],
                   help="comma list from divisor_sum,mult_product,additive_Tt")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const", const="exact")
    mode.add_argument("--float", dest="mode", action="store_const", const="float")
    p.set_defaults(mode=None, func=cmd_check_condition, report=("condition_report", True))

    p = sub.add_parser("classify", parents=[family],
                       help="check the prime-power signs and report applicable routes")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.set_defaults(func=cmd_classify, report=(None, False))

    p = sub.add_parser("gram", parents=[family], help="Gram positivity witness on a point grid")
    p.add_argument("--kernel", choices=kernel.ROUTES, default=None)
    p.add_argument("--points", dest="grid", type=_points, default=None,
                   help="semicolon list of complex points, e.g. '1.2;1.5+0.3j'")
    p.add_argument("--n-points", type=int, default=None, dest="n_points")
    p.set_defaults(func=cmd_gram, report=("gram_report", False))

    p = sub.add_parser("eval-kernel", parents=[family], help="evaluate one kernel entry")
    p.add_argument("--kernel", choices=kernel.ROUTES, default=None)
    p.add_argument("--s", type=_point, default=None, help="complex point, e.g. '1.2+0.3j'")
    p.add_argument("--u", type=_point, default=None, help="second point (defaults to s)")
    p.set_defaults(func=cmd_eval_kernel, report=(None, False))

    p = sub.add_parser("von-mangoldt", parents=[common],
                       help="generalized von Mangoldt values (Mobius * log^alpha)")
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="single index")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.set_defaults(func=cmd_von_mangoldt, report=(None, True))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 1
    enabled = gc.isenabled()
    gc.disable()  # a run's arrays, ints and Fractions hold no cycles to collect
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
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
