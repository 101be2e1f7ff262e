"""Workload definitions and the output oracles that check them.

A workload is a list of dirweight CLI commands built from a seed.  The
seed draws the imaginary parts of every kernel point the benchmark
chooses and a jitter below 1% on every n_max; truncation lengths depend
only on real parts, so the work per command does not move with the seed.
The Gram commands use the package's default 8-point grid, which the seed
cannot reach.

Every oracle here is independent of the code under test: a prime sieve
written below, and mpmath's zeta and prime zeta functions.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import mpmath

# Exit code the CLI returns for a nonnegative / PSD / certified result.
EXIT_OK = 0


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments, the config file it reads and the
    check its reports must pass.  Paths are relative to the work directory."""

    label: str
    argv: tuple[str, ...]
    config: dict
    check: object  # callable(prefix: Path) -> list[str] of problems

    @property
    def config_name(self) -> str:
        return f"{self.label}.config.json"

    @property
    def full_argv(self) -> list[str]:
        return [*self.argv, "--config", self.config_name,
                "--out", self.label, "--no-timestamp"]

    def outputs(self, workdir: Path) -> list[Path]:
        """Report files the command wrote, JSON first."""
        return [p for p in (workdir / f"{self.label}.json", workdir / f"{self.label}.csv")
                if p.exists()]

    def hashes(self, workdir: Path) -> dict:
        """SHA-256 of each report file, for the rerun byte-identity check."""
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in self.outputs(workdir)}


@dataclass(frozen=True)
class RouteProbe:
    """An extra traced check_range call with a single method."""

    family: dict
    n_max: int
    method: str


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    probes: tuple[RouteProbe, ...] = field(default=())

    def write_configs(self, workdir: Path) -> None:
        for cmd in self.commands:
            (workdir / cmd.config_name).write_text(json.dumps(cmd.config))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def prime_flags(n: int) -> bytearray:
    """flags[m] == 1 exactly when m is prime, for 0 <= m <= n."""
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def _load_report(prefix: Path) -> dict:
    with open(f"{prefix}.json") as fh:
        return json.load(fh)


def _condition_check(n_max: int, lo: int, methods: tuple[str, ...], expected):
    """Check a condition report: exact verdict, full coverage of [lo, n_max]
    for every method, and every value (JSON and CSV) equal to expected(n)."""

    def check(prefix: Path) -> list[str]:
        problems = []
        result = _load_report(prefix)["result"]
        if result.get("verdict") != "nonneg_exact":
            problems.append(f"verdict {result.get('verdict')!r}")
        if result.get("agreement_failures") != 0:
            problems.append(f"agreement_failures {result.get('agreement_failures')}")
        if result.get("range") != [lo, n_max]:
            problems.append(f"range {result.get('range')} != {[lo, n_max]}")
        seen = set()
        for r in result.get("records", []):
            key = (r["n"], r["method"])
            seen.add(key)
            if r["value"] != expected(r["n"]) or r["verdict"] != "nonneg_exact":
                problems.append(f"record {r}")
                break
        want = {(n, m) for n in range(lo, n_max + 1) for m in methods}
        if seen != want:
            problems.append(f"records cover {len(seen)} (n, method) pairs, want {len(want)}")
        with open(f"{prefix}.csv", newline="") as fh:
            rows = csv.reader(fh)
            if next(rows, None) != ["n", "value", "method", "verdict", "margin"]:
                problems.append("csv header")
            count = 0
            for row in rows:
                count += 1
                if int(row[1]) != expected(int(row[0])) or row[3] != "nonneg_exact":
                    problems.append(f"csv row {row}")
                    break
            if count != len(want):
                problems.append(f"csv has {count} rows, want {len(want)}")
        return problems

    return check


def _kernel_check(reference):
    """Check an eval-kernel report: certified, and within its own tail
    bound of the reference value at z = s + conj(u)."""

    def check(prefix: Path) -> list[str]:
        result = _load_report(prefix)["result"]
        if result.get("certified") is not True:
            return [f"not certified: {result.get('tail_bound')}"]
        s = complex(*result["s"])
        u = complex(*result["u"])
        err = abs(complex(*result["value"]) - reference(s + u.conjugate()))
        if not err <= result["tail_bound"]:
            return [f"|value - reference| = {err:.3e} > tail_bound {result['tail_bound']:.3e}"]
        return []

    return check


def _gram_check(reference):
    """Check a Gram report: PSD verdict, and every entry within the error
    budget of reference(s_i + conj(s_j))."""

    def check(prefix: Path) -> list[str]:
        result = _load_report(prefix)["result"]
        problems = []
        if result.get("verdict") != "psd_within_tol":
            problems.append(f"verdict {result.get('verdict')!r}")
        points = [complex(*p) for p in result["points"]]
        matrix = result["matrix"]
        worst = max(
            abs(complex(*matrix[i][j]) - reference(points[i] + points[j].conjugate()))
            for i in range(len(points))
            for j in range(len(points))
        )
        if not worst <= result["error_budget"]:
            problems.append(f"max entry error {worst:.3e} > budget {result['error_budget']:.3e}")
        return problems

    return check


def _mp(f):
    """Evaluate an mpmath function of one complex argument at 30 digits."""

    def ref(z: complex) -> complex:
        with mpmath.workdps(30):
            return complex(f(mpmath.mpc(z.real, z.imag)))

    return ref


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _jitter(rng: random.Random, n: int) -> int:
    return n + rng.randint(-(n // 101), n // 101)


def _point(rng: random.Random, re: float) -> list[float]:
    return [re, round(rng.uniform(-1.0, 1.0), 6)]


def _condition_exact(rng: random.Random) -> Workload:
    omega = {"kind": "named", "name": "omega"}
    dpow = {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": 1}}
    n_omega = _jitter(rng, 100_000)
    n_dpow = _jitter(rng, 100_000)
    omega_methods = ("divisor_sum", "additive_Tt")
    dpow_methods = ("divisor_sum", "mult_product")
    flags = prime_flags(max(n_omega, n_dpow))
    commands = (
        Command(
            "omega-exact", ("check-condition", "--exact"),
            {"family": omega, "n_max": n_omega, "methods": list(omega_methods)},
            _condition_check(n_omega, 2, omega_methods, lambda n: flags[n]),
        ),
        Command(
            "divisor-pow-exact", ("check-condition", "--exact"),
            {"family": dpow, "n_max": n_dpow, "methods": list(dpow_methods)},
            _condition_check(n_dpow, 1, dpow_methods, lambda n: 1),
        ),
    )
    probes = tuple(
        RouteProbe(fam, n, m)
        for fam, n, methods in ((omega, n_omega, omega_methods), (dpow, n_dpow, dpow_methods))
        for m in methods
    )
    return Workload("condition-exact", commands, probes)


def _kernel_float(rng: random.Random) -> Workload:
    omega = {"kind": "named", "name": "omega"}
    d3 = {"kind": "named", "name": "d_beta", "parameters": {"beta": 3}}
    gram_ref = _gram_check(_mp(lambda z: mpmath.zeta(z) ** 2))
    commands = (
        Command(
            "omega-series", ("eval-kernel",),
            {"family": omega, "kernel": "series",
             "s": _point(rng, 1.6), "u": _point(rng, 1.6)},
            _kernel_check(_mp(mpmath.primezeta)),
        ),
        Command("d3-gram-series", ("gram",), {"family": d3, "kernel": "series"}, gram_ref),
        Command("d3-gram-ratio", ("gram",), {"family": d3, "kernel": "ratio"}, gram_ref),
    )
    return Workload("kernel-float", commands)


def _measure_weights(rng: random.Random) -> Workload:
    gamma = {"kind": "measure", "spec": {"type": "gamma_density", "alpha": 2}}
    commands = (
        Command(
            "gamma-weight", ("eval-kernel",),
            {"family": gamma, "kernel": "weight", "tol": 1e-6,
             "s": _point(rng, 1.6), "u": _point(rng, 1.6)},
            # w_n = (log n)^2, so the kernel is zeta''(z) less its n = 1 term, 0
            _kernel_check(_mp(lambda z: mpmath.zeta(z, derivative=2))),
        ),
    )
    return Workload("measure-weights", commands)


_WORKLOADS = {
    "condition-exact": _condition_exact,
    "kernel-float": _kernel_float,
    "measure-weights": _measure_weights,
}

NAMES = tuple(_WORKLOADS)


def build(name: str, seed: int) -> Workload:
    """The workload's commands for this seed; the same seed gives the same
    commands."""
    return _WORKLOADS[name](random.Random(f"{name}:{seed}"))
