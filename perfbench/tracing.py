"""Spans around dirweight's layers, installed from outside the package.

``instrument`` wraps the public functions of each layer module, plus the
few private helpers and methods the layer metrics name, and rebinds every
reference the package's modules hold to them.  Each call records a span
(name, start, end, parent span, invocation id) in memory.  Once a function
has produced ``ROLLUP_AFTER`` spans, its further calls under one parent
are folded into a single span that counts calls and sums busy time, so
per-n helpers cost a counter each instead of a list entry.

A layer that a refactor removed or renamed is skipped with a warning,
and the metrics that need it are dropped; the run itself goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

clock = time.perf_counter

LAYER_MODULES = ("_accel", "arith", "weights", "series", "condition", "kernel", "cli")

ROLLUP_AFTER = 1000

# span fields
NAME, PARENT, INVOCATION, START, END, CALLS, BUSY, WORK = range(8)

# Bytes a Dirichlet-convolution pair touches in the model behind the
# bytes_computed metrics: one float64 operand load plus a float64 load and
# store of the accumulator.  Computed from pair counts, not measured.
BYTES_PER_PAIR = 24


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.invocations: list[str] = []  # kind of each invocation id
        self.wrapped: set[str] = set()
        self.broken: set[str] = set()  # layers whose work count failed
        self.warnings: list[str] = []
        self._stack = [-1]
        self._starts: list[float] = []
        self._rollups: dict[tuple, int] = {}
        self._count: dict[str, int] = defaultdict(int)
        self._hot: set[str] = set()

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def begin_invocation(self, kind: str) -> None:
        self.invocations.append(kind)

    def open(self, name: str) -> int:
        now = clock()
        parent = self._stack[-1]
        invocation = len(self.invocations) - 1
        if name in self._hot:
            key = (invocation, parent, name)
            sid = self._rollups.get(key)
            if sid is None:
                sid = self._rollups[key] = self._new(name, parent, invocation, now)
        else:
            sid = self._new(name, parent, invocation, now)
            self._count[name] += 1
            if self._count[name] >= ROLLUP_AFTER:
                self._hot.add(name)
        self._stack.append(sid)
        self._starts.append(now)
        return sid

    def enter(self, sid: int) -> None:
        """Resume an existing span (a generator's next call)."""
        self._stack.append(sid)
        self._starts.append(clock())

    def close(self) -> None:
        now = clock()
        span = self.spans[self._stack.pop()]
        span[CALLS] += 1
        span[BUSY] += now - self._starts.pop()
        span[END] = now

    def _new(self, name, parent, invocation, now) -> int:
        self.spans.append([name, parent, invocation, now, now, 0, 0.0, 0])
        return len(self.spans) - 1

    def count_work(self, sid: int, name: str, compute) -> None:
        try:
            self.spans[sid][WORK] += int(compute())
        except Exception as e:  # a refactored signature or result: drop, never crash
            if name not in self.broken:
                self.broken.add(name)
                self.warn(f"cannot count work of {name} ({type(e).__name__}: {e}); "
                     "its work metrics are dropped")

    def write(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": s[PARENT], "invocation": s[INVOCATION],
                    "kind": self.invocations[s[INVOCATION]] if s[INVOCATION] >= 0 else None,
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "calls": s[CALLS], "busy_s": s[BUSY], "work": s[WORK],
                }) + "\n")


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------


def _pairs(n: int, k: int = 1) -> int:
    """Sum over k <= j <= n of floor(n / j): the (j, q) pairs with jq <= n."""
    if n < 1:
        return 0
    r = math.isqrt(n)
    total = 2 * sum(n // j for j in range(1, r + 1)) - r * r
    return total - sum(n // j for j in range(1, min(k, n + 1)))


def _sieve_size(a, _):
    return a["n"]


# Work counted per call, from the bound arguments and the result.
WORK_COUNTERS = {
    "_accel.divisor_sum_table": lambda a, _: _pairs(
        min(len(a["vals"]), len(a["mu"])) - 1, max(int(a["k"]), 1)),
    "_accel.dirichlet_convolve": lambda a, _: _pairs(min(len(a["a"]), len(a["b"])) - 1),
    "_accel.power_sum": lambda a, _: max(0, len(a["vals"]) - max(int(a["start"]), 1)),
    "_accel.mobius_table": _sieve_size,
    "_accel.spf_table": _sieve_size,
    "_accel.omega_table": _sieve_size,
    "_accel.big_omega_table": _sieve_size,
    "_accel.divisor_count_table": _sieve_size,
    "kernel.gram_psd": lambda _, r: len(r.points) * (len(r.points) + 1) // 2,
    "condition.check_range": lambda _, r: len(r.records),
}

SIEVES = ("mobius_table", "spf_table", "omega_table", "big_omega_table",
          "divisor_count_table")


def _wrap(tracer: Tracer, name: str, fn):
    work = WORK_COUNTERS.get(name)
    sig = inspect.signature(fn) if work else None

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return work(bound.arguments, result)

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            sid = tracer.open(name)
            try:
                gen = fn(*args, **kwargs)
            finally:
                tracer.close()
            return _iterate(tracer, sid, gen)

        tracer.wrapped.add(name)
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if work is not None:
            tracer.count_work(sid, name, lambda: count(args, kwargs, result))
        return result

    tracer.wrapped.add(name)
    return traced


def _iterate(tracer: Tracer, sid: int, gen):
    """Time each next() of a generator into its span; work counts items."""
    span = tracer.spans[sid]
    while True:
        tracer.enter(sid)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            tracer.close()
        span[WORK] += 1
        yield item


class _Proxy:
    """Stands in for a library module inside one layer module, replacing a
    few attributes and passing every other lookup through."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def instrument(tracer: Tracer) -> None:
    """Wrap dirweight's layers in place.  Call before running commands."""
    modules = {}
    for short in LAYER_MODULES:
        try:
            modules[short] = importlib.import_module(f"dirweight.{short}")
        except ImportError as e:
            tracer.warn(f"layer module dirweight.{short} is missing ({e}); its metrics are dropped")

    replaced = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                replaced[obj] = _wrap(tracer, f"{short}.{attr}", obj)

    # private helpers and methods that the layer metrics name
    for name, short, path in (
        ("cli.emit", "cli", "_emit"),
        ("cli.load_config", "cli", "_load_config"),
        ("weights.value", "weights", "WeightFamily.value"),
        ("weights.values_table", "weights", "WeightFamily.values_table"),
    ):
        owner = modules.get(short)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if not inspect.isfunction(fn):
            tracer.warn(f"layer {name} ({short}.{path}) is missing; its metrics are dropped")
            continue
        wrapper = _wrap(tracer, name, fn)
        if outer:
            setattr(owner, attr, wrapper)
        else:
            replaced[fn] = wrapper

    for mod in [m for n, m in sys.modules.items()
                if m is not None and (n == "dirweight" or n.startswith("dirweight."))]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])

    # library calls made from inside a layer
    cli, kernel = modules.get("cli"), modules.get("kernel")
    if cli is not None and hasattr(getattr(cli, "json", None), "dumps"):
        cli.json = _Proxy(cli.json, dumps=_wrap(tracer, "cli.json_dumps", cli.json.dumps))
    else:
        tracer.warn("cli.json.dumps is missing; cli.json_dumps.s is dropped")
    linalg = getattr(getattr(kernel, "np", None), "linalg", None)
    if linalg is not None and hasattr(linalg, "eigvalsh"):
        kernel.np = _Proxy(kernel.np, linalg=_Proxy(
            linalg, eigvalsh=_wrap(tracer, "kernel.eigvalsh", linalg.eigvalsh)))
    else:
        tracer.warn("kernel.np.linalg.eigvalsh is missing; kernel.eigvalsh.s is dropped")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


class SpanIndex:
    """Spans of one invocation kind, grouped by name, with child lists."""

    def __init__(self, tracer: Tracer, kind: str):
        self.spans = tracer.spans
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for sid, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                self.children[s[PARENT]].append(sid)
            if s[INVOCATION] >= 0 and tracer.invocations[s[INVOCATION]] == kind:
                self.by_name[s[NAME]].append(sid)

    def total(self, name: str, field: int):
        return sum(self.spans[sid][field] for sid in self.by_name[name])

    def self_s(self, name: str) -> float:
        return sum(
            self.spans[sid][BUSY] - sum(self.spans[c][BUSY] for c in self.children[sid])
            for sid in self.by_name[name]
        )

    def work_below(self, ancestor: str, name: str) -> int:
        total = 0
        todo = list(self.by_name[ancestor])
        while todo:
            sid = todo.pop()
            for c in self.children[sid]:
                if self.spans[c][NAME] == name:
                    total += self.spans[c][WORK]
                todo.append(c)
        return total


def _stat(layer: str, how: str):
    field = {"s": BUSY, "calls": CALLS, "work": WORK}
    if how == "self_s":
        return lambda ix: ix.self_s(layer)
    if how == "bytes":
        return lambda ix: BYTES_PER_PAIR * ix.total(layer, WORK)
    return lambda ix: ix.total(layer, field[how])


def _metric(metric, unit, layer, how):
    """A metric read off one layer's spans: busy s, self_s, calls or work."""
    uses_work = how in ("work", "bytes")
    return metric, unit, (layer,), uses_work, _stat(layer, how)


_SIEVE_LAYERS = tuple(f"_accel.{s}" for s in SIEVES)

# (metric, unit, layers needed, needs work counts, value from a SpanIndex)
LAYER_METRICS = [
    _metric("accel.divisor_sum_table.s", "s", "_accel.divisor_sum_table", "s"),
    _metric("accel.divisor_sum_table.pairs", "count", "_accel.divisor_sum_table", "work"),
    _metric("accel.divisor_sum_table.bytes_computed", "B", "_accel.divisor_sum_table", "bytes"),
    _metric("accel.dirichlet_convolve.s", "s", "_accel.dirichlet_convolve", "s"),
    _metric("accel.dirichlet_convolve.pairs", "count", "_accel.dirichlet_convolve", "work"),
    _metric("accel.dirichlet_convolve.bytes_computed", "B", "_accel.dirichlet_convolve", "bytes"),
    _metric("accel.power_sum.s", "s", "_accel.power_sum", "s"),
    _metric("accel.power_sum.calls", "count", "_accel.power_sum", "calls"),
    _metric("accel.power_sum.terms", "count", "_accel.power_sum", "work"),
    _metric("kernel.gram.entries", "count", "kernel.gram_psd", "work"),
    ("kernel.gram.terms", "count", ("kernel.gram_psd", "_accel.power_sum"), True,
     lambda ix: ix.work_below("kernel.gram_psd", "_accel.power_sum")),
    _metric("kernel.gram_psd.self_s", "s", "kernel.gram_psd", "self_s"),
    _metric("kernel.condition_kernel_series.self_s", "s", "kernel.condition_kernel_series", "self_s"),
    _metric("kernel.weight_kernel.self_s", "s", "kernel.weight_kernel", "self_s"),
    _metric("kernel.default_grid.s", "s", "kernel.default_grid", "s"),
    _metric("kernel.eigvalsh.s", "s", "kernel.eigvalsh", "s"),
    _metric("accel.mobius_table.s", "s", "_accel.mobius_table", "s"),
    _metric("accel.spf_table.s", "s", "_accel.spf_table", "s"),
    _metric("accel.omega_table.s", "s", "_accel.omega_table", "s"),
    _metric("accel.big_omega_table.s", "s", "_accel.big_omega_table", "s"),
    _metric("accel.divisor_count_table.s", "s", "_accel.divisor_count_table", "s"),
    ("accel.sieve_entries", "count", _SIEVE_LAYERS, True,
     lambda ix: sum(ix.total(layer, WORK) for layer in _SIEVE_LAYERS)),
    _metric("arith.mobius_sieve.s", "s", "arith.mobius_sieve", "s"),
    _metric("condition.check_range.self_s", "s", "condition.check_range", "self_s"),
    _metric("condition.records", "count", "condition.check_range", "work"),
    _metric("arith.factorizations_up_to.s", "s", "arith.factorizations_up_to", "s"),
    _metric("arith.factorizations_up_to.items", "count", "arith.factorizations_up_to", "work"),
    _metric("weights.value.calls", "count", "weights.value", "calls"),
    _metric("weights.value.s", "s", "weights.value", "s"),
    _metric("cli.emit.s", "s", "cli.emit", "s"),
    _metric("cli.json_dumps.s", "s", "cli.json_dumps", "s"),
    _metric("cli.load_config.s", "s", "cli.load_config", "s"),
    _metric("weights.measure_induced.calls", "count", "weights.measure_induced", "calls"),
    _metric("weights.measure_induced.s", "s", "weights.measure_induced", "s"),
    _metric("weights.values_table.calls", "count", "weights.values_table", "calls"),
    _metric("weights.values_table.self_s", "s", "weights.values_table", "self_s"),
    ("series.tail_calls", "count", ("series.power_tail_bound", "series.terms_for_tail"), False,
     lambda ix: ix.total("series.power_tail_bound", CALLS)
     + ix.total("series.terms_for_tail", CALLS)),
]

ROUTE_METHODS = ("divisor_sum", "mult_product", "additive_Tt")
ROUTE_SPAN = "bench.route.{}"

LAYER_METRICS += [
    (f"condition.route.{m}.s", "s", ("condition.check_range",), False,
     lambda ix, m=m: ix.total(ROUTE_SPAN.format(m), BUSY))
    for m in ROUTE_METHODS
]


def layer_metrics(tracer: Tracer) -> dict:
    """Every layer metric whose layers were wrapped, from the spans of the
    CLI invocations (the route metrics: from the probe invocations)."""
    cli_ix = SpanIndex(tracer, "cli")
    probe_ix = SpanIndex(tracer, "probe")
    out = {}
    for metric, unit, layers, uses_work, value in LAYER_METRICS:
        missing = [layer for layer in layers if layer not in tracer.wrapped]
        broken = [layer for layer in layers if uses_work and layer in tracer.broken]
        if missing or broken:
            tracer.warn(f"metric {metric} dropped: layer {(missing or broken)[0]} "
                 f"{'is missing' if missing else 'has no work count'}")
            continue
        ix = probe_ix if metric.startswith("condition.route.") else cli_ix
        out[metric] = {"value": value(ix), "unit": unit}
    return out
