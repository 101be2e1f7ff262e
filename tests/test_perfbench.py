"""The benchmark's layer tracing must find every layer it measures: it
wraps dirweight's functions by name from outside, so a rename or removal
would otherwise drop a metric with only a warning.  And every public
function of the package has a use: a caller, an export or a layer."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import dirweight

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(dirweight.__file__).resolve().parent

PROBE = """
import json
import tracing

tracer = tracing.Tracer()
tracing.instrument(tracer)
layers = {layer for _, _, needed, _, _ in tracing.LAYER_METRICS for layer in needed}
print(json.dumps({"warnings": tracer.warnings, "unwrapped": sorted(layers - tracer.wrapped),
                  "layers": sorted(layers)}))
"""

#: Functions that only the benchmark's sieve layers call.  Dropping them
#: with their layer names is a change to the benchmark of its own.
BENCHMARK_ONLY = {("_accel", "spf_table"), ("_accel", "omega_table"),
                  ("_accel", "big_omega_table"), ("_accel", "divisor_count_table"),
                  ("arith", "factorizations_up_to")}


#: Runs a real small call of every function that tracing.WORK_COUNTERS names and
#: evaluates its counter on that call's arguments and result.
COUNTERS = """
import inspect
import json

import numpy as np
import tracing
from dirweight import _accel, condition, kernel, weights

calls = {}
for name in tracing.WORK_COUNTERS:
    module = {"_accel": _accel, "condition": condition, "kernel": kernel}[name.split(".")[0]]
    attr = name.split(".")[1]

    def capture(*args, fn=getattr(module, attr), name=name, **kwargs):
        result = fn(*args, **kwargs)
        calls.setdefault(name, (fn, args, kwargs, result))
        return result

    setattr(module, attr, capture)

# a streamed series table first: power_sum's first call reads a Column
kernel.gram_psd(weights.named_family("d_beta", beta=3), kernel="series", n_points=2)
condition.check_range(weights.named_family("omega"), 0.5, None, 200)  # mu, float divisor sums
for table in ("spf_table", "omega_table", "big_omega_table", "divisor_count_table"):
    getattr(_accel, table)(100)
_accel.dirichlet_convolve(np.ones(50), np.ones(50))
counts = {}
for name, counter in tracing.WORK_COUNTERS.items():
    fn, args, kwargs, result = calls[name]
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    counts[name] = type(counter(bound.arguments, result)).__name__
vals = calls["_accel.power_sum"][1][0]
print(json.dumps({"counts": counts, "streamed": isinstance(vals, _accel.Column)}))
"""


def _probe(script: str = PROBE) -> dict:
    # in a subprocess: instrument rebinds the package's functions in place; -B writes
    # no bytecode, so perfbench/ is only read
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-B", "-W", "error", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracing_wraps_every_layer_the_benchmark_measures():
    probe = _probe()
    assert (probe["warnings"], probe["unwrapped"]) == ([], [])


def test_every_work_counter_counts_a_real_call():
    # a counter that raises or returns no int drops its metric with only a warning:
    # power_sum's reads len(vals), which a streamed table keeps
    probe = _probe(COUNTERS)
    assert probe["streamed"]
    assert probe["counts"] == {name: "int" for name in probe["counts"]}


def _uses():
    """(defs, refs): the public top-level functions of each module as
    (module, name), and every (module, name) that some module's code reads
    outside that function's own body, resolved through relative imports."""
    defs, refs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        mod, tree = path.stem, ast.parse(path.read_text())
        imported = {}  # local name -> (module, name), name None for a module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[alias.asname or alias.name] = (
                        (node.module, alias.name) if node.module else (alias.name, None))
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own and not own.startswith("_"):
                defs.add((mod, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and \
                        imported.get(node.value.id, ("", ""))[1] is None:
                    ref = (imported[node.value.id][0], node.attr)
                elif isinstance(node, ast.Name):
                    ref = imported.get(node.id, (mod, node.id))
                else:
                    continue
                if ref != (mod, own):
                    refs.add(ref)
    return defs, refs


def test_every_public_function_is_called_exported_or_a_benchmark_layer():
    defs, refs = _uses()
    exported = {(obj.__module__.rpartition(".")[2], name) for name in dirweight.__all__
                if callable(obj := getattr(dirweight, name))}
    layers = {tuple(layer.split(".", 1)) for layer in _probe()["layers"]}
    unused = defs - refs - exported
    assert unused <= layers, sorted(unused - layers)
    assert unused <= BENCHMARK_ONLY <= defs & layers, sorted(unused - BENCHMARK_ONLY)


def _builds_prime_powers(node) -> bool:
    """node is the name pp or builds a PrimePowers: a call of PrimePowers or
    _accel.PrimePowers, alone or in an ``or`` such as pp or PrimePowers(n)."""
    if isinstance(node, ast.BoolOp):
        return any(map(_builds_prime_powers, node.values))
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None)) == "PrimePowers"
    return isinstance(node, ast.Name) and node.id == "pp"


def test_every_public_method_of_the_accel_classes_is_read():
    # _accel is not exported, so the guard above does not see a dead method of its
    # classes: each public method or property must be read as an attribute in src/ of a
    # PrimePowers (_builds_prime_powers) or of self inside _accel's classes, so that
    # ConditionReport.columns.values() is no read of PrimePowers.values
    classes = [c for c in ast.parse((SRC / "_accel.py").read_text()).body
               if isinstance(c, ast.ClassDef)]
    public = {(c.name, f.name) for c in classes for f in c.body
              if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    loads = lambda tree: (node for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    read = {node.attr for path in SRC.glob("*.py") for node in loads(ast.parse(path.read_text()))
            if _builds_prime_powers(node.value)}
    read |= {node.attr for c in classes for node in loads(c)
             if isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert public and sorted(m for m in public if m[1] not in read) == []
