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


def _probe() -> dict:
    # in a subprocess: instrument rebinds the package's functions in place; -B writes
    # no bytecode, so perfbench/ is only read
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-B", "-W", "error", "-c", PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracing_wraps_every_layer_the_benchmark_measures():
    probe = _probe()
    assert (probe["warnings"], probe["unwrapped"]) == ([], [])


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
