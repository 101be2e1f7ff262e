"""The benchmark's layer tracing must find every layer it measures: it
wraps dirweight's functions by name from outside, so a rename or removal
would otherwise drop a metric with only a warning."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dirweight

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json
import tracing

tracer = tracing.Tracer()
tracing.instrument(tracer)
layers = {layer for _, _, needed, _, _ in tracing.LAYER_METRICS for layer in needed}
print(json.dumps({"warnings": tracer.warnings, "unwrapped": sorted(layers - tracer.wrapped)}))
"""


def test_tracing_wraps_every_layer_the_benchmark_measures():
    # in a subprocess: instrument rebinds the package's functions in place; -B writes
    # no bytecode, so perfbench/ is only read
    src = str(Path(dirweight.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-B", "-W", "error", "-c", PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"warnings": [], "unwrapped": []}
