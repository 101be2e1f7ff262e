"""Run a workload's CLI commands inside this one process.

    python3 perfbench/inprocess.py WORKLOAD SEED WORKDIR MODE RESULT [SPANS]

MODE is ``traced`` (layers wrapped by ``tracing.instrument``, spans written
to SPANS, per-route probes run after the commands) or ``plain`` (the same
commands with nothing wrapped, for the tracing overhead).  ``run.py``
starts this with PYTHONPATH pointing at the checkout's ``src``; the
commands read and write only inside WORKDIR.  RESULT receives each
command's exit code and report hashes, the commands' wall time and, when
traced, the per-layer metrics and any layer warnings.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from pathlib import Path

import tracing
import workloads


def main(argv: list[str]) -> int:
    name, seed, workdir, mode, result_path, *spans_path = argv
    workload = workloads.build(name, int(seed))
    workdir = Path(workdir)
    os.chdir(workdir)
    tracer = tracing.Tracer()
    if mode == "traced":
        tracing.instrument(tracer)
    from dirweight import cli, condition, weights

    commands, wall, report_bytes = [], 0.0, 0
    for cmd in workload.commands:
        tracer.begin_invocation("cli")
        error = None
        t0 = tracing.clock()
        try:
            code = cli.main(cmd.full_argv)
        except Exception:  # a crash is a failed command, reported with its traceback
            code, error = None, traceback.format_exc(limit=3)
        wall += tracing.clock() - t0
        report_bytes += sum(p.stat().st_size for p in cmd.outputs(workdir))
        commands.append({"label": cmd.label, "exit": code, "error": error,
                         "hashes": cmd.hashes(workdir)})

    probes = []
    if mode == "traced":
        for probe in workload.probes:
            tracer.begin_invocation("probe")
            tracer.open(tracing.ROUTE_SPAN.format(probe.method))
            try:
                fam = weights.family_from_config(probe.family)
                report = condition.check_range(fam, None, None, probe.n_max,
                                               methods=(probe.method,))
                error = None if report.verdict == condition.NONNEG_EXACT else report.verdict
            except Exception:  # reported as a failed probe, the run goes on
                error = traceback.format_exc(limit=3)
            finally:
                tracer.close()
            probes.append({"method": probe.method, "error": error})

    result = {"wall_s": wall, "commands": commands, "probes": probes}
    if mode == "traced":
        metrics = tracing.layer_metrics(tracer)
        metrics["cli.report_bytes"] = {"value": report_bytes, "unit": "B"}
        result["metrics"] = metrics
        result["warnings"] = tracer.warnings
        if spans_path:
            from run import environment

            tracer.write(spans_path[0], {"workload": name, "environment": environment(int(seed))})
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
