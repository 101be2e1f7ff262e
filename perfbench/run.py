"""dirweight benchmark: the CLI as a user runs it, one command at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dirweight checkout; the package is imported from
its ``src``.  Workloads and their oracles are in ``workloads.py``.

``--trace 0`` launches each command of the workload as its own process,
one at a time and each pinned to the next CPU in turn (see ``CPUS``),
and repeats the whole list as often as fits in S seconds (at least
twice, so every report is also checked byte for byte against a rerun of
the same seed).  It reports, as medians over the passes:

* ``wall_s``: wall seconds to run the command list, reports included;
* ``peak_rss_mb``: the largest peak RSS of any command, from ``wait4``;
* ``report_mb``: bytes of JSON and CSV the list wrote, in 10^6 bytes;

and ``setup_s``, the median over every launch of the time from process
launch to the end of ``import dirweight.cli``.  A failed command (exit
code, verdict, oracle or rerun byte identity) counts in ``failed``; the
error rate is ``failed / attempted`` and is printed with the metrics.

``--trace 1`` runs the command list twice, inside one process each time:
once with every layer wrapped by ``tracing.py`` and once plain.  The
per-layer metrics come from the spans of the first, and
``trace.overhead_s`` is the difference of the two wall times.  Spans are
kept in ``.perfbench-out/spans-WORKLOAD-seedN.jsonl``.

Reports go to a private directory under ``.perfbench-out`` that is
removed at the end.  The last line of standard output is the result as
one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 165.0

# The CPUs of a shared VM run at speeds that differ by up to half and swap
# over seconds to minutes, as other tenants move between host cores.  Each
# launch is pinned to the next CPU in turn, so every pass of a multi-command
# workload, and every pair of passes of a one-command workload, samples
# each CPU.  On a 2-vCPU VM this cut the spread of one command's wall time
# from 14% to 8% (standard deviation over twelve runs), mean unchanged.
CPUS = sorted(os.sched_getaffinity(0))

MIN_PASSES = 2
SETUP_LAUNCHES = 8

# Launched once per command: stamps the monotonic clock (shared by all
# processes) once dirweight.cli is imported, then runs the CLI as the
# console script would.
LAUNCHER = """\
import sys, time
import dirweight.cli as cli
t = time.clock_gettime(time.CLOCK_MONOTONIC)
with open(sys.argv[1], "w") as fh:
    fh.write(f"{t!r}\\n{cli.__file__}\\n")
sys.exit(cli.main(sys.argv[2:]))
"""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(seed: int) -> dict:
    """Lane, versions, core count, commit and seed of this run."""
    try:
        import numba  # noqa: F401

        lane = "numba"
    except ImportError:
        lane = "numpy"
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "lane": lane,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def wait_for(proc: subprocess.Popen, limit: float):
    """Wait for proc, killing it after limit seconds; returns (exit code or
    None if killed, resource usage)."""
    timer = threading.Timer(max(limit, 1.0), proc.kill)
    timer.start()
    try:
        # returns once the child has exited but leaves it unreaped, so the
        # timer cannot signal a recycled pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    finally:
        timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return (None if code < 0 else code), usage


def launch(argv: list[str], workdir: Path, deadline: float, cpu: int) -> dict:
    """One CLI process on one CPU: wall seconds, peak RSS in MB, setup
    seconds, exit code."""
    stamp = workdir / ".setup-stamp"
    stamp.unlink(missing_ok=True)
    with open(workdir / "cli.log", "ab") as log:
        os.sched_setaffinity(0, {cpu})  # inherited by the child
        try:
            t0 = now()
            proc = subprocess.Popen(
                [sys.executable, "-c", LAUNCHER, str(stamp), *argv],
                cwd=workdir, env=child_env(), stdout=log, stderr=log,
            )
        finally:
            os.sched_setaffinity(0, CPUS)
        code, usage = wait_for(proc, deadline - now())
        wall = now() - t0
    setup = None
    if stamp.exists():
        t_import, module = stamp.read_text().splitlines()
        setup = float(t_import) - t0
        if not Path(module).resolve().is_relative_to(SRC):
            raise SystemExit(f"perfbench: dirweight was imported from {module}, not {SRC}")
    return {"exit": code, "wall": wall, "rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "setup": setup}


def check_outputs(cmd: workloads.Command, workdir: Path) -> list[str]:
    try:
        return cmd.check(workdir / cmd.label)
    except Exception as e:  # a malformed report fails its command, not the run
        return [f"oracle raised {type(e).__name__}: {e}"]


def timed_run(workload: workloads.Workload, workdir: Path, seconds: float) -> dict:
    deadline = now() + RUN_LIMIT_S
    cpus = itertools.cycle(CPUS)
    setups = [launch(["--help"], workdir, deadline, next(cpus))["setup"]
              for _ in range(SETUP_LAUNCHES)]
    passes, reference, problems = [], {}, []
    attempted = failed = 0
    stop = now() + seconds
    # start a pass only if one more pass of the last length ends by the stop time
    while len(passes) < MIN_PASSES or now() + passes[-1][3] <= stop:
        t_pass = now()
        wall = rss = size = 0.0
        for cmd in workload.commands:
            for stale in cmd.outputs(workdir):
                stale.unlink()
            r = launch(cmd.full_argv, workdir, deadline, next(cpus))
            attempted += 1
            wall += r["wall"]
            rss = max(rss, r["rss_mb"])
            setups.append(r["setup"])
            size += sum(p.stat().st_size for p in cmd.outputs(workdir))
            errs = [] if r["exit"] == workloads.EXIT_OK else [f"exit code {r['exit']}"]
            hashes = cmd.hashes(workdir)
            if not passes:  # later passes must match these bytes exactly
                errs += check_outputs(cmd, workdir)
                reference[cmd.label] = hashes
            elif hashes != reference[cmd.label]:
                errs.append("reports differ from the first pass of this seed")
            if errs:
                failed += 1
                problems.append(f"{cmd.label} (pass {len(passes) + 1}): {'; '.join(errs)}")
        passes.append((wall, rss, size, now() - t_pass))
        if now() > deadline:
            problems.append("run limit reached")
            break
    if None in setups:
        problems.append("a launch ended before importing dirweight.cli")
        setups = [s for s in setups if s is not None] or [float("nan")]
    metrics = {
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p[1] for p in passes), "MB"),
        "report_mb": (statistics.median(p[2] for p in passes) / 1e6, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "pass_walls": [p[0] for p in passes], "launches": len(setups),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def in_process(workload: workloads.Workload, seed: int, workdir: Path, mode: str,
               spans: Path | None, deadline: float) -> dict:
    result_path = workdir / f"{mode}.result.json"
    argv = [sys.executable, str(HERE / "inprocess.py"), workload.name, str(seed),
            str(workdir), mode, str(result_path)]
    if spans is not None:
        argv.append(str(spans))
    with open(workdir / f"{mode}.log", "ab") as log:
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=log, stderr=log)
        code, _ = wait_for(proc, deadline - now())
    if code != 0 or not result_path.exists():
        tail = (workdir / f"{mode}.log").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{mode} in-process run exited with {code}:\n{tail}")
    return json.loads(result_path.read_text())


def traced_run(workload: workloads.Workload, seed: int, workdir: Path) -> dict:
    deadline = now() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    attempted = failed = 0
    problems = []
    traced = in_process(workload, seed, workdir, "traced", spans, deadline)
    for cmd, r in zip(workload.commands, traced["commands"]):
        errs = [] if r["exit"] == workloads.EXIT_OK else [f"exit code {r['exit']} {r['error'] or ''}"]
        errs += check_outputs(cmd, workdir)
        attempted += 1
        if errs:
            failed += 1
            problems.append(f"{cmd.label} (traced): {'; '.join(errs)}")
    for p in traced["probes"]:
        attempted += 1
        if p["error"]:
            failed += 1
            problems.append(f"route probe {p['method']}: {p['error']}")
    plain = in_process(workload, seed, workdir, "plain", None, deadline)
    for r, ref in zip(plain["commands"], traced["commands"]):
        attempted += 1
        if r["exit"] != workloads.EXIT_OK or r["hashes"] != ref["hashes"]:
            failed += 1
            problems.append(f"{r['label']} (plain): exit {r['exit']}, or reports "
                            "differ from the traced run")
    for warning in traced["warnings"]:
        print(f"perfbench: warning: {warning}", file=sys.stderr)
    metrics = traced["metrics"]
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    print(f"spans: {spans.relative_to(ROOT)}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dirweight" / "cli.py").is_file():
        print(f"perfbench: no dirweight sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reports-", dir=OUT))
    try:
        workload = workloads.build(args.workload, args.seed)
        workload.write_configs(workdir)
        if args.trace:
            result = traced_run(workload, args.seed, workdir)
        else:
            result = timed_run(workload, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    if not args.trace:
        walls = ", ".join(f"{w:.3f}" for w in result["pass_walls"])
        print(f"workload {workload.name}: {len(result['pass_walls'])} passes "
              f"(wall s: {walls}), {result['launches']} launches")
    print(f"error_rate {result['failed'] / max(result['attempted'], 1):.4g} "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
