"""The congruent benchmark: one command, three workloads, one process.

Run from the repository root:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 30 --trace 0

Workloads (see ops.py for the op pools):
  gate     one op is one ``verify.run_all()`` at its defaults (13 suites,
           307 checks); the repository gate, dominated by polyrat/trinity.
  cli      a fixed mix of ``cli.main([..., "--json"])`` calls: the README
           examples plus seeded variants of every command except trinity
           and verify-all.
  growth   the same commands on inputs whose sizes roughly double per step,
           up to but not past the inputs the program cannot serve yet.
  defects  the known-defect inputs (ops.DEFECTS); every op fails today.
           It shows the failure accounting and is not part of BENCHMARK.json.

Ops run in this process with one closed-loop caller.  The op list is
repeated until the next pass would end past ``--seconds`` (the first pass
always runs).  With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics, scaled to a reference machine speed by the
calibration kernel of calibrate.py (the report prints the raw times too);
with ``--trace 1`` half the time runs untraced and half traced, and the
JSON object holds the per-layer metrics.  Spans of a traced run are
written to ``.perfbench/``.

``--context`` prints the context block instead (Python, nproc, commit,
line counts and the Tier-1 pytest wall time) and runs no workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import harness
import ops
from tracer import Tracer

# Fresh imports timed per run: half before the passes and half after them,
# so that the median spans the run rather than one moment of it.
SETUP_RUNS = 24
# Everything, set-up included, ends within this many seconds.
HARD_CAP_S = 150.0
TRACE_DIR = ".perfbench"


def time_setup(src, runs):
    """(wall s, import s, kernel s) of ``runs`` fresh interpreters importing congruent.cli.

    Each child times its own import and then the calibration kernel, so the
    import can be scaled by the speed of the same process a moment later.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-c", calibrate.SETUP_CHILD, str(Path(__file__).resolve().parent)]
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, check=True, timeout=60, capture_output=True, text=True)
        wall = time.perf_counter() - start
        import_s, kernel_s = map(float, proc.stdout.split())
        times.append((wall, import_s, kernel_s))
    return times


def scale_outcomes(meter, outcomes, ops_per_pass):
    """Outcomes with call times at reference speed, and the pass times they sum to."""
    scaled = [dataclasses.replace(o, seconds=meter.scaled(o.start, o.start + o.seconds)) for o in outcomes]
    passes = [
        sum(o.seconds for o in scaled[i : i + ops_per_pass]) for i in range(0, len(scaled), ops_per_pass)
    ]
    return passes, scaled


def end_to_end(setup_times, pass_times, outcomes, deadline):
    """The gated metrics; every time passed in is already at reference speed."""
    latencies = harness.op_latencies(outcomes, deadline)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(pass_times), "s"),
        "op_p50_ms": (harness.percentile(latencies, 0.5) * 1000, "ms"),
        "op_p90_ms": (harness.percentile(latencies, 0.9) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def context(root, with_pytest):
    src, tests = root / "src", root / "tests"

    def lines(path):
        return sum(len(p.read_text().splitlines()) for p in sorted(path.rglob("*.py")))

    sha = hashlib.sha256()
    for p in sorted(src.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            sha.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        ).stdout.strip()
    out = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": sha.hexdigest()[:16],
        "src_lines": lines(src),
        "tests_lines": lines(tests) if tests.is_dir() else 0,
    }
    if with_pytest:
        env = dict(os.environ, PYTHONPATH=str(src))
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=900)
        out["tier1_pytest_s"] = round(time.perf_counter() - start, 2)
        out["tier1_pytest_summary"] = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    return out


def report(workload, seed, trace, metrics, passes, outcomes, raw=None):
    failed = [o for o in outcomes if not o.ok]
    print(f"workload {workload} seed {seed} trace {trace}: {len(passes)} passes, {len(outcomes)} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for name, (value, unit) in (raw or {}).items():
        print(f"  {name:<40} {value:>14.6g} {unit} (raw, not scaled to reference speed)")
    print(f"  {'fail_share':<40} {len(failed) / len(outcomes):>14.6g} share ({len(failed)}/{len(outcomes)})")
    print(f"  samples: run_s over {len(passes)} passes, op percentiles over {len(outcomes)} ops")
    for o in outcomes:
        if o.key == ops.GATE_KEY:
            print(f"  gate: {o.checks - o.checks_failed}/{o.checks} named checks pass")
    seen = set()
    for o in failed:
        if o.key not in seen:
            seen.add(o.key)
            print(f"  failed: {o.key}: {o.failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("gate", "cli", "growth", "defects"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--context", action="store_true", help="print the context block and exit")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "congruent" / "cli.py").is_file():
        print(f"error: {src} holds no congruent package; run from the repository root", file=sys.stderr)
        return 2
    if args.context:
        print(json.dumps(context(root, with_pytest=True)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    hard_end = started + HARD_CAP_S
    deadline = harness.DEADLINE_S[args.workload]
    op_list = ops.op_list(args.workload, args.seed, ops.load_pool())
    program = harness.load_program(src)
    print("context: " + json.dumps(context(root, with_pytest=False)))

    if args.trace == 0:
        time_setup(src, 1)  # may compile bytecode; not timed
        setup = time_setup(src, SETUP_RUNS // 2)
        with calibrate.SpeedMeter() as meter:
            raw_passes, outcomes = harness.run_passes(program, op_list, args.seconds, deadline, hard_end)
        setup += time_setup(src, SETUP_RUNS - SETUP_RUNS // 2)
        passes, scaled = scale_outcomes(meter, outcomes, len(op_list))
        setup_times = [calibrate.scaled(import_s, kernel_s) for _, import_s, kernel_s in setup]
        metrics = end_to_end(setup_times, passes, scaled, deadline)
        raw = {
            "setup_wall_s": (statistics.median(wall for wall, _, _ in setup), "s"),
            "run_s": (statistics.median(raw_passes), "s"),
            "kernel_ms": (meter.median_kernel() * 1000, "ms"),
            "kernel_samples": (len(meter.seconds), "count"),
        }
    else:
        half = args.seconds / 2
        base, base_outcomes = harness.run_passes(program, op_list, half, deadline, hard_end)
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in sorted(sys.modules.items())
            if name.startswith("congruent.")
        }
        suite_functions = {name: fn.__name__ for name, fn in program.verify.SUITES}
        tracer = Tracer()
        tracer.install(modules)
        try:
            passes, outcomes = harness.run_passes(
                program, op_list, half, deadline, hard_end, on_op=tracer.set_op
            )
        finally:
            tracer.uninstall()
        overhead = statistics.median(passes) / statistics.median(base) - 1
        metrics = tracer.layer_metrics(len(passes), outcomes, suite_functions, overhead)
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(Path(TRACE_DIR) / f"spans-{args.workload}-{args.seed}.csv.gz")
        outcomes = base_outcomes + outcomes
        raw = None

    report(args.workload, args.seed, args.trace, metrics, passes, outcomes, raw)
    failed = sum(not o.ok for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
