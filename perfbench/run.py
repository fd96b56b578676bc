"""Benchmark of the tailbayes package: one workload per run.

    python3 perfbench/run.py --workload cli_10k --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the package is imported from
``./src`` and scratch files go to ``./.perfbench_work`` (removed on exit).
Each run is a fresh process, so one workload's peak RSS never leaks into
another's.  The workloads are described in ``perfbench/workloads.py``.

With ``--trace 0`` the metrics are end to end:

* ``setup_s``: import, plus the median of three input builds (simulation and
  CSV writing), plus the median of the workload's untimed warm-up ops;
* ``op_s.p50``: median wall time per op;
* ``ops_per_min``: ops completed per minute of timed wall;
* ``cpu_s_per_op``: user+sys CPU of the processes doing the work, per op;
* ``peak_rss_mb``: peak RSS of those processes;
* ``success_ratio``: ops that passed their output check / ops attempted.

With ``--trace 1`` every other op is traced and the metrics are per layer
(``perfbench/tracing.py``), plus ``trace.overhead_s``: traced minus untraced
median op time in the same run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the op-time percentiles.  BLAS threading
variables are recorded as found and never set: default BLAS threading is
behaviour of the program under test.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from resource import getrusage

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3


def environment(root: Path) -> dict:
    import numpy
    import scipy

    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        sha = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def percentiles(walls: list[float]) -> dict:
    """Median, and the highest whole percentile with at least ten samples beyond it."""
    out = {"n": len(walls), "p50": statistics.median(walls)}
    highest = math.floor(100 * (1 - 10 / len(walls)))
    if highest > 50:
        out[f"p{highest}"] = statistics.quantiles(walls, n=100)[highest - 1]
    return out


def run(args, work: Path) -> tuple[dict, dict]:
    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    tailbayes = importlib.import_module("tailbayes")
    importlib.import_module("tailbayes.cli")
    import_s = time.perf_counter() - t_import
    if not Path(tailbayes.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"tailbayes imported from {tailbayes.__file__}, not from {ROOT / 'src'}")

    from perfbench import tracing, workloads

    tracer = tracing.TRACER
    trace_dir = work / "spans"
    if args.trace:
        trace_dir.mkdir()
        os.environ[tracing.TRACE_DIR_ENV] = str(trace_dir)
        tracing.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, work)

    input_s = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        tracer.enabled = bool(args.trace)
        t0 = time.perf_counter()
        workload.make_inputs()
        input_s.append(time.perf_counter() - t0)
        tracer.enabled = False
    warm_up, warm_up_s = [], []
    for _ in range(1 if args.trace else workload.warm_ups):
        batch, wall, _ = workloads.run_op(workload, 0, traced=False)
        warm_up += batch
        warm_up_s.append(wall)
    setup_s = import_s + statistics.median(input_s) + statistics.median(warm_up_s)
    setup_end = time.perf_counter()

    records, traced_walls, untraced_walls = [], [], []
    window_s = cpu_s = 0.0
    traced_records = 0
    index = 1
    # A traced run also needs one untraced op, for the tracing overhead.
    while window_s < args.seconds or (args.trace and not untraced_walls):
        traced = bool(args.trace) and index % 2 == 1
        batch, wall, cpu = workloads.run_op(workload, index, traced)
        window_s += wall
        cpu_s += cpu
        records += batch
        (traced_walls if traced else untraced_walls).extend(r.wall_s for r in batch)
        traced_records += len(batch) if traced else 0
        index += 1

    for r in warm_up + records:
        if not r.ok:
            print(f"{args.workload}: failed op: {r.note}", file=sys.stderr)
    walls = [r.wall_s for r in records]
    failed = sum(not r.ok for r in records)
    correct = all(r.ok for r in warm_up) and failed == 0
    if args.trace:
        spans = tracing.read_spans(trace_dir)
        metrics = tracing.layer_metrics(spans, setup_end, traced_records)
        reps = traced_records if workload.records_are_reps else 0
        rep_spans = sum(s["name"] == "reproduce.rep" for s in spans)
        if rep_spans != reps:
            print(f"{rep_spans} repetition spans for {reps} repetition rows", file=sys.stderr)
            correct = False
        metrics["reproduce.reps"] = (reps, "count")
        overhead = (
            statistics.median(traced_walls) - statistics.median(untraced_walls)
            if traced_walls and untraced_walls
            else 0.0
        )
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        peak_kib = max(getrusage(who).ru_maxrss for who in workload.rusage)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s.p50": (statistics.median(walls), "s"),
            "ops_per_min": (60.0 * len(records) / window_s, "1/min"),
            "cpu_s_per_op": (cpu_s / len(records), "s"),
            "peak_rss_mb": (peak_kib * 1024 / tracing.BYTES_PER_MB, "MB"),
            "success_ratio": ((len(records) - failed) / len(records), "ratio"),
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(ROOT),
        "op_s": percentiles(walls),
        "window_s": window_s,
        "setup": {"import_s": import_s, "input_s": input_s, "warm_up_s": warm_up_s},
    }
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cli_10k", "reproduce_pool"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tailbayes" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'tailbayes'} not found; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[0] = str(ROOT)  # import perfbench as a package
    # On SIGTERM, unwind: subprocess.run kills its child and the work dir is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    try:
        info, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
