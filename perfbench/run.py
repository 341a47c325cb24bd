"""soficlen pipeline benchmark.

    python3 perfbench/run.py --workload f2-vrk --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process, single-threaded, on the
soficlen sources in ``src/`` next to this directory.  Set-up (import of
soficlen, input generation, ``make_sigma``, job-file writing) is repeated
SETUP_REPS times and its median reported.  A run repeats the workload pass,
on fresh copies of the same inputs, while the next pass is expected to end
within ``--seconds`` (at least once), times a yardstick before each pass and
reports the median of pass / yardstick.  A traced run alternates untraced and
traced passes and reports the per-layer split of its median traced pass.
Every exact value is checked against a reference computed by an independent
route; a wrong value counts as a failed point.

The last line of standard output is the JSON result; the lines before it give
every metric with its unit, the environment stamp and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
YARDSTICK_SIZE = 50_000
YARDSTICK_REPS = 4

END_TO_END_UNITS = {"solve_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_program() -> float:
    """Import soficlen from this checkout's ``src/`` SETUP_REPS times, each
    time from scratch (numpy and the standard library stay loaded after the
    first); returns the median seconds."""
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m.partition(".")[0] == "soficlen"]:
            del sys.modules[name]
        start = perf_counter()
        soficlen = importlib.import_module("soficlen")
        times.append(perf_counter() - start)
    if Path(soficlen.__file__).resolve().parent != SRC / "soficlen":
        raise ImportError(f"soficlen resolved to {soficlen.__file__}, not {SRC}")
    return statistics.median(times)


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    """What a result depends on besides the benchmark and the seed."""
    import numpy
    from soficlen import _kernels
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "jit_enabled": bool(getattr(_kernels, "JIT_ENABLED", False)),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(wl, seed: int, seconds: float, traced: bool, work: Path, import_s: float):
    """Measure one workload; returns (points, metrics, tracer or None)."""
    import numpy as np

    import reference
    import tracing

    # The yardstick is a fixed pure-Python task (union-find over two fixed
    # permutations) that shares no code with soficlen.  It runs right before
    # every untraced pass: on a shared host the same computation runs up to
    # 1.8x slower for stretches of tens of seconds, and any pure-Python code
    # slows alike, so pass / yardstick is steady where the pass alone is not.
    rng = np.random.default_rng(0)
    yard_perms = [rng.permutation(YARDSTICK_SIZE), rng.permutation(YARDSTICK_SIZE)]

    def yardstick():
        start = perf_counter()
        for _ in range(YARDSTICK_REPS):
            reference.orbit_count(yard_perms)
        return perf_counter() - start

    inputs, setup_times = [], []
    for rep in range(SETUP_REPS):
        start = perf_counter()
        inputs.append(wl.setup(seed, work / f"setup{rep}"))
        setup_times.append(perf_counter() - start)
    ref = wl.reference(seed, inputs[0])

    def one_pass(i, tracer=None):
        fresh = inputs[i] if i < len(inputs) else wl.setup(seed, work / f"setup{i}")
        out = work / f"out{i}"
        start = perf_counter()
        if tracer is None:
            points = wl.solve(seed, fresh, ref, out)
        else:
            with tracer.install():
                points = wl.solve(seed, fresh, ref, out)
        return perf_counter() - start, points

    # rounds of one untraced pass, plus one traced pass in a traced run,
    # while the next round is expected to end within the budget
    untraced, yards, traced_runs, points = [], [], [], []
    begin = perf_counter()
    last_round = 0.0
    while not untraced or perf_counter() - begin + last_round <= seconds:
        round_start = perf_counter()
        yards.append(yardstick())
        elapsed, more = one_pass(len(untraced) + len(traced_runs))
        untraced.append(elapsed)
        points += more
        if traced:
            tracer = tracing.Tracer()
            elapsed, more = one_pass(len(untraced) + len(traced_runs), tracer)
            traced_runs.append((elapsed, tracer))
            points += more
        last_round = perf_counter() - round_start
    print("passes " + " ".join(f"{t:.3f}" for t in untraced) + " s")
    print("yardstick " + " ".join(f"{t:.3f}" for t in yards) + " s")
    if traced:
        print("traced passes " + " ".join(f"{t:.3f}" for t, _ in traced_runs) + " s")
        # the per-layer split of the median traced pass
        elapsed, tracer = sorted(traced_runs, key=lambda r: r[0])[(len(traced_runs) - 1) // 2]
        return points, tracer.metrics(elapsed, statistics.median(untraced)), tracer

    print(f"solve_s = {statistics.median(untraced):.6g} s (wall, median pass)")
    metrics = {
        "solve_rel": statistics.median(p / y for p, y in zip(untraced, yards)),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return points, metrics, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        import_s = _import_program()
    except ImportError as exc:
        print(f"error: cannot import soficlen from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    env = environment(args)
    if env["jit_enabled"]:
        print("error: soficlen's numba kernel is enabled; the baseline is the "
              "numpy path, so no result is recorded", file=sys.stderr)
        return 3

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        points, metrics, tracer = run(workloads.WORKLOADS[args.workload](), args.seed,
                                      args.seconds, bool(args.trace), work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    units = tracing.UNITS if args.trace else END_TO_END_UNITS
    failed = sum(not p.ok for p in points)
    if tracer is not None:
        for name, value in tracer.span_table():
            print(f"span {name}: {value}")
    for p in points:
        if not p.ok:
            print(f"FAILED point {p.key}: {p.values}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"points = {len(points)} count")
    print(f"points_failed = {failed} count")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(points),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
