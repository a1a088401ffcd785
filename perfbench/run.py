"""Benchmark of malctrl: seeded workloads, end-to-end metrics, and a traced layer run.

Run from the repository root:

    python3 perfbench/run.py --workload exp1_solve --seed 1 --seconds 27 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it holds the per-layer metrics of a traced run instead.  The
lines before it give the machine facts, the per-repetition times and every
failed output check.  See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the machine has two cores
# and the timings must not depend on how many threads a library picks.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

MIN_REPS = 3          # untraced repetitions per run, at least
MIN_TRACED_PAIRS = 2  # (untraced, traced) repetition pairs per traced run, at least
SETUP_REPS = 9        # fresh processes timed for setup_s, after one warm-up

# wall_s adds up, over the parts of a repetition, each part's fastest wall in
# the run.  On a shared host the speed of identical work changes by about 1.6x
# in phases of tens of seconds or more; a run's median follows how long it
# spent in slow phases, the fastest of many short parts much less (README.md,
# "Why the fastest").

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s"}

# A fresh interpreter that imports malctrl and builds one workload's inputs.
_SETUP_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
                "workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]))")

_SC_LEVEL2_CACHE_SIZE = 191   # glibc sysconf names on Linux
_SC_LEVEL3_CACHE_SIZE = 194


def _cache_bytes(name: int):
    if not sys.platform.startswith("linux"):
        return None
    size = ctypes.CDLL(None).sysconf(name)
    return size if size > 0 else None


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": _blas_threads(),
        "l2_bytes": _cache_bytes(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _cache_bytes(_SC_LEVEL3_CACHE_SIZE),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds of fresh processes that import malctrl and build the inputs."""
    command = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), workload, str(seed)]
    times = []
    for rep in range(SETUP_REPS + 1):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        if rep:   # the first one fills the bytecode cache
            times.append(time.perf_counter() - start)
    return times


def run_once(workload, ctx, work_dir: Path, checks, tracer=None) -> list[float]:
    """One repetition in a fresh output directory, then its checks.

    Returns the wall of each part, or with a tracer the wall of the whole
    traced repetition as the only entry.
    """
    out_dir = Path(tempfile.mkdtemp(dir=work_dir))
    try:
        if tracer is None:
            outputs, walls = [], []
            for part in workload.parts(ctx):
                start = time.perf_counter()
                outputs.append(part(out_dir))
                walls.append(time.perf_counter() - start)
        else:
            outputs, wall = tracer.run(workload.body, ctx, out_dir)
            walls = [wall]
        workload.check(ctx, outputs, out_dir, checks)
    finally:
        shutil.rmtree(out_dir)
    return walls


def fastest(reps: list[list[float]]) -> float:
    """The sum over the parts of each part's fastest wall among the repetitions."""
    return sum(min(part_walls) for part_walls in zip(*reps))


def _repeat(step, seconds: float, min_reps: int) -> list:
    """Call step() at least min_reps times, then while another call is
    expected (from the last one's duration) to end within seconds."""
    results = []
    start = last_end = time.perf_counter()
    while True:
        results.append(step())
        now = time.perf_counter()
        if len(results) >= min_reps and now + (now - last_end) - start > seconds:
            return results
        last_end = now


def measure_untraced(workload, ctx, seconds: float, work_dir: Path, checks) -> list[list[float]]:
    """The walls of the parts of every repetition."""
    return _repeat(lambda: run_once(workload, ctx, work_dir, checks), seconds, MIN_REPS)


def measure_traced(workload, ctx, seconds: float, work_dir: Path, checks):
    """Alternate untraced and traced repetitions.

    Returns (untraced walls, traced walls, tracer of the fastest traced
    repetition).  The exact counts of every traced repetition must agree;
    that agreement is one more output check.
    """
    def pair():
        untraced_wall = sum(run_once(workload, ctx, work_dir, checks))
        tracer = Tracer()
        return untraced_wall, sum(run_once(workload, ctx, work_dir, checks, tracer)), tracer

    pairs = _repeat(pair, seconds, MIN_TRACED_PAIRS)
    untraced = [u for u, _, _ in pairs]
    traced = [(wall, tracer) for _, wall, tracer in pairs]
    counts = [t.exact_counts() for _, t in traced]
    checks.check("exact counts repeat across traced repetitions",
                 all(c == counts[0] for c in counts[1:]))
    traced.sort(key=lambda pair: pair[0])
    return untraced, [wall for wall, _ in traced], traced[0][1]


def traced_metrics(untraced: list[float], tracer) -> dict:
    """Per-layer metrics: the tracer's values plus the run's tracing overhead.

    The self times (``bench.body.self_s`` included) add up to ``trace.wall_s``,
    which is the fastest untraced repetition plus ``trace.overhead_s``.
    """
    values = tracer.metrics()
    values["trace.wall_s"] = sum(v for k, v in values.items() if k.endswith(".self_s"))
    values["trace.untraced_wall_s"] = min(untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in (metric_units() | TRACE_UNITS).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "malctrl" / "__init__.py").is_file():
        print(f"perfbench: no malctrl sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only now: both need the checkout's src/ on the path
    import malctrl
    import workloads
    if not Path(malctrl.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported malctrl from {malctrl.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    print("machine", json.dumps(machine_facts(), sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as work_dir:
        if args.trace:
            ctx = workload.setup(args.seed)
            untraced, traced, tracer = measure_traced(workload, ctx, args.seconds,
                                                      Path(work_dir), checks)
            print(f"untraced wall_s per rep {untraced}")
            print(f"traced wall_s per rep {traced}")
            metrics = traced_metrics(untraced, tracer)
        else:
            setup_times = measure_setup(args.workload, args.seed)
            ctx = workload.setup(args.seed)
            walls = measure_untraced(workload, ctx, args.seconds, Path(work_dir), checks)
            print(f"setup_s per process {setup_times}")
            print(f"wall_s per rep, one entry per part {walls}")
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {"wall_s": fastest(walls),
                      "setup_s": statistics.median(setup_times), "peak_rss_mb": peak_mb}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    try:
        WORK_DIR.rmdir()
    except OSError:   # another run still uses it
        pass

    for failure in checks.failures:
        print(f"check failed: {failure}")
    print(f"checks attempted {checks.attempted}, failed {checks.failed}, "
          f"error_rate {checks.failed / checks.attempted}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
