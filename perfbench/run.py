"""Fixed-work benchmark of finitegeo: one command, four workloads.

    python3 perfbench/run.py --workload sweep|solve|geometry|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark imports the program from
``src/`` of that checkout and nowhere else.  A run repeats whole passes
over the workload's fixed operation list until ``--seconds`` have gone
by, checks every result, and prints one JSON object as its last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# Fresh interpreter start-ups per run for setup_s; the median is reported.
SETUP_SAMPLES = 9
WORKLOAD_NAMES = ("sweep", "solve", "geometry", "cli")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare_imports():
    if not os.path.isfile(os.path.join(SRC, "finitegeo", "__init__.py")):
        _fail(f"no finitegeo package under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [SRC, BENCH_DIR]


def _workdir(workload, pid):
    return os.path.join(OUT_DIR, f"{workload}-{pid}")


def make_workload(name, seed, workdir):
    if name == "cli":
        import cliwork

        return cliwork.Cli(seed, workdir)
    import workloads

    return workloads.WORKLOADS[name](seed)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class PassResult:
    def __init__(self):
        self.latencies = []
        self.cpu = 0.0
        self.failed = 0
        self.peak_child_kib = 0
        self.output_bytes = 0


def run_pass(workload, errors):
    """Run one pass; time each call, then check its result untimed."""
    res = PassResult()
    gc.collect()
    for label, call, check in workload.ops():
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # a failing operation is counted, not fatal
            value, ok = exc, False
        else:
            ok = None
        t1 = time.perf_counter()
        res.cpu += time.process_time() - c0
        res.latencies.append(t1 - t0)
        if ok is None:
            child = getattr(value, "rusage", None)
            if child is not None:
                res.cpu += child.ru_utime + child.ru_stime
                res.peak_child_kib = max(res.peak_child_kib, child.ru_maxrss)
                res.output_bytes += value.output_bytes
            try:
                ok = bool(check(value))
            except Exception as exc:
                value, ok = exc, False
        if not ok:
            res.failed += 1
            if len(errors) < 10:
                errors.append(f"{label}: {value!r}"[:300])
    return res


def measure_setup(args):
    """Median wall time from a fresh interpreter to a built workload."""
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
        args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate()
        times.append(time.perf_counter() - t0)
        shutil.rmtree(_workdir(args.workload, proc.pid), ignore_errors=True)
        if proc.returncode != 0:
            _fail(f"setup failed:\n{err}")
    return statistics.median(times)


def run_passes(workload, seconds, errors):
    """Whole passes until `seconds` have gone by (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, errors))
    return passes


def end_to_end(passes, setup_s):
    walls = [sum(p.latencies) for p in passes]
    lat = [x for p in passes for x in p.latencies]
    peak_kib = max(p.peak_child_kib for p in passes)
    if not peak_kib:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "latency_p50_s": (percentile(lat, 50), "s"),
        "latency_p90_s": (percentile(lat, 90), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _prepare_imports()
    workdir = _workdir(args.workload, os.getpid())
    if args.setup_only:
        make_workload(args.workload, args.seed, workdir)
        return 0
    setup_s = measure_setup(args)
    workload = make_workload(args.workload, args.seed, workdir)
    errors = []
    if args.trace:
        import tracer

        args.out_dir = OUT_DIR
        metrics, passes = tracer.traced_run(workload, args, errors, run_passes)
    else:
        passes = run_passes(workload, args.seconds, errors)
        metrics = end_to_end(passes, setup_s)
    shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    for line in errors:
        print(f"perfbench: failed {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
