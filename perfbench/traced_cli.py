"""Run one finitegeo command with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py <finitegeo arguments...>

The traced cli workload starts its commands through this script; the
tracer's totals go to the file named by PERFBENCH_TRACE_FILE.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import tracer  # noqa: E402

from finitegeo import cli  # noqa: E402

if __name__ == "__main__":
    tr = tracer.Tracer()
    tr.install()
    status = cli.main(sys.argv[1:])
    with open(os.environ["PERFBENCH_TRACE_FILE"], "w", encoding="utf-8") as handle:
        json.dump(tr.snapshot(), handle)
    sys.exit(status)
