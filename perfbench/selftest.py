"""Tiny-size self-test of the benchmark's workloads and checks.

    python3 perfbench/selftest.py

For each workload it runs one pass over a few operations and requires
zero failures, then runs the same pass with one answer deliberately
corrupted and requires the checks to reject exactly that one.  Exits
non-zero if either half does not hold.
"""

import copy
import os
import shutil
import sys
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import cliwork  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class Corrupted:
    """The workload's pass, with the first `label` result passed through `mutate`."""

    def __init__(self, workload, label, mutate):
        self.workload, self.label, self.mutate = workload, label, mutate

    def ops(self):
        done = False
        for label, call, check in self.workload.ops():
            if not done and label == self.label:
                done = True
                yield label, lambda c=call: self.mutate(c()), check
            else:
                yield label, call, check


def tiny_sweep():
    wl = workloads.Sweep(seed=1)
    keep = ("Z4", "S3", "D4")
    wl.groups = {k: v for k, v in wl.groups.items() if k in keep}
    wl.sample = [s for s in wl.sample if s[0] in keep][:6]
    return wl


def tiny_solve():
    wl = workloads.Solve(seed=1)
    wl.items = [it for it in wl.items if it[0].order <= 8][:2]
    return wl


def tiny_geometry():
    wl = workloads.Geometry(seed=1)
    wl.items = wl.items[:2]
    return wl


def tiny_cli(workdir):
    wl = cliwork.Cli(seed=1, workdir=workdir)
    wanted = ("group info", "braid order", "connection analyze", "metric check",
              "action calculi")
    seen, kept = set(), []
    for cmd in wl.commands:
        head = " ".join(cmd[0][:2])
        if head in wanted and head not in seen:
            seen.add(head)
            kept.append(cmd)
    wl.commands = kept
    return wl


def drop_last(result):
    return result[:-1]


def short_kernel(report):
    report = copy.copy(report)
    report.ker_a = report.ker_a[:-1]
    return report


def bump_coefficient(r3):
    key = next(k for k, c in r3.coeffs.items())
    c = r3.coeffs[key]
    r3.coeffs[key] = type(c)(c.group, (c.values[0] + Fraction(1),) + c.values[1:])
    return r3


def wrong_order(result):
    result.stdout = result.stdout.replace(b'"order": ', b'"order": 1')
    return result


def check(name, workload, label, mutate):
    errors = []
    clean = run.run_pass(workload, errors)
    bad = run.run_pass(Corrupted(workload, label, mutate), [])
    ok = clean.failed == 0 and bad.failed == 1
    print(f"{name}: {len(clean.latencies)} operations, {clean.failed} failed; "
          f"corrupted {label}: {bad.failed} rejected -> {'ok' if ok else 'FAIL'}")
    for line in errors:
        print("  ", line)
    return ok


def main():
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    try:
        results = [
            check("sweep", tiny_sweep(), "enumerate_bicovariant", drop_last),
            check("solve", tiny_solve(), "decompose", short_kernel),
            check("geometry", tiny_geometry(), "extend_to_tensor", bump_coefficient),
            check("cli", tiny_cli(workdir), "braid order", wrong_order),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
