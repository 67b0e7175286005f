"""Per-layer metrics from wrappers the benchmark installs around the program.

``Tracer.install()`` replaces every public function and method of the
layer modules (and the GroupFunction arithmetic operators) with a timing
wrapper, everywhere the package refers to them, and ``uninstall()`` puts
the originals back.  Nothing is wrapped in an untraced run.  A span's
self time is its duration minus the spans nested in it; a key's busy
time counts only its outermost span, so recursion is not counted twice.
"""

import json
import os
import statistics
import sys
import time
from collections import Counter

from finitegeo import braid, calculus, connection, dual, funcs, groups, gset, invariants, linalg

LAYERS = (linalg, funcs, groups, calculus, braid, invariants, connection, dual, gset)
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")

# (layer, qualified name) -> metric key; other spans count toward layer totals.
KEYS = {
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "solve_affine"): "linalg.solve_affine",
    ("funcs", "right_translate"): "funcs.translate",
    ("funcs", "left_translate"): "funcs.translate",
    ("braid", "SigmaOperator.__init__"): "braid.sigma",
    ("braid", "SigmaOperator.decompose"): "braid.decompose",
    ("braid", "braid_check"): "braid.braid_check",
    ("braid", "TensorField.__init__"): "braid.tensor",
    ("braid", "Rank3Field.__init__"): "braid.rank3",
    ("invariants", "solve_symmetry"): "invariants.solve",
    ("invariants", "solve_bi_invariant"): "invariants.solve",
    ("connection", "invariance_constraints"): "connection.orbits",
    ("connection", "solve_torsion_free"): "connection.torsion_solve",
    ("connection", "extend_to_tensor"): "connection.extend",
    ("connection", "extend_on_pair"): "connection.extend",
    ("connection", "extensibility_analysis"): "connection.extend",
    ("connection", "Connection.is_torsion_free"): "connection.checks",
    ("connection", "Connection.curvature_is_zero"): "connection.checks",
    ("connection", "Connection.apply"): "connection.checks",
    ("dual", "metric_compatibility"): "dual.metric_compat",
    ("dual", "canonical_form_and_torsion"): "dual.bianchi",
    ("calculus", "enumerate_bicovariant"): "calculus.enumerate",
    ("calculus", "enumerate_left_covariant"): "calculus.enumerate",
}
KEYS.update({("funcs", f"GroupFunction.{op}"): "funcs.arith" for op in ARITH})
KEY_PREFIXES = {
    ("linalg", "SubspaceReducer."): "linalg.reducer",
    ("braid", "DegreeThreeIdeal."): "braid.ideal",
}


def _key(layer, qualname):
    if (layer, qualname) in KEYS:
        return KEYS[(layer, qualname)]
    for (lay, prefix), key in KEY_PREFIXES.items():
        if lay == layer and qualname.startswith(prefix):
            return key
    return f"{layer}.{qualname}"


def _before(key, args):
    """Counts taken from a call's arguments: rref cells, decompose misses."""
    if key == "linalg.rref":
        rows = args[0]
        return "linalg.rref.cells", len(rows) * (len(rows[0]) if rows else 0)
    if key == "braid.decompose" and args[0]._decomposition is None:
        return "braid.decompose.misses", 1
    return None


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = Counter()
        self.layer_busy = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self._open = Counter()
        self._stack = []
        self._restore = []

    def _wrap(self, fn, layer, qualname):
        key = _key(layer, qualname)
        calls, busy, layer_busy, self_time = self.calls, self.busy, self.layer_busy, self.self_time
        counts, opened, stack = self.counts, self._open, self._stack
        clock = time.perf_counter
        torsion = key == "connection.torsion_solve"

        def wrapper(*args, **kwargs):
            calls[key] += 1
            extra = _before(key, args)
            if extra:
                counts[extra[0]] += extra[1]
            opened[key] += 1
            opened[layer] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_time[layer] += dt - frame[0]
                opened[key] -= 1
                if not opened[key]:
                    busy[key] += dt
                opened[layer] -= 1
                if not opened[layer]:
                    layer_busy[layer] += dt
            if torsion:
                counts["connection.torsion_solve.equations"] += len(args[0].hatG) ** 3
                counts["connection.torsion_solve.unknowns"] += len(result.orbits)
            return result

        return wrapper

    def install(self):
        package = [m for name, m in sys.modules.items() if name.startswith("finitegeo")]
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer)
                elif callable(obj) and not name.startswith("_"):
                    wrapped = self._wrap(obj, layer, name)
                    for mod in package:
                        if vars(mod).get(name) is obj:
                            self._set(mod, name, obj, wrapped)

    def _wrap_class(self, cls, layer):
        for attr, fn in list(vars(cls).items()):
            if not callable(fn) or isinstance(fn, (staticmethod, classmethod, type)):
                continue
            public = not attr.startswith("_")
            if public or attr == "__init__" or (cls is funcs.GroupFunction and attr in ARITH):
                self._set(cls, attr, fn, self._wrap(fn, layer, f"{cls.__name__}.{attr}"))

    def _set(self, owner, name, original, replacement):
        self._restore.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "layer_busy": dict(self.layer_busy),
            "self_time": dict(self.self_time),
            "counts": dict(self.counts),
        }

    def merge(self, snap):
        for field in ("calls", "busy", "layer_busy", "self_time", "counts"):
            getattr(self, field).update(snap[field])


def layer_metrics(tr, npasses):
    """The per-layer metrics, per pass, from a tracer's totals."""

    def per(counter, key):
        return counter.get(key, 0) / npasses

    count, busy, calls = (
        lambda k: per(tr.counts, k),
        lambda k: per(tr.busy, k),
        lambda k: per(tr.calls, k),
    )
    out = {
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "linalg.rref.cells": (count("linalg.rref.cells"), "count"),
        "linalg.rref.busy_s": (busy("linalg.rref"), "s"),
        "linalg.solve_affine.busy_s": (busy("linalg.solve_affine"), "s"),
        "linalg.reducer.calls": (calls("linalg.reducer"), "count"),
        "linalg.reducer.busy_s": (busy("linalg.reducer"), "s"),
        "funcs.arith.calls": (calls("funcs.arith"), "count"),
        "funcs.translate.calls": (calls("funcs.translate"), "count"),
        "braid.sigma.builds": (calls("braid.sigma"), "count"),
        "braid.decompose.calls": (count("braid.decompose.misses"), "count"),
        "braid.decompose.busy_s": (busy("braid.decompose"), "s"),
        "braid.braid_check.busy_s": (busy("braid.braid_check"), "s"),
        "braid.tensor.inits": (calls("braid.tensor"), "count"),
        "braid.rank3.inits": (calls("braid.rank3"), "count"),
        "braid.ideal.busy_s": (busy("braid.ideal"), "s"),
        "invariants.solve.busy_s": (busy("invariants.solve"), "s"),
        "connection.orbits.busy_s": (busy("connection.orbits"), "s"),
        "connection.torsion_solve.busy_s": (busy("connection.torsion_solve"), "s"),
        "connection.torsion_solve.equations": (
            count("connection.torsion_solve.equations"), "count"),
        "connection.torsion_solve.unknowns": (
            count("connection.torsion_solve.unknowns"), "count"),
        "connection.extend.busy_s": (busy("connection.extend"), "s"),
        "connection.checks.busy_s": (busy("connection.checks"), "s"),
        "dual.metric_compat.busy_s": (busy("dual.metric_compat"), "s"),
        "dual.bianchi.busy_s": (busy("dual.bianchi"), "s"),
        "groups.busy_s": (per(tr.layer_busy, "groups"), "s"),
        "calculus.enumerate.busy_s": (busy("calculus.enumerate"), "s"),
        "calculus.busy_s": (per(tr.layer_busy, "calculus"), "s"),
        "gset.busy_s": (per(tr.layer_busy, "gset"), "s"),
    }
    for layer in ("linalg", "funcs", "braid", "invariants", "connection", "dual"):
        out[f"{layer}.self_s"] = (per(tr.self_time, layer), "s")
    return out


def traced_run(workload, args, errors, run_passes):
    """Untraced passes for half the time, traced passes for the other half."""
    half = args.seconds / 2
    plain = run_passes(workload, half, errors)
    tr = Tracer()
    if hasattr(workload, "traced"):
        workload.traced(tr)
    else:
        tr.install()
    try:
        traced = run_passes(workload, half, errors)
    finally:
        tr.uninstall()
        if hasattr(workload, "untraced"):
            workload.untraced()
    metrics = layer_metrics(tr, len(traced))
    plain_wall = statistics.median(sum(p.latencies) for p in plain)
    traced_wall = statistics.median(sum(p.latencies) for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    spawn_s = run_s = output_bytes = 0.0
    if hasattr(workload, "cli_layer"):
        spawn_s, run_s = workload.cli_layer()
        output_bytes = statistics.median(p.output_bytes for p in plain)
    metrics["cli.spawn_s"] = (spawn_s, "s")
    metrics["cli.run.busy_s"] = (run_s, "s")
    metrics["cli.output_bytes"] = (output_bytes, "count")
    out = os.path.join(args.out_dir, f"trace-{args.workload}-{args.seed}.json")
    os.makedirs(args.out_dir, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"passes": len(traced), "totals": tr.snapshot(),
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, handle, indent=1)
    return metrics, plain + traced
