"""The four workloads: inputs made from a seed, operations, and their checks.

A workload's ``ops()`` yields one pass: ``(label, call, check)`` triples.
The runner times ``call()`` alone, then hands its result to ``check``,
which compares it with a computation from ``oracles``.  Program objects
are built afresh in every pass, so no pass inherits another's caches,
and every pass runs the same operations.  Library functions are looked
up on their modules at call time, so the tracer's wrappers see them.
"""

import random
from fractions import Fraction

import oracles

from finitegeo import braid, calculus, catalog, connection, dual, funcs, groups, invariants

SYMMETRY_KINDS = ("s_sym", "s_antisym", "w_sym", "w_antisym")


def _rint(rng):
    return rng.randint(-3, 3)


def _values(rng, n):
    return [_rint(rng) for _ in range(n)]


def _fr(values):
    return tuple(Fraction(v) for v in values)


def _fiber_zero(field):
    """All coefficient values of a program tensor/form are zero."""
    return all(v == 0 for c in field.coeffs.values() for v in c.values)


def _const(value):
    return lambda result: result == value


# -- sweep -------------------------------------------------------------------

SWEEP_PER_GROUP = 16


class Sweep:
    """The paper's identities over a group-stratified sample of the catalog."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.groups = catalog.small_group_catalog()
        _warm(self.groups.values())
        self.expected_hatgs = {}
        self.sample = []  # (group name, hatG, seeded f values)
        for name, group in self.groups.items():
            hatgs = oracles.bicovariant_hatgs(group.table)
            self.expected_hatgs[name] = hatgs
            nontrivial = sorted((h for h in hatgs if h), key=lambda h: (len(h), h))
            for hatg in _stratified(rng, nontrivial, SWEEP_PER_GROUP):
                self.sample.append((name, hatg, _fr(_values(rng, group.order))))

    def ops(self):
        by_group = {}
        for name, hatg, f in self.sample:
            by_group.setdefault(name, []).append((hatg, f))
        for name, group in self.groups.items():
            expected = self.expected_hatgs[name]
            found = {}

            def enumerate_call(group=group):
                found["calculi"] = calculus.enumerate_bicovariant(group)
                return found["calculi"]

            yield (
                "enumerate_bicovariant",
                enumerate_call,
                lambda res, exp=expected: len(res) == len(exp)
                and {c.hatG for c in res} == exp,
            )
            lookup = {c.hatG: c for c in found["calculi"]}
            for hatg, f in by_group.get(name, ()):
                yield from self._calculus_ops(group, lookup[hatg], f)

    def _calculus_ops(self, group, cal, f):
        facts = oracles.sigma_facts(group.table, cal.hatG)
        state = {}

        def build_and_check():
            state["sigma"] = braid.sigma_build(cal)
            return braid.braid_check(state["sigma"])

        yield "braid_check", build_and_check, _const(True)

        def order_check(res):
            ps = oracles.pairs(cal.hatG)
            perm = state["sigma"].perm
            same = all(perm[p] == ps[facts["perm"][i]] for i, p in enumerate(ps))
            return same and res == facts["order"] and (
                2 * oracles.ad_order(group.table) % res == 0
            )

        yield "sigma_order", lambda: state["sigma"].order(), order_check
        fn = funcs.from_values(group, f)
        yield (
            "d_squared",
            lambda: braid.d_one_form(calculus.differential(cal, fn), state["sigma"]),
            lambda two: _fiber_zero(two.rep),
        )
        yield (
            "c_torsion_free",
            lambda: connection.c_connection(cal).is_torsion_free(),
            _const(True),
        )

        def parallel():
            ns = connection.nabla_sigma(cal)
            return [ns.apply(calculus.theta_form(cal, g)) for g in cal.hatG]

        yield "theta_parallel", parallel, lambda res: all(_fiber_zero(t) for t in res)


def _warm(group_list):
    """Fill the groups' lazy class and centre caches, so pass 1 does no
    more work than the passes after it."""
    for group in group_list:
        group.conjugacy_classes()
        group.center()


def _stratified(rng, items, k):
    """One seeded pick from each of k contiguous, near-equal bins.

    ``items`` are sorted by size, so every seed draws the same size
    profile and passes of different seeds cost about the same.
    """
    if len(items) <= k:
        return list(items)
    out = []
    for i in range(k):
        lo, hi = i * len(items) // k, (i + 1) * len(items) // k
        out.append(items[rng.randrange(lo, hi)])
    return out


# -- solve -------------------------------------------------------------------

# (catalog group, reduced set): "all" is the universal calculus, a list of
# class sizes selects classes as _select_hatg says.  The mix is chosen for
# steady percentiles: some twenty operations of 0.1-0.13 s (on D4, Q8,
# Dic2 and D5) sit around the 90th percentile, and the two-element
# classes at the end put the median among some thirty operations of 3-5 ms.
SOLVE_CALCULI = [
    ("S3", "all"), ("Z6", "all"), ("D4", "all"), ("Q8", "all"),
    ("S4", [6]), ("S4", [8]), ("S4", [3]), ("S4", [6, 6]),
    ("A4", [4]), ("A4", [4, 4]), ("A4", [3]),
    ("D5", [5]), ("D5", [5, 2]), ("D6", [3]), ("D6", [3, 3]), ("Dic3", [3, 3]),
    ("D4", [2]), ("Q8", [2]), ("D5", [2]), ("D6", [2]), ("Dic3", [2]),
]


def _select_hatg(group, spec):
    """Resolve a SOLVE_CALCULI reduced-set spec on the group's classes.

    [s] is the first class of size s, [s, s] the second one, and [a, b]
    with a != b the union of the first classes of sizes a and b.
    """
    if spec == "all":
        return tuple(range(1, group.order))
    classes = [c for c in oracles.conjugacy_classes(group.table) if c != (0,)]
    if len(spec) == 2 and spec[0] == spec[1]:
        picked = [[c for c in classes if len(c) == spec[0]][1]]
    else:
        picked = [next(c for c in classes if len(c) == s) for s in spec]
    return tuple(sorted(x for c in picked for x in c))


class Solve:
    """Exact linear solves on the larger calculi."""

    def __init__(self, seed):
        rng = random.Random(seed)
        cat = dict(catalog.small_group_catalog(), S4=groups.symmetric(4))
        _warm(cat.values())
        self.items = []
        for name, spec in SOLVE_CALCULI:
            group = cat[name]
            hatg = _select_hatg(group, spec)
            facts = oracles.sigma_facts(group.table, hatg)
            self.items.append((group, hatg, facts, rng.random()))
        self.items.sort(key=lambda item: item[3])
        self.params_rng_seed = rng.randrange(1 << 30)

    def ops(self):
        rng = random.Random(self.params_rng_seed)
        for group, hatg, facts, _ in self.items:
            cal = calculus.from_hatG(group, hatg)
            table = group.table
            yield (
                "decompose",
                lambda cal=cal: braid.sigma_build(cal).decompose(),
                lambda rep, f=facts: rep.dims == f["dims"],
            )
            for kind in SYMMETRY_KINDS:
                yield (
                    "solve_symmetry",
                    lambda cal=cal, kind=kind: invariants.solve_symmetry(cal, kind),
                    lambda sp, f=facts, kind=kind: sp.dimension
                    == f["dims"][oracles.SYMMETRY_DIM_SLOT[kind]]
                    and all(
                        oracles.in_symmetry_space(kind, v, f["perm"], f["cycles"])
                        for v in sp.vectors
                    ),
                )
            yield (
                "solve_bi_invariant",
                lambda cal=cal: invariants.solve_bi_invariant(cal),
                lambda sp, t=table, h=hatg: sp.dimension == oracles.burnside(t, h, 2)
                and all(oracles.adjoint_invariant(t, h, v) for v in sp.vectors),
            )
            yield (
                "invariance_constraints",
                lambda cal=cal: connection.invariance_constraints(cal, "bi"),
                lambda info, t=table, h=hatg: len(info["orbits"])
                == oracles.burnside(t, h, 3),
            )
            def torsion_check(fam, cal=cal, t=table, h=hatg):
                member = fam.member([_rint(rng) for _ in range(fam.dimension)])
                gamma = {k: v.values[0] for k, v in member.gamma.items()}
                return (
                    not oracles.torsion_free_residual(t, h, gamma)
                    and fam.contains(connection.c_connection(cal)) is not None
                )

            yield (
                "solve_torsion_free",
                lambda cal=cal: connection.solve_torsion_free(cal, mode="bi"),
                torsion_check,
            )


# -- geometry ----------------------------------------------------------------

GEOMETRY_GROUPS = (
    "Z6", "S3", "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8", "Z9", "Z3xZ3",
    "Z10", "D5", "Z11", "Z12", "Z2xZ6", "D6", "A4", "Dic3",
)
# The universal calculus of S3 (|hatG| = 5) with one non-constant metric:
# its compatibility check alone costs seconds.
GEOMETRY_UNIVERSAL = (("S3", "metric_var"),)


class Geometry:
    """Connections and metrics: extension, compatibility, Bianchi, duals."""

    def __init__(self, seed):
        rng = random.Random(seed)
        cat = catalog.small_group_catalog()
        _warm(cat.values())
        self.items = []
        for name in GEOMETRY_GROUPS:
            group = cat[name]
            hatgs = sorted(
                (h for h in oracles.bicovariant_hatgs(group.table) if len(h) >= 2),
                key=lambda h: (len(h), h),
            )
            self.items.append(self._inputs(rng, group, hatgs[0], universal=False))
        for name, metric in GEOMETRY_UNIVERSAL:
            group = cat[name]
            hatg = tuple(range(1, group.order))
            item = self._inputs(rng, group, hatg, universal=True)
            item["metrics"] = (metric,)
            self.items.append(item)

    @staticmethod
    def _inputs(rng, group, hatg, universal):
        n = group.order
        ps = oracles.pairs(hatg)
        # Supports are fixed and the seed draws only values, so every seed
        # meets the same sparsity pattern and does the same work.
        tensor_pairs = metric_pairs = [p for p in ps if p[0] == hatg[0]] if universal else ps
        return {
            "group": group,
            "hatg": hatg,
            "universal": universal,
            "tensor": {p: _fr(_values(rng, n)) for p in tensor_pairs},
            "f": _fr(_values(rng, n)),
            "gamma": {h: _fr(_values(rng, n)) for h in hatg},
            "field": {h: _fr(_values(rng, n)) for h in hatg},
            "metric_const": {p: _fr([rng.choice((1, 2, 3))] * n) for p in metric_pairs},
            "metric_var": {p: _fr(_values(rng, n)) for p in metric_pairs},
            "member_scale": rng.randint(5, 9),
            "metrics": ("metric_const", "metric_var"),
        }

    def ops(self):
        for item in self.items:
            yield from self._calculus_ops(item)

    def _calculus_ops(self, it):
        group, hatg, universal = it["group"], it["hatg"], it["universal"]
        table = group.table
        cal = calculus.from_hatG(group, hatg)
        tensor = braid.TensorField(
            cal, {p: funcs.from_values(group, v) for p, v in it["tensor"].items()}
        )
        f = funcs.from_values(group, it["f"])
        ns = connection.nabla_sigma(cal)
        cc = connection.c_connection(cal)
        conns = [("nabla_sigma", ns), ("c_connection", cc)]
        if not universal:
            fam = connection.solve_torsion_free(cal, mode="bi")
            # One seeded scale on every free parameter: large enough that
            # no orbit coefficient cancels, so the member's support, and
            # with it the work, is the same for every seed.
            member = fam.member([it["member_scale"]] * fam.dimension)
            conns.append(("torsion_free_member", member))
        gamma_form = calculus.OneForm(
            cal, {h: funcs.from_values(group, v) for h, v in it["gamma"].items()}
        )
        field = dual.VectorField(
            cal, {h: funcs.from_values(group, v) for h, v in it["field"].items()}
        )
        for name, conn in conns:
            support = [k for k, v in conn.gamma.items() if not v.is_zero()]
            expected_viol = oracles.extensibility_violations(table, hatg, support)
            state = {}

            def analysis(conn=conn, state=state):
                state["report"] = connection.extensibility_analysis(conn)
                return state["report"]

            yield (
                "extensibility_analysis",
                analysis,
                lambda rep, ev=expected_viol: rep.violations == ev
                and rep.extensible == (not ev),
            )
            if state["report"].extensible:
                yield from self._extend_ops(name, conn, tensor, f, table)
            if name == "nabla_sigma" or universal:
                # nabla_sigma kills every theta^g, so it is flat; the
                # C-connection is flat on the universal calculus.
                yield "curvature_is_zero", conn.curvature_is_zero, _const(True)
            if name != "nabla_sigma":
                yield (
                    "canonical_form_and_torsion",
                    lambda conn=conn: dual.canonical_form_and_torsion(conn),
                    lambda res: all(b["holds"] for b in res["bianchi"].values()),
                )
            yield (
                "dual_check_identity",
                lambda conn=conn: dual.DualConnection(conn).check_identity(
                    gamma_form, field
                ),
                _const(True),
            )
        yield (
            "theta_parallel",
            lambda: [ns.apply(calculus.theta_form(cal, g)) for g in hatg],
            lambda res: all(_fiber_zero(t) for t in res),
        )
        for key in it["metrics"]:
            coeffs = it[key]
            metric = dual.Metric(
                cal, {p: funcs.from_values(group, v) for p, v in coeffs.items()}
            )
            yield (
                "metric_compatibility",
                lambda metric=metric: dual.metric_compatibility(metric, route="both"),
                lambda rep, c=coeffs: _metric_oracle(table, hatg, c, rep),
            )
            # Along the C-connection too, on the two-element calculi only,
            # to keep a pass near five seconds.
            if len(hatg) == 2 and extensible_cc(table, hatg, cc):
                yield (
                    "metric_compatibility",
                    lambda metric=metric: dual.metric_compatibility(
                        metric, route="both", connection=cc
                    ),
                    lambda rep: rep["routes_agree"] is True,
                )

    @staticmethod
    def _extend_ops(name, conn, tensor, f, table):
        state = {}

        def extend(t=tensor):
            state["r3"] = connection.extend_to_tensor(conn, t)
            return state["r3"]

        if name == "nabla_sigma":
            # Every theta^g is parallel, so nabla(t_{v,w} theta^v theta^w)
            # is dt_{v,w} (x) theta^v (x) theta^w: coefficient ell_u t_{v,w}.
            def check(r3):
                for (u, v, w), c in r3.coeffs.items():
                    t = tensor.coeffs[(v, w)].values
                    if c.values != oracles.ell(table, u, t):
                        return False
                return True

            yield "extend_to_tensor", extend, check
            return
        yield "extend_to_tensor", extend, lambda r3: r3 is not None
        ftensor = tensor.left_mul(f)

        # Left Leibniz rule: nabla(f t) = df (x) t + f nabla(t).
        def leibniz(r3f):
            fv = f.values
            for (u, v, w), c in r3f.coeffs.items():
                t = tensor.coeffs[(v, w)].values
                df_t = oracles.mul(
                    oracles.ell(table, u, fv),
                    oracles.right_translate(table, oracles.inverses(table)[u], t),
                )
                want = oracles.add(oracles.mul(fv, state["r3"].coeffs[(u, v, w)].values), df_t)
                if c.values != want:
                    return False
            return True

        yield (
            "extend_to_tensor",
            lambda: connection.extend_to_tensor(conn, ftensor),
            leibniz,
        )


def extensible_cc(table, hatg, cc):
    support = list(cc.gamma)
    return not oracles.extensibility_violations(table, hatg, support)


def _metric_oracle(table, hatg, coeffs, rep):
    """Along nabla_sigma, the residual of a metric is its differential:
    component (p, q) is d g^{p,q}, so the metric is compatible exactly
    when its coefficients are constant."""
    if rep["routes_agree"] is not True:
        return False
    want = {p: c for p, c in coeffs.items() if not oracles.is_const(c)}
    resid = rep["residual"]
    if set(resid) != set(want):
        return False
    for p, c in want.items():
        form = resid[p]
        for k in hatg:
            if form.coeffs[k].values != oracles.ell(table, k, c):
                return False
    return rep["compatible"] == (not want)


WORKLOADS = {"sweep": Sweep, "solve": Solve, "geometry": Geometry}
