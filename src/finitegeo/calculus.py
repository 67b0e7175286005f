"""First-order differential calculi on a finite group.

A calculus is a loopless digraph on the group.  Left-covariant calculi
are in bijection with subsets hatG of the nonidentity elements: the edge
(x, y) is present exactly when y^-1 x lies in hatG, so the basis 1-form
theta^g collects the edges {(hg, h) : h in G}.  Edge-basis and
theta-basis descriptions convert via e_{x,y} = e_x theta^{y^-1 x}.
"""

from fractions import Fraction

from . import funcs
from .errors import (
    CalculusMismatch,
    IdentityInHatG,
    NotBicovariant,
    NotInHatG,
    NotLeftCovariant,
    TooLarge,
)

DEFAULT_ENUM_LIMIT = 4096


class DifferentialCalculus:
    def __init__(self, group, edges):
        self.group = group
        edges = frozenset((int(x), int(y)) for x, y in edges)
        for x, y in edges:
            if x == y:
                raise ValueError(f"loop edge at element {x}")
            if not (0 <= x < group.order and 0 <= y < group.order):
                raise ValueError(f"edge ({x},{y}) out of range")
        self.edges = edges
        left_set = sorted({group.mul(group.inverse(y), x) for x, y in edges})
        right_set = sorted({group.mul(x, group.inverse(y)) for x, y in edges})
        self.left_covariant = len(edges) == group.order * len(left_set)
        self.right_covariant = len(edges) == group.order * len(right_set)
        self.hatG = tuple(left_set) if self.left_covariant else None
        self.bicovariant = self.left_covariant and _is_class_union(group, left_set)

    def __eq__(self, other):
        return (
            isinstance(other, DifferentialCalculus)
            and self.group is other.group
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((id(self.group), self.edges))

    def __repr__(self):
        if self.hatG is not None:
            inside = ",".join(self.group.name(g) for g in self.hatG)
            return f"<calculus on {self.group.label} hatG={{{inside}}}>"
        return f"<calculus on {self.group.label} with {len(self.edges)} edges>"

    def require_left_covariant(self):
        if not self.left_covariant:
            raise NotLeftCovariant("operation needs a left-covariant calculus")

    def require_bicovariant(self):
        if not self.bicovariant:
            raise NotBicovariant("operation needs a bicovariant calculus")

    def hat_index(self, g):
        if self.hatG is None or g not in self.hatG:
            raise NotInHatG(f"element {g} is not in hatG")
        return self.hatG.index(g)

    def pairs(self):
        """All (g, g') in hatG x hatG, lexicographic."""
        return [(g, gp) for g in self.hatG for gp in self.hatG]


def _is_class_union(group, subset):
    sset = set(subset)
    if 0 in sset:
        return False
    return all(
        group.adjoint(h, g) in sset for g in sset for h in range(group.order)
    )


def from_hatG(group, hatG):
    hatG = sorted({int(g) for g in hatG})
    if any(g == 0 for g in hatG):
        raise IdentityInHatG("hatG may not contain the identity")
    if any(not 0 < g < group.order for g in hatG):
        raise ValueError("hatG entry out of range")
    edges = {
        (group.mul(h, g), h) for h in range(group.order) for g in hatG
    }
    return DifferentialCalculus(group, edges)


def universal(group):
    return from_hatG(group, range(1, group.order))


def trivial(group):
    return from_hatG(group, ())


def from_edges(group, edges):
    return DifferentialCalculus(group, edges)


def enumerate_left_covariant(group, limit=DEFAULT_ENUM_LIMIT):
    """All 2^(|G|-1) left-covariant calculi, sorted by size then hatG."""
    k = group.order - 1
    if 2**k > limit:
        raise TooLarge(
            f"2^{k} left-covariant calculi exceed the bound {limit}; "
            f"the {k} orbit generators are the nonidentity elements"
        )
    subsets = []
    for mask in range(2**k):
        subsets.append([g for g in range(1, group.order) if mask & (1 << (g - 1))])
    subsets.sort(key=lambda s: (len(s), s))
    return [from_hatG(group, s) for s in subsets]


def enumerate_bicovariant(group, limit=DEFAULT_ENUM_LIMIT):
    """All unions of nontrivial conjugacy classes, sorted by size then hatG."""
    classes = group.nontrivial_classes()
    if 2 ** len(classes) > limit:
        raise TooLarge(f"2^{len(classes)} bicovariant calculi exceed the bound {limit}")
    subsets = []
    for mask in range(2 ** len(classes)):
        chosen = []
        for i, cls in enumerate(classes):
            if mask & (1 << i):
                chosen.extend(cls)
        subsets.append(sorted(chosen))
    subsets.sort(key=lambda s: (len(s), s))
    return [from_hatG(group, s) for s in subsets]


class StructureConstants:
    """C^h_{g,g'} = -delta^h_g - delta^h_{g'} + delta^h_{g g'}."""

    def __init__(self, calculus):
        calculus.require_left_covariant()
        self.calculus = calculus
        self.group = calculus.group

    def C(self, h, g, gp):
        val = 0
        if h == g:
            val -= 1
        if h == gp:
            val -= 1
        if h == self.group.mul(g, gp):
            val += 1
        return val


def structure_constants(calculus):
    return StructureConstants(calculus)


class OneForm:
    """phi = phi_g theta^g with coefficients on the left (or the omega basis)."""

    def __init__(self, calculus, coeffs, basis="theta"):
        calculus.require_left_covariant()
        self.calculus = calculus
        self.basis = basis
        full = {}
        for g in calculus.hatG:
            c = coeffs.get(g)
            if c is None:
                c = funcs.zero(calculus.group)
            elif not isinstance(c, funcs.GroupFunction):
                c = funcs.constant(calculus.group, c)
            full[g] = c
        extra = set(coeffs) - set(calculus.hatG)
        if extra:
            raise NotInHatG(f"coefficients on elements outside hatG: {sorted(extra)}")
        self.coeffs = full

    def coeff(self, g):
        return self.coeffs[g]

    def _check(self, other):
        if self.calculus != other.calculus or self.basis != other.basis:
            raise CalculusMismatch("one-forms live on different calculi or bases")

    def __add__(self, other):
        self._check(other)
        return OneForm(
            self.calculus,
            {g: self.coeffs[g] + other.coeffs[g] for g in self.calculus.hatG},
            self.basis,
        )

    def __sub__(self, other):
        self._check(other)
        return OneForm(
            self.calculus,
            {g: self.coeffs[g] - other.coeffs[g] for g in self.calculus.hatG},
            self.basis,
        )

    def __neg__(self):
        return OneForm(
            self.calculus, {g: -self.coeffs[g] for g in self.calculus.hatG}, self.basis
        )

    def left_mul(self, f):
        """f * phi: coefficients multiply on the left."""
        f = funcs.as_function(self.calculus.group, f)
        return OneForm(
            self.calculus, {g: f * self.coeffs[g] for g in self.calculus.hatG}, self.basis
        )

    def right_mul(self, f):
        """phi * f: the coefficient picks up a translated factor."""
        if self.basis != "theta":
            raise ValueError("right multiplication implemented in the theta basis")
        f = funcs.as_function(self.calculus.group, f)
        grp = self.calculus.group
        return OneForm(
            self.calculus,
            {
                g: self.coeffs[g] * funcs.right_translate(grp.inverse(g), f)
                for g in self.calculus.hatG
            },
        )

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs.values())

    def is_constant(self):
        return all(c.is_constant() for c in self.coeffs.values())

    def __eq__(self, other):
        return (
            isinstance(other, OneForm)
            and self.calculus == other.calculus
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        sym = "theta" if self.basis == "theta" else "omega"
        parts = [
            f"({'+'.join(c.as_strings())}) {sym}^{self.calculus.group.name(g)}"
            for g, c in self.coeffs.items()
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def zero_form(calculus):
    return OneForm(calculus, {})


def theta_form(calculus, g, coeff=1):
    calculus.hat_index(g)
    return OneForm(calculus, {g: funcs.as_function(calculus.group, coeff)})


def omega_form(calculus, g):
    """The right-invariant basis form omega^g written in the theta basis."""
    calculus.require_bicovariant()
    calculus.hat_index(g)
    grp = calculus.group
    coeffs = {}
    for k in calculus.hatG:
        values = [
            Fraction(1 if grp.adjoint(grp.inverse(h), g) == k else 0)
            for h in range(grp.order)
        ]
        coeffs[k] = funcs.GroupFunction(grp, tuple(values))
    return OneForm(calculus, coeffs)


def rho(calculus):
    """The bi-invariant 1-form rho = sum of all theta^g."""
    calculus.require_left_covariant()
    return OneForm(
        calculus, {g: funcs.one(calculus.group) for g in calculus.hatG}
    )


def differential(calculus, f):
    """d f = (ell_g f) theta^g."""
    calculus.require_left_covariant()
    return OneForm(calculus, {g: funcs.ell(g, f) for g in calculus.hatG})


def theta_commute(calculus, f, g, inverse=False):
    """Move f across theta^g: f theta^g = theta^g (R_g f).

    Returns R_g f (or R_{g^-1} f with inverse=True, for the opposite move).
    """
    calculus.hat_index(g)
    if inverse:
        g = calculus.group.inverse(g)
    return funcs.right_translate(g, f)


def omega_theta_convert(calculus, form, direction="theta_to_omega"):
    """Re-express a 1-form between the theta and omega bases.

    theta_to_omega: psi_k(h) = phi_{ad(h^-1)k}(h)
    omega_to_theta: phi_k(h) = psi_{ad(h)k}(h)
    """
    calculus.require_bicovariant()
    grp = calculus.group
    if direction == "theta_to_omega":
        if form.basis != "theta":
            raise ValueError("form is not in the theta basis")
        out_basis = "omega"

        def source(k, h):
            return form.coeffs[grp.adjoint(grp.inverse(h), k)](h)

    elif direction == "omega_to_theta":
        if form.basis != "omega":
            raise ValueError("form is not in the omega basis")
        out_basis = "theta"

        def source(k, h):
            return form.coeffs[grp.adjoint(h, k)](h)

    else:
        raise ValueError(f"unknown direction {direction!r}")
    coeffs = {
        k: funcs.GroupFunction(grp, tuple(source(k, h) for h in range(grp.order)))
        for k in calculus.hatG
    }
    return OneForm(calculus, coeffs, basis=out_basis)


def to_edge_coeffs(form):
    """theta-basis 1-form -> per-edge scalars via e_{x,y} = e_x theta^{y^-1 x}."""
    grp = form.calculus.group
    out = {}
    for g, c in form.coeffs.items():
        ginv = grp.inverse(g)
        for x in range(grp.order):
            if c(x) != 0:
                out[(x, grp.mul(x, ginv))] = c(x)
    return out


def from_edge_coeffs(calculus, edge_coeffs):
    """Per-edge scalars -> theta-basis 1-form."""
    calculus.require_left_covariant()
    grp = calculus.group
    values = {g: [Fraction(0)] * grp.order for g in calculus.hatG}
    for (x, y), v in edge_coeffs.items():
        if (x, y) not in calculus.edges:
            raise ValueError(f"({x},{y}) is not an edge of the calculus")
        g = grp.mul(grp.inverse(y), x)
        values[g][x] += Fraction(v)
    return OneForm(
        calculus,
        {g: funcs.GroupFunction(grp, tuple(vals)) for g, vals in values.items()},
    )


def export_dot(calculus, collapse_bidirected=True):
    names = [calculus.group.name(x) for x in range(calculus.group.order)]
    return digraph_dot(names, calculus.edges, collapse_bidirected)


def digraph_dot(names, edges, collapse_bidirected=True):
    """Deterministic DOT text for a digraph on named vertices."""
    lines = ["digraph calculus {"]
    for name in names:
        lines.append(f'  "{name}";')
    edges = set(edges)
    for x, y in sorted(edges):
        if collapse_bidirected and (y, x) in edges:
            if x < y:
                lines.append(f'  "{names[x]}" -> "{names[y]}" [dir=both];')
        else:
            lines.append(f'  "{names[x]}" -> "{names[y]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
