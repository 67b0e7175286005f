"""First-order differential calculi on a finite group.

A calculus is a loopless digraph on the group.  Left-covariant calculi
are in bijection with subsets hatG of the nonidentity elements: the edge
(x, y) is present exactly when y^-1 x lies in hatG, so the basis 1-form
theta^g collects the edges {(hg, h) : h in G}.  A left-covariant
calculus is its hatG, and edges are derived: from_hatG stores hatG, and
the edge set is built from the Cayley table when first read.  It is
bicovariant exactly when hatG is a union of conjugacy classes.
Edge-basis and theta-basis descriptions convert via
e_{x,y} = e_x theta^{y^-1 x}.

Tensor is the one tensor type of the package: a sparse map from
hatG^rank to functions on the group.  Its terms hold only the nonzero
coefficients in the canonical form of funcs.canonical, a scalar when
constant; its coeffs list every key of hatG^rank as a GroupFunction,
zero where no term is stored.  Its side says where the coefficients
sit: left of the basis for 1-forms and their tensor powers, right of it
for vector fields and metrics.  A factor multiplied on the coefficient side multiplies the
coefficients.  A factor on the other side crosses the basis legs,
nearest first, and each crossing translates it: theta^k f =
(R_{k^-1} f) theta^k and f ell_k = ell_k (R_{k^-1} f).  After crossing
c_1, ..., c_n it is R_{(c_1 ... c_n)^-1} f, so a left tensor times f
has the coefficient t_k R_{(k_rank ... k_1)^-1} f at the key
k = (k_1, ..., k_rank).  The tensor product of left tensors follows the
same rule: in a (x) b each coefficient of b crosses the legs of a, so
(a (x) b)_{K,L} = a_K R_{(k_rank ... k_1)^-1} b_L (braid.tensor_product).
OneForm here, TensorField and Rank3Field in braid, VectorField and
Metric in dual only fix rank and side.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product

from . import funcs
from .funcs import GroupFunction
from .errors import (
    CalculusMismatch,
    IdentityInHatG,
    NotBicovariant,
    NotInHatG,
    NotLeftCovariant,
    TooLarge,
)

ENUM_LIMIT = 4096


class DifferentialCalculus:
    """A first-order calculus on a group.

    from_edges keeps the edges it is given and finds hatG = {y^-1 x} when
    the digraph is left-covariant; from_hatG stores hatG alone.  Either
    way a left-covariant calculus is right-covariant, and so bicovariant,
    exactly when hatG is a union of conjugacy classes: the right set
    {x y^-1} = {h g h^-1} is the conjugation closure of hatG.  Equality
    and hash read hatG when it is set and the edges otherwise.
    """

    def __init__(self, group, edges):
        self.group = group
        edges = frozenset((int(x), int(y)) for x, y in edges)
        for x, y in edges:
            if x == y:
                raise ValueError(f"loop edge at element {x}")
            if not (0 <= x < group.order and 0 <= y < group.order):
                raise ValueError(f"edge ({x},{y}) out of range")
        self._edges = edges
        left_set = sorted({group.mul(group.inverse(y), x) for x, y in edges})
        if len(edges) == group.order * len(left_set):
            self._set_hatG(left_set)
            return
        right_set = {group.mul(x, group.inverse(y)) for x, y in edges}
        self.hatG = None
        self.left_covariant = self.bicovariant = False
        self.right_covariant = len(edges) == group.order * len(right_set)

    @classmethod
    def _of_hatG(cls, group, hatG):
        """The left-covariant calculus of a sorted, validated hatG."""
        cal = cls.__new__(cls)
        cal.group = group
        cal._edges = None
        cal._set_hatG(hatG)
        return cal

    def _set_hatG(self, hatG):
        self.hatG = tuple(hatG)
        self.left_covariant = True
        self.right_covariant = self.bicovariant = _is_class_union(self.group, hatG)

    @property
    def edges(self):
        """The edges (hg, h) for h in G and g in hatG, or those given."""
        if self._edges is None:
            hatG = self.hatG
            self._edges = frozenset(
                (row[g], h) for h, row in enumerate(self.group.table) for g in hatG
            )
        return self._edges

    def __eq__(self, other):
        if not isinstance(other, DifferentialCalculus) or self.group is not other.group:
            return False
        if self.hatG is None and other.hatG is None:
            return self.edges == other.edges
        return self.hatG == other.hatG

    def __hash__(self):
        if self.hatG is None:
            return hash((id(self.group), self.edges))
        return hash((id(self.group), self.hatG))

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

    @cached_property
    def structure_constants(self):
        """The calculus's StructureConstants, built on first read."""
        return StructureConstants(self)


def _is_class_union(group, hatG):
    """Whether hatG, a set of distinct elements, is a union of conjugacy
    classes: the classes it meets hold no other element."""
    classes = group.conjugacy_classes()
    met = {group._class_of[g] for g in hatG}
    return sum(len(classes[c]) for c in met) == len(hatG)


def from_hatG(group, hatG):
    hatG = sorted({int(g) for g in hatG})
    if any(g == 0 for g in hatG):
        raise IdentityInHatG("hatG may not contain the identity")
    if any(not 0 < g < group.order for g in hatG):
        raise ValueError("hatG entry out of range")
    return DifferentialCalculus._of_hatG(group, hatG)


def universal(group):
    return from_hatG(group, range(1, group.order))


def trivial(group):
    return from_hatG(group, ())


def from_edges(group, edges):
    return DifferentialCalculus(group, edges)


def unions(blocks):
    """Every union of the disjoint blocks, as sorted tuples ordered by size
    and then content; the empty union comes first.

    Left-covariant calculi are the unions of singletons {g}, bicovariant
    ones the unions of nontrivial conjugacy classes, and covariant calculi
    on a G-set the unions of pair orbits.  Raises TooLarge when the
    2^len(blocks) unions exceed ENUM_LIMIT.
    """
    count = 2 ** len(blocks)
    if count > ENUM_LIMIT:
        raise TooLarge(f"{count} unions of {len(blocks)} blocks exceed the bound {ENUM_LIMIT}")
    out = []
    for mask in range(count):
        chosen = []
        for i, block in enumerate(blocks):
            if mask >> i & 1:
                chosen.extend(block)
        out.append(tuple(sorted(chosen)))
    out.sort(key=lambda u: (len(u), u))
    return out


def enumerate_left_covariant(group):
    """All 2^(|G|-1) left-covariant calculi, sorted by size then hatG."""
    singletons = [(g,) for g in range(1, group.order)]
    return [DifferentialCalculus._of_hatG(group, s) for s in unions(singletons)]


def enumerate_bicovariant(group):
    """All unions of nontrivial conjugacy classes, sorted by size then hatG."""
    classes = group.nontrivial_classes()
    return [DifferentialCalculus._of_hatG(group, s) for s in unions(classes)]


class StructureConstants:
    """C^h_{g,g'} = -delta^h_g - delta^h_{g'} + delta^h_{g g'}.

    C^h_{g,g'} is nonzero only for h in {g, g', g g'}, so for a target h
    at most 3|hatG| of the |hatG|^2 pairs (g, g') carry a constant;
    nonzero(h) lists them, once per calculus.structure_constants.
    """

    def __init__(self, calculus):
        calculus.require_left_covariant()
        self.calculus = calculus
        self.group = calculus.group
        self._hset = set(calculus.hatG)
        self._nonzero = {}

    def nonzero(self, h):
        """The triples (g, g', C^h_{g,g'}) with g, g' in hatG and a nonzero
        constant, lexicographic in (g, g'); the list is shared, so callers
        must not change it.

        With g = h every g' counts (-2 at g' = h, -1 otherwise); with
        g != h only g' = h (-1) and g' = g^-1 h (+1), which differ.
        """
        got = self._nonzero.get(h)
        if got is not None:
            return got
        grp = self.group
        out = []
        for g in self.calculus.hatG:
            if g == h:
                out.extend((g, gp, -2 if gp == h else -1) for gp in self.calculus.hatG)
                continue
            rest = grp.mul(grp.inverse(g), h)
            ends = [(gp, c) for gp, c in ((h, -1), (rest, 1)) if gp in self._hset]
            out.extend((g, gp, c) for gp, c in sorted(ends))
        self._nonzero[h] = out
        return out

    def C(self, h, g, gp):
        val = 0
        if h == g:
            val -= 1
        if h == gp:
            val -= 1
        if h == self.group.mul(g, gp):
            val += 1
        return val


class _Coeffs(dict):
    """A tensor's coefficient at every key of hatG^rank, lexicographic, as
    a GroupFunction.

    A key with nothing stored holds the zero function.  Assigning a key
    also stores the coefficient in the tensor, or drops the key when it
    is zero; other changes stay in this dict.
    """

    __slots__ = ("tensor",)

    def __init__(self, tensor):
        group, terms = tensor.calculus.group, tensor.terms
        super().__init__((k, funcs.as_function(group, terms.get(k, 0))) for k in tensor._keys())
        self.tensor = tensor

    def __setitem__(self, key, f):
        if key not in self:
            raise NotInHatG(f"coefficient key {key!r} is not in hatG^{self.tensor.rank}")
        super().__setitem__(key, funcs.as_function(self.tensor.calculus.group, f))
        self.tensor.terms.pop(key, None)
        self.tensor.accumulate(key, f)


class Tensor:
    """A sparse tensor field: nonzero coefficient functions on hatG^rank.

    Subclasses set rank (keys are labels g at rank 1 and tuples
    (k_1, ..., k_rank) above) and side, "left" or "right" of the basis,
    where the coefficients sit; the module docstring gives the rule for
    multiplying by functions.  terms holds only the nonzero coefficients
    in canonical form (funcs.canonical), which accumulate keeps, so == is
    structural; coeffs and coeff read them back as GroupFunctions.
    """

    rank = 1
    side = "left"

    def __init__(self, calculus, coeffs=None):
        calculus.require_left_covariant()
        self.calculus = calculus
        self.terms = {}
        if not coeffs:
            return
        space = set(self._keys())
        for key, value in coeffs.items():
            if key not in space:
                raise NotInHatG(f"coefficient key {key!r} is not in hatG^{self.rank}")
            self.accumulate(key, value)

    @property
    def coeffs(self):
        return _Coeffs(self)

    def _like(self, terms=()):
        """A tensor of the same kind, calculus and basis holding terms."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.terms = dict(terms)
        return out

    def _space(self):
        """What two tensors must share to be added or compared."""
        return (type(self), self.calculus)

    def _check(self, other):
        if self._space() != other._space():
            raise CalculusMismatch("tensors live on different calculi, kinds or bases")

    def _keys(self):
        """Every key of hatG^rank, lexicographic."""
        hatG = self.calculus.hatG
        if self.rank == 1:
            return list(hatG)
        return list(product(hatG, repeat=self.rank))

    def _legs(self, key):
        """The labels of a key as a tuple, at every rank."""
        return (key,) if self.rank == 1 else key

    def _map(self, fn):
        out = self._like()
        for key, c in self.terms.items():
            out.accumulate(key, fn(key, c))
        return out

    def accumulate(self, key, f):
        """Add the coefficient f, a scalar or a GroupFunction, at key in
        place, keeping the canonical form."""
        terms = self.terms
        got = terms.get(key)
        if got is not None:
            f = got + f
        if f.__class__ is not int:
            f = funcs.canonical(self.calculus.group, f)
        if f.__class__ is GroupFunction or f:  # a canonical function is nonzero
            terms[key] = f
        else:
            terms.pop(key, None)

    def coeff(self, *labels):
        """The coefficient at a key as a GroupFunction."""
        got = self.terms.get(labels[0] if self.rank == 1 else labels, 0)
        return funcs.as_function(self.calculus.group, got)

    def __iadd__(self, other):
        self._check(other)
        for key, f in other.terms.items():
            self.accumulate(key, f)
        return self

    def __add__(self, other):
        out = self._like(self.terms)
        out += other
        return out

    def __sub__(self, other):
        out = self._like(self.terms)
        out += -other
        return out

    def __neg__(self):
        return self._map(lambda key, c: -c)

    def scale(self, a):
        return self._map(lambda key, c: c * a)

    def _crossing(self, f):
        """key -> f, a canonical coefficient, translated across the basis
        legs of key.  R_g of a scalar is the scalar, so it crosses as
        itself."""
        if not isinstance(f, GroupFunction):
            return lambda key: f
        group = self.calculus.group
        moved = {}

        def across(key):
            legs = self._legs(key)
            if self.side == "left":
                legs = reversed(legs)
            p = 0
            for k in legs:
                p = group.mul(p, k)
            got = moved.get(p)
            if got is None:
                got = moved[p] = funcs.right_translate(group.inverse(p), f)
            return got

        return across

    def left_mul(self, f):
        """f * self."""
        f = funcs.canonical(self.calculus.group, f)
        if self.side == "left":
            return self._map(lambda key, c: f * c)
        across = self._crossing(f)
        return self._map(lambda key, c: across(key) * c)

    def right_mul(self, f):
        """self * f."""
        f = funcs.canonical(self.calculus.group, f)
        if self.side == "right":
            return self._map(lambda key, c: c * f)
        across = self._crossing(f)
        return self._map(lambda key, c: c * across(key))

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not any(isinstance(c, GroupFunction) for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def fiber(self, h):
        """Coefficient vector at group point h, lexicographic key order."""
        return [c(h) for c in self.coeffs.values()]

    def constant_vector(self):
        if not self.is_constant():
            raise ValueError("tensor has non-constant coefficients")
        return [self.terms.get(k, 0) for k in self._keys()]


class OneForm(Tensor):
    """phi = phi_g theta^g with coefficients on the left (or the omega basis)."""

    def __init__(self, calculus, coeffs, basis="theta"):
        self.basis = basis
        super().__init__(calculus, coeffs)

    def _space(self):
        return super()._space() + (self.basis,)

    def right_mul(self, f):
        """phi * f: the coefficient picks up a translated factor."""
        if self.basis != "theta":
            raise ValueError("right multiplication implemented in the theta basis")
        return super().right_mul(f)

    def __repr__(self):
        sym = "theta" if self.basis == "theta" else "omega"
        parts = [
            f"({'+'.join(funcs.as_function(self.calculus.group, c).as_strings())}) "
            f"{sym}^{self.calculus.group.name(g)}"
            for g, c in sorted(self.terms.items())
        ]
        return " + ".join(parts) if parts else "0"


def theta_form(calculus, g, coeff=1):
    return OneForm(calculus, {g: coeff})


def omega_form(calculus, g):
    """The right-invariant basis form omega^g written in the theta basis."""
    calculus.require_bicovariant()
    calculus.hat_index(g)
    grp = calculus.group
    coeffs = {}
    for k in calculus.hatG:
        values = [int(grp.adjoint(grp.inverse(h), g) == k) for h in range(grp.order)]
        coeffs[k] = funcs.from_values(grp, values)
    return OneForm(calculus, coeffs)


def rho(calculus):
    """The bi-invariant 1-form rho = sum of all theta^g."""
    calculus.require_left_covariant()
    return OneForm(calculus, dict.fromkeys(calculus.hatG, 1))


def differential(calculus, f):
    """d f = (ell_g f) theta^g; the zero form for a scalar or a constant f.

    The only place that evaluates ell_g: d of tensors, covariant
    derivatives and vector fields on functions all read it.
    """
    calculus.require_left_covariant()
    out = OneForm(calculus, {})
    f = funcs.canonical(calculus.group, f)
    if isinstance(f, GroupFunction):
        for g in calculus.hatG:
            out.accumulate(g, funcs.ell(g, f))
    return out


def theta_commute(calculus, f, g):
    """Move f across theta^g: f theta^g = theta^g (R_g f); returns R_g f."""
    calculus.hat_index(g)
    return funcs.right_translate(g, f)


def omega_theta_convert(form):
    """Re-express a 1-form in the other basis: a theta-basis form in the
    omega basis, an omega-basis form in the theta basis.

    theta to omega: psi_k(h) = phi_{ad(h^-1)k}(h)
    omega to theta: phi_k(h) = psi_{ad(h)k}(h)
    """
    calculus = form.calculus
    calculus.require_bicovariant()
    grp = calculus.group
    to_omega = form.basis == "theta"
    coeffs = {}
    for k in calculus.hatG:
        values = []
        for h in range(grp.order):
            conj = grp.inverse(h) if to_omega else h
            values.append(form.coeff(grp.adjoint(conj, k))(h))
        coeffs[k] = funcs.GroupFunction(grp, tuple(values))
    return OneForm(calculus, coeffs, basis="omega" if to_omega else "theta")


def to_edge_coeffs(form):
    """theta-basis 1-form -> per-edge scalars via e_{x,y} = e_x theta^{y^-1 x}."""
    grp = form.calculus.group
    out = {}
    for g, c in form.terms.items():
        ginv = grp.inverse(g)
        for x, v in enumerate(funcs.as_function(grp, c).values):
            if v != 0:
                out[(x, grp.mul(x, ginv))] = v
    return out


def from_edge_coeffs(calculus, edge_coeffs):
    """Per-edge scalars -> theta-basis 1-form."""
    calculus.require_left_covariant()
    grp = calculus.group
    values = {g: [0] * grp.order for g in calculus.hatG}
    for (x, y), v in edge_coeffs.items():
        if (x, y) not in calculus.edges:
            raise ValueError(f"({x},{y}) is not an edge of the calculus")
        g = grp.mul(grp.inverse(y), x)
        values[g][x] += Fraction(v)
    return OneForm(
        calculus, {g: funcs.from_values(grp, vals) for g, vals in values.items()}
    )


def export_dot(calculus):
    names = [calculus.group.name(x) for x in range(calculus.group.order)]
    return digraph_dot(names, calculus.edges)


def digraph_dot(names, edges):
    """Deterministic DOT text for a digraph on named vertices; a pair of
    opposite edges is drawn once, with dir=both."""
    lines = ["digraph calculus {"]
    for name in names:
        lines.append(f'  "{name}";')
    edges = set(edges)
    for x, y in sorted(edges):
        if (y, x) in edges:
            if x < y:
                lines.append(f'  "{names[x]}" -> "{names[y]}" [dir=both];')
        else:
            lines.append(f'  "{names[x]}" -> "{names[y]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
