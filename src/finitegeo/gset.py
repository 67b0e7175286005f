"""Finite group actions on finite sets and covariant calculi on them.

A differential calculus on a finite set is a digraph without loops; the
calculus is covariant under a group acting on the set when the edge set
is stable under the diagonal action.  Covariant calculi are therefore
unions of orbits of the action on off-diagonal pairs, and the
irreducible ones are the single orbits.
"""

from .calculus import digraph_dot, unions
from .errors import NotAnAction
from .groups import DEFAULT_MAX_ORDER, from_permutations, generators, orbits as group_orbits


class GSet:
    """A finite set with a left group action, stored as a lookup table.

    The table maps (group element, point) to a point; the identity must
    fix every point and the table must respect the group product.
    """

    def __init__(self, group, size, table):
        self.group = group
        self.size = size
        self.table = {k: v for k, v in table.items()}
        self._validate()

    def _validate(self):
        group = self.group
        for a in range(group.order):
            for x in range(self.size):
                got = self.table.get((a, x))
                if got is None or not 0 <= got < self.size:
                    raise NotAnAction(
                        f"action table misses or misplaces ({a}, {x})"
                    )
        for x in range(self.size):
            if self.table[(0, x)] != x:
                raise NotAnAction("identity must fix every point")
        # The product rule (ab).x = a.(b.x) for all b and x holds for every
        # a once it holds for a generating set: if a and g satisfy it, so
        # does ag, since (agb).x = a.((gb).x) = a.(g.(b.x)) = (ag).(b.x).
        table = self.table
        for a in generators(group.table):
            for b in range(group.order):
                ab = group.mul(a, b)
                for x in range(self.size):
                    if table[(ab, x)] != table[(a, table[(b, x)])]:
                        raise NotAnAction(
                            "table does not respect the group product"
                        )

    def act(self, a, x):
        return self.table[(a, x)]

    def __repr__(self):
        return f"GSet({self.group.label}, {self.size} points)"


def gset_from_permutations(perms, size=None, max_order=DEFAULT_MAX_ORDER):
    """Build the group generated by permutations together with its
    natural action on the points.

    Permutations are tuples in one-line notation over range(size).
    Raises TooLarge when the group exceeds max_order.
    """
    if not perms:
        raise NotAnAction("at least one permutation is needed")
    if size is None:
        size = len(perms[0])
    perms = [tuple(p) for p in perms]
    for p in perms:
        if sorted(p) != list(range(size)):
            raise NotAnAction(f"{p} is not a permutation of {size} points")
    group, elements = from_permutations(perms, max_order, with_elements=True)
    table = {(i, x): perm[x] for i, perm in enumerate(elements) for x in range(size)}
    return GSet(group, size, table)


def left_translation_gset(group):
    """The group acting on itself by left translation."""
    n = group.order
    return GSet(group, n, {(a, x): group.mul(a, x) for a in range(n) for x in range(n)})


def pair_orbits(gs):
    """Orbits of the diagonal action on off-diagonal pairs.

    Returns a list of sorted tuples of pairs, ordered by their smallest
    member.
    """
    return group_orbits(
        [(x, y) for x in range(gs.size) for y in range(gs.size) if x != y],
        lambda a, p: (gs.act(a, p[0]), gs.act(a, p[1])),
        gs.group,
    )


def covariant_calculi(gs):
    """All covariant calculi on the set, as sorted edge-set tuples.

    They are exactly the unions of pair orbits, including the empty
    union (the trivial calculus) and the full union (the universal
    one).  Raises TooLarge when there are more than ENUM_LIMIT unions;
    the orbit list from pair_orbits is a usable summary in that case.
    """
    return unions(pair_orbits(gs))


def irreducible_calculi(gs):
    """The covariant calculi obtained by deleting exactly one pair
    orbit from the universal calculus.

    The edge set of each is the complement of a single orbit, so there
    are as many irreducible calculi as orbits.
    """
    orbs = pair_orbits(gs)
    universe = {p for orb in orbs for p in orb}
    return [tuple(sorted(universe - set(orb))) for orb in orbs]


def gset_dot(gs, edges):
    """DOT digraph of an edge set on the points of the set, numbered from 1."""
    return digraph_dot([str(x + 1) for x in range(gs.size)], edges)
