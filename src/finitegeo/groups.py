"""Finite groups as indexed Cayley tables.

Elements are integers 0..order-1 with the identity always at index 0.
Constructors relabel if needed.  orbits is the orbit routine: the
conjugacy classes are the orbits of the adjoint action, computed lazily
and cached, the center is the singleton classes, and a group is abelian
when every class is a singleton; adjoint_orbits reads the orbits on
hatG^k off the conjugation table.  cycles is the one cycle routine: cycle
names and parities of permutations and sigma's cycles in braid read it.
"""

import itertools
from functools import cached_property
from math import factorial

from .errors import (InternalInconsistency, NoIdentity, NoInverse, NotAnAction,
                     NotAssociative, TooLarge)

DEFAULT_MAX_ORDER = 1024


class FiniteGroup:
    def __init__(self, table, names=None, aliases=None, label=None, _validated=False):
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        if not _validated:
            _validate_table(self.table)
        self.names = list(names) if names else _default_names(self.order)
        if len(self.names) != self.order or len(set(self.names)) != self.order:
            raise ValueError("names must be distinct and match the order")
        self.aliases = dict(aliases) if aliases else {}
        self.label = label or f"G{self.order}"
        # In an associative table with identity, x y = e forces y x = e.
        self.inv = [row.index(0) if 0 in row else None for row in self.table]
        for x, y in enumerate(self.inv):
            if y is None or self.table[y][x] != 0:
                raise NoInverse(f"element {x} has no two-sided inverse")
        self._classes = None
        self._class_of = None

    # -- basic structure -------------------------------------------------

    def mul(self, x, y):
        return self.table[x][y]

    def inverse(self, x):
        return self.inv[x]

    @cached_property
    def columns(self):
        """The columns of the Cayley table: columns[g][h] = h g."""
        return tuple(zip(*self.table))

    @cached_property
    def conjugates(self):
        """The conjugation table: conjugates[x][a] = a x a^-1."""
        table, inv = self.table, self.inv
        return tuple(tuple(table[ax][ai] for ax, ai in zip(col, inv)) for col in self.columns)

    def adjoint(self, h, x):
        """Conjugation h x h^-1."""
        return self.table[self.table[h][x]][self.inv[h]]

    def power(self, x, k):
        if k < 0:
            x, k = self.inv[x], -k
        acc = 0
        for _ in range(k):
            acc = self.table[acc][x]
        return acc

    def elements(self):
        return range(self.order)

    def name(self, x):
        return self.names[x]

    def element_index(self, spec):
        """Resolve an element given its index, name, or alias."""
        if isinstance(spec, int):
            if 0 <= spec < self.order:
                return spec
            raise KeyError(f"element index {spec} out of range")
        spec = str(spec).strip()
        if spec in self.aliases:
            return self.aliases[spec]
        try:
            return self.names.index(spec)
        except ValueError:
            pass
        if spec.isdigit() and int(spec) < self.order:
            return int(spec)
        raise KeyError(f"unknown element {spec!r} of {self.label}")

    def is_abelian(self):
        return len(self.conjugacy_classes()) == self.order

    # -- conjugacy machinery ---------------------------------------------

    def conjugacy_classes(self):
        """Partition of elements into conjugacy classes, sorted tuples.

        Also fills _class_of, the index in this list of each element's
        class.
        """
        if self._classes is None:
            self._classes = orbits(range(self.order), self.adjoint, self)
            self._class_of = [0] * self.order
            for i, cls in enumerate(self._classes):
                for x in cls:
                    self._class_of[x] = i
        return self._classes

    def nontrivial_classes(self):
        return [c for c in self.conjugacy_classes() if c != (0,)]

    def center(self):
        """The elements alone in their conjugacy class, ascending."""
        return [c[0] for c in self.conjugacy_classes() if len(c) == 1]

    def ad_order(self):
        """Order of the inner automorphism group, |G| / |Z(G)|."""
        return self.order // len(self.center())


def _default_names(n):
    return ["e"] + [f"g{i}" for i in range(1, n)]


def generators(table):
    """Generators of a table with identity 0: each element not yet reached
    joins, and the reached set is closed under right products by them.
    A property of the generators that passes from x and g to xg so holds
    for every element, associative or not (Light's test, GSet._validate).
    """
    n = len(table)
    gens = []
    reached = {0}
    for x in range(1, n):
        if x in reached:
            continue
        gens.append(x)
        frontier = [table[y][x] for y in reached]
        while frontier:
            y = frontier.pop()
            if y not in reached:
                reached.add(y)
                frontier.extend(table[y][g] for g in gens)
        if len(reached) == n:
            break
    return gens


def _validate_table(table):
    """Check the shape, that index 0 is a two-sided identity, and
    associativity by Light's test.

    Light's test checks (a*b)*c = a*(b*c) for every a and c but only for
    b in a generating set (generators).  The b that pass are closed under
    the product, so they are all of the table: the verdict is the full
    triple loop's at a cost of |generators|*n^2 <= n^3.
    """
    n = len(table)
    _check_shape(table)
    if any(table[0][x] != x or table[x][0] != x for x in range(n)):
        raise NoIdentity("index 0 is not a two-sided identity")
    for b in generators(table):
        col_b = [table[x][b] for x in range(n)]
        row_b = table[b]
        for a in range(n):
            ab = col_b[a]
            row_a = table[a]
            for c in range(n):
                if table[ab][c] != row_a[row_b[c]]:
                    raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")


def from_cayley_table(table, names=None, label=None):
    """Build a group from a raw multiplication table, relabeling the identity to 0."""
    n = len(table)
    if n == 0:
        raise NoIdentity("empty table")
    _check_shape(table)
    e = None
    for x in range(n):
        if all(table[x][y] == y and table[y][x] == y for y in range(n)):
            e = x
            break
    if e is None:
        raise NoIdentity("table has no two-sided identity")
    if e != 0:
        # Swap element e with element 0 so the identity lands at index 0.
        sub = {e: 0, 0: e}
        perm = [sub.get(x, x) for x in range(n)]
        table = [[perm[table[perm[x]][perm[y]]] for y in range(n)] for x in range(n)]
        if names:
            reordered = list(names)
            reordered[0], reordered[e] = reordered[e], reordered[0]
            names = reordered
    return FiniteGroup(table, names=names, label=label)


def _check_shape(table):
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(f"entry {v!r} out of range in row {i}")


def cyclic(n, max_order=DEFAULT_MAX_ORDER):
    """The cyclic group Z_n with mul(i,j) = (i+j) mod n."""
    if n < 1:
        raise ValueError("order must be positive")
    if n > max_order:
        raise TooLarge(f"order {n} exceeds the bound {max_order}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"]
    aliases = {"0": 0}
    if n > 1:
        names.append("a")
        aliases.update({"a1": 1, "a^1": 1, "1": 1})
    for k in range(2, n):
        names.append(f"a{k}")
        aliases[f"a^{k}"] = k
        aliases[str(k)] = k
    return FiniteGroup(table, names=names, aliases=aliases, label=f"Z{n}", _validated=True)


def _perm_mul(x, y):
    """Composition (x*y)(i) = x(y(i)): apply y first, then x."""
    return tuple(x[i] for i in y)


def cycles(perm):
    """The cycles of a permutation given as a dict from each point to its
    image, in the dict's order of first points, each in cycle order."""
    seen = set()
    out = []
    for start in perm:
        if start in seen:
            continue
        cycle = []
        x = start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = perm[x]
        out.append(cycle)
    return out


def _cycle_name(perm):
    """Cycle notation with 1-based entries, e.g. (12)(34); identity is 'e'."""
    moved = [c for c in cycles(dict(enumerate(perm))) if len(c) > 1]
    return "".join("(" + "".join(str(j + 1) for j in c) + ")" for c in moved) or "e"


# Conventional short names for the six elements of S3 in lexicographic
# one-line order: a=(12), b=(23), c=(13), ab=(123), ba=(132).
_S3_NAMES = {
    (0, 1, 2): "e",
    (0, 2, 1): "b",
    (1, 0, 2): "a",
    (1, 2, 0): "ab",
    (2, 0, 1): "ba",
    (2, 1, 0): "c",
}


def _group_from_perms(perms, gens, label, letter_names=None, max_order=DEFAULT_MAX_ORDER):
    """The group of perms, a composition-closed list with the identity
    first, generated by gens.  Breadth-first from the identity each element
    gets a word z = y s with y found earlier, and as x (y s) = (x y) s,
    row[z] = R_s[row[y]] fills each row, R_s being right multiplication by
    s as an index table."""
    if len(perms) > max_order:
        raise TooLarge(f"order {len(perms)} exceeds the bound {max_order}")
    index = {p: i for i, p in enumerate(perms)}
    right = [[index[_perm_mul(x, s)] for x in perms] for s in gens]
    reached = {0}
    steps = []  # (z, R_s, y) with z = y s, y reached before z
    frontier = [0]
    for y in frontier:
        for r in right:
            z = r[y]
            if z not in reached:
                reached.add(z)
                steps.append((z, r, y))
                frontier.append(z)
    if len(reached) != len(perms):
        raise InternalInconsistency(f"generators reach {len(reached)} of {len(perms)} elements")
    table = []
    for x in range(len(perms)):
        row = [x] * len(perms)
        for z, r, y in steps:
            row[z] = r[row[y]]
        table.append(row)
    if letter_names:
        names = [letter_names[p] for p in perms]
        aliases = {_cycle_name(p): i for i, p in enumerate(perms)}
        aliases = {k: v for k, v in aliases.items() if k not in names}
    else:
        names = [_cycle_name(p) for p in perms]
        aliases = {}
    return FiniteGroup(table, names=names, aliases=aliases, label=label, _validated=True)


def symmetric(n, max_order=DEFAULT_MAX_ORDER):
    """S_n on permutations of n letters, lexicographic one-line order."""
    if n < 1:
        raise ValueError("degree must be positive")
    if factorial(n) > max_order:
        raise TooLarge(f"{n}! exceeds the bound {max_order}")
    perms = sorted(itertools.permutations(range(n)))
    transposition = (1, 0) + tuple(range(2, n)) if n > 1 else (0,)
    n_cycle = tuple(range(1, n)) + (0,)
    letter_names = _S3_NAMES if n == 3 else None
    return _group_from_perms(perms, [transposition, n_cycle], f"S{n}", letter_names, max_order)


def alternating(n, max_order=DEFAULT_MAX_ORDER):
    """A_n, the even permutations of n letters, lexicographic order."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n > 1 and factorial(n) // 2 > max_order:
        raise TooLarge(f"{n}!/2 exceeds the bound {max_order}")
    perms = sorted(p for p in itertools.permutations(range(n)) if _parity(p) == 0)
    # The 3-cycles (0 1 k), 2 <= k < n, generate A_n.
    gens = [(1, k, *range(2, k), 0, *range(k + 1, n)) for k in range(2, n)]
    return _group_from_perms(perms, gens, f"A{n}", None, max_order)


def _parity(perm):
    """0 for an even permutation, 1 for an odd one: (n - #cycles) mod 2."""
    return (len(perm) - len(cycles(dict(enumerate(perm))))) % 2


def direct_product(g1, g2, max_order=DEFAULT_MAX_ORDER):
    """Componentwise product; element (x, y) gets index x*|g2| + y."""
    n1, n2 = g1.order, g2.order
    if n1 * n2 > max_order:
        raise TooLarge(f"order {n1 * n2} exceeds the bound {max_order}")
    n = n1 * n2
    table = [[0] * n for _ in range(n)]
    for x1 in range(n1):
        for y1 in range(n2):
            i = x1 * n2 + y1
            for x2 in range(n1):
                for y2 in range(n2):
                    table[i][x2 * n2 + y2] = g1.table[x1][x2] * n2 + g2.table[y1][y2]
    names = [f"{g1.names[x]}.{g2.names[y]}" for x in range(n1) for y in range(n2)]
    return FiniteGroup(
        table, names=names, label=f"{g1.label}x{g2.label}", _validated=True
    )


def dihedral(n, max_order=DEFAULT_MAX_ORDER):
    """D_n of order 2n: rotations r^i and reflections r^i s, with s r s = r^-1."""
    if n < 1:
        raise ValueError("n must be positive")
    if 2 * n > max_order:
        raise TooLarge(f"order {2 * n} exceeds the bound {max_order}")
    size = 2 * n

    def idx(i, eps):
        return eps * n + i % n

    table = [[0] * size for _ in range(size)]
    for i in range(n):
        for eps in (0, 1):
            for j in range(n):
                for delta in (0, 1):
                    k = (i + j) if eps == 0 else (i - j)
                    table[idx(i, eps)][idx(j, delta)] = idx(k, (eps + delta) % 2)
    names = ["e"] + [f"r{i}" if i > 1 else "r" for i in range(1, n)]
    names += ["s"] + [f"r{i}s" if i > 1 else "rs" for i in range(1, n)]
    return FiniteGroup(table, names=names, label=f"D{n}", _validated=True)


def dicyclic(n, max_order=DEFAULT_MAX_ORDER):
    """Dic_n of order 4n: a of order 2n, x^2 = a^n, x a x^-1 = a^-1 (Dic_2 = Q8)."""
    if n < 1:
        raise ValueError("n must be positive")
    if 4 * n > max_order:
        raise TooLarge(f"order {4 * n} exceeds the bound {max_order}")
    m = 2 * n
    size = 4 * n

    def idx(i, eps):
        return eps * m + i % m

    table = [[0] * size for _ in range(size)]
    for i in range(m):
        for j in range(m):
            table[idx(i, 0)][idx(j, 0)] = idx(i + j, 0)
            table[idx(i, 0)][idx(j, 1)] = idx(i + j, 1)
            table[idx(i, 1)][idx(j, 0)] = idx(i - j, 1)
            table[idx(i, 1)][idx(j, 1)] = idx(i - j + n, 0)
    names = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    names += ["x"] + [f"a{i}x" if i > 1 else "ax" for i in range(1, m)]
    return FiniteGroup(table, names=names, label=f"Dic{n}", _validated=True)


def from_permutations(perms, max_order=DEFAULT_MAX_ORDER, with_elements=False):
    """Closure of the given permutations (tuples) under composition.

    Right products x*gen suffice: in a finite group they already reach
    every product of generators.  With with_elements, also returns the
    permutation list in element order, so callers can recover the natural
    action on points.
    """
    perms = [tuple(p) for p in perms]
    if not perms:
        raise ValueError("need at least one permutation")
    degree = len(perms[0])
    identity = tuple(range(degree))
    for p in perms:
        if sorted(p) != list(range(degree)):
            raise ValueError(f"{p!r} is not a permutation of 0..{degree - 1}")
    closure = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for gen in perms:
            y = _perm_mul(x, gen)
            if y not in closure:
                if len(closure) >= max_order:
                    raise TooLarge(f"closure exceeds the bound {max_order}")
                closure.add(y)
                frontier.append(y)
    ordered = sorted(closure)
    group = _group_from_perms(ordered, perms, f"P{len(ordered)}", None, max_order)
    if with_elements:
        return group, ordered
    return group


def orbits(points, act, group):
    """Orbits of a left group action, as a sorted list of sorted tuples.

    act(g, p) -> p is evaluated for every group element and point.  Two
    checks guard against a non-action: the orbit of p must contain p (the
    identity fixes it), and orbits must be disjoint.  Neither proves the
    action axioms.
    """
    points = list(points)
    remaining = set(points)
    result = []
    for p in points:
        if p not in remaining:
            continue
        orbit = {act(g, p) for g in group.elements()}
        if p not in orbit:
            raise NotAnAction(f"identity does not fix {p!r}")
        missing = orbit - remaining
        if missing:
            raise NotAnAction(f"orbits are not disjoint at {sorted(missing)!r}")
        remaining -= orbit
        result.append(tuple(sorted(orbit)))
    return sorted(result)


def adjoint_orbits(group, hatG, k):
    """Orbits of the diagonal adjoint action on hatG^k, a conjugation-closed
    hatG, as orbits returns them; the orbit of p is one zip of its legs'
    rows of the conjugation table."""
    conj = group.conjugates
    seen = set()
    result = []
    for p in itertools.product(hatG, repeat=k):
        if p not in seen:
            orbit = set(zip(*(conj[x] for x in p)))
            seen |= orbit
            result.append(tuple(sorted(orbit)))
    return sorted(result)
