"""Finite groups as indexed Cayley tables.

Elements are integers 0..order-1 with the identity always at index 0.
Constructors relabel if needed.  Two builders make every named group:
_indexed_group, the one table builder, fills Z_n, D_n, Dic_n and direct
products from an index product rule, and _group_from_perms, the one
closure, closes permutation generators (S_n, A_n, from_permutations)
breadth-first and fills the table from their words.  orbits is the
orbit routine: the conjugacy classes are the orbits of the adjoint
action, computed lazily and cached, the center is the singleton classes,
and a group is abelian when every class is a singleton; adjoint_orbits
reads the orbits on hatG^k off the conjugation table.  cycles is the one
cycle routine: cycle names of permutations and sigma's cycles in braid
read it.
"""

import itertools
from functools import cached_property
from math import factorial

from .errors import NoIdentity, NoInverse, NotAnAction, NotAssociative, TooLarge

DEFAULT_MAX_ORDER = 1024


class FiniteGroup:
    def __init__(self, table, names=None, aliases=None, label=None, _validated=False):
        self.table = table if _validated else [list(row) for row in table]
        self.order = len(self.table)
        if not _validated:
            _validate_table(self.table)
        self.names = list(names) if names else _default_names(self.order)
        if len(self.names) != self.order or len(set(self.names)) != self.order:
            raise ValueError("names must be distinct and match the order")
        self.aliases = dict(aliases) if aliases else {}
        self.label = label or f"G{self.order}"
        # In an associative table with identity, x y = e forces y x = e.
        self.inv = []
        for x, row in enumerate(self.table):
            try:
                y = row.index(0)
            except ValueError:
                y = None
            if y is None or self.table[y][x] != 0:
                raise NoInverse(f"element {x} has no two-sided inverse")
            self.inv.append(y)
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
        """Partition of elements into conjugacy classes, sorted tuples."""
        if self._classes is None:
            self._classes = orbits(range(self.order), self.adjoint, self)
            self._class_of = [0] * self.order
            for i, cls in enumerate(self._classes):
                for x in cls:
                    self._class_of[x] = i
        return self._classes

    def class_of(self, x):
        """The index of x's class in conjugacy_classes()."""
        self.conjugacy_classes()
        return self._class_of[x]

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


def _indexed_group(order, mul, name, label, max_order, aliases=None):
    """The group on 0..order-1 with product mul(x, y), x named name(x) and
    aliases(x); the bound is checked before anything of that size is built."""
    if order > max_order:
        raise TooLarge(f"order {order} exceeds the bound {max_order}")
    elements = range(order)
    table = [[mul(x, y) for y in elements] for x in elements]
    alias = {a: x for x in elements for a in aliases(x)} if aliases else None
    names = [name(x) for x in elements]
    return FiniteGroup(table, names=names, aliases=alias, label=label, _validated=True)


def _word(letter, k):
    """letter^k as a name: '' for k = 0, the letter for k = 1, else letter k."""
    return "" if k == 0 else letter if k == 1 else f"{letter}{k}"


def cyclic(n, max_order=DEFAULT_MAX_ORDER):
    """The cyclic group Z_n with mul(i,j) = (i+j) mod n; a^k may also be written k or a^k."""
    if n < 1:
        raise ValueError("order must be positive")
    return _indexed_group(
        n, lambda i, j: (i + j) % n, lambda k: _word("a", k) or "e", f"Z{n}", max_order,
        lambda k: ("a1", "a^1", "1") if k == 1 else (f"a^{k}", str(k)) if k else ("0",),
    )


def direct_product(g1, g2, max_order=DEFAULT_MAX_ORDER):
    """Componentwise product; element (x, y) gets index x*|g2| + y."""
    n2, t1, t2 = g2.order, g1.table, g2.table
    return _indexed_group(
        g1.order * n2, lambda x, y: t1[x // n2][y // n2] * n2 + t2[x % n2][y % n2],
        lambda x: f"{g1.names[x // n2]}.{g2.names[x % n2]}", f"{g1.label}x{g2.label}", max_order,
    )


def dihedral(n, max_order=DEFAULT_MAX_ORDER):
    """D_n of order 2n: rotations r^i and reflections r^i s, with s r s = r^-1.

    Element eps*n + i is r^i s^eps, eps in {0, 1}, 0 <= i < n.
    """
    if n < 1:
        raise ValueError("n must be positive")

    def mul(x, y):
        (eps, i), (delta, j) = divmod(x, n), divmod(y, n)
        return (eps ^ delta) * n + (i - j if eps else i + j) % n

    return _indexed_group(
        2 * n, mul, lambda x: _word("r", x % n) + "s" * (x // n) or "e", f"D{n}", max_order
    )


def dicyclic(n, max_order=DEFAULT_MAX_ORDER):
    """Dic_n of order 4n: a of order 2n, x^2 = a^n, x a x^-1 = a^-1 (Dic_2 = Q8).

    Element eps*2n + i is a^i x^eps, eps in {0, 1}, 0 <= i < 2n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = 2 * n

    def mul(x, y):
        (eps, i), (delta, j) = divmod(x, m), divmod(y, m)
        return (eps ^ delta) * m + ((i - j if eps else i + j) + n * (eps & delta)) % m

    return _indexed_group(
        4 * n, mul, lambda x: _word("a", x % m) + "x" * (x // m) or "e", f"Dic{n}", max_order
    )


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
_S3_NAMES = {(0, 1, 2): "e", (0, 2, 1): "b", (1, 0, 2): "a",
             (1, 2, 0): "ab", (2, 0, 1): "ba", (2, 1, 0): "c"}


def _group_from_perms(gens, degree, label=None, letter_names=None, max_order=DEFAULT_MAX_ORDER):
    """The group that gens, permutations of range(degree), generate, and
    its elements in lexicographic one-line order; label defaults to P{order}.

    Breadth-first from the identity, each new element z gets the word
    z = y s, y found earlier and s a generator.  As x (y s) = (x y) s,
    row[z] = R_s[row[y]] fills each row, R_s being right multiplication
    by s as an index table."""
    perms = [tuple(range(degree))]
    found = {perms[0]}
    right = [{} for _ in gens]  # right[s][y] = y gens[s]
    words = []  # (z, s, y) with z = y gens[s], y found before z
    for y in perms:
        if len(perms) > max_order:
            raise TooLarge(f"closure exceeds the bound {max_order}")
        for s, gen in enumerate(gens):
            z = right[s][y] = _perm_mul(y, gen)
            if z not in found:
                found.add(z)
                perms.append(z)
                words.append((z, s, y))
    perms.sort()
    index = {p: i for i, p in enumerate(perms)}
    right = [[index[r[p]] for p in perms] for r in right]
    words = [(index[z], right[s], index[y]) for z, s, y in words]
    table = []
    for x in range(len(perms)):
        row = [x] * len(perms)
        for z, r, y in words:
            row[z] = r[row[y]]
        table.append(row)
    names = [_cycle_name(p) for p in perms]
    aliases = {}
    if letter_names:
        letters = [letter_names[p] for p in perms]
        aliases = {c: i for i, c in enumerate(names) if c not in letters}
        names = letters
    label = label or f"P{len(perms)}"
    group = FiniteGroup(table, names=names, aliases=aliases, label=label, _validated=True)
    return group, perms


def symmetric(n, max_order=DEFAULT_MAX_ORDER):
    """S_n on permutations of n letters, lexicographic one-line order."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n > max_order or factorial(n) > max_order:  # n! >= n, so a huge n! is never computed
        raise TooLarge(f"{n}! exceeds the bound {max_order}")
    transposition = (1, 0) + tuple(range(2, n)) if n > 1 else (0,)
    n_cycle = tuple(range(1, n)) + (0,)
    letter_names = _S3_NAMES if n == 3 else None
    return _group_from_perms([transposition, n_cycle], n, f"S{n}", letter_names, max_order)[0]


def alternating(n, max_order=DEFAULT_MAX_ORDER):
    """A_n, the even permutations of n letters, lexicographic order."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n > 1 and (n > max_order + 1 or factorial(n) // 2 > max_order):  # n!/2 >= n from n = 3
        raise TooLarge(f"{n}!/2 exceeds the bound {max_order}")
    # The 3-cycles (0 1 k), 2 <= k < n, generate A_n.
    gens = [(1, k, *range(2, k), 0, *range(k + 1, n)) for k in range(2, n)]
    return _group_from_perms(gens, n, f"A{n}", None, max_order)[0]


def from_permutations(perms, max_order=DEFAULT_MAX_ORDER, with_elements=False):
    """The group generated by the given permutations (tuples), labelled
    P{order}.  With with_elements, also returns the permutation list in
    element order, so callers can recover the natural action on points.
    """
    perms = [tuple(p) for p in perms]
    if not perms:
        raise ValueError("need at least one permutation")
    degree = len(perms[0])
    for p in perms:
        if sorted(p) != list(range(degree)):
            raise ValueError(f"{p!r} is not a permutation of 0..{degree - 1}")
    group, elements = _group_from_perms(perms, degree, max_order=max_order)
    return (group, elements) if with_elements else group


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
