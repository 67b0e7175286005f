"""Group construction, validation and structure queries."""

import random
from itertools import permutations, product

import pytest

from finitegeo import cli, groups
from finitegeo.catalog import small_group_catalog
from finitegeo.errors import NoIdentity, NoInverse, NotAssociative, TooLarge

import dense_paths


def test_cyclic_group_basics():
    z5 = groups.cyclic(5)
    assert z5.order == 5
    assert z5.is_abelian()
    assert z5.name(0) == "e"
    for x in z5.elements():
        assert z5.mul(x, z5.inverse(x)) == 0


def test_symmetric_group_s3_structure(s3):
    assert s3.order == 6
    assert not s3.is_abelian()
    assert s3.center() == [0]
    classes = [sorted(c) for c in s3.conjugacy_classes()]
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2, 3]


def test_s3_letter_names_multiply_correctly(s3):
    a = s3.element_index("a")
    b = s3.element_index("b")
    ab = s3.element_index("ab")
    ba = s3.element_index("ba")
    c = s3.element_index("c")
    assert s3.mul(a, b) == ab
    assert s3.mul(b, a) == ba
    assert s3.mul(a, ba) == c
    assert s3.inverse(ab) == ba


def test_s3_cycle_aliases_resolve(s3):
    assert s3.element_index("(12)") == s3.element_index("a")
    assert s3.element_index("(23)") == s3.element_index("b")
    assert s3.element_index("(13)") == s3.element_index("c")
    assert s3.element_index("(123)") == s3.element_index("ab")
    assert s3.element_index("(132)") == s3.element_index("ba")


def test_adjoint_is_conjugation(s3):
    for h in s3.elements():
        for x in s3.elements():
            expected = s3.mul(s3.mul(h, x), s3.inverse(h))
            assert s3.adjoint(h, x) == expected


def test_ad_order_of_s3_is_six(s3):
    assert s3.ad_order() == 6


def test_alternating_group_a4():
    a4 = groups.alternating(4)
    assert a4.order == 12
    # class_of on a fresh group computes the classes it indexes.
    assert a4.class_of(1) == 1
    assert all(x in a4.conjugacy_classes()[a4.class_of(x)] for x in a4.elements())
    sizes = sorted(len(c) for c in a4.conjugacy_classes())
    assert sizes == [1, 3, 4, 4]


def test_dihedral_and_dicyclic_orders():
    assert groups.dihedral(4).order == 8
    assert groups.dicyclic(2).order == 8
    q8 = groups.dicyclic(2)
    central = q8.center()
    assert len(central) == 2


def test_direct_product_of_coprime_cyclics_is_cyclic():
    z6 = groups.direct_product(groups.cyclic(2), groups.cyclic(3))
    assert z6.order == 6
    assert z6.is_abelian()
    orders = sorted(dense_paths.element_order(z6, x) for x in z6.elements())
    z6_cyclic = groups.cyclic(6)
    assert orders == sorted(dense_paths.element_order(z6_cyclic, x) for x in range(6))


def test_from_cayley_table_accepts_z2():
    g = groups.from_cayley_table([[0, 1], [1, 0]], names=["e", "t"])
    assert g.order == 2
    assert g.element_index("t") == 1


@pytest.mark.parametrize("table", [
    [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
    # A loop: identity 0, every element its own inverse, a Latin square.
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
])
def test_from_cayley_table_rejects_nonassociative(table):
    with pytest.raises(NotAssociative):
        groups.from_cayley_table(table)


def _passes_associativity(table):
    """from_cayley_table's associativity verdict; an associative table
    may still lack inverses."""
    try:
        groups.from_cayley_table(table)
    except NotAssociative:
        return False
    except NoInverse:
        pass
    return True


def test_associativity_verdict_matches_the_triple_loop():
    """Catalog tables and seeded one-entry changes away from the identity
    row and column get the triple loop's verdict."""
    rng = random.Random(5)
    verdicts = set()
    for group in small_group_catalog().values():
        n = group.order
        tables = [group.table]
        for _ in range(8 if n > 1 else 0):
            table = [list(row) for row in group.table]
            x, y = rng.randrange(1, n), rng.randrange(1, n)
            table[x][y] = rng.choice([v for v in range(n) if v != table[x][y]])
            tables.append(table)
        for table in tables:
            verdict = dense_paths.is_associative(table)
            assert _passes_associativity(table) == verdict, table
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _submagma(table, x):
    """The elements reached from x and the identity by products."""
    reached, frontier = {0}, [x]
    while frontier:
        y = frontier.pop()
        if y not in reached:
            reached.add(y)
            frontier.extend(w for z in list(reached) for w in (table[y][z], table[z][y]))
    return reached


def _first_table(n, failures_allowed):
    """The first n x n table, with identity row and column at 0, that is
    not associative and whose failing triples (a, b, c) all pass
    failures_allowed(table, a, b, c)."""
    inner = range(1, n)
    for body in product(range(n), repeat=(n - 1) ** 2):
        table = [list(range(n))]
        table += [[x] + list(body[(x - 1) * (n - 1):x * (n - 1)]) for x in inner]
        bad = [
            (a, b, c)
            for a in inner
            for b in inner
            for c in inner
            if table[table[a][b]][c] != table[a][table[b][c]]
        ]
        if bad and all(failures_allowed(table, *t) for t in bad):
            return table
    raise AssertionError("no such table")


@pytest.mark.parametrize(
    "failures_allowed",
    [
        # b outside what the first generator, element 1, generates
        lambda table, a, b, c: b not in _submagma(table, 1),
        # c the last element
        lambda table, a, b, c: c == len(table) - 1,
    ],
    ids=["b-beyond-first-generator", "c-last"],
)
def test_associativity_check_finds_a_lone_failure_pattern(failures_allowed):
    """A table whose failing triples all sit where a partial check does
    not look: only at later generators, or only at the last c."""
    table = _first_table(4, failures_allowed)
    assert not dense_paths.is_associative(table)
    with pytest.raises(NotAssociative):
        groups._validate_table(table)


def test_from_cayley_table_rejects_missing_identity():
    with pytest.raises(NoIdentity):
        groups.from_cayley_table([[0, 0], [0, 0]])


def test_from_cayley_table_relabels_identity_to_zero():
    g = groups.from_cayley_table([[1, 0], [0, 1]], names=["t", "e"])
    assert g.name(0) == "e"
    assert g.mul(1, 1) == 0


def test_size_bound_raises_too_large():
    with pytest.raises(TooLarge):
        groups.symmetric(4, max_order=10)


def test_a_huge_degree_is_refused_without_its_factorial(monkeypatch):
    """n! >= n, and n!/2 >= n from n = 3, so a degree past the bound is
    refused before n! is computed; a degree within it still computes n!."""
    monkeypatch.setattr(groups, "factorial", lambda n: pytest.fail(f"computed {n}!"))
    with pytest.raises(TooLarge, match=r"^1000000000! exceeds the bound 1024$"):
        groups.symmetric(10**9)
    with pytest.raises(TooLarge, match=r"^1000000000!/2 exceeds the bound 1024$"):
        groups.alternating(10**9)
    with pytest.raises(TooLarge, match=r"^2!/2 exceeds the bound 0$"):
        groups.alternating(2, max_order=0)
    with pytest.raises(pytest.fail.Exception, match="computed 4!"):
        groups.alternating(4, max_order=3)


def test_a_callers_table_is_copied_and_a_missing_inverse_is_named():
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    g = groups.from_cayley_table(table)
    table[1][1] = 0
    table[2] = [9, 9, 9]
    assert g.table == [[0, 1, 2], [1, 2, 0], [2, 0, 1]] and g.inv == [0, 2, 1]
    assert g.mul(1, 1) == 2 and g.mul(2, 2) == 1 and g.order == 3
    # Z2 with an absorbing element z: associative with identity, z has no inverse.
    with pytest.raises(NoInverse, match=r"^element 2 has no two-sided inverse$"):
        groups.from_cayley_table([[0, 1, 2], [1, 0, 2], [2, 2, 2]])


def test_from_permutations_generates_s3():
    g = groups.from_permutations([(1, 0, 2), (0, 2, 1)])
    assert g.order == 6
    assert not g.is_abelian()


def test_element_order_divides_group_order(s3):
    for x in s3.elements():
        assert s3.order % dense_paths.element_order(s3, x) == 0


def test_orbits_partition_the_point_set(s3):
    def act(g, p):
        return s3.mul(g, p)

    orbs = groups.orbits(list(s3.elements()), act, s3)
    assert sorted(x for orb in orbs for x in orb) == list(s3.elements())
    assert len(orbs) == 1


def test_small_group_catalog_orders():
    from finitegeo.catalog import small_group_catalog

    cat = small_group_catalog()
    assert len(cat) == 24
    for name, g in cat.items():
        assert g.order <= 12
    by_order = {}
    for g in cat.values():
        by_order[g.order] = by_order.get(g.order, 0) + 1
    assert by_order[8] == 5
    assert by_order[12] == 5


# ---------------------------------------------------------------------------
# Index families against their presentations, without their product rules.


def _powers(letter, count):
    return ["e"] + [f"{letter}{i}" if i > 1 else letter for i in range(1, count)]


def _check_presentation(g, m, flip_square):
    """Index eps*m + i of g is r^i s^eps, with r at index 1 (mod m) and s
    at index m, and r^m = e, s^2 = r^flip_square, s r s^-1 = r^-1."""
    r, s = 1 % m, m
    assert g.order == 2 * m
    assert dense_paths.is_associative(g.table)
    assert all(g.mul(0, x) == x == g.mul(x, 0) for x in g.elements())
    assert g.power(r, m) == 0
    assert g.power(s, 2) == g.power(r, flip_square)
    assert g.mul(g.mul(s, r), g.inverse(s)) == g.inverse(r)
    words = [g.mul(g.power(r, i), g.power(s, eps)) for eps in (0, 1) for i in range(m)]
    assert words == list(g.elements())


@pytest.mark.parametrize("n", range(1, 13))
def test_index_families_match_their_presentations(n):
    z = groups.cyclic(n)
    assert dense_paths.is_associative(z.table)
    assert z.power(1 % n, n) == 0
    assert [z.power(1 % n, k) for k in range(n)] == list(z.elements())
    assert (z.names, z.label) == (_powers("a", n), f"Z{n}")
    aliases = {"0": 0, **{a: k for k in range(1, n) for a in (f"a^{k}", str(k))}}
    assert z.aliases == (dict(aliases, a1=1) if n > 1 else aliases)

    d = groups.dihedral(n)
    _check_presentation(d, n, 0)
    rotations = _powers("r", n)
    assert d.names == rotations + ["s"] + [f"{w}s" for w in rotations[1:]]
    assert (d.aliases, d.label) == ({}, f"D{n}")

    q = groups.dicyclic(n)
    _check_presentation(q, 2 * n, n)
    rotations = _powers("a", 2 * n)
    assert q.names == rotations + ["x"] + [f"{w}x" for w in rotations[1:]]
    assert (q.aliases, q.label) == ({}, f"Dic{n}")


@pytest.mark.parametrize("g1,g2", [
    (groups.cyclic(3), groups.dihedral(2)),
    (groups.dicyclic(2), groups.cyclic(2)),
    (groups.symmetric(3), groups.cyclic(4)),
    (groups.direct_product(groups.cyclic(2), groups.dihedral(3)), groups.dicyclic(1)),
], ids=lambda g: g.label)
def test_direct_product_projections_are_homomorphisms(g1, g2):
    g = groups.direct_product(g1, g2)
    n2 = g2.order
    assert g.order == g1.order * n2
    assert dense_paths.is_associative(g.table)
    for x in g.elements():
        for y in g.elements():
            assert g1.mul(x // n2, y // n2) == g.mul(x, y) // n2
            assert g2.mul(x % n2, y % n2) == g.mul(x, y) % n2
    assert g.names == [f"{a}.{b}" for a in g1.names for b in g2.names]
    assert (g.aliases, g.label) == ({}, f"{g1.label}x{g2.label}")


def test_index_families_refuse_huge_orders_before_building():
    """The bound is checked first: these would take hours to build."""
    for build in (groups.cyclic, groups.dihedral, groups.dicyclic):
        with pytest.raises(TooLarge):
            build(10**9)
    with pytest.raises(TooLarge):
        groups.direct_product(groups.cyclic(1000), groups.cyclic(1000))


# ---------------------------------------------------------------------------
# Cayley tables of permutation groups from generator words.

# S3's letter names in lexicographic one-line order.
S3_LETTERS = ["e", "b", "a", "ab", "ba", "c"]


def _even(p):
    return dense_paths.parity(p) == 0


def _check_names(group, perms, label, letters=None):
    """Names are cycle names, or letters with the cycle names as aliases."""
    cycle_names = [dense_paths.cycle_name(p) for p in perms]
    if letters:
        assert group.names == letters
        assert group.aliases == {c: i for i, c in enumerate(cycle_names) if c != "e"}
    else:
        assert (group.names, group.aliases) == (cycle_names, {})
    assert group.label == label


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symmetric_table_matches_pairwise_composition(n):
    perms = sorted(permutations(range(n)))
    group = groups.symmetric(n)
    assert group.table == dense_paths.perm_table(perms)
    _check_names(group, perms, f"S{n}", S3_LETTERS if n == 3 else None)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_alternating_table_matches_pairwise_composition(n):
    perms = sorted(p for p in permutations(range(n)) if _even(p))
    group = groups.alternating(n)
    assert group.table == dense_paths.perm_table(perms)
    _check_names(group, perms, f"A{n}")


@pytest.mark.parametrize("size,gens", [
    (3, "(12)"), (3, "(123)"), (3, "(12),(123)"), (4, "(1234),(12)"),
    (4, "(1234),(13)"), (5, "(12345)"), (6, "(123456),(12)"),
])
def test_permutation_group_table_matches_pairwise_composition(size, gens):
    perms = [cli.parse_permutation(t, size) for t in gens.split(",")]
    group, elements = groups.from_permutations(perms, with_elements=True)
    assert elements == sorted(elements)
    assert group.table == dense_paths.perm_table(elements)
    _check_names(group, elements, f"P{len(elements)}")


def test_from_permutations_refuses_a_closure_past_the_bound():
    gens = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]
    assert groups.from_permutations(gens, max_order=720).order == 720
    with pytest.raises(TooLarge, match="closure exceeds the bound 719"):
        groups.from_permutations(gens, max_order=719)
    with pytest.raises(TooLarge, match="closure exceeds the bound 2"):
        groups.from_permutations([(1, 2, 0)], max_order=2)
    with pytest.raises(TooLarge, match="closure exceeds the bound 0"):
        groups.alternating(1, max_order=0)
