"""Reference computations made without the program under test.

Every function here works on plain data: a Cayley table (list of rows,
identity at index 0), the inverse list, the sorted reduced set hatG, and
coefficient values read out of the program's results as Fractions.  The
benchmark compares the program's answers with these; a mismatch counts
the operation as failed.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm


def inverses(table):
    n = len(table)
    return [next(y for y in range(n) if table[x][y] == 0) for x in range(n)]


def conjugacy_classes(table):
    n = len(table)
    inv = inverses(table)
    seen, classes = set(), []
    for x in range(n):
        if x in seen:
            continue
        cls = {table[table[h][x]][inv[h]] for h in range(n)}
        seen |= cls
        classes.append(tuple(sorted(cls)))
    return classes


def ad_order(table):
    """|Inn(G)| = |G| / |Z(G)|."""
    n = len(table)
    center = [x for x in range(n) if all(table[x][y] == table[y][x] for y in range(n))]
    return n // len(center)


def bicovariant_hatgs(table):
    """Every union of nontrivial conjugacy classes, as a sorted tuple."""
    classes = [c for c in conjugacy_classes(table) if c != (0,)]
    out = set()
    for k in range(len(classes) + 1):
        for chosen in combinations(classes, k):
            out.add(tuple(sorted(x for c in chosen for x in c)))
    return out


# -- the braid operator as a permutation of hatG x hatG ---------------------


def pairs(hatg):
    return [(g, gp) for g in hatg for gp in hatg]


def sigma_perm(table, hatg):
    """sigma(theta^g (x) theta^g') = theta^{g^-1 g' g} (x) theta^g, by index."""
    inv = inverses(table)
    ps = pairs(hatg)
    index = {p: i for i, p in enumerate(ps)}
    return [index[(table[table[inv[g]][gp]][g], g)] for g, gp in ps]


def cycles(perm):
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc, i = [], start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = perm[i]
        out.append(cyc)
    return out


def sigma_facts(table, hatg):
    """Order and (dim ker A, dim im A, dim ker S, dim im S) of sigma.

    A = (1 - sigma)/2 and S = (1 + sigma)/2 on the permutation module:
    ker A is spanned by cycle indicators, ker S by alternating sums over
    the even cycles, and the images are the complements.
    """
    perm = sigma_perm(table, hatg)
    cyc = cycles(perm)
    m = len(perm)
    even = sum(1 for c in cyc if len(c) % 2 == 0)
    order = lcm(*(len(c) for c in cyc)) if cyc else 1
    return {
        "perm": perm,
        "cycles": cyc,
        "order": order,
        "dims": (len(cyc), m - len(cyc), even, m - even),
    }


def in_symmetry_space(kind, vec, perm, cyc):
    """Membership of a constant fiber vector in the four braid spaces."""
    if kind == "s_sym":  # fixed by sigma
        return all(vec[perm[i]] == vec[i] for i in range(len(vec)))
    if kind == "s_antisym":  # negated by sigma
        return all(vec[perm[i]] == -vec[i] for i in range(len(vec)))
    if kind == "w_antisym":  # im A: zero sum over every cycle
        return all(sum(vec[i] for i in c) == 0 for c in cyc)
    if kind == "w_sym":  # im S: zero alternating sum over every even cycle
        return all(
            sum(vec[i] if k % 2 == 0 else -vec[i] for k, i in enumerate(c)) == 0
            for c in cyc
            if len(c) % 2 == 0
        )
    raise ValueError(kind)


SYMMETRY_DIM_SLOT = {"s_sym": 0, "w_antisym": 1, "s_antisym": 2, "w_sym": 3}


# -- orbit counts ------------------------------------------------------------


def burnside(table, hatg, k):
    """Orbits of the diagonal adjoint action on hatG^k:
    (1/|G|) sum_a |C_G(a) cap hatG|^k."""
    n = len(table)
    total = 0
    for a in range(n):
        fixed = sum(1 for x in hatg if table[a][x] == table[x][a])
        total += fixed**k
    return total // n


def adjoint_invariant(table, hatg, vec):
    """A fiber vector over hatG x hatG is constant along adjoint orbits."""
    inv = inverses(table)
    ps = pairs(hatg)
    index = {p: i for i, p in enumerate(ps)}
    for a in range(len(table)):
        for i, (g, gp) in enumerate(ps):
            img = (table[table[a][g]][inv[a]], table[table[a][gp]][inv[a]])
            if vec[index[img]] != vec[i]:
                return False
    return True


# -- connections -------------------------------------------------------------


def structure_constant(table, h, g, gp):
    """C^h_{g,g'} = -delta^h_g - delta^h_{g'} + delta^h_{g g'}."""
    return -(h == g) - (h == gp) + (h == table[g][gp])


def c_coefficients(table, hatg):
    return {
        (h, g, gp): Fraction(structure_constant(table, h, g, gp))
        for h in hatg
        for g in hatg
        for gp in hatg
        if structure_constant(table, h, g, gp)
    }


def torsion_free_residual(table, hatg, gamma):
    """Triples where constant coefficients break
    Gamma^h_{g,g'} - Gamma^h_{ad(g)g',g} = -delta^h_{g'} + delta^h_{ad(g)g'}."""
    inv = inverses(table)
    bad = []
    for h in hatg:
        for g in hatg:
            for gp in hatg:
                adg = table[table[g][gp]][inv[g]]
                lhs = gamma.get((h, g, gp), 0) - gamma.get((h, adg, g), 0)
                if lhs != -(h == gp) + (h == adg):
                    bad.append((h, g, gp))
    return bad


def extensibility_violations(table, hatg, support):
    """Coefficient triples (g, h, h') with h h' g^-1 outside hatG and not e."""
    inv = inverses(table)
    hset = set(hatg)
    out = []
    for g, h, hp in support:
        t = table[table[h][hp]][inv[g]]
        if t != 0 and t not in hset:
            out.append((g, h, hp))
    return sorted(out)


# -- functions on the group --------------------------------------------------


def ell(table, g, f):
    """(ell_g f)(h) = f(h g^-1) - f(h)."""
    ginv = inverses(table)[g]
    return tuple(f[table[h][ginv]] - f[h] for h in range(len(table)))


def right_translate(table, g, f):
    """(R_g f)(h) = f(h g)."""
    return tuple(f[table[h][g]] for h in range(len(table)))


def mul(f, g):
    return tuple(a * b for a, b in zip(f, g))


def add(f, g):
    return tuple(a + b for a, b in zip(f, g))


def is_const(f):
    return all(v == f[0] for v in f)


def sigma_x_symmetric(table, hatg, coeffs):
    """Fixed by sigma_X(ell_g (x) ell_g') = ell_{ad(g)g'} (x) ell_g."""
    inv = inverses(table)
    zero = (Fraction(0),) * len(table)
    for g in hatg:
        for gp in hatg:
            img = (table[table[g][gp]][inv[g]], g)
            if coeffs.get(img, zero) != coeffs.get((g, gp), zero):
                return False
    return True


def pair_orbit_count(perms, size):
    """Orbits on ordered pairs of distinct points, by Burnside's lemma."""
    group = closure(perms, size)
    total = 0
    for p in group:
        fix = sum(1 for i in range(size) if p[i] == i)
        total += fix * fix - fix
    return total // len(group)


def closure(perms, size):
    ident = tuple(range(size))
    seen = {ident}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = tuple(x[i] for i in p)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen
