"""The braid operator sigma on Omega^1 (x) Omega^1 and the 2-form quotient.

For a bicovariant calculus sigma permutes basis tensors,
sigma(theta^g (x) theta^g') = theta^{ad(g^-1)g'} (x) theta^g, and left
coefficients ride along unchanged.  Powers, order and symmetrizers follow
from the permutation, and so does the decomposition of the fiber under
A = (1 - sigma)/2 and S = (1 + sigma)/2.  Given an order of the pairs,
take top as the last index of a cycle C of sigma in that order and k as
the steps from top along C:

  ker A: the indicator of C;
  im A:  e_a - e_top for each a in C other than top;
  ker S: for even |C|, the vector alternating along C, 1 at top;
  im S:  for odd |C|, e_a for each a in C; for even |C|,
         e_a - (-1)^k e_top for each a other than top.

These are the rows of the reduced echelon basis in that order, up to
the sign of a ker S row: a cycle's only relation among the columns of
A or S uses all of them, so top is the free column.  echelon_rows gives
them for one cycle, or an adjoint orbit for ker A, in any order; the
parts of decompose keep them sparse in lexicographic order (Part), each
cycle rotated to its top once for all four.  sigma_for keeps sigma on
its calculus, so sigma, its cycles and its parts are built once per
calculus; sigma_build, kept for the benchmark in perfbench/, builds a
fresh sigma on each call.  A 2-form is a tensor modulo ker A, a TwoForm
holding its representative pi(t) = A t in im A.

Membership is read off the cycles too.  A vector lies in ker A when it
is constant along every cycle, and in ker S when it changes sign at each
step (so it vanishes on odd cycles).  im A and im S are the orthogonal
complements of ker(1 - sigma^-1) and ker(1 + sigma^-1), and sigma^-1
has the same cycles: a vector lies in im A when its sum over every cycle
is zero, and in im S when its alternating sum over every even cycle is
zero.

The exterior derivative starts from d theta^h = -C^h_{g,g'} theta^{g'}
theta^g.  C^h_{g,g'} is nonzero only for h in {g, g', g g'}, so d reads
the structure constants through StructureConstants.nonzero(h), at most
3|hatG| pairs per label.  d_rep represents d of a left tensor of any
rank by the graded Leibniz rule, i counted from 0:

  d(c theta^K) = dc (x) theta^K
                 + sum_i (-1)^i c theta^{k_0} ... d theta^{k_i} ...,

so C^{k_i}_{u,v} enters at the slots (v, u) of leg i with the sign
(-1)^(i+1).  dc = (ell_h c) theta^h is zero for a constant c, and then
ell_h is not evaluated.  d_rep collects the (scalar, coefficient) terms
that land on each output key, the ell_h terms and those of the
StructureConstants.nonzero lists, and stores each key once, summed by
funcs.combination.

In degree k, sigma_i acts on legs i and i + 1 (from 1).  Following
Woronowicz (Commun. Math. Phys. 122 (1989) 125, section 3), k-forms are
rank-k tensors modulo the kernel of the antisymmetrizer
A_k = sum over pi in S_k of sgn(pi) sigma_pi, which factorises as

  A_k = (1 - sigma_1 + sigma_2 sigma_1 - ... +- sigma_{k-1} ... sigma_1)
        (1 (x) A_{k-1}),

with A_1 = 1 and A_2 = 1 - sigma = 2A.  antisymmetrize_k applies it as
k - 1 sweeps, from the last two legs outward; each sweep moves the lead
leg of its block one step at a time, so it costs one term per step.  A
rank-3 field lies in the degree-3 part of the ideal generated by ker A
when A_3 annihilates it.  That the ideal equals ker A_3 is checked
against elimination on the ideal's generators for a sample of calculi in
the tests, not proven here.
"""

from fractions import Fraction
from math import lcm

from .calculus import Tensor
from .errors import CalculusMismatch, InternalInconsistency
from .funcs import GroupFunction, combination, ell
from .groups import cycles


class TensorField(Tensor):
    """The left tensor of any rank, alpha_K theta^{k_1} (x) ... (x)
    theta^{k_rank}; rank is held on the instance."""

    def __init__(self, calculus, coeffs=None, rank=2):
        if rank < 1:
            raise ValueError(f"a TensorField has rank at least 1, not {rank}")
        self.rank = rank
        super().__init__(calculus, coeffs)


def tensor_product(a, b, out=None):
    """a (x)_A b of left tensors: each coefficient of b crosses the legs
    of a (Tensor._crossing), so the coefficient at K + L is
    a_K R_{(k_n ... k_1)^-1} b_L.  With out, a TensorField of rank
    a.rank + b.rank, the product is added into out, which is returned."""
    if a.calculus != b.calculus:
        raise CalculusMismatch("tensors live on different calculi")
    if a.side != "left" or b.side != "left":
        raise ValueError("tensor_product takes left tensors")
    rank = a.rank + b.rank
    if out is None:
        out = TensorField(a.calculus, rank=rank)
    elif not isinstance(out, TensorField) or out.rank != rank or out.calculus != a.calculus:
        raise CalculusMismatch(f"out must be a rank-{rank} TensorField on the same calculus")
    right = [(b._legs(key), a._crossing(d)) for key, d in b.terms.items()]
    for key_a, c in a.terms.items():
        legs = a._legs(key_a)
        for legs_b, across in right:
            out.accumulate(legs + legs_b, c * across(key_a))
    return out


class SigmaOperator:
    def __init__(self, calculus):
        calculus.require_bicovariant()
        self.calculus = calculus
        conj, inv = calculus.group.conjugates, calculus.group.inv  # conj[x][a] = a x a^-1
        self.perm = {(g, gp): (conj[gp][inv[g]], g) for g, gp in calculus.pairs()}
        self._order = None
        self._cycles = None
        self._decomposition = None

    def map_pair(self, pair, power=1):
        """sigma^power of a pair; a negative power counts modulo the order."""
        for _ in range(power % self.order()):
            pair = self.perm[pair]
        return pair

    def apply(self, t):
        """sigma on the first two legs of a tensor of rank at least 2;
        coefficients and further legs ride along."""
        out = t._like()
        for key, c in t.terms.items():
            out.accumulate(self.perm[key[:2]] + key[2:], c)
        return out

    def order(self):
        if self._order is None:
            self._order = lcm(*map(len, self.cycles()))
            ad_order = self.calculus.group.ad_order()
            if (2 * ad_order) % self._order != 0:
                raise InternalInconsistency(
                    f"sigma order {self._order} does not divide 2|ad(G)| = {2 * ad_order}"
                )
        return self._order

    def cycles(self):
        """sigma's cycles as lists of pair indices, lexicographic pair order."""
        if self._cycles is None:
            index = {p: i for i, p in enumerate(self.calculus.pairs())}
            self._cycles = [[index[p] for p in c] for c in cycles(self.perm)]
        return self._cycles

    def decompose(self):
        if self._decomposition is None:
            m, parts = len(self.perm), ([], [], [], [])
            for c in self.cycles():
                for rows, got in zip(parts, _ring_rows(_ring(c))):
                    rows += got
            self._decomposition = DecompositionReport(
                self.calculus.pairs(), *(Part(sorted(rows), m) for rows in parts)
            )
        return self._decomposition

    def in_part(self, part, vec, blocks=None):
        """Whether a vector over calculus.pairs() of canonical coefficients,
        exact scalars or GroupFunctions (funcs.canonical), lies in part, one
        of PARTS, by the cycle conditions of the module docstring on blocks,
        sigma's cycles by default (for "ker_a" any blocks); a vector of
        functions does when every fiber does."""
        if part not in PARTS:
            raise ValueError(f"unknown part {part!r}")
        group = self.calculus.group
        for block in self.cycles() if blocks is None else blocks:
            vals = [vec[a] for a in block]
            if part == "ker_a":
                ok = all(x == vals[0] for x in vals)
            elif part == "ker_s":
                ok = all(x == -vals[k - 1] for k, x in enumerate(vals))
            elif part == "im_a":
                ok = combination(group, ((1, x) for x in vals)) == 0
            else:
                ok = len(vals) % 2 or combination(group, zip((1, -1) * len(vals), vals)) == 0
            if not ok:
                return False
        return True


PARTS = ("ker_a", "im_a", "ker_s", "im_s")
_SIGNS = (Fraction(1), Fraction(-1))


def echelon_rows(part, block, key=None):
    """The rows of part, one of PARTS, on one sigma-cycle in sigma's order
    (on any block for "ker_a"), as in the module docstring with top the
    last index under key (a column position; the index by default).  A
    row is a list of (index, value) pairs led by (top, 1) for a kernel
    row, by (a, 1) for an image row, so sorted rows run by top, resp. a."""
    if part not in PARTS:
        raise ValueError(f"unknown part {part!r}")
    return _ring_rows(_ring(block, key))[PARTS.index(part)]


def _ring(block, key=None):
    """The block rotated to start at its top, its last index under key."""
    t = block.index(max(block, key=key))
    return block[t:] + block[:t]


def _ring_rows(ring):
    """The rows of the four PARTS on a block rotated to start at its top;
    rows share their (a, 1) entries."""
    (one, minus), top = _SIGNS, ring[0]
    ones, low, high = [(a, one) for a in ring], (top, minus), (top, one)
    im_a = [[x, low] for x in ones[1:]]
    if len(ring) % 2:
        return [ones], im_a, [], [[x] for x in ones]
    ker_s = [(a, _SIGNS[k % 2]) for k, a in enumerate(ring)]
    return [ones], im_a, [ker_s], [[x, high if k % 2 else low] for k, x in enumerate(ones) if k]


class Part:
    """A read-only sequence of vectors over the pairs kept as sparse rows;
    item i is built densely when read, a slice is a Part of the rows."""

    def __init__(self, rows, size):
        self.rows = rows
        self.size = size

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Part(self.rows[i], self.size)
        vec = [Fraction(0)] * self.size
        for a, x in self.rows[i]:  # past the end, IndexError ends iteration
            vec[a] = x
        return vec


class DecompositionReport:
    """ker A, im A, ker S and im S of the fiber, each a Part."""

    def __init__(self, pairs, ker_a, im_a, ker_s, im_s):
        self.pairs = pairs
        self.ker_a, self.im_a, self.ker_s, self.im_s = ker_a, im_a, ker_s, im_s

    @property
    def dims(self):
        return (len(self.ker_a), len(self.im_a), len(self.ker_s), len(self.im_s))


def sigma_build(calculus):
    """A fresh braid operator, as SigmaOperator(calculus); kept for the
    benchmark in perfbench/, which times a build per call."""
    return SigmaOperator(calculus)


def sigma_for(calculus):
    """The braid operator of a bicovariant calculus, built on the first
    call and kept on the calculus with its cycles and parts, so each is
    built once per calculus; SigmaOperator(calculus) builds a fresh one."""
    got = getattr(calculus, "_sigma_cache", None)
    if got is None:
        got = calculus._sigma_cache = SigmaOperator(calculus)
    return got


def braid_check(sigma):
    """(sigma x id)(id x sigma)(sigma x id) = (id x sigma)(sigma x id)(id x sigma),
    by one lookup in sigma's table per step on every triple (u, v, w)."""
    perm = sigma.perm
    hatG = sigma.calculus.hatG
    for (u, v), (a, b) in perm.items():
        for w in hatG:
            # Left side: (u, v, w) -> (a, b, w) -> (a, c, d) -> (x, y, d).
            c, d = perm[b, w]
            x, y = perm[a, c]
            # Right side: (u, v, w) -> (u, p, q) -> (r, s, q) -> (r, perm[s, q]).
            p, q = perm[v, w]
            r, s = perm[u, p]
            if x != r or (y, d) != perm[s, q]:
                return False
    return True


def symmetrize(t, sigma):
    return (t + sigma.apply(t)).scale(Fraction(1, 2))


def antisymmetrize(t, sigma):
    """A t = (t - sigma(t))/2 of a rank-2 tensor."""
    return antisymmetrize_k(t, sigma).scale(Fraction(1, 2))


def antisymmetrize_k(t, sigma):
    """A_k of a left tensor of rank k, unnormalised, by the factorisation
    of the module docstring on t's stored terms; coefficients ride along
    with their keys.  Each sweep adds to the running result the images
    of the terms it started from, with alternating signs."""
    perm, k = sigma.perm, t.rank
    out = t._like(t.terms)
    for s in range(k - 2, -1, -1):
        moved = list(out.terms.items())
        for p in range(s, k - 1):
            moved = [(key[:p] + perm[key[p:p + 2]] + key[p + 2:], -c) for key, c in moved]
            for key, c in moved:
                out.accumulate(key, c)
    return out


def classify(t, sigma):
    """Strong and weak (anti)symmetry flags for a rank-2 tensor: whether
    its coefficients lie in ker A, ker S, im S and im A (in_part)."""
    if t.rank != 2 or t.calculus != sigma.calculus:
        raise CalculusMismatch("classify takes a rank-2 tensor on sigma's calculus")
    vec = [t.terms.get(p, 0) for p in sigma.calculus.pairs()]
    return {
        "s_symmetric": sigma.in_part("ker_a", vec),
        "s_antisymmetric": sigma.in_part("ker_s", vec),
        "w_symmetric": sigma.in_part("im_s", vec),
        "w_antisymmetric": sigma.in_part("im_a", vec),
    }


class TwoForm(TensorField):
    """A 2-form, stored as its representative in im A (project_two_form);
    TwoForm(calculus) is zero.  A is a bimodule map, so sums, scalings and
    products by functions on either side stay in im A."""

    def __init__(self, calculus, coeffs=None):
        super().__init__(calculus, coeffs)

    @property
    def rep(self):
        """The representative in im A, which is the form itself."""
        return self


def project_two_form(t, sigma):
    """pi = A: a rank-2 tensor's 2-form, as its representative; a TwoForm is its own."""
    if isinstance(t, TwoForm):
        return t
    if t.rank != 2:
        raise CalculusMismatch(f"project_two_form takes a rank-2 tensor, not rank {t.rank}")
    return TwoForm(t.calculus)._like(antisymmetrize(t, sigma).terms)


def wedge(phi, psi, sigma):
    return project_two_form(tensor_product(phi, psi), sigma)


def d_rep(t):
    """Representative of d of a left tensor of any rank, a rank + 1
    TensorField, by the graded Leibniz rule of the module docstring."""
    if t.side != "left":
        raise ValueError("d_rep takes a left tensor")
    cal = t.calculus
    sc = cal.structure_constants
    parts = {}
    for key, c in t.terms.items():
        legs = t._legs(key)
        if c.__class__ is GroupFunction:
            for h in cal.hatG:
                parts.setdefault((h,) + legs, []).append((1, ell(h, c)))
        for i, k in enumerate(legs):
            sign = 1 if i % 2 else -1
            for u, v, x in sc.nonzero(k):
                parts.setdefault(legs[:i] + (v, u) + legs[i + 1:], []).append((sign * x, c))
    out = TensorField(cal, rank=t.rank + 1)
    for key, pairs in parts.items():
        c = combination(cal.group, pairs)
        if c.__class__ is GroupFunction or c:  # a canonical function is nonzero
            out.terms[key] = c
    return out


def d_one_form(phi, sigma):
    """d(f theta^g) = df ^ theta^g + f d theta^g, summed over the basis."""
    return project_two_form(d_rep(phi), sigma)

