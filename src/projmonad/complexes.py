"""Stock complexes: Koszul complexes, line resolutions, and the
exterior-power Euler resolutions of twisted differential forms.

The Koszul differential is contraction against the coordinate covector:
on basis elements indexed by sorted subsets S of the chosen variables,

    e_S  ->  sum_k (-1)^k x_{S[k]} e_{S minus S[k]}.

Contraction squares to zero, so every truncation is a complex; the
resolutions built here carry their cohomology at position 0.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .monad import Monad
from .polymat import FreeSheaf, GradedMatrix, HomogPoly, from_coordinates
from .scalar import Field


def _contraction(field: Field, n: int, variables: tuple[int, ...], k: int,
                 twist: int) -> GradedMatrix:
    """Lambda^k -> Lambda^{k-1} of the span of the given coordinates."""
    src_sets = list(combinations(variables, k))
    tgt_sets = list(combinations(variables, k - 1))
    tgt_pos = {s: i for i, s in enumerate(tgt_sets)}
    source = FreeSheaf(n, (twist - k,) * len(src_sets))
    target = FreeSheaf(n, (twist - k + 1,) * len(tgt_sets))
    zero = HomogPoly.zero(field, n, 1)
    ent = [[zero] * len(src_sets) for _ in tgt_sets]
    # +x_v and -x_v, shared by the entries (coordinate v of a linear form
    # is the coefficient of x_v)
    signed = {v: (from_coordinates(field, n, 1, {v: 1}), from_coordinates(field, n, 1, {v: -1}))
              for v in variables}
    for j, s in enumerate(src_sets):
        for pos, v in enumerate(s):
            rest = s[:pos] + s[pos + 1:]
            ent[tgt_pos[rest]][j] = signed[v][pos % 2]
    return GradedMatrix(field, source, target, ent)


def koszul_monad(field: Field, n: int, variables, twist: int = 0,
                 c: int | None = None) -> Monad:
    """Koszul complex of the coordinates x_i, i in variables, twisted.

    Lambda^s sits at position -s and Lambda^0 = O(twist) at 0, where the
    cohomology is the structure sheaf of the coordinate subspace cut out
    by the chosen variables (twisted).  The declared codimension
    defaults to the number of variables, clamped to [1, n].
    """
    variables = tuple(sorted(variables))
    s = len(variables)
    if c is None:
        c = min(max(s, 1), n)
    terms = {-k: FreeSheaf(n, (twist - k,) * comb(s, k)) for k in range(s + 1)}
    diffs = {-k: _contraction(field, n, variables, k, twist) for k in range(1, s + 1)}
    return Monad(field, n, terms, diffs, c, 0)


def line_monad(field: Field, n: int, a: int = 0) -> Monad:
    """Resolution of O_L(a) for the coordinate line x2 = ... = xn = 0."""
    if n < 2:
        raise ValueError("a line needs an ambient P^n with n >= 2")
    return koszul_monad(field, n, range(2, n + 1), twist=a, c=n - 1)


def omega_resolution(field: Field, n: int, p: int, t: int) -> Monad:
    """Euler-complex resolution of the twisted p-forms Omega^p(t) on P^n.

    The contraction complex Lambda^p(O(-1)^{n+1})(t) -> ... -> O(t) is
    exact except at its left end, where the kernel of the first map is
    Omega^p(t); positions run 0..p so the marked position is 0.  The
    declared codimension is a placeholder (the support is everything);
    nothing downstream of sheaf_cohomology reads it.
    """
    if not 0 <= p <= n:
        raise ValueError(f"p = {p} out of range for P^{n}")
    variables = tuple(range(n + 1))
    terms = {j: FreeSheaf(n, (t - p + j,) * comb(n + 1, p - j)) for j in range(p + 1)}
    diffs = {j: _contraction(field, n, variables, p - j, t) for j in range(p)}
    return Monad(field, n, terms, diffs, 1, 0)


def direct_sum(a: Monad, b: Monad) -> Monad:
    """Blockwise direct sum over the union of the index ranges."""
    if a.field != b.field or a.n != b.n:
        raise ValueError("summands live in different settings")
    field, n = a.field, a.n
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    empty = FreeSheaf(n, ())

    def term(m, i):
        return m.terms.get(i, empty)

    terms = {i: FreeSheaf(n, term(a, i).twists + term(b, i).twists)
             for i in range(lo, hi + 1)}
    diffs = {}
    for i in range(lo, hi):
        src, tgt = terms[i], terms[i + 1]
        ent = [[HomogPoly.zero(field, n, tgt.twists[r] - src.twists[s])
                for s in range(src.rank)] for r in range(tgt.rank)]
        roff = term(a, i + 1).rank
        coff = term(a, i).rank
        for m, r0, c0 in ((a, 0, 0), (b, roff, coff)):
            d = m.diffs.get(i)
            if d is None:
                continue
            for r in range(d.rows):
                for s in range(d.cols):
                    ent[r0 + r][c0 + s] = d.entries[r][s]
        diffs[i] = GradedMatrix(field, src, tgt, ent)
    return Monad(field, n, terms, diffs, a.c, a.cohomology_position)

