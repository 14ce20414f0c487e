"""Automorphisms of free sheaves and their action on complexes.

An endomorphism g of sum O(e_j) is invertible exactly when its degree-0
part g0 (the constant entries between equal twists) is an invertible
scalar matrix.  The rest of g strictly raises twists, so g X = I is
triangular by twist level: graded_inverse solves it one level at a time,
each level from g0^{-1} and the levels below.  The inverse of a square
matrix over the polynomial ring is unique, so any exact method gives
the same bytes.

A group element is one automorphism per term of a complex; it acts on
the differentials by d_i -> g_{i+1} d_i g_i^{-1}, and dualizing both
the element and the complex keeps the action square commuting.  An
element remembers each block's inverse the first time it is asked for.
The dual element's blocks are the duals of those inverses, and since
dualizing is a transpose, (b^*)^{-1} = (b^{-1})^*: its own inverses are
the duals of the original blocks, known without solving.
"""

from __future__ import annotations

from math import lcm
from random import Random

from .linalg import Matrix, inverse as matrix_inverse, rank
from .monad import Monad, format_blocks, parse_block, read_blocks
from .polymat import (
    CONSTANT_MONOMIAL,
    FreeSheaf,
    GradedMatrix,
    HomogPoly,
    ParseBudget,
    ParseError,
    compose,
    dual_hom,
    mul_into,
    random_poly,
)
from .scalar import Field

# draws random_automorphism makes before it gives up on an invertible one
_AUTOMORPHISM_TRIES = 64


def constant_part(g: GradedMatrix) -> Matrix:
    """The scalar matrix of constants between equal twists."""
    if g.source != g.target:
        raise ValueError("endomorphisms only: source and target must agree")
    twists = g.source.twists
    rows = [{s: c for s, p in enumerate(row)
             if twists[s] == e and (c := p.coeffs.get(CONSTANT_MONOMIAL))}
            for e, row in zip(twists, g.entries)]
    return Matrix(g.field, g.rows, g.rows, rows)


def is_automorphism(g: GradedMatrix) -> bool:
    """Invertibility test: the degree-0 part has full rank."""
    return rank(constant_part(g)) == g.rows


def graded_inverse(g: GradedMatrix) -> GradedMatrix:
    """Two-sided inverse of an automorphism g = g0 + nu, by degree induction.

    The inverse X has entry X_rs of degree e_r - e_s: zero for e_r < e_s,
    and the constant (g0^{-1})_rs for e_r = e_s.  Row block e_a = v of
    g X = I, read in column s, gives for each higher twist level v in
    increasing order

        X_rs = -sum_{e_a = v} (g0^{-1})_ra sum_{e_s <= e_b < v} g_ab X_bs

    for e_r = v, where every X_bs on the right lies on a lower level.
    This right inverse exists exactly when g0 inverts, and a one-sided
    inverse of a square matrix over the polynomial ring is its unique
    two-sided inverse, so the result is the same however it is computed.

    The solve runs on raw values: residues mod p, or over Q integer
    numerators.  There g = G / D and g0^{-1} = N / d0 with G and N
    integral, and the entries q levels above their column's level share
    the denominator d0 (d0 D)^q, so the products are all of integers.
    """
    g0 = constant_part(g)
    try:
        g0_inv = matrix_inverse(g0)
    except ValueError as exc:
        raise ValueError("not an automorphism: constant part is singular") from exc
    field, sheaf, n = g.field, g.source, g.n
    p = field.p
    twists = sheaf.twists
    k = sheaf.rank
    levels = sorted(set(twists))
    level = [levels.index(e) for e in twists]
    members = [[a for a in range(k) if level[a] == j] for j in range(len(levels))]
    raw = [[field.integral(q.coeffs) for q in row] for row in g.entries]
    den_g = lcm(*(d for row in raw for d, _ in row))
    big = [[{m: v * (den_g // d) for m, v in num.items()} for d, num in row] for row in raw]
    # small[r, a]: numerators of (g0^{-1})_ra over den_0
    den_0, small = field.integral({(r, a): v for r, row in enumerate(g0_inv.row_maps)
                                   for a, v in row.items()})
    step = den_0 * den_g
    ent = [[None] * k for _ in range(k)]
    for s in range(k):
        base = level[s]
        # col[b]: numerators of X_bs over den_0 * step^(level[b] - base)
        col: list[dict | None] = [None] * k
        for r in members[base]:
            c = small.get((r, s))
            col[r] = {CONSTANT_MONOMIAL: c} if c else {}
        for j in range(base + 1, len(levels)):
            sums = []
            for a in members[j]:
                acc: dict = {}
                row_a = big[a]
                for b in range(k):
                    x = col[b]  # set only below level j
                    if x and row_a[b]:
                        mul_into(acc, row_a[b], x, step ** (j - 1 - level[b]))
                sums.append(acc)
            for r in members[j]:
                out: dict = {}
                get = out.get
                for a, acc in zip(members[j], sums):
                    c = small.get((r, a))
                    if c:
                        for m, v in acc.items():
                            out[m] = get(m, 0) - c * v
                col[r] = {m: res for m, v in out.items() if (res := v % p)} if p else out
        for r in range(k):
            gap = twists[r] - twists[s]
            x = col[r]
            ent[r][s] = (HomogPoly.zero(field, n, gap) if x is None
                         else HomogPoly._unchecked(field, n, gap, field.reduce(
                             x, den_0 * step ** (level[r] - base))))
    return GradedMatrix(field, sheaf, sheaf, ent)


class GroupElement:
    """One automorphism per term of a complex, keyed by term index.

    inverses holds block inverses already known, keyed like blocks; the
    caller vouches for any it passes in.
    """

    __slots__ = ("blocks", "_inverses")

    def __init__(self, blocks: dict[int, GradedMatrix],
                 inverses: dict[int, GradedMatrix] | None = None):
        for i, b in blocks.items():
            if b.source != b.target:
                raise ValueError(f"block {i} is not an endomorphism")
        self.blocks = dict(blocks)
        self._inverses = {} if inverses is None else dict(inverses)

    def inverse(self, i: int) -> GradedMatrix:
        """graded_inverse of block i, solved on first use and remembered."""
        inv = self._inverses.get(i)
        if inv is None:
            inv = self._inverses[i] = graded_inverse(self.blocks[i])
        return inv

    @property
    def n(self) -> int:
        return next(iter(self.blocks.values())).n

    def __eq__(self, other):
        return isinstance(other, GroupElement) and other.blocks == self.blocks

    def __repr__(self):
        return f"GroupElement(indices {sorted(self.blocks)})"


def act(g: GroupElement, m: Monad) -> Monad:
    """Twist every differential: d_i -> g_{i+1} d_i g_i^{-1}."""
    for i in range(m.lo, m.hi + 1):
        b = g.blocks.get(i)
        if b is None or b.source != m.terms[i]:
            raise ValueError(f"group element does not match term {i}")
    diffs = {i: compose(g.blocks[i + 1], compose(m.diffs[i], g.inverse(i)))
             for i in range(m.lo, m.hi)}
    return Monad(m.field, m.n, m.terms, diffs, m.c, m.cohomology_position)


def induced_dual_element(g: GroupElement, c: int) -> GroupElement:
    """The element acting on the dual complex so that duality commutes:
    the block at i is the inverse of the dual of the block at -i-c, for a
    codimension c in 1..n.  That is the dual of g's inverse there, and its
    own inverse, carried along, is the dual of g's block."""
    if not 1 <= c <= g.n:
        raise ValueError(f"codimension {c} out of range 1..{g.n}")
    return GroupElement({-(i + c): dual_hom(g.inverse(i)) for i in g.blocks},
                        {-(i + c): dual_hom(b) for i, b in g.blocks.items()})


def random_automorphism(field: Field, sheaf: FreeSheaf, rng: Random,
                        density: float = 0.7) -> GradedMatrix:
    """Random invertible endomorphism: constants drawn until the degree-0
    part inverts, positive-degree entries filled at the given density."""
    n = sheaf.n
    k = sheaf.rank
    for _ in range(_AUTOMORPHISM_TRIES):
        ent = []
        for r in range(k):
            row = []
            for s in range(k):
                gap = sheaf.twists[r] - sheaf.twists[s]
                if gap == 0:
                    row.append(random_poly(field, n, 0, rng))
                elif gap > 0:
                    row.append(random_poly(field, n, gap, rng, density))
                else:
                    row.append(HomogPoly.zero(field, n, gap))
            ent.append(row)
        g = GradedMatrix(field, sheaf, sheaf, ent)
        if is_automorphism(g):
            return g
    raise RuntimeError(f"no invertible draw in {_AUTOMORPHISM_TRIES} tries")


def random_element(field: Field, m: Monad, seed: int, density: float = 0.7) -> GroupElement:
    rng = Random(seed)
    return GroupElement({i: random_automorphism(field, m.terms[i], rng, density)
                         for i in sorted(m.terms)})


# Serialization: the block layout of monad files, with `block <i>:` sections.


def format_group_element(g: GroupElement) -> str:
    indices = sorted(g.blocks)
    first = g.blocks[indices[0]]
    return format_blocks(first.n, first.field, ((i, g.blocks[i].source) for i in indices),
                         "block", ((i, g.blocks[i]) for i in indices))


def parse_group_element(text: str) -> GroupElement:
    n, field, sheaves, raw, _ = read_blocks(text, "group element", "block")
    for idx in raw:
        if idx not in sheaves:
            raise ParseError(f"block {idx} without term {idx}")
    if not sheaves:
        raise ParseError("group element file has no term line")
    budget = ParseBudget()
    return GroupElement({i: parse_block(f"block {i}", raw.get(i, []), field, n, sheaf, sheaf,
                                        budget) for i, sheaf in sheaves.items()})
