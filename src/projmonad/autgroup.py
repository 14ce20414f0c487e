"""Automorphisms of free sheaves and their action on complexes.

An endomorphism of sum O(e_j) is invertible exactly when its degree-0
part (the constant entries between equal twists) is an invertible
scalar matrix: the strictly positive-degree remainder nu raises twists,
so nu^K = 0 once K exceeds the number of distinct twist values, and the
finite Neumann series inverts 1 + g0^{-1} nu.

A group element is one automorphism per term of a complex; it acts on
the differentials by d_i -> g_{i+1} d_i g_i^{-1}, and dualizing both
the element and the complex keeps the action square commuting.
"""

from __future__ import annotations

from random import Random

from .linalg import Matrix, inverse as matrix_inverse, rank
from .monad import Monad, format_blocks, parse_block, read_blocks
from .polymat import (
    FreeSheaf,
    GradedMatrix,
    HomogPoly,
    ParseError,
    compose,
    dual_hom,
    random_poly,
    random_scalar,
)
from .scalar import Field


def _constant_coeff(p: HomogPoly):
    return p.terms.get((0,) * (p.n + 1))


def constant_part(g: GradedMatrix) -> Matrix:
    """The scalar matrix of constants between equal twists."""
    if g.source != g.target:
        raise ValueError("endomorphisms only: source and target must agree")
    k = g.rows
    field = g.field
    data = []
    for r in range(k):
        for s in range(k):
            if g.target.twists[r] == g.source.twists[s]:
                c = _constant_coeff(g.entries[r][s])
                data.append(c if c is not None else field.zero)
            else:
                data.append(field.zero)
    return Matrix(field, k, k, data)


def is_automorphism(g: GradedMatrix) -> bool:
    """Invertibility test: the degree-0 part has full rank."""
    return rank(constant_part(g)) == g.rows


def _lift_constants(field: Field, sheaf: FreeSheaf, m: Matrix) -> GradedMatrix:
    n = sheaf.n
    k = sheaf.rank
    ent = []
    for r in range(k):
        row = []
        for s in range(k):
            gap = sheaf.twists[r] - sheaf.twists[s]
            c = m.entry(r, s)
            if gap == 0 and c:
                row.append(HomogPoly.constant(field, n, c))
            else:
                # The inverse of a grading-preserving scalar matrix is
                # again grading preserving, so off-grade slots are zero.
                if c:
                    raise ValueError("constant inverse left the grading")
                row.append(HomogPoly.zero(field, n, gap))
        ent.append(row)
    return GradedMatrix(field, sheaf, sheaf, ent)


def graded_inverse(g: GradedMatrix) -> GradedMatrix:
    """Two-sided inverse of an automorphism g = g0 + nu.

    g = g0 (1 + g0^{-1} nu) and nu is nilpotent of order at most the
    number of distinct twists K, so
    g^{-1} = sum_{j<K} (-g0^{-1} nu)^j g0^{-1} exactly.
    """
    g0 = constant_part(g)
    try:
        g0_inv = matrix_inverse(g0)
    except ValueError as exc:
        raise ValueError("not an automorphism: constant part is singular") from exc
    sheaf = g.source
    lifted_inv = _lift_constants(g.field, sheaf, g0_inv)
    nu = g - _lift_constants(g.field, sheaf, g0)
    if nu.is_zero():
        return lifted_inv
    neumann_len = len(set(sheaf.twists))
    step = compose(lifted_inv, nu)
    acc = lifted_inv
    power = None
    sign = -1
    for _ in range(1, neumann_len):
        power = step if power is None else compose(step, power)
        term = compose(power, lifted_inv)
        acc = acc + (term if sign > 0 else -term)
        sign = -sign
    return acc


class GroupElement:
    """One automorphism per term of a complex, keyed by term index."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: dict[int, GradedMatrix]):
        for i, b in blocks.items():
            if b.source != b.target:
                raise ValueError(f"block {i} is not an endomorphism")
        self.blocks = dict(blocks)

    @property
    def field(self) -> Field:
        return next(iter(self.blocks.values())).field

    @property
    def n(self) -> int:
        return next(iter(self.blocks.values())).n

    def is_automorphism(self) -> bool:
        return all(is_automorphism(b) for b in self.blocks.values())

    def __eq__(self, other):
        return isinstance(other, GroupElement) and other.blocks == self.blocks

    def __repr__(self):
        return f"GroupElement(indices {sorted(self.blocks)})"


def identity_element(m: Monad) -> GroupElement:
    return GroupElement({i: GradedMatrix.identity(m.field, m.terms[i])
                         for i in m.terms})


def compose_elements(g: GroupElement, h: GroupElement) -> GroupElement:
    """(g h)_i = g_i . h_i blockwise."""
    if set(g.blocks) != set(h.blocks):
        raise ValueError("elements indexed by different terms")
    return GroupElement({i: compose(g.blocks[i], h.blocks[i]) for i in g.blocks})


def act(g: GroupElement, m: Monad) -> Monad:
    """Twist every differential: d_i -> g_{i+1} d_i g_i^{-1}."""
    for i in range(m.lo, m.hi + 1):
        b = g.blocks.get(i)
        if b is None or b.source != m.terms[i]:
            raise ValueError(f"group element does not match term {i}")
    inverses = {i: graded_inverse(g.blocks[i]) for i in range(m.lo, m.hi)}
    diffs = {i: compose(g.blocks[i + 1], compose(m.diffs[i], inverses[i]))
             for i in range(m.lo, m.hi)}
    return Monad(m.field, m.n, m.terms, diffs, m.c, m.cohomology_position)


def induced_dual_element(g: GroupElement, c: int) -> GroupElement:
    """The element acting on the dual complex so that duality commutes:
    the block at i is the inverse of the dual of the block at -i-c."""
    return GroupElement({-(i + c): graded_inverse(dual_hom(b))
                         for i, b in g.blocks.items()})


def random_automorphism(field: Field, sheaf: FreeSheaf, rng: Random,
                        density: float = 0.7, max_tries: int = 64) -> GradedMatrix:
    """Random invertible endomorphism: constants drawn until the degree-0
    part inverts, positive-degree entries filled at the given density."""
    n = sheaf.n
    k = sheaf.rank
    if k == 0:
        return GradedMatrix.zero(field, sheaf, sheaf)
    for _ in range(max_tries):
        ent = []
        for r in range(k):
            row = []
            for s in range(k):
                gap = sheaf.twists[r] - sheaf.twists[s]
                if gap == 0:
                    row.append(HomogPoly.constant(field, n, random_scalar(field, rng)))
                elif gap > 0:
                    row.append(random_poly(field, n, gap, rng, density))
                else:
                    row.append(HomogPoly.zero(field, n, gap))
            ent.append(row)
        g = GradedMatrix(field, sheaf, sheaf, ent)
        if is_automorphism(g):
            return g
    raise RuntimeError(f"no invertible draw in {max_tries} tries")


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
    return GroupElement({i: parse_block(f"block {i}", raw.get(i, []), field, n, sheaf, sheaf)
                         for i, sheaf in sheaves.items()})
