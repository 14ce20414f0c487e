"""The 3m+1 parameter space on P^3, executable.

A parameter point is a pair of graded matrices

    psi: 2O(-3) -> O(-1) + 3O(-2),    phi: O(-1) + 3O(-2) -> O + O(-1)

with phi psi = 0; the cokernel of phi is then a sheaf with Hilbert
polynomial 3m+1 once the complex is exact on the left.  Membership in
the semistable locus W^ss is decided by four clauses on the twist-3
section matrices:

    (a) the sections of psi have rank 2,
    (b) the section matrices compose to zero,
    (c) the sections of phi have a 2-dimensional kernel,
    (d) phi_21 != 0, or the linear entries phi_22, phi_23, phi_24 are
        independent (phi is then not column-equivalent to a matrix
        whose second row starts with two zeros).

A point is a Monad (point_monad, with point_of going back), so
monad.dualize transposes it into a resolution on the 3m-1 side and
autgroup.act moves it by term automorphisms, compatibly on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .autgroup import graded_inverse, random_automorphism
from .linalg import Matrix, kernel_basis, rank
from .monad import Monad, format_monad, parse_monad
from .polymat import (
    FreeSheaf,
    GradedMatrix,
    HomogPoly,
    compose,
    monomials_of_degree,
    parse_poly,
    random_poly,
    sections_matrix,
)
from .scalar import QQ, Field, PrimeField

N = 3
SOURCE = FreeSheaf(N, (-3, -3))
MIDDLE = FreeSheaf(N, (-1, -2, -2, -2))
TARGET = FreeSheaf(N, (0, -1))
SECTION_TWIST = 3

CLAUSES = {
    "a": "sections of psi at twist 3 have rank 2",
    "b": "section matrices of phi and psi compose to zero",
    "c": "sections of phi at twist 3 have kernel of dimension 2",
    "d": "phi_21 nonzero or phi_22, phi_23, phi_24 linearly independent",
}


class MalformedPointError(ValueError):
    pass


class SampleExhaustedError(RuntimeError):
    """No accepted point within the allowed number of draws."""


@dataclass(frozen=True)
class ParamPoint:
    psi: GradedMatrix
    phi: GradedMatrix

    def __post_init__(self):
        if self.psi.source != SOURCE or self.psi.target != MIDDLE:
            raise MalformedPointError("psi must map 2O(-3) to O(-1)+3O(-2)")
        if self.phi.source != MIDDLE or self.phi.target != TARGET:
            raise MalformedPointError("phi must map O(-1)+3O(-2) to O+O(-1)")
        if self.psi.field != self.phi.field:
            raise MalformedPointError("psi and phi over different fields")

    @property
    def field(self) -> Field:
        return self.phi.field

    def is_complex(self) -> bool:
        return compose(self.phi, self.psi).is_zero()


@dataclass(frozen=True)
class Membership:
    member: bool
    clauses: dict[str, bool]

    @property
    def failed(self) -> list[str]:
        return [k for k, ok in sorted(self.clauses.items()) if not ok]

    def to_dict(self) -> dict:
        return {
            "member": self.member,
            "clauses": dict(sorted(self.clauses.items())),
            "failed": self.failed,
            "descriptions": {k: CLAUSES[k] for k in self.failed},
        }


def _linear_coeff_matrix(field: Field, forms: list[HomogPoly]) -> Matrix:
    monos = monomials_of_degree(N, 1)
    data = [f.terms.get(m, field.zero) for f in forms for m in monos]
    return Matrix(field, len(forms), len(monos), data)


def wss_membership(pt: ParamPoint) -> Membership:
    """Evaluate the four semistability clauses at twist 3."""
    field = pt.field
    s_psi = sections_matrix(pt.psi, SECTION_TWIST)
    s_phi = sections_matrix(pt.phi, SECTION_TWIST)
    clause_a = rank(s_psi) == 2
    clause_b = (s_phi * s_psi).is_zero()
    clause_c = s_phi.cols - rank(s_phi) == 2
    phi_21 = pt.phi.entries[1][0]
    if not phi_21.is_zero():
        clause_d = True
    else:
        lin = [pt.phi.entries[1][j] for j in (1, 2, 3)]
        clause_d = rank(_linear_coeff_matrix(field, lin)) == 3
    clauses = {"a": clause_a, "b": clause_b, "c": clause_c, "d": clause_d}
    return Membership(all(clauses.values()), clauses)


def point_monad(pt: ParamPoint) -> Monad:
    """The complex 2O(-3) -> O(-1)+3O(-2) -> O+O(-1) at positions -2..0."""
    terms = {-2: SOURCE, -1: MIDDLE, 0: TARGET}
    return Monad(pt.field, N, terms, {-2: pt.psi, -1: pt.phi}, 2, 0)


def twisted_cubic_point(field: Field = QQ) -> ParamPoint:
    """The point carved out by the quadric minors of [[x0,x1,x2],[x1,x2,x3]].

    The second row of phi is the unit (1, 0, 0, 0); the first row holds
    the signed minors, whose two linear syzygies fill the columns of
    psi below a zero first row.
    """

    def p(src, deg):
        return parse_poly(src, field, N, deg)

    phi = GradedMatrix(field, MIDDLE, TARGET, [
        [p("0", 1), p("x1*x3 - x2^2", 2), p("x1*x2 - x0*x3", 2), p("x0*x2 - x1^2", 2)],
        [p("1", 0), p("0", 1), p("0", 1), p("0", 1)],
    ])
    psi = GradedMatrix(field, SOURCE, MIDDLE, [
        [p("0", 2), p("0", 2)],
        [p("x0", 1), p("x1", 1)],
        [p("x1", 1), p("x2", 1)],
        [p("x2", 1), p("x3", 1)],
    ])
    return ParamPoint(psi=psi, phi=phi)


def forbidden_form_point(field: Field = QQ) -> ParamPoint:
    """A point on the exact locus whose phi has the forbidden second row.

    The quadric row holds the signed minors of [[x0, x1, x2], [0, x0, x1]]
    rearranged against phi_11 = x3, cutting out a triple structure on a
    line; the section sequence is exact, but phi_21 = 0 with phi_22 = 0
    makes the second row column-reducible to (0, 0, *, *), so membership
    fails exactly through clause (d).
    """

    def p(src, deg):
        return parse_poly(src, field, N, deg)

    phi = GradedMatrix(field, MIDDLE, TARGET, [
        [p("x3", 1), p("x0*x2 - x1^2", 2), p("-x1*x2", 2), p("-x2^2", 2)],
        [p("0", 0), p("0", 1), p("x0", 1), p("x1", 1)],
    ])
    psi = GradedMatrix(field, SOURCE, MIDDLE, [
        [p("-x0*x2 + x1^2", 2), p("0", 2)],
        [p("x3", 1), p("x2", 1)],
        [p("0", 1), p("-x1", 1)],
        [p("0", 1), p("x0", 1)],
    ])
    return ParamPoint(psi=psi, phi=phi)


def _poly_from_coeffs(field: Field, degree: int, coeffs) -> HomogPoly:
    terms = {m: c for m, c in zip(monomials_of_degree(N, degree), coeffs) if c}
    return HomogPoly(field, N, degree, terms)


def _determinantal_phi(field: Field, rng: Random) -> GradedMatrix:
    """phi with quadric row the signed minors of a random 2x3 linear matrix.

    Such a phi always has two independent linear syzygies (the rows of
    the matrix), which is exactly the section-kernel shape membership
    demands; a dense unconstrained draw has no kernel at all, because
    three generic quadrics admit no linear syzygy.
    """
    a = [random_poly(field, N, 1, rng) for _ in range(3)]
    b = [random_poly(field, N, 1, rng) for _ in range(3)]
    q1 = a[1] * b[2] - a[2] * b[1]
    q2 = a[2] * b[0] - a[0] * b[2]
    q3 = a[0] * b[1] - a[1] * b[0]
    zero1 = HomogPoly.zero(field, N, 1)
    one = HomogPoly.constant(field, N, field.one)
    return GradedMatrix(field, MIDDLE, TARGET,
                        [[zero1, q1, q2, q3],
                         [one, zero1, zero1, zero1]])


def _psi_from_kernel(phi: GradedMatrix) -> GradedMatrix | None:
    """Solve phi psi = 0: psi columns span the twist-3 section kernel."""
    kernel = kernel_basis(sections_matrix(phi, SECTION_TWIST))
    if len(kernel) != 2:
        return None
    field = phi.field
    columns = []
    for v in kernel:
        quad = _poly_from_coeffs(field, 2, v[:10])
        lins = [_poly_from_coeffs(field, 1, v[10 + 4 * j:14 + 4 * j]) for j in range(3)]
        columns.append([quad] + lins)
    return GradedMatrix(field, SOURCE, MIDDLE,
                        [[columns[0][r], columns[1][r]] for r in range(4)])


def sample_wss_stats(seed: int, field: Field,
                     max_tries: int = 32) -> tuple[ParamPoint, int, Membership]:
    """Draw phi on the syzygy-positive locus, densify by a random
    automorphism, solve psi from the section kernel, test membership.

    Returns the first accepted point, the number of draws it took and
    the Membership that accepted it.  Deterministic in the seed.
    Refuses Q: the rejection loop is only meant for prime fields, where
    dense draws are cheap and generic.
    """
    if not isinstance(field, PrimeField):
        raise ValueError("sampling requires a prime field; Q points are check-only")
    rng = Random(seed)
    for attempt in range(1, max_tries + 1):
        phi0 = _determinantal_phi(field, rng)
        g_mid = random_automorphism(field, MIDDLE, rng, density=1.0)
        g_tgt = random_automorphism(field, TARGET, rng, density=1.0)
        phi = compose(g_tgt, compose(phi0, graded_inverse(g_mid)))
        psi = _psi_from_kernel(phi)
        if psi is None:
            continue
        pt = ParamPoint(psi=psi, phi=phi)
        if not pt.is_complex():
            raise AssertionError("kernel solve must satisfy phi psi = 0")
        res = wss_membership(pt)
        if res.member:
            return pt, attempt, res
    raise SampleExhaustedError(f"exhausted max_tries = {max_tries}")


def sample_wss(seed: int, field: Field, max_tries: int = 32) -> ParamPoint:
    return sample_wss_stats(seed, field, max_tries)[0]


def format_point(pt: ParamPoint) -> str:
    return format_monad(point_monad(pt))


def point_of(m: Monad) -> ParamPoint:
    """The point read off a monad with the fixed twist lists at -2..0,
    codim 2 and cohomology at 0; point_of(point_monad(pt)) == pt."""
    if (m.n != N or m.lo != -2 or m.hi != 0
            or m.terms[-2] != SOURCE or m.terms[-1] != MIDDLE or m.terms[0] != TARGET):
        raise MalformedPointError("file does not carry the fixed twist lists")
    if m.c != 2 or m.cohomology_position != 0:
        raise MalformedPointError(
            f"a point has codim 2 and cohomology at 0, not codim {m.c} "
            f"and cohomology at {m.cohomology_position}")
    return ParamPoint(psi=m.diffs[-2], phi=m.diffs[-1])


def parse_point(text: str) -> ParamPoint:
    return point_of(parse_monad(text))
