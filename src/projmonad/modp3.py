"""The 3m+1 parameter space on P^3, executable.

A parameter point is a pair of graded matrices

    psi: 2O(-3) -> O(-1) + 3O(-2),    phi: O(-1) + 3O(-2) -> O + O(-1)

with phi psi = 0; the cokernel of phi is then a sheaf with Hilbert
polynomial 3m+1 once the complex is exact on the left.  Membership in
the semistable locus W^ss is decided by four clauses, each on section
matrices:

    (a) the sections of psi have rank 2 at twist 3,
    (b) the section matrices compose to zero, which is phi psi = 0,
    (c) the sections of phi have a 2-dimensional kernel at twist 3,
    (d) the sections of phi's second row, O(-1) + 3O(-2) -> O(-1), have
        rank at least 3 at twist 2.

Sections are a functor, S_3(phi) S_3(psi) = S_3(phi psi), and at twist
3 that product holds the coefficients of phi psi, so clause (b) is
decided by the complex condition, monad.validate of the point, and no
section matrix is ever multiplied.  Clause (c) ranks phi's sections
through the section-rank cache the Hilbert window shares.  In (d) the
columns are phi_21 x0..x3 and the coefficients of phi_22, phi_23,
phi_24: the rank is 4 when phi_21 != 0, else that of the three linear
forms, so (d) fails exactly when phi is column-equivalent to a matrix
whose second row starts with two zeros.  The rank is G-invariant: row 2
of g_tgt phi g_mid^{-1} is c row2 g_mid^{-1} with c a nonzero constant,
as Hom(O, O(-1)) = 0, and S_2(g_mid^{-1}) is invertible.

A point is a Monad on these twist lists at positions -2..0, with codim
2 and cohomology at 0, as point_monad checks; psi and phi are its
diffs[-2] and diffs[-1].  So monad.dualize transposes it into a
resolution on the 3m-1 side and autgroup.act moves it by term
automorphisms, compatibly on both sides.
"""

from __future__ import annotations

from random import Random

from .autgroup import graded_inverse, random_automorphism
from .linalg import kernel_basis, rank
from .monad import Monad, _sections_rank, parse_block, validate
from .polymat import (
    FreeSheaf,
    GradedMatrix,
    HomogPoly,
    ParseBudget,
    compose,
    coordinates,
    forms_dimension,
    from_coordinates,
    random_poly,
    sections_matrix,
)
from .scalar import QQ, Field

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


def point_monad(m: Monad) -> Monad:
    """m itself if it is a point: the fixed twist lists at -2..0 on P^3,
    codim 2 and cohomology at 0; anything else is a MalformedPointError."""
    if (m.n != N or m.lo != -2 or m.hi != 0
            or m.terms[-2] != SOURCE or m.terms[-1] != MIDDLE or m.terms[0] != TARGET):
        raise MalformedPointError("file does not carry the fixed twist lists")
    if m.c != 2 or m.cohomology_position != 0:
        raise MalformedPointError(
            f"a point has codim 2 and cohomology at 0, not codim {m.c} "
            f"and cohomology at {m.cohomology_position}")
    return m


def wss_membership(m: Monad) -> dict:
    """The verdict on the point m that p3 check prints: member, the four
    clauses in order a to d, the failed ones and their descriptions.

    Clause (b) validates the complex, phi psi = 0, since the product of
    the section matrices is the section matrix of phi psi.  phi is ranked
    through the section-rank cache: the Hilbert window of m ranks the
    same matrix at the same twist.  Clause (d) builds the section matrix
    of phi's second row only when phi_21 is zero; otherwise its rank is 4.
    """
    psi, phi = point_monad(m).diffs[-2], m.diffs[-1]
    row2 = phi.entries[1]
    clauses = {
        "a": rank(sections_matrix(psi, SECTION_TWIST)) == 2,
        "b": not validate(m),
        "c": MIDDLE.sections_dim(SECTION_TWIST) - _sections_rank(phi, SECTION_TWIST) == 2,
        "d": not row2[0].is_zero() or rank(sections_matrix(
            GradedMatrix(m.field, MIDDLE, FreeSheaf(N, (-1,)), [row2]), 2)) >= 3,
    }
    failed = [k for k, ok in clauses.items() if not ok]
    return {"member": not failed, "clauses": clauses, "failed": failed,
            "descriptions": {k: CLAUSES[k] for k in failed}}


def _point(field: Field, psi: GradedMatrix, phi: GradedMatrix) -> Monad:
    """The complex 2O(-3) -> O(-1)+3O(-2) -> O+O(-1) at positions -2..0."""
    return Monad(field, N, {-2: SOURCE, -1: MIDDLE, 0: TARGET}, {-2: psi, -1: phi}, 2, 0)


def _parsed_point(field: Field, psi_rows: list[str], phi_rows: list[str]) -> Monad:
    """The point whose psi and phi have these rows, one per target summand."""
    budget = ParseBudget()
    return _point(field, parse_block("psi", psi_rows, field, N, SOURCE, MIDDLE, budget),
                  parse_block("phi", phi_rows, field, N, MIDDLE, TARGET, budget))


def twisted_cubic_point(field: Field = QQ) -> Monad:
    """The point carved out by the quadric minors of [[x0,x1,x2],[x1,x2,x3]].

    The second row of phi is the unit (1, 0, 0, 0); the first row holds
    the signed minors, whose two linear syzygies fill the columns of
    psi below a zero first row.
    """
    return _parsed_point(
        field,
        ["0; 0", "x0; x1", "x1; x2", "x2; x3"],
        ["0; x1*x3 - x2^2; x1*x2 - x0*x3; x0*x2 - x1^2", "1; 0; 0; 0"])


def forbidden_form_point(field: Field = QQ) -> Monad:
    """A point on the exact locus whose phi has the forbidden second row.

    The quadric row holds the signed minors of [[x0, x1, x2], [0, x0, x1]]
    rearranged against phi_11 = x3, cutting out a triple structure on a
    line; the section sequence is exact, but phi_21 = 0 with phi_22 = 0
    makes the second row column-reducible to (0, 0, *, *), so membership
    fails exactly through clause (d).
    """
    return _parsed_point(
        field,
        ["-x0*x2 + x1^2; 0", "x3; x2", "0; -x1", "0; x0"],
        ["x3; x0*x2 - x1^2; -x1*x2; -x2^2", "0; 0; x0; x1"])


def _determinantal_phi(field: Field, rng: Random) -> GradedMatrix:
    """phi with quadric row the signed minors of a random 2x3 linear matrix.

    The minors of the matrix with rows a and b are a x b: the skew matrix
    of a, 3O(-1) -> 3O, composed with the column b.  Such a phi always
    has two independent linear syzygies (the rows of the matrix), which
    is exactly the section-kernel shape membership demands; a dense
    unconstrained draw has no kernel at all, because three generic
    quadrics admit no linear syzygy.
    """
    a = [random_poly(field, N, 1, rng) for _ in range(3)]
    b = [random_poly(field, N, 1, rng) for _ in range(3)]
    zero1 = HomogPoly.zero(field, N, 1)
    neg = [from_coordinates(field, N, 1, {j: -c for j, c in coordinates(f).items()}) for f in a]
    linears = FreeSheaf(N, (-1, -1, -1))
    skew = GradedMatrix(field, linears, FreeSheaf(N, (0, 0, 0)), [[zero1, neg[2], a[1]],
                                                                  [a[2], zero1, neg[0]],
                                                                  [neg[1], a[0], zero1]])
    column = GradedMatrix(field, FreeSheaf(N, (-2,)), linears, [[f] for f in b])
    q = [row[0] for row in compose(skew, column).entries]
    one = from_coordinates(field, N, 0, {0: 1})
    return GradedMatrix(field, MIDDLE, TARGET,
                        [[zero1, *q],
                         [one, zero1, zero1, zero1]])


def _psi_from_kernel(phi: GradedMatrix) -> GradedMatrix | None:
    """Solve phi psi = 0: psi columns span the twist-3 section kernel.

    The kernel's columns run over the monomials of psi's rows in turn,
    quadrics in the first row and linear forms in the other three.
    """
    kernel = kernel_basis(sections_matrix(phi, SECTION_TWIST))
    if len(kernel) != 2:
        return None
    field = phi.field
    degrees = [SECTION_TWIST + e for e in MIDDLE.twists]
    slots = [(r, j) for r, d in enumerate(degrees) for j in range(forms_dimension(N, d))]
    columns = []
    for v in kernel:
        coords = [{} for _ in degrees]
        for c, x in v.items():
            r, j = slots[c]
            coords[r][j] = x
        columns.append([from_coordinates(field, N, d, x) for d, x in zip(degrees, coords)])
    return GradedMatrix(field, SOURCE, MIDDLE,
                        [[columns[0][r], columns[1][r]] for r in range(4)])


def sample_wss_stats(seed: int, field: Field,
                     max_tries: int = 32) -> tuple[Monad, int, dict]:
    """Draw phi on the syzygy-positive locus, densify by a random
    automorphism, solve psi from the section kernel, test membership.

    Returns the first accepted point, the number of draws it took and
    the wss_membership verdict that accepted it.  Deterministic in the seed.
    Refuses Q: the rejection loop is only meant for prime fields, where
    dense draws are cheap and generic.
    """
    if not field.p:
        raise ValueError("sampling requires a prime field; Q points are check-only")
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")
    rng = Random(seed)
    for attempt in range(1, max_tries + 1):
        phi0 = _determinantal_phi(field, rng)
        g_mid = random_automorphism(field, MIDDLE, rng, density=1.0)
        g_tgt = random_automorphism(field, TARGET, rng, density=1.0)
        phi = compose(g_tgt, compose(phi0, graded_inverse(g_mid)))
        psi = _psi_from_kernel(phi)
        if psi is None:
            continue
        pt = _point(field, psi, phi)
        res = wss_membership(pt)
        if not res["clauses"]["b"]:
            raise AssertionError("kernel solve must satisfy phi psi = 0")
        if res["member"]:
            return pt, attempt, res
    raise SampleExhaustedError(f"exhausted max_tries = {max_tries}")
