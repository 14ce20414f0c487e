import re
from pathlib import Path
from random import Random

import pytest

from conftest import (
    Boxed,
    boxed_rows,
    matrix_is_zero,
    matrix_product,
    poly_add_oracle,
    random_graded_matrix,
    rank_oracle,
)
from projmonad import modp3
from projmonad.autgroup import (
    act,
    graded_inverse,
    induced_dual_element,
    random_automorphism,
    random_element,
)
from projmonad.complexes import koszul_monad
from projmonad.hilbert import IntPoly, euler_poly
from projmonad.linalg import rank
from projmonad.modp3 import (
    MIDDLE,
    SOURCE,
    TARGET,
    MalformedPointError,
    SampleExhaustedError,
    forbidden_form_point,
    point_monad,
    sample_wss_stats,
    twisted_cubic_point,
    wss_membership,
)
from projmonad.monad import (
    Monad,
    dualize,
    exactness_check,
    format_monad,
    hilbert_poly_of_cohomology,
    minimality_check,
    parse_monad,
    validate,
)
from projmonad.polymat import (
    FreeSheaf,
    GradedMatrix,
    HomogPoly,
    compose,
    coordinates,
    parse_poly,
    random_poly,
    sections_matrix,
    syzygies,
)
from projmonad.scalar import GF, QQ

F101 = GF(101)
DATA = Path(__file__).parent / "data"

# Try-count regression bound for seeded sampling; seeds 0..9 all accept
# on the first draw, the bound leaves room for unlucky degeneracies.
TRY_BOUND = 4


def _point(phi_rows, psi_rows, field=QQ):
    phi = GradedMatrix(field, MIDDLE, TARGET,
                       [[parse_poly(s, field, 3, d) for s, d in zip(row, degs)]
                        for row, degs in zip(phi_rows, [(1, 2, 2, 2), (0, 1, 1, 1)])])
    psi = GradedMatrix(field, SOURCE, MIDDLE,
                       [[parse_poly(s, field, 3, d) for s in row]
                        for row, d in zip(psi_rows, (2, 1, 1, 1))])
    return modp3._point(field, psi, phi)


def test_twisted_cubic_is_a_complex_with_all_clauses():
    pt = twisted_cubic_point()
    # brute-force check of the frozen syzygy signs
    assert compose(pt.diffs[-1], pt.diffs[-2]).is_zero()
    res = wss_membership(pt)
    assert res["member"] and res["failed"] == []
    assert rank(sections_matrix(pt.diffs[-2], 3)) == 2


def test_twisted_cubic_hilbert_polynomial():
    m = point_monad(twisted_cubic_point())
    assert hilbert_poly_of_cohomology(m) == IntPoly([1, 3])
    assert exactness_check(m, [-2, -1], range(3, 8)) == {-2: True, -1: True}


def test_forbidden_form_rejected_with_reason_d():
    # phi_21 = 0 and phi_22 = 0: the second row column-reduces to
    # (0, 0, *, *).  The frozen point keeps the section sequence exact,
    # so clause (d) is the one and only failure.
    pt = forbidden_form_point()
    assert not validate(point_monad(pt))
    res = wss_membership(pt)
    assert not res["member"]
    assert res["failed"] == ["d"]
    assert res["clauses"] == {"a": True, "b": True, "c": True, "d": False}
    assert euler_poly(point_monad(pt)) == IntPoly([1, 3])


def test_reason_codes_name_each_clause():
    cubic = twisted_cubic_point()
    # zero psi: loses injectivity (a) and the kernel match (c)
    zero_psi = _point(
        phi_rows=[["0", "x1*x3 - x2^2", "x1*x2 - x0*x3", "x0*x2 - x1^2"],
                  ["1", "0", "0", "0"]],
        psi_rows=[["0", "0"], ["0", "0"], ["0", "0"], ["0", "0"]],
    )
    res = wss_membership(zero_psi)
    assert res["failed"] == ["a"]
    # a psi that is not even a complex trips (b)
    broken = _point(
        phi_rows=[["0", "x1*x3 - x2^2", "x1*x2 - x0*x3", "x0*x2 - x1^2"],
                  ["1", "0", "0", "0"]],
        psi_rows=[["0", "0"], ["x0", "x1"], ["x1", "x2"], ["x2", "x0"]],
    )
    res = wss_membership(broken)
    assert "b" in res["failed"]


def _clause_b_points(field, rng, count):
    """Points of three kinds in turn: phi moved by random automorphisms
    with psi solved from its section kernel (a complex), the same with
    one psi entry redrawn sparsely, and phi and psi drawn independently
    at a random density.  A phi without a two-dimensional kernel gets a
    random psi."""
    for k in range(count):
        if k % 3 == 2:
            density = rng.choice((0.05, 0.2, 1.0))
            yield modp3._point(field, random_graded_matrix(field, SOURCE, MIDDLE, rng, density),
                               random_graded_matrix(field, MIDDLE, TARGET, rng, density))
            continue
        phi0 = modp3._determinantal_phi(field, rng)
        g_mid = random_automorphism(field, MIDDLE, rng)
        g_tgt = random_automorphism(field, TARGET, rng)
        phi = compose(g_tgt, compose(phi0, graded_inverse(g_mid)))
        psi = syzygies(phi, 3)
        if psi.cols != 2:
            psi = random_graded_matrix(field, SOURCE, MIDDLE, rng)
        if k % 3 == 1:
            entries = [list(row) for row in psi.entries]
            r, s = rng.randrange(4), rng.randrange(2)
            entries[r][s] = random_poly(field, 3, entries[r][s].degree, rng, 0.3)
            psi = GradedMatrix(field, SOURCE, MIDDLE, entries)
        yield modp3._point(field, psi, phi)


@pytest.mark.parametrize("field", [GF(2), F101, GF(2 ** 31 - 1), QQ],
                         ids=["F_2", "F_101", "F_(2^31-1)", "Q"])
def test_clause_b_equals_the_section_product(field):
    # S_3(phi) S_3(psi) is the oracle the clause was once computed by
    zero_products = 0
    for pt in _clause_b_points(field, Random(25), 150):
        product = matrix_product(sections_matrix(pt.diffs[-1], 3),
                                 sections_matrix(pt.diffs[-2], 3))
        zero = matrix_is_zero(product)
        assert wss_membership(pt)["clauses"]["b"] == zero
        zero_products += zero
    assert 0 < zero_products < 150


def test_sampling_refuses_a_kernel_solve_that_is_no_complex(monkeypatch):
    def skewed(phi, t):
        psi = syzygies(phi, t)
        entries = [list(row) for row in psi.entries]
        entries[1][0] = poly_add_oracle(entries[1][0], parse_poly("x0", phi.field, 3, 1))
        return GradedMatrix(phi.field, SOURCE, MIDDLE, entries)

    monkeypatch.setattr(modp3, "syzygies", skewed)
    with pytest.raises(AssertionError, match="kernel solve must satisfy phi psi = 0"):
        sample_wss_stats(0, F101)


def test_membership_to_dict_shape():
    d = wss_membership(twisted_cubic_point())
    assert set(d) == {"member", "clauses", "failed", "descriptions"}
    assert set(d["clauses"]) == {"a", "b", "c", "d"}


def test_point_shape_validation():
    pt = twisted_cubic_point()
    # the Monad constructor refuses phi in place of psi
    with pytest.raises(ValueError, match="does not match its terms"):
        modp3._point(QQ, pt.diffs[-1], pt.diffs[-1])
    # a valid Monad on other twist lists is no point
    with pytest.raises(MalformedPointError):
        point_monad(dualize(pt))


TWISTS = {-2: SOURCE.twists, -1: MIDDLE.twists, 0: TARGET.twists}
OTHER_LISTS = "file does not carry the fixed twist lists"


@pytest.mark.parametrize("n, twists, c, position, message", [
    (4, TWISTS, 2, 0, OTHER_LISTS),
    (3, {-3: (-4,), **TWISTS}, 2, 0, OTHER_LISTS),
    (3, {**TWISTS, 1: (1,)}, 2, 0, OTHER_LISTS),
    (3, {**TWISTS, -2: (-3, -4)}, 2, 0, OTHER_LISTS),
    (3, {**TWISTS, -1: (-1, -2, -2)}, 2, 0, OTHER_LISTS),
    (3, {**TWISTS, 0: (0,)}, 2, 0, OTHER_LISTS),
    (3, TWISTS, 3, 0,
     "a point has codim 2 and cohomology at 0, not codim 3 and cohomology at 0"),
    (3, TWISTS, 2, -1,
     "a point has codim 2 and cohomology at 0, not codim 2 and cohomology at -1"),
], ids=["n", "lo", "hi", "source", "middle", "target", "codim", "position"])
def test_point_monad_refusals(n, twists, c, position, message):
    # zero maps on the point's terms, with one thing changed
    m = Monad(QQ, n, {i: FreeSheaf(n, t) for i, t in twists.items()}, {}, c, position)
    with pytest.raises(MalformedPointError, match=f"^{re.escape(message)}$"):
        point_monad(m)
    with pytest.raises(MalformedPointError, match=f"^{re.escape(message)}$"):
        wss_membership(m)


def test_dual_twist_lists():
    m = dualize(point_monad(twisted_cubic_point()))
    assert m.terms[-2].twists == (-4, -3)
    assert m.terms[-1].twists == (-3, -2, -2, -2)
    assert m.terms[0].twists == (-1, -1)
    assert compose(m.diffs[-1], m.diffs[-2]).is_zero()


def test_dualize_is_involution_on_points():
    pt = twisted_cubic_point()
    assert point_monad(dualize(dualize(point_monad(pt)))) == pt


def test_dual_euler_is_3m_minus_1():
    for pt in (twisted_cubic_point(), sample_wss_stats(11, F101)[0]):
        assert euler_poly(dualize(point_monad(pt))) == IntPoly([-1, 3])


def test_sampling_accepts_within_regression_bound():
    for seed in range(10):
        pt, tries, _ = sample_wss_stats(seed, F101)
        assert tries <= TRY_BOUND
        assert wss_membership(pt)["member"]


def test_sampling_galleries_are_deterministic():
    assert sample_wss_stats(5, F101)[0] == sample_wss_stats(5, F101)[0]


def test_sampling_golden_point_seed_42():
    pt, tries, _ = sample_wss_stats(42, F101)
    assert tries == 1
    golden = (DATA / "golden_p3_seed42_f101.monad").read_text()
    assert format_monad(pt) == golden


def test_sampling_guards(monkeypatch):
    with pytest.raises(ValueError):
        sample_wss_stats(1, QQ)
    drawn = []
    draw = modp3._determinantal_phi

    def counted(*args):
        drawn.append(args)
        return draw(*args)

    monkeypatch.setattr(modp3, "_determinantal_phi", counted)
    for tries in (0, -3):
        with pytest.raises(ValueError, match=f"max_tries must be at least 1, got {tries}"):
            sample_wss_stats(1, F101, max_tries=tries)
    assert drawn == []
    # every draw without a two-dimensional kernel is refused
    monkeypatch.setattr(modp3, "syzygies",
                        lambda phi, t: GradedMatrix.zero(phi.field, FreeSheaf(3, ()), MIDDLE))
    with pytest.raises(SampleExhaustedError, match="exhausted max_tries = 2"):
        sample_wss_stats(1, F101, max_tries=2)
    assert len(drawn) == 2


def test_sampled_point_hilbert_and_exactness():
    pt = sample_wss_stats(7, F101)[0]
    m = point_monad(pt)
    assert hilbert_poly_of_cohomology(m) == IntPoly([1, 3])
    assert exactness_check(m, [-2, -1], range(3, 8)) == {-2: True, -1: True}


def test_dual_window_hilbert_is_3m_minus_1():
    dual = dualize(point_monad(twisted_cubic_point(F101)))
    assert hilbert_poly_of_cohomology(dual) == IntPoly([-1, 3])


def test_membership_invariant_under_group_action():
    pt = sample_wss_stats(3, F101)[0]
    m = point_monad(pt)
    for trial in range(10):
        g = random_element(F101, m, seed=100 + trial)
        assert wss_membership(point_monad(act(g, m)))["member"]


def _row2_rank(phi):
    """The rank of the twist-2 sections of phi's second row, by minors."""
    row2 = GradedMatrix(phi.field, MIDDLE, FreeSheaf(3, (-1,)), [phi.entries[1]])
    return rank_oracle(phi.field, boxed_rows(sections_matrix(row2, 2)), 7)


def _independent(forms):
    """Whether linear forms are independent, by minors on their coordinates."""
    rows = [[Boxed(f.field, coordinates(f).get(j, 0)) for j in range(4)] for f in forms]
    return rank_oracle(forms[0].field, rows, 4) == len(forms)


def test_clause_d_or_is_the_invariant():
    # Neither branch of clause (d) is invariant on its own: the twist
    # degrees make every group block triangular, so phi_21 only ever
    # rescales, while column operations pour phi_21 multiples into the
    # linear entries and flip their independence freely.  Membership
    # must therefore assert the OR, never one branch; the second row's
    # section rank at twist 2 is the invariant that carries it.
    pt = twisted_cubic_point(F101)
    m = point_monad(pt)
    start_rank = _row2_rank(m.diffs[-1])
    independence_flipped = False
    for trial in range(40):
        g = random_element(F101, m, seed=500 + trial)
        moved = point_monad(act(g, m))
        assert wss_membership(moved)["member"]
        assert not moved.diffs[-1].entries[1][0].is_zero()
        assert _row2_rank(moved.diffs[-1]) == start_rank
        if _independent([moved.diffs[-1].entries[1][j] for j in (1, 2, 3)]):
            independence_flipped = True  # false at the start point
    assert independence_flipped


@pytest.mark.parametrize("field", [GF(2), F101, QQ], ids=["F_2", "F_101", "Q"])
def test_clause_d_is_phi21_or_independent_linear_forms(field):
    # half the draws zero phi_21, so the section rank decides clause (d)
    rng = Random(37)
    kinds = set()
    for k in range(60):
        density = rng.choice((0.1, 0.4, 1.0))
        entries = [list(row) for row in
                   random_graded_matrix(field, MIDDLE, TARGET, rng, density).entries]
        if k % 2:
            entries[1][0] = HomogPoly.zero(field, 3, 0)
        phi = GradedMatrix(field, MIDDLE, TARGET, entries)
        pt = modp3._point(field, random_graded_matrix(field, SOURCE, MIDDLE, rng, density), phi)
        phi_21_zero = entries[1][0].is_zero()
        expected = not phi_21_zero or _independent(entries[1][1:])
        assert wss_membership(pt)["clauses"]["d"] == expected
        assert expected == (_row2_rank(phi) >= 3)
        kinds.add((phi_21_zero, expected))
    assert kinds == {(False, True), (True, True), (True, False)}


def test_duality_action_equivariance():
    pt = sample_wss_stats(13, F101)[0]
    m = point_monad(pt)
    for trial in range(10):
        g = random_element(F101, m, seed=700 + trial)
        gd = induced_dual_element(g, 2)
        lhs = dualize(act(g, m))
        rhs = act(gd, dualize(m))
        assert lhs == rhs


def test_point_file_round_trip():
    pt = sample_wss_stats(21, F101)[0]
    text = format_monad(pt)
    assert point_monad(parse_monad(text)) == pt
    assert format_monad(point_monad(parse_monad(text))) == text


def test_a_koszul_complex_is_no_point():
    koszul = koszul_monad(QQ, 3, [0, 1])
    with pytest.raises(MalformedPointError):
        point_monad(parse_monad(format_monad(koszul)))
    with pytest.raises(MalformedPointError):
        wss_membership(koszul)


def test_named_and_sampled_points_are_their_own_point_monad():
    points = [make(field) for make in (twisted_cubic_point, forbidden_form_point)
              for field in (QQ, F101)]
    points.append(sample_wss_stats(0, F101)[0])
    for pt in points:
        assert isinstance(pt, Monad)
        assert point_monad(pt) is pt


def test_minimality_flags_phi21():
    assert not minimality_check(point_monad(twisted_cubic_point()))
