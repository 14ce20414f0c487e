from pathlib import Path

import pytest

from projmonad.autgroup import act, induced_dual_element, random_element
from projmonad.hilbert import IntPoly, euler_poly
from projmonad.linalg import rank
from projmonad.modp3 import (
    MIDDLE,
    SOURCE,
    TARGET,
    MalformedPointError,
    ParamPoint,
    SampleExhaustedError,
    forbidden_form_point,
    format_point,
    parse_point,
    point_monad,
    point_of,
    sample_wss,
    sample_wss_stats,
    twisted_cubic_point,
    wss_membership,
)
from projmonad.monad import dualize, exactness_check, hilbert_poly_of_cohomology, minimality_check
from projmonad.polymat import GradedMatrix, compose, parse_poly, sections_matrix
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
    return ParamPoint(psi=psi, phi=phi)


def test_twisted_cubic_is_a_complex_with_all_clauses():
    pt = twisted_cubic_point()
    # brute-force check of the frozen syzygy signs
    assert compose(pt.phi, pt.psi).is_zero()
    res = wss_membership(pt)
    assert res.member and res.failed == []
    assert rank(sections_matrix(pt.psi, 3)) == 2


def test_twisted_cubic_hilbert_polynomial():
    m = point_monad(twisted_cubic_point())
    assert hilbert_poly_of_cohomology(m) == IntPoly([1, 3])
    assert exactness_check(m, [-2, -1], range(3, 8)) == {-2: True, -1: True}


def test_forbidden_form_rejected_with_reason_d():
    # phi_21 = 0 and phi_22 = 0: the second row column-reduces to
    # (0, 0, *, *).  The frozen point keeps the section sequence exact,
    # so clause (d) is the one and only failure.
    pt = forbidden_form_point()
    assert pt.is_complex()
    res = wss_membership(pt)
    assert not res.member
    assert res.failed == ["d"]
    assert res.clauses == {"a": True, "b": True, "c": True, "d": False}
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
    assert res.failed == ["a"]
    # a psi that is not even a complex trips (b)
    broken = _point(
        phi_rows=[["0", "x1*x3 - x2^2", "x1*x2 - x0*x3", "x0*x2 - x1^2"],
                  ["1", "0", "0", "0"]],
        psi_rows=[["0", "0"], ["x0", "x1"], ["x1", "x2"], ["x2", "x0"]],
    )
    res = wss_membership(broken)
    assert "b" in res.failed


def test_membership_to_dict_shape():
    d = wss_membership(twisted_cubic_point()).to_dict()
    assert set(d) == {"member", "clauses", "failed", "descriptions"}
    assert set(d["clauses"]) == {"a", "b", "c", "d"}


def test_point_shape_validation():
    pt = twisted_cubic_point()
    with pytest.raises(MalformedPointError):
        ParamPoint(psi=pt.phi, phi=pt.phi)


def test_dual_twist_lists():
    m = dualize(point_monad(twisted_cubic_point()))
    assert m.terms[-2].twists == (-4, -3)
    assert m.terms[-1].twists == (-3, -2, -2, -2)
    assert m.terms[0].twists == (-1, -1)
    assert compose(m.diffs[-1], m.diffs[-2]).is_zero()


def test_dualize_is_involution_on_points():
    pt = twisted_cubic_point()
    assert point_of(dualize(dualize(point_monad(pt)))) == pt


def test_dual_euler_is_3m_minus_1():
    for pt in (twisted_cubic_point(), sample_wss(11, F101)):
        assert euler_poly(dualize(point_monad(pt))) == IntPoly([-1, 3])


def test_sampling_accepts_within_regression_bound():
    for seed in range(10):
        pt, tries, _ = sample_wss_stats(seed, F101)
        assert tries <= TRY_BOUND
        assert wss_membership(pt).member


def test_sampling_galleries_are_deterministic():
    assert sample_wss(5, F101) == sample_wss(5, F101)


def test_sampling_golden_point_seed_42():
    pt, tries, _ = sample_wss_stats(42, F101)
    assert tries == 1
    golden = (DATA / "golden_p3_seed42_f101.monad").read_text()
    assert format_point(pt) == golden


def test_sampling_guards():
    with pytest.raises(SampleExhaustedError):
        sample_wss(1, F101, max_tries=0)
    with pytest.raises(ValueError):
        sample_wss(1, QQ)


def test_sampled_point_hilbert_and_exactness():
    pt = sample_wss(7, F101)
    m = point_monad(pt)
    assert hilbert_poly_of_cohomology(m) == IntPoly([1, 3])
    assert exactness_check(m, [-2, -1], range(3, 8)) == {-2: True, -1: True}


def test_dual_window_hilbert_is_3m_minus_1():
    dual = dualize(point_monad(twisted_cubic_point(F101)))
    assert hilbert_poly_of_cohomology(dual) == IntPoly([-1, 3])


def test_membership_invariant_under_group_action():
    pt = sample_wss(3, F101)
    m = point_monad(pt)
    for trial in range(10):
        g = random_element(F101, m, seed=100 + trial)
        assert wss_membership(point_of(act(g, m))).member


def test_clause_d_or_is_the_invariant():
    # Neither branch of clause (d) is invariant on its own: the twist
    # degrees make every group block triangular, so phi_21 only ever
    # rescales, while column operations pour phi_21 multiples into the
    # linear entries and flip their independence freely.  Membership
    # must therefore assert the OR, never one branch.
    from projmonad.linalg import rank as _rank
    from projmonad.modp3 import _linear_coeff_matrix

    pt = twisted_cubic_point(F101)
    m = point_monad(pt)
    independence_flipped = False
    for trial in range(40):
        g = random_element(F101, m, seed=500 + trial)
        moved = point_of(act(g, m))
        assert wss_membership(moved).member
        assert not moved.phi.entries[1][0].is_zero()
        lin = [moved.phi.entries[1][j] for j in (1, 2, 3)]
        if _rank(_linear_coeff_matrix(F101, lin)) == 3:
            independence_flipped = True  # false at the start point
    assert independence_flipped


def test_duality_action_equivariance():
    pt = sample_wss(13, F101)
    m = point_monad(pt)
    for trial in range(10):
        g = random_element(F101, m, seed=700 + trial)
        gd = induced_dual_element(g, 2)
        lhs = dualize(act(g, m))
        rhs = act(gd, dualize(m))
        assert lhs == rhs


def test_point_file_round_trip():
    pt = sample_wss(21, F101)
    text = format_point(pt)
    assert parse_point(text) == pt
    assert format_point(parse_point(text)) == text


def test_parse_point_rejects_wrong_shape():
    from projmonad.complexes import koszul_monad
    from projmonad.monad import format_monad

    with pytest.raises(MalformedPointError):
        parse_point(format_monad(koszul_monad(QQ, 3, [0, 1])))


def test_minimality_flags_phi21():
    assert not minimality_check(point_monad(twisted_cubic_point()))
