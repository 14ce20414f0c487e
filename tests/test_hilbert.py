from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import difference, evaluate, int_poly_str_oracle, reflect

from projmonad import hilbert
from projmonad.complexes import koszul_monad, line_monad, omega_resolution
from projmonad.hilbert import (
    InterpolationError,
    IntPoly,
    binomial_poly,
    bott_h,
    euler_poly,
    interpolate,
    line_bundle_hilb,
)
from projmonad.modp3 import forbidden_form_point, point_monad, twisted_cubic_point
from projmonad.monad import Monad, dualize, sheaf_cohomology
from projmonad.scalar import QQ


# --- Bott numbers -------------------------------------------------------


def test_diagonal_is_one_dimensional():
    for n in range(1, 5):
        for j in range(n + 1):
            assert bott_h(n, j, j, 0) == 1


def test_vanishing_off_the_diagonal_window():
    # h^q of Omega^j(j-i) vanishes for q != j with 0 <= i <= n, and for
    # q = j whenever i != j.
    for n in range(1, 5):
        for j in range(n + 1):
            for i in range(n + 1):
                for q in range(n + 1):
                    if q != j or i != j:
                        assert bott_h(n, j, q, j - i) == 0


def test_value_from_euler_resolution_on_p2():
    assert bott_h(2, 1, 0, 2) == 3
    got = sheaf_cohomology(omega_resolution(QQ, 2, 1, 2), 0)
    assert got == [3, 0, 0]


def test_bott_out_of_range():
    with pytest.raises(ValueError):
        bott_h(2, 3, 0, 0)
    with pytest.raises(ValueError):
        bott_h(2, 0, -1, 0)


def test_bott_nonnegative_and_serre_symmetric():
    for n in (1, 2, 3):
        for p in range(n + 1):
            for q in range(n + 1):
                for t in range(-6, 7):
                    h = bott_h(n, p, q, t)
                    assert h >= 0
                    assert h == bott_h(n, n - p, n - q, -t)


# --- Hilbert polynomials of line bundles --------------------------------


def test_line_bundle_values():
    assert evaluate(line_bundle_hilb(3, 0), 1) == 4
    assert line_bundle_hilb(1, 0) == IntPoly([1, 1])
    assert evaluate(line_bundle_hilb(3, -4), 0) == -1


def test_twisted_dual_reflection_identity():
    # P_{O(-n-1-e)}(m) = (-1)^n P_{O(e)}(-m), as polynomials.
    for n in range(1, 5):
        for e in range(-5, 6):
            lhs = line_bundle_hilb(n, -n - 1 - e)
            rhs = reflect(line_bundle_hilb(n, e))
            if n % 2:
                rhs = -rhs
            assert lhs == rhs


def test_hilbert_polys_are_integer_valued():
    for n in range(1, 5):
        for e in range(-5, 6):
            # integrality at deg + 1 consecutive integers forces it everywhere
            p = line_bundle_hilb(n, e)
            assert all(evaluate(p, k).denominator == 1 for k in range(n + 2))


# --- Euler polynomials ---------------------------------------------------


def test_euler_of_p3_example_and_dual():
    pt = twisted_cubic_point()
    assert str(euler_poly(point_monad(pt))) == "3*m + 1"
    assert str(euler_poly(dualize(point_monad(pt)))) == "3*m - 1"


def _euler_uncached(m) -> IntPoly:
    """sum_i (-1)^i P_{C^i}, every C(m + e + n, n) expanded afresh."""
    acc = IntPoly.zero()
    for i in range(m.lo, m.hi + 1):
        for e in m.terms[i].twists:
            term = binomial_poly.__wrapped__(e + m.n, m.n)
            acc = acc + (term if i % 2 == 0 else -term)
    return acc


def test_euler_poly_equals_uncached_sum_on_catalog():
    catalog = [point_monad(twisted_cubic_point()), point_monad(forbidden_form_point()),
               line_monad(QQ, 3, 0), line_monad(QQ, 2, -1),
               koszul_monad(QQ, 3, (0, 2)), koszul_monad(QQ, 4, (0, 1, 2), twist=1)]
    catalog += [omega_resolution(QQ, 4, p, t) for p in range(5) for t in (-3, 0, 2)]
    for m in catalog:
        for subject in (m, dualize(m)):
            first = euler_poly(subject)
            assert first == _euler_uncached(subject)
            # a second call is served from the cache and agrees
            assert euler_poly(subject) == first
    assert binomial_poly(5, 3) is binomial_poly(5, 3)
    assert binomial_poly(5, 3) == binomial_poly.__wrapped__(5, 3)


def test_euler_poly_cache_keys_twists_and_positions():
    cubic = point_monad(twisted_cubic_point())
    forbidden = point_monad(forbidden_form_point())
    assert cubic.diffs != forbidden.diffs
    hilbert._euler_poly_of_terms.cache_clear()
    assert euler_poly(cubic) == euler_poly(forbidden) == IntPoly([1, 3])
    info = hilbert._euler_poly_of_terms.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # one position to the right flips every sign: no shared entry
    shifted = Monad(QQ, 3, {i + 1: s for i, s in cubic.terms.items()}, {}, 2, 1)
    assert euler_poly(shifted) == -euler_poly(cubic)
    assert hilbert._euler_poly_of_terms.cache_info().currsize == 2
    assert hilbert._euler_poly_of_terms.cache_info().maxsize is not None


def test_euler_of_line_resolution():
    assert euler_poly(line_monad(QQ, 2, 0)) == IntPoly([1, 1])


# --- interpolation -------------------------------------------------------


def test_interpolate_line():
    assert interpolate([1, 4, 7], 0, 1) == IntPoly([1, 3])


def test_interpolate_constant():
    p = interpolate([5, 5, 5], 2, 0)
    assert p == IntPoly([5])


def test_interpolate_detects_wrong_degree():
    with pytest.raises(InterpolationError):
        interpolate([1, 2, 4], 0, 1)


def test_interpolate_needs_excess_sample():
    with pytest.raises(ValueError):
        interpolate([1, 4], 0, 1)


def test_interpolate_off_origin_window():
    p = IntPoly([Fraction(1), Fraction(-2), Fraction(1)])  # (m-1)^2
    values = [evaluate(p, t) for t in range(7, 12)]
    assert interpolate(values, 7, 2) == p


# --- IntPoly plumbing ----------------------------------------------------


def test_intpoly_str_forms():
    assert str(IntPoly([1, 3])) == "3*m + 1"
    assert str(IntPoly([-1, 3])) == "3*m - 1"
    assert str(IntPoly([0])) == "0"
    assert str(IntPoly([Fraction(1, 2), 0, 1])) == "m^2 + 1/2"
    assert str(IntPoly([0, -1])) == "-m"


@given(st.lists(st.one_of(st.integers(-3, 3), st.fractions(max_denominator=12)), max_size=6))
def test_intpoly_prints_as_the_oracle(coeffs):
    p = IntPoly(coeffs)
    assert str(p) == int_poly_str_oracle(p)


def test_intpoly_reflect_and_arithmetic():
    p = IntPoly([1, 2, 3])
    assert reflect(p) == IntPoly([1, -2, 3])
    assert difference(p, p) == IntPoly.zero()
    assert evaluate(p * IntPoly([0, 1]), 5) == 5 * evaluate(p, 5)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=4), st.integers(-10, 10))
def test_interpolation_inverts_evaluation(coeffs, t0):
    p = IntPoly(coeffs)
    bound = max(p.degree, 0)
    values = [evaluate(p, t) for t in range(t0, t0 + bound + 3)]
    assert interpolate(values, t0, bound) == p


@given(st.lists(st.fractions(), max_size=5), st.lists(st.fractions(), max_size=5))
def test_intpoly_ring_laws(a_coeffs, b_coeffs):
    a, b = IntPoly(a_coeffs), IntPoly(b_coeffs)
    assert a + b == b + a
    assert a * b == b * a
    assert reflect(a + b) == reflect(a) + reflect(b)
    assert reflect(a * b) == reflect(a) * reflect(b)


@given(st.integers(1, 4), st.integers(-6, 6), st.integers(-8, 8))
def test_line_bundle_hilb_evaluates_binomially(n, e, m):
    from math import comb

    value = evaluate(line_bundle_hilb(n, e), m)
    top = m + e + n
    expected = comb(top, n) if top >= 0 else (-1) ** n * comb(n - 1 - top, n)
    assert value == expected
