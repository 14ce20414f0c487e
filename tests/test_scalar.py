import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from projmonad.scalar import GF, QQ, FieldError, _is_prime

F7 = GF(7)
F101 = GF(101)


def test_fraction_addition():
    assert QQ.parse("1/2") + QQ.parse("1/3") == QQ.parse("5/6")


def test_prime_field_division():
    assert F7.element(1) / F7.element(3) == F7.element(5)


def test_normalization():
    assert QQ.element(Fraction(-2, -4)) == QQ.parse("1/2")
    assert str(QQ.element(Fraction(2, -4))) == "-1/2"


def test_canonical_form_idempotent():
    a = QQ.parse("-6/8")
    again = QQ.element(a.value)
    assert again == a and again.value == a.value
    b = F7.element(23)
    assert F7.element(b.value) == b and 0 <= b.value < 7


@pytest.mark.parametrize("text,num,den", [
    ("3", 3, 1), ("-3/7", -3, 7), ("+2/4", 1, 2), ("0", 0, 1),
])
def test_parse_rational_literals(text, num, den):
    assert QQ.parse(text).value == Fraction(num, den)


def test_parse_rejects_garbage():
    for bad in ("", "x", "1/", "/2", "1.5", "--3"):
        with pytest.raises(FieldError):
            QQ.parse(bad)


def test_prime_field_parse_uses_inverse():
    assert F7.parse("1/3") == F7.element(5)
    assert F7.parse("-1") == F7.element(6)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.one / QQ.zero
    with pytest.raises(ZeroDivisionError):
        F7.one / F7.zero


def test_modulus_mismatch():
    with pytest.raises(FieldError):
        F7.element(1) + GF(11).element(1)
    with pytest.raises(FieldError):
        QQ.one * F7.one


def test_bad_moduli_rejected():
    with pytest.raises(FieldError):
        GF(6)
    with pytest.raises(FieldError):
        GF(1)
    with pytest.raises(FieldError):
        GF((1 << 31) + 11)  # prime, but too large


def _is_prime_by_trial_division(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# Strong pseudoprimes to bases 2; 2, 3; 2, 3, 5 (the smallest of each),
# Carmichael numbers, and primes and composites just below 2^31.
HARD_CASES = [2047, 3277, 4033, 1373653, 25326001, 561, 1105, 1729, 2465, 62745,
              2**31 - 1, 2147483629, 2147483587, 2**31 - 3, 46337**2, 46337 * 46327,
              65521 * 32749]


def test_is_prime_matches_trial_division():
    for p in range(-3, 20000):
        assert _is_prime(p) == _is_prime_by_trial_division(p), p
    rng = Random(5)
    for p in HARD_CASES + [rng.randrange(1 << 30, 1 << 31) for _ in range(200)]:
        assert _is_prime(p) == _is_prime_by_trial_division(p), p


def test_large_modulus_refused_before_primality():
    start = time.perf_counter()
    for p in (2**61 - 1, 2**89 - 1, 10**40 + 1, 1 << 31):
        with pytest.raises(FieldError, match="exceeds 2\\^31"):
            GF(p)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(FieldError):
        GF(2.0**31)
    assert GF(2**31 - 1).p == 2**31 - 1


def test_immutability():
    a = QQ.one
    with pytest.raises(AttributeError):
        a.value = Fraction(2)


def _random_element(field, rng):
    if field is QQ:
        return field.element(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))
    return field.element(rng.randrange(field.p))


@pytest.mark.parametrize("field", [QQ, F7, F101])
def test_field_axioms_1000_triples(field):
    rng = Random(1)
    for _ in range(1000):
        a, b, c = (_random_element(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("field", [QQ, F7, F101])
def test_inverse_law(field):
    rng = Random(2)
    seen = 0
    while seen < 200:
        a = _random_element(field, rng)
        if not a:
            continue
        assert a * a.inverse() == field.one
        assert (field.one / a) * a == field.one
        seen += 1


@given(st.fractions(), st.fractions())
def test_q_sub_matches_fraction_arithmetic(x, y):
    assert (QQ.element(x) - QQ.element(y)).value == x - y


@given(st.integers(), st.integers())
def test_f101_add_matches_residues(x, y):
    assert (F101.element(x) + F101.element(y)).value == (x + y) % 101
