import copy
import pickle
import time
from fractions import Fraction
from functools import partial
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Boxed, form_combination, is_canonical, matrix_product, parse_scalar
from projmonad.autgroup import graded_inverse, random_automorphism
from projmonad.linalg import Matrix, inverse, kernel_basis, rank, rref
from projmonad.polymat import (
    FreeSheaf,
    GradedMatrix,
    HomogPoly,
    ParseError,
    compose,
    forms_dimension,
    from_coordinates,
    parse_poly,
    sections_matrix,
)
from projmonad.scalar import GF, QQ, FieldError, PrimeField, RationalField, _is_prime

F7 = GF(7)
F101 = GF(101)


def test_fraction_addition():
    assert parse_scalar(QQ, "1/2") + parse_scalar(QQ, "1/3") == parse_scalar(QQ, "5/6")


def test_prime_field_division():
    assert Boxed(F7, 1) / Boxed(F7, 3) == Boxed(F7, 5)
    assert F7.coerce(1 * F7.inv(3)) == 5


def test_normalization():
    assert QQ.coerce(Fraction(-2, -4)) == Fraction(1, 2)
    assert Boxed(QQ, Fraction(-2, -4)) == parse_scalar(QQ, "1/2")
    assert str(Boxed(QQ, Fraction(2, -4))) == "-1/2"


def test_canonical_form_idempotent():
    a = QQ.coerce(Fraction(-6, 8))
    again = QQ.coerce(a)
    assert again == a and is_canonical(QQ, again)
    for whole in (Fraction(6, 3), 2, True):
        assert QQ.coerce(whole) == QQ.coerce(QQ.coerce(whole)) == whole
        assert type(QQ.coerce(whole)) is int
    b = F7.coerce(23)
    assert F7.coerce(b) == b and 0 <= b < 7


@pytest.mark.parametrize("text,num,den", [
    ("3", 3, 1), ("-3/7", -3, 7), ("+2/4", 1, 2), ("0", 0, 1),
])
def test_parse_rational_literals(text, num, den):
    assert parse_scalar(QQ, text).value == Fraction(num, den)
    # the form parser reads the literal to the same raw value
    assert parse_poly(text, QQ, 0).terms.get((0,), 0) == Fraction(num, den)


def test_parse_rejects_garbage():
    for bad in ("", "x", "1/", "/2", "1.5", "--3"):
        with pytest.raises(FieldError):
            parse_scalar(QQ, bad)


def test_prime_field_parse_uses_inverse():
    assert parse_scalar(F7, "1/3") == Boxed(F7, 5)
    assert parse_scalar(F7, "-1") == Boxed(F7, 6)
    assert parse_poly("1/3", F7, 0).terms == {(0,): 5}
    assert parse_poly("-1", F7, 0).terms == {(0,): 6}


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.coerce(0))
    with pytest.raises(ZeroDivisionError):
        F7.inv(F7.coerce(0))


@pytest.mark.parametrize("p", [2, 3, 101, 65521, 2**31 - 1])
def test_prime_field_inverse_equals_fermat_power(p):
    field = GF(p)
    rng = Random(p)
    values = {1, p - 1, *(rng.randrange(1, p) for _ in range(50))}
    for a in values:
        assert field.inv(a) == pow(a, p - 2, p)
    for zero in (0, p, -p):
        with pytest.raises(ZeroDivisionError, match=f"division by zero in F_{p}"):
            field.inv(zero)
    # the extended-Euclid power raises ValueError on zero, hence the guard
    with pytest.raises(ValueError):
        pow(0, -1, p)


def test_zero_denominator_over_prime_field_is_parse_error():
    for text in ("1/0", "3/101", "2*1/0"):
        with pytest.raises(ParseError, match="division by zero in F_101"):
            parse_poly(text, F101, 3, 0)


def test_modulus_mismatch():
    with pytest.raises(FieldError):
        Boxed(F7, 1) + Boxed(GF(11), 1)
    with pytest.raises(FieldError):
        Boxed(QQ, 1) * Boxed(F7, 1)
    # a raw value of Q is not one of F_7
    with pytest.raises(FieldError):
        F7.coerce(Fraction(1, 2))


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
    a = Boxed(QQ, 1)
    with pytest.raises(AttributeError):
        a.value = Fraction(2)


def _random_value(field, rng):
    """A raw value: a reduced Fraction over Q, a residue over F_p."""
    if field is QQ:
        return QQ.coerce(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))
    return field.coerce(rng.randrange(field.p))


# Raw arithmetic: the plain operation, then field.coerce back into canonical form.
RAW_OPS = {
    "+": lambda f, a, b: f.coerce(a + b),
    "-": lambda f, a, b: f.coerce(a - b),
    "*": lambda f, a, b: f.coerce(a * b),
    "/": lambda f, a, b: f.coerce(a * f.inv(b)),
    "neg": lambda f, a, b: f.coerce(-a),
}


@pytest.mark.parametrize("field", [QQ, F7, F101])
def test_field_axioms_1000_triples(field):
    rng = Random(1)
    add, mul = partial(RAW_OPS["+"], field), partial(RAW_OPS["*"], field)
    for _ in range(1000):
        a, b, c = (_random_value(field, rng) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("field", [QQ, F7, F101])
def test_inverse_law(field):
    rng = Random(2)
    mul, div = partial(RAW_OPS["*"], field), partial(RAW_OPS["/"], field)
    one = field.coerce(1)
    seen = 0
    while seen < 200:
        a = _random_value(field, rng)
        if not a:
            continue
        assert mul(a, field.inv(a)) == one
        assert mul(div(one, a), a) == one
        seen += 1


OPS = list(RAW_OPS)


def _apply(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return -a


@given(st.fractions(), st.fractions(), st.sampled_from(OPS))
def test_q_sub_matches_fraction_arithmetic(x, y, op):
    a, b = QQ.coerce(x), QQ.coerce(y)
    if op == "/" and y == 0:
        with pytest.raises(ZeroDivisionError):
            RAW_OPS[op](QQ, a, b)
        return
    got = RAW_OPS[op](QQ, a, b)
    assert is_canonical(QQ, got)
    assert got == _apply(op, x, y)


@given(st.integers(), st.integers(), st.sampled_from(OPS))
def test_f101_add_matches_residues(x, y, op):
    a, b = F101.coerce(x), F101.coerce(y)
    if op == "/" and y % 101 == 0:
        with pytest.raises(ZeroDivisionError):
            RAW_OPS[op](F101, a, b)
        return
    want = (x * pow(y, -1, 101) if op == "/" else _apply(op, x, y)) % 101
    got = RAW_OPS[op](F101, a, b)
    assert type(got) is int and got == want


# --- the raw-value codec: Field.p, integral and reduce -------------------

CODEC_FIELDS = [QQ, F101, GF(2**31 - 1)]


def _raw_values(field):
    """Nonzero canonical raw values: residues in [1, p); over Q ints, and
    Fractions whose denominator is not 1."""
    if field.p:
        return st.integers(1, field.p - 1)
    return st.fractions().filter(bool).map(QQ.coerce)


def _is_canonical(field, v) -> bool:
    """A nonzero canonical raw value, as reduce returns them."""
    return v != 0 and is_canonical(field, v)


def test_modulus_is_zero_over_q():
    assert QQ.p == 0 and F101.p == 101


@pytest.mark.parametrize("field", CODEC_FIELDS, ids=repr)
@given(data=st.data())
def test_integral_then_reduce_is_the_identity(field, data):
    values = data.draw(st.dictionaries(st.integers(0, 30), _raw_values(field), max_size=12))
    den, num = field.integral(values)
    assert type(den) is int and den >= 1
    assert all(type(v) is int for v in num.values())
    if field.p or all(type(v) is int for v in values.values()):
        # integral values come back as they are, not copied
        assert den == 1 and num is values
    else:
        assert all(Fraction(num[k], den) == v for k, v in values.items())
    back = field.reduce(num, den)
    assert back == values
    assert all(_is_canonical(field, v) for v in back.values())


def _divisors(field):
    """Nonzero raw divisors: units over F_p; over Q ints of either sign,
    +-1 among them, and canonical Fractions."""
    if field.p:
        return st.integers(1, field.p - 1)
    return (st.integers(-10**12, 10**12).filter(bool) | st.sampled_from([1, -1])
            | st.fractions().filter(lambda q: q.denominator != 1))


@pytest.mark.parametrize("field", [*CODEC_FIELDS, GF(2)], ids=repr)
@given(data=st.data())
def test_reduce_drops_zeros_and_returns_canonical_values(field, data):
    # elimination divides a pivot row by its pivot, and the parser a
    # literal's numerator by its denominator, through reduce; over Q the
    # row may mix ints with Fractions, some of denominator 1
    ints = st.integers(-10**30, 10**30) | st.sampled_from([0, field.p, -field.p])
    num = data.draw(st.dictionaries(st.integers(0, 30),
                                    ints if field.p else ints | st.fractions(), max_size=12))
    for den in (1, data.draw(_divisors(field))):
        out = field.reduce(num, den)
        if field.p:
            inv = pow(den, field.p - 2, field.p)  # Fermat, not the field's inverse
            want = {k: v * inv % field.p for k, v in num.items() if v * inv % field.p}
        else:
            want = {k: Fraction(v) / den for k, v in num.items() if v}
        assert out == want
        assert all(_is_canonical(field, v) for v in out.values())


def test_q_reduce_takes_mixed_ints_and_fractions_at_den_one():
    # sparse elimination hands back pivot tails holding both
    out = QQ.reduce({0: Fraction(1, 2), 1: 0, 2: 3, 3: Fraction(0), 4: Fraction(6, 3)})
    assert out == {0: Fraction(1, 2), 2: Fraction(3), 4: 2}
    assert all(is_canonical(QQ, v) for v in out.values())
    assert type(out[2]) is int and type(out[4]) is int


# --- canonical values over Q: an int iff the denominator is 1 ----------


@pytest.mark.parametrize("a,want", [
    (3, Fraction(1, 3)), (-3, Fraction(-1, 3)), (1, 1), (-1, -1),
    (Fraction(1, 3), 3), (Fraction(-1, 3), -3), (Fraction(2, 3), Fraction(3, 2)),
    (Fraction(-2, 7), Fraction(-7, 2)), (Fraction(1), 1), (True, 1),
])
def test_q_inverse_is_exact_and_canonical(a, want):
    got = QQ.inv(a)
    assert got == want and is_canonical(QQ, got)
    assert QQ.coerce(a * got) == 1


@pytest.mark.parametrize("zero", [0, Fraction(0), False])
def test_q_inverse_of_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        QQ.inv(zero)


def _half_integral(rng) -> Fraction:
    """Mostly halves, so that sums and products land on integers often."""
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 2, 3)))


def _q_form(rng, n, degree):
    return from_coordinates(QQ, n, degree, {j: _half_integral(rng)
                                            for j in range(forms_dimension(n, degree))})


def _q_graded(rng, source, target):
    return GradedMatrix(QQ, source, target, [[_q_form(rng, source.n, f - e) if f >= e
                                              else HomogPoly.zero(QQ, source.n, f - e)
                                              for e in source.twists] for f in target.twists])


def _q_matrix(rng, rows, cols):
    return Matrix(QQ, rows, cols, [{j: v for j in range(cols)
                                    if (v := QQ.coerce(_half_integral(rng)))}
                                   for _ in range(rows)])


def _canonical_terms(*forms) -> bool:
    return all(is_canonical(QQ, v) for p in forms for v in p.terms.values())


def _canonical_rows(*rows) -> bool:
    return all(is_canonical(QQ, v) for row in rows for v in row.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_every_q_producer_returns_canonical_values(seed):
    rng = Random(seed)
    x = _half_integral(rng)
    assert is_canonical(QQ, QQ.coerce(x))
    if x:
        assert is_canonical(QQ, QQ.inv(QQ.coerce(x)))
    den = rng.choice((1, 2, 6))
    assert _canonical_rows(QQ.reduce({k: rng.randint(-12, 12) for k in range(8)}, den))

    a, b = _q_form(rng, 2, 2), _q_form(rng, 2, 2)
    one, minus_one = (from_coordinates(QQ, 2, 0, {0: u}) for u in (1, -1))
    assert _canonical_terms(a, b, form_combination([a, b], [one, one]),
                            form_combination([a, b], [one, minus_one]),
                            form_combination([a], [b]), form_combination([a], [minus_one]))
    assert _canonical_terms(parse_poly(str(a), QQ, 2), parse_poly("1/2*x0 + 1/2*x0", QQ, 2),
                            parse_poly("(1/2)^0*x0 + 4/2*x1", QQ, 2))

    source, middle, target = FreeSheaf(2, (-1, 0)), FreeSheaf(2, (0, 1)), FreeSheaf(2, (1, 1))
    f, g = _q_graded(rng, source, middle), _q_graded(rng, middle, target)
    assert _canonical_terms(*(p for row in compose(g, f).entries for p in row))
    assert _canonical_rows(*sections_matrix(f, 1).row_maps)
    auto = random_automorphism(QQ, FreeSheaf(2, (0, 0, 1)), rng)
    assert _canonical_terms(*(p for row in graded_inverse(auto).entries for p in row))

    m, k = _q_matrix(rng, 4, 5), _q_matrix(rng, 5, 3)
    red, _ = rref(m)
    assert _canonical_rows(*matrix_product(m, k).row_maps, *red.row_maps, *kernel_basis(m))
    square = _q_matrix(rng, 3, 3)
    if rank(square) == 3:
        assert _canonical_rows(*inverse(square).row_maps)


def test_fields_are_interned():
    assert GF(101) is GF(101) and PrimeField(101) is GF(101)
    assert GF(2**31 - 1) is GF(2**31 - 1)
    assert RationalField() is QQ
    assert GF(101) != GF(103) and GF(101) != QQ
    assert len({GF(101), PrimeField(101), QQ, RationalField()}) == 2


@pytest.mark.parametrize("field", [QQ, GF(2), F101, GF(2**31 - 1)], ids=repr)
def test_copied_and_pickled_fields_are_the_interned_ones(field):
    assert copy.copy(field) is field
    assert copy.deepcopy(field) is field
    assert pickle.loads(pickle.dumps(field)) is field
