from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    JUNK_CELLS,
    compose_oracle,
    parse_poly_oracle,
    poly_add_oracle,
    poly_from_boxed,
    poly_mul_oracle,
    poly_str_oracle,
    random_valid_monad,
)
from projmonad.autgroup import (
    format_group_element,
    graded_inverse,
    induced_dual_element,
    parse_group_element,
    random_automorphism,
    random_element,
)
from projmonad.linalg import rank
from projmonad.monad import format_blocks, format_monad, parse_block, parse_monad, read_blocks
from projmonad.polymat import (
    FreeSheaf,
    GradedMatrix,
    HomogPoly,
    ParseError,
    compose,
    dual_hom,
    forms_dimension,
    monomials_of_degree,
    parse_poly,
    parse_twists,
    random_graded_matrix,
    random_poly,
    sections_matrix,
)
from projmonad.scalar import GF, QQ, FieldError

F7 = GF(7)


def P(src, n=3, degree=None, field=QQ):
    return parse_poly(src, field, n, degree)


# --- monomials ---------------------------------------------------------


def test_monomial_count_matches_binomial():
    for n in range(5):
        for d in range(9):
            assert len(monomials_of_degree(n, d)) == forms_dimension(n, d)


def test_monomial_order_is_lex_descending():
    monos = monomials_of_degree(2, 2)
    assert monos == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


# --- polynomial arithmetic and parsing ---------------------------------


def test_parse_examples():
    p = P("x0^2 - 2*x0*x1 + x1^2")
    assert p == P("(x0 - x1)^2")
    assert P("  x0 * x1 ") == P("x1*x0")
    assert P("3/2*x0 - 1/2*x0") == P("x0")
    assert P("x0 - x0", degree=1).is_zero()


def test_parse_errors():
    with pytest.raises(ParseError):
        P("x0 + 1")  # mixed degrees
    with pytest.raises(ParseError):
        P("x9", n=3)
    with pytest.raises(ParseError):
        P("x0 +")
    with pytest.raises(ParseError):
        P("(x0", n=3)
    with pytest.raises(ParseError):
        P("x0^-1")
    with pytest.raises(ParseError):
        P("x0", degree=2)


def test_prime_field_coefficients():
    p = parse_poly("3*x0 + 10*x1", F7, 1)
    assert p == parse_poly("3*x0 + 3*x1", F7, 1)


@settings(max_examples=60)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**31))
def test_print_parse_round_trip(n, degree, seed):
    p = random_poly(QQ, n, degree, Random(seed), density=0.6)
    assert parse_poly(str(p), QQ, n, p.degree) == p


def test_ring_laws_randomized():
    rng = Random(3)
    for _ in range(60):
        n = rng.randint(1, 3)
        da, db = rng.randint(0, 2), rng.randint(0, 2)
        a = random_poly(QQ, n, da, rng, 0.7)
        b = random_poly(QQ, n, da, rng, 0.7)
        c = random_poly(QQ, n, db, rng, 0.7)
        assert (a + b) * c == a * c + b * c
        assert a * c == c * a
        assert a - a == HomogPoly.zero(QQ, n, da)


def test_zero_polynomials_compare_equal_across_degrees():
    assert HomogPoly.zero(QQ, 2, -1) == HomogPoly.zero(QQ, 2, 3)


# --- graded matrices ----------------------------------------------------


def _p1_matrix(entry, e, f, field=QQ):
    src, tgt = FreeSheaf(1, (e,)), FreeSheaf(1, (f,))
    return GradedMatrix(field, src, tgt, [[parse_poly(entry, field, 1, f - e)]])


def test_compose_identity_law(rng):
    src = FreeSheaf(2, (-1, -2))
    tgt = FreeSheaf(2, (0, -1, -1))
    b = random_graded_matrix(QQ, src, tgt, rng)
    assert compose(GradedMatrix.identity(QQ, tgt), b) == b
    assert compose(b, GradedMatrix.identity(QQ, src)) == b


def test_compose_degree_addition_on_p1():
    a = _p1_matrix("x1", -1, 0)
    b = _p1_matrix("x0", -2, -1)
    ab = compose(a, b)
    assert ab.source == FreeSheaf(1, (-2,)) and ab.target == FreeSheaf(1, (0,))
    assert ab.entries[0][0] == parse_poly("x0*x1", QQ, 1, 2)


def test_compose_shape_mismatch():
    a = _p1_matrix("x1", -1, 0)
    wrong = _p1_matrix("x1", -3, -2)
    with pytest.raises(ValueError):
        compose(a, wrong)


def test_compose_associative_100_random():
    rng = Random(4)
    for _ in range(100):
        n = rng.randint(1, 3)
        sheaves = [FreeSheaf(n, tuple(rng.randint(-3 * k - 2, -3 * k)
                                      for _ in range(rng.randint(1, 3))))
                   for k in range(4)]
        c = random_graded_matrix(QQ, sheaves[3], sheaves[2], rng, 0.8)
        b = random_graded_matrix(QQ, sheaves[2], sheaves[1], rng, 0.8)
        a = random_graded_matrix(QQ, sheaves[1], sheaves[0], rng, 0.8)
        assert compose(a, compose(b, c)) == compose(compose(a, b), c)


def test_graded_matrix_rejects_wrong_degree():
    src, tgt = FreeSheaf(1, (-1,)), FreeSheaf(1, (1,))
    with pytest.raises(ValueError):
        GradedMatrix(QQ, src, tgt, [[parse_poly("x0", QQ, 1, 1)]])
    with pytest.raises(ValueError):
        GradedMatrix(QQ, FreeSheaf(1, (0,)), FreeSheaf(1, (-1,)),
                     [[parse_poly("1", QQ, 1, 0)]])


def test_dual_hom_shape_example():
    src = FreeSheaf(3, (-3, -3))
    tgt = FreeSheaf(3, (-1, -2, -2, -2))
    psi = random_graded_matrix(QQ, src, tgt, Random(5))
    dual = dual_hom(psi)
    assert dual.source.twists == (-3, -2, -2, -2)
    assert dual.target.twists == (-1, -1)


def test_dual_hom_involution_and_contravariance():
    rng = Random(6)
    for _ in range(100):
        n = rng.randint(1, 3)
        x = FreeSheaf(n, tuple(rng.randint(-4, -2) for _ in range(rng.randint(1, 3))))
        y = FreeSheaf(n, tuple(rng.randint(-1, 1) for _ in range(rng.randint(1, 3))))
        z = FreeSheaf(n, tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3))))
        b = random_graded_matrix(QQ, x, y, rng, 0.8)
        a = random_graded_matrix(QQ, y, z, rng, 0.8)
        assert dual_hom(dual_hom(a)) == a
        assert dual_hom(compose(a, b)) == compose(dual_hom(b), dual_hom(a))


# --- the sections functor ----------------------------------------------


def test_sections_shape_example_p3():
    src = FreeSheaf(3, (-3, -3))
    tgt = FreeSheaf(3, (-1, -2, -2, -2))
    psi = random_graded_matrix(QQ, src, tgt, Random(7))
    s = sections_matrix(psi, 3)
    assert (s.rows, s.cols) == (22, 2)
    big = FreeSheaf(3, (0, -1))
    phi = random_graded_matrix(QQ, tgt, big, Random(8))
    assert sections_matrix(phi, 3).rows == 30


def test_sections_multiplication_by_x0_on_p1():
    m = _p1_matrix("x0", -1, 0)
    s = sections_matrix(m, 1)
    assert (s.rows, s.cols) == (2, 1)
    values = [s.entry(0, 0), s.entry(1, 0)]
    assert sum(1 for v in values if v) == 1 and values[0] == QQ.one


def test_sections_empty_when_no_sections():
    m = _p1_matrix("x0", -3, -2)
    s = sections_matrix(m, 1)
    assert (s.rows, s.cols) == (0, 0)


def test_sections_functorial_100_random():
    rng = Random(9)
    for _ in range(100):
        n = rng.randint(1, 2)
        x = FreeSheaf(n, tuple(rng.randint(-3, -2) for _ in range(rng.randint(1, 2))))
        y = FreeSheaf(n, tuple(rng.randint(-1, 0) for _ in range(rng.randint(1, 2))))
        z = FreeSheaf(n, tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2))))
        b = random_graded_matrix(QQ, x, y, rng, 0.8)
        a = random_graded_matrix(QQ, y, z, rng, 0.8)
        t = rng.randint(0, 3)
        lhs = sections_matrix(compose(a, b), t)
        rhs = sections_matrix(a, t) * sections_matrix(b, t)
        assert lhs == rhs


def test_sections_over_prime_field_rank():
    src = FreeSheaf(1, (-1,))
    tgt = FreeSheaf(1, (0,))
    m = GradedMatrix(F7, src, tgt, [[parse_poly("x0", F7, 1, 1)]])
    assert rank(sections_matrix(m, 2)) == 2


def test_twist_list_parsing():
    assert parse_twists("[0,-1]", 3).twists == (0, -1)
    assert parse_twists("[]", 2).rank == 0
    with pytest.raises(ParseError):
        parse_twists("0,-1", 3)
    with pytest.raises(ParseError):
        parse_twists("[a]", 3)


# --- raw arithmetic and parsing against the boxed oracles ----------------

ORACLE_FIELDS = [QQ, GF(101), GF(2**31 - 1)]


def _same_poly(p, q):
    """Equal field, space, recorded degree and coefficients, raw types included."""
    assert (p.field, p.n, p.degree) == (q.field, q.n, q.degree)
    pc, qc = p.coefficients(), q.coefficients()
    assert pc == qc
    assert all(type(c.value) is type(qc[m].value) for m, c in pc.items())


def _same_matrix(a, b):
    assert (a.field, a.source, a.target) == (b.field, b.source, b.target)
    for row_a, row_b in zip(a.entries, b.entries):
        for p, q in zip(row_a, row_b):
            _same_poly(p, q)


def _fraction_poly(field, n, degree, rng):
    """A random form with non-integer coefficients over Q."""
    terms = {m: field.element(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
             for m in monomials_of_degree(n, degree) if rng.random() < 0.7}
    return poly_from_boxed(field, n, degree, terms)


def _random_sheaf(rng, n, lo, hi, max_rank=3):
    return FreeSheaf(n, tuple(rng.randint(lo, hi) for _ in range(rng.randint(0, max_rank))))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_poly_arithmetic_matches_boxed_oracle(field):
    rng = Random(11)
    for _ in range(80):
        n = rng.randint(1, 3)
        da, db = rng.randint(-2, 3), rng.randint(-2, 3)
        if field == QQ and rng.random() < 0.5:
            a = _fraction_poly(field, n, max(da, 0), rng)
            b = _fraction_poly(field, n, max(db, 0), rng)
        else:
            a = random_poly(field, n, da, rng, 0.6)
            b = random_poly(field, n, db, rng, 0.6)
        _same_poly(a * b, poly_mul_oracle(a, b))
        _same_poly(b * a, poly_mul_oracle(b, a))
        _same_poly(-a, poly_from_boxed(field, n, a.degree,
                                       {m: -c for m, c in a.coefficients().items()}))
        _same_poly(a - a, HomogPoly.zero(field, n, a.degree))
        c = field.element(rng.randint(-9, 9) if field == QQ else rng.randrange(field.p))
        _same_poly(a.scale(c), poly_from_boxed(field, n, a.degree,
                                               {m: c * v for m, v in a.coefficients().items()}))
        b = random_poly(field, n, a.degree, rng, 0.6)
        _same_poly(a + b, poly_add_oracle(a, b))
        _same_poly(a - b, poly_add_oracle(a, poly_from_boxed(
            field, n, b.degree, {m: -c for m, c in b.coefficients().items()})))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_compose_matches_boxed_oracle(field):
    rng = Random(12)
    for _ in range(40):
        n = rng.randint(1, 3)
        x = _random_sheaf(rng, n, -4, -2)
        y = _random_sheaf(rng, n, -3, 0)
        z = _random_sheaf(rng, n, -1, 2)
        b = random_graded_matrix(field, x, y, rng, rng.choice((0.3, 0.8)))
        a = random_graded_matrix(field, y, z, rng, rng.choice((0.3, 0.8)))
        _same_matrix(compose(a, b), compose_oracle(a, b))
    # cancellation: the row [p, p] against the column [q, -q]
    n = 2
    p = random_poly(field, n, 1, rng)
    q = random_poly(field, n, 2, rng)
    row = GradedMatrix(field, FreeSheaf(n, (-1, -1)), FreeSheaf(n, (0,)), [[p, p]])
    col = GradedMatrix(field, FreeSheaf(n, (-3,)), FreeSheaf(n, (-1, -1)), [[q], [-q]])
    zero = compose(row, col)
    _same_matrix(zero, compose_oracle(row, col))
    assert zero.entries[0][0].is_zero() and zero.entries[0][0].degree == 3


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_compose_empty_blocks_match_boxed_oracle(field):
    rng = Random(13)
    empty = FreeSheaf(2, ())
    s = FreeSheaf(2, (-2, 0, 1))
    t = FreeSheaf(2, (-1, 3))
    for a, b in [
        (random_graded_matrix(field, empty, t, rng), random_graded_matrix(field, s, empty, rng)),
        (random_graded_matrix(field, t, empty, rng), random_graded_matrix(field, s, t, rng)),
        (random_graded_matrix(field, s, t, rng), random_graded_matrix(field, empty, s, rng)),
    ]:
        ab = compose(a, b)
        _same_matrix(ab, compose_oracle(a, b))
        # forced zeros keep their negative recorded degree
        assert all(p.degree == f - e for f, row in zip(ab.target.twists, ab.entries)
                   for e, p in zip(ab.source.twists, row))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_graded_inverse_round_trip_matches_boxed_oracle(field):
    rng = Random(14)
    fractional = 0
    for _ in range(15):
        n = rng.randint(1, 3)
        sheaf = FreeSheaf(n, tuple(rng.randint(-3, 0) for _ in range(rng.randint(1, 4))))
        g = random_automorphism(field, sheaf, rng, density=0.7)
        g_inv = graded_inverse(g)
        fractional += any(field == QQ and c.value.denominator > 1
                          for row in g_inv.entries for p in row
                          for c in p.coefficients().values())
        for a, b in ((g, g_inv), (g_inv, g), (g_inv, g_inv)):
            _same_matrix(compose(a, b), compose_oracle(a, b))
            for p, q in zip(a.entries[0], b.entries[0]):
                _same_poly(p * q, poly_mul_oracle(p, q))
        one = GradedMatrix.identity(field, sheaf)
        _same_matrix(compose(g, g_inv), one)
        _same_matrix(compose(g_inv, g), one)
    # over Q the inverses carry non-integer coefficients
    assert fractional > 5 if field == QQ else fractional == 0


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_constructor_canonicalises_raw_values(field):
    x0, x1, x2 = (0, 1), (1, 0), (2, 0)  # monomials on P^1 (x2 is degree 2)
    if field == QQ:
        p = HomogPoly(field, 1, 1, {x0: 3, x1: Fraction(-4, 6)})
        assert p.terms == {x0: Fraction(3), x1: Fraction(-2, 3)}
        assert all(type(c) is Fraction for c in p.terms.values())
    else:
        q = field.p
        p = HomogPoly(field, 1, 1, {x0: -1, x1: q + 5})
        assert p.terms == {x0: q - 1, x1: 5}
        assert all(type(c) is int for c in p.terms.values())
        assert HomogPoly(field, 1, 1, {x0: q, x1: -2 * q}).is_zero()
    assert p == parse_poly(str(p), field, 1, 1)
    assert p.coefficients() == {m: field.element(c) for m, c in p.terms.items()}
    for bad in (field.one, GF(7).one, 1.0, 0.5, "1"):
        with pytest.raises(FieldError):
            HomogPoly(field, 1, 1, {x0: bad})
    with pytest.raises(ValueError):
        HomogPoly(field, 1, 1, {x2: 1})


def test_equal_raw_values_over_different_fields_differ():
    terms = {(1, 0): 1, (0, 1): 3}
    over_q, over_f = HomogPoly(QQ, 1, 1, terms), HomogPoly(GF(101), 1, 1, terms)
    assert over_q.terms == over_f.terms
    assert over_q != over_f and over_f != over_q
    assert len({over_q, over_f}) == 2
    assert over_q.coefficients() != over_f.coefficients()
    with pytest.raises(FieldError):
        over_q.scale(GF(101).one)
    with pytest.raises(FieldError):
        HomogPoly.constant(QQ, 1, GF(101).one)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_terms_hold_the_raw_type_of_section_matrices(field):
    rng = Random(16)
    a = random_graded_matrix(field, FreeSheaf(2, (-2, -1)), FreeSheaf(2, (0, 1)), rng)
    if field == QQ:
        a = GradedMatrix(field, a.source, a.target,
                         [[_fraction_poly(field, 2, f - e, rng) for e in a.source.twists]
                          for f in a.target.twists])
    raw_type = Fraction if field == QQ else int
    term_types = {type(c) for row in a.entries for p in row for c in p.terms.values()}
    entries = [v for row in sections_matrix(a, 2).row_maps for v in row.values()]
    assert term_types == {type(v) for v in entries} == {raw_type}
    coefficients = {c for row in a.entries for p in row for c in p.terms.values()}
    assert set(entries) == coefficients


def _parse_outcome(parse, src, field, n, degree):
    try:
        return "ok", parse(src, field, n, degree)
    except Exception as exc:  # the exception type and text are compared
        return type(exc), str(exc)


def _check_parse_against_oracle(src, field, n, degree):
    got = _parse_outcome(parse_poly, src, field, n, degree)
    want = _parse_outcome(parse_poly_oracle, src, field, n, degree)
    if got[0] == "ok" and want[0] == "ok":
        _same_poly(got[1], want[1])
    else:
        assert got == want


PARSE_CASES = [
    "x0^1000000000", "2^1000000000", "(x0 + x1", "x0 + x1)", "((x0)", "x0 $ x1",
    "x0 + 1", "x0^2 + x1", "x9", "x0 +", "", "   ", "-", "3/0*x0", "x0^x1", "x0^-1",
    "x0 x1", "2 3", "1/2/3", "x0^2^2", "(2/3)^4*x1", "0^0", "0*x0", "x0 - x0",
    "-(x0 - 2*x1)^2", "1" * 5000 + "*x0", "x" + "1" * 5000, "x01*x1", "٣*x0",
    "101*x0 + x1", "(101*x0)^5", "(x0 - x0)^3", "- 0 + x0", "12345678901234567890*x1",
    "x0*x1*x2 + 7/3*x1^3 - (x0 + x1)^2*x2", "1" * 3000 + "!", " x0 \t+\n x1 ",
]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_parse_cases_match_boxed_oracle(field):
    for src in PARSE_CASES:
        for n, degree in ((3, None), (3, 1), (2, 2), (3, 4), (1, 0), (3, -1)):
            _check_parse_against_oracle(src, field, n, degree)


PARSE_TOKENS = ["x0", "x1", "x2", "x3", "x4", "x", "0", "1", "2", "3", "5", "101", "2/3",
                "1/0", "10/5", "+", "-", "*", "^", "(", ")", " ", "/", "!", "^2", "^3"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PARSE_TOKENS), max_size=14),
       st.sampled_from(ORACLE_FIELDS), st.sampled_from([None, 0, 1, 2, 3]))
def test_parse_random_cells_match_boxed_oracle(tokens, field, degree):
    _check_parse_against_oracle("".join(tokens), field, 3, degree)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**31),
       st.sampled_from(ORACLE_FIELDS))
def test_parse_printed_forms_match_boxed_oracle(n, degree, seed, field):
    rng = Random(seed)
    if field == QQ and seed % 2:
        p = _fraction_poly(field, n, degree, rng)
    else:
        p = random_poly(field, n, degree, rng, density=0.6)
    _check_parse_against_oracle(str(p), field, n, degree)
    _check_parse_against_oracle(f"({p})*x0 - x0*({p})", field, n, degree + 1)


# Generated texts in the cell grammar: nested parentheses, powers of sums,
# a/b literals, signs, repeated variables, x_i^0, zero coefficients, odd
# whitespace and junk cells.  Every variable index up to 3 is drawn, so
# on P^1 and P^2 some are out of range.

GRAMMAR_LITERALS = ["0", "1", "2", "7", "100", "101", "202", "2147483647", "2147483648",
                    "12345678901234567890", "2/3", "10/5", "0/4", "3/101", "1/0", "7/2147483647"]
GRAMMAR_SPACE = ["", "", "", " ", "  ", "\t", "\n ", " \t "]


@st.composite
def grammar_texts(draw, depth: int = 0, powers: int = 2) -> str:
    """A text from the cell grammar; powers bounds nested powers of sums,
    so that no expansion grows past a few hundred terms."""
    def space():
        return draw(st.sampled_from(GRAMMAR_SPACE))

    def literal():
        return draw(st.one_of(st.sampled_from(GRAMMAR_LITERALS),
                              st.integers(0, 30).map(str),
                              st.tuples(st.integers(0, 30), st.integers(0, 30))
                              .map(lambda ab: f"{ab[0]}/{ab[1]}")))

    def child():
        return draw(grammar_texts(depth + 1, powers))

    kind = draw(st.integers(0, 9 if depth < 3 else 4))
    if kind == 0:
        return literal()
    if kind == 1:
        var = f"x{draw(st.integers(0, 3))}"
        if draw(st.booleans()):
            var += f"{space()}^{space()}{draw(st.integers(0, 3))}"
        return var
    if kind == 2:
        return draw(st.sampled_from(JUNK_CELLS))
    if kind == 3:
        return f"{draw(st.sampled_from(GRAMMAR_LITERALS))}^{draw(st.integers(0, 3))}"
    if kind == 4:
        # a sum of terms of one degree, in any factor order, with
        # repeated variables and x_i^0 factors
        degree = draw(st.integers(0, 3))
        out = draw(st.sampled_from(["", "", "-", "+"]))
        for k in range(draw(st.integers(1, 4))):
            factors = [f"x{draw(st.integers(0, 3))}" for _ in range(degree)]
            if draw(st.booleans()):
                factors.append(f"x{draw(st.integers(0, 3))}^0")
            if draw(st.booleans()) or not factors:
                factors.insert(draw(st.integers(0, len(factors))), literal())
            if k:
                out += f"{space()}{draw(st.sampled_from('+-'))}{space()}"
            out += f"{space()}*{space()}".join(factors)
        return out
    if kind == 5:
        lead = draw(st.sampled_from(["", "", "-", "+"]))
        parts = [child() for _ in range(draw(st.integers(2, 3)))]
        out = lead + space() + parts[0]
        for part in parts[1:]:
            out += f"{space()}{draw(st.sampled_from('+-'))}{space()}{part}"
        return out
    if kind in (6, 7):
        return f"{space()}*{space()}".join(child() for _ in range(draw(st.integers(2, 4))))
    if kind == 8 and powers:
        inner = draw(grammar_texts(depth + 1, powers - 1))
        return f"({space()}{inner}{space()})^{draw(st.integers(0, 3))}"
    return f"({space()}-{space()}{child()})"


@settings(max_examples=400, deadline=None)
@given(grammar_texts(), st.integers(1, 3), st.integers(0, 3))
def test_parse_generated_grammar_matches_boxed_oracle(src, n, degree):
    for field in ORACLE_FIELDS:
        for pinned in (None, degree):
            _check_parse_against_oracle(src, field, n, pinned)


# --- printing ---------------------------------------------------------


def _format_matrix(a: GradedMatrix) -> str:
    return format_blocks(a.n, a.field, [(0, a.source), (1, a.target)], "diff", [(0, a)])


def _parse_matrix(text: str) -> GradedMatrix:
    n, field, terms, raw, _ = read_blocks(text, "matrix", "diff")
    return parse_block("diff 0", raw.get(0, []), field, n, terms[0], terms[1])


def _assert_printer_matches_oracle(matrices):
    for a in matrices:
        for row in a.entries:
            for p in row:
                assert str(p) == poly_str_oracle(p)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_printer_matches_oracle_and_round_trips(field):
    rng = Random(15)
    for _ in range(40):
        n = rng.randint(1, 4)
        # ranks from 1: format_blocks leaves out an empty block
        src = FreeSheaf(n, tuple(rng.randint(-3, 0) for _ in range(rng.randint(1, 3))))
        tgt = FreeSheaf(n, tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3))))
        a = random_graded_matrix(field, src, tgt, rng, rng.choice((0.2, 0.6, 1.0)))
        if field == QQ and rng.random() < 0.5:
            a = GradedMatrix(field, src, tgt, [[_fraction_poly(field, n, f - e, rng)
                                                if f >= e else HomogPoly.zero(field, n, f - e)
                                                for e in src.twists] for f in tgt.twists])
        _assert_printer_matches_oracle([a])
        text = _format_matrix(a)
        back = _parse_matrix(text)
        assert back == a
        assert _format_matrix(back) == text
    for _ in range(10):
        m = random_valid_monad(rng, field)
        g = random_element(field, m, seed=rng.randrange(1 << 30), density=0.7)
        gd = induced_dual_element(g, m.c)  # over Q, inverses carry fractions
        _assert_printer_matches_oracle([*m.diffs.values(), *g.blocks.values(),
                                        *gd.blocks.values()])
        for obj, fmt, parse in ((m, format_monad, parse_monad),
                                (g, format_group_element, parse_group_element),
                                (gd, format_group_element, parse_group_element)):
            text = fmt(obj)
            assert fmt(parse(text)) == text
