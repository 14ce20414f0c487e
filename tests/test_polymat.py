from fractions import Fraction
from itertools import product
from math import comb
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    JUNK_CELLS,
    Boxed,
    _monomial_mul_oracle,
    _tokenize_oracle,
    boxed_coefficients,
    boxed_rows,
    compose_oracle,
    form_combination,
    graded_identity,
    is_canonical,
    matrix_product,
    parse_poly_oracle,
    poly_add_oracle,
    poly_from_boxed,
    poly_mul_oracle,
    poly_scale,
    poly_str_oracle,
    random_graded_matrix,
    random_monad,
    random_valid_monad,
    rank_oracle,
)
from projmonad.autgroup import (
    format_group_element,
    graded_inverse,
    induced_dual_element,
    parse_group_element,
    random_automorphism,
    random_element,
)
from projmonad.linalg import kernel_basis, rank
from projmonad.monad import (
    MAX_SECTION_SIDE,
    Monad,
    format_blocks,
    format_monad,
    parse_block,
    parse_monad,
    read_blocks,
)
from projmonad import polymat
from projmonad.polymat import (
    MAX_DEGREE,
    FreeSheaf,
    GradedMatrix,
    HomogPoly,
    ParseBudget,
    ParseError,
    compose,
    dual_hom,
    forms_dimension,
    from_coordinates,
    monomials_of_degree,
    parse_poly,
    parse_twists,
    random_poly,
    sections_matrix,
    syzygies,
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
    assert tuple(polymat._unpack(2, m) for m in monos) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    # packed monomials sort in the canonical order
    assert monos == tuple(sorted(monos, reverse=True))


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


@pytest.mark.parametrize("field", [QQ, F7], ids=repr)
def test_product_count_bound_is_checked_before_multiplying(field, monkeypatch):
    src = "(x0 + 2*x1)^3*(x0 - x2)*3/2 + (x1 + x2)^2*(x0 + x1)^2"
    parser = polymat._PolyParser(polymat._tokenize(src), field, 2)
    parser.expr()
    needed = parser.budget.products
    assert needed > 20
    monkeypatch.setattr(polymat, "MAX_PARSE_PRODUCTS", needed)
    assert parse_poly(src, field, 2) == poly_add_oracle(
        P("(x0 + 2*x1)^3*(x0 - x2)*3/2", n=2, field=field),
        P("(x1 + x2)^2*(x0 + x1)^2", n=2, field=field))
    monkeypatch.setattr(polymat, "MAX_PARSE_PRODUCTS", needed - 1)
    with pytest.raises(ParseError, match=f"more than {needed - 1} term products"):
        parse_poly(src, field, 2)


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
        one, minus_one = (from_coordinates(QQ, n, 0, {0: u}) for u in (1, -1))
        assert form_combination([poly_add_oracle(a, b)], [c]) == poly_add_oracle(
            form_combination([a], [c]), form_combination([b], [c]))
        assert form_combination([a], [c]) == form_combination([c], [a])
        assert form_combination([a, a], [one, minus_one]) == HomogPoly.zero(QQ, n, da)


def test_zero_polynomials_compare_equal_across_degrees():
    assert HomogPoly.zero(QQ, 2, -1) == HomogPoly.zero(QQ, 2, 3)


def _assert_same(a, b):
    assert a == b and b == a and hash(a) == hash(b)


def _bump_one_coefficient(m: Monad, rng: Random) -> tuple[int, int, int, HomogPoly] | None:
    spots = [(i, r, c) for i, d in sorted(m.diffs.items())
             for r, row in enumerate(d.entries) for c, p in enumerate(row) if p.terms]
    if not spots:
        return None
    i, r, c = rng.choice(spots)
    p = m.diffs[i].entries[r][c]
    terms = dict(p.terms)
    mono = rng.choice(sorted(terms))
    terms[mono] += 1  # over F_p the constructor reduces, possibly to a dropped term
    return i, r, c, HomogPoly(p.field, p.n, p.degree, terms)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
def test_hash_and_equality_contract(field):
    rng = Random(37)
    for _ in range(30):
        n = rng.randint(1, 4)
        src = FreeSheaf(n, tuple(rng.randint(-3, 1) for _ in range(rng.randint(0, 3))))
        tgt = FreeSheaf(n, tuple(rng.randint(-1, 3) for _ in range(rng.randint(0, 3))))
        a = random_graded_matrix(field, src, tgt, rng, rng.choice((0.3, 1.0)))
        # the same terms inserted in the opposite order
        ent = [[HomogPoly(field, n, p.degree, dict(reversed(p.terms.items()))) for p in row]
               for row in a.entries]
        for row, row_back in zip(a.entries, ent):
            for p, q in zip(row, row_back):
                _assert_same(p, q)
        _assert_same(a, GradedMatrix(field, src, tgt, ent))
    bumped = 0
    for _ in range(80):
        m = random_monad(rng, field)
        back = parse_monad(format_monad(m))
        _assert_same(m, back)
        for i, d in m.diffs.items():
            _assert_same(d, back.diffs[i])
            for row, row_back in zip(d.entries, back.diffs[i].entries):
                for p, q in zip(row, row_back):
                    _assert_same(p, q)
        change = _bump_one_coefficient(m, rng)
        if change is None:
            continue
        i, r, c, q = change
        d = m.diffs[i]
        assert q != d.entries[r][c] and d.entries[r][c] != q
        ent = [list(row) for row in d.entries]
        ent[r][c] = q
        e = GradedMatrix(field, d.source, d.target, ent)
        assert e != d and d != e
        other = Monad(field, m.n, m.terms, {**m.diffs, i: e}, m.c, m.cohomology_position)
        assert other != m and m != other
        bumped += 1
    assert bumped >= 20
    for lo, hi in ((-3, 0), (-1, 2), (0, 5)):
        _assert_same(HomogPoly.zero(field, 3, lo), HomogPoly.zero(field, 3, hi))
    # the same raw values over the other field are a different matrix
    other_field = GF(101) if field == QQ else QQ
    src, tgt = FreeSheaf(1, (0,)), FreeSheaf(1, (1,))
    x = [[HomogPoly(field, 1, 1, {(1, 0): 1, (0, 1): 3})]]
    y = [[HomogPoly(other_field, 1, 1, {(1, 0): 1, (0, 1): 3})]]
    assert GradedMatrix(field, src, tgt, x) != GradedMatrix(other_field, src, tgt, y)


# --- graded matrices ----------------------------------------------------


def _p1_matrix(entry, e, f, field=QQ):
    src, tgt = FreeSheaf(1, (e,)), FreeSheaf(1, (f,))
    return GradedMatrix(field, src, tgt, [[parse_poly(entry, field, 1, f - e)]])


def test_compose_identity_law(rng):
    src = FreeSheaf(2, (-1, -2))
    tgt = FreeSheaf(2, (0, -1, -1))
    b = random_graded_matrix(QQ, src, tgt, rng)
    assert compose(graded_identity(QQ, tgt), b) == b
    assert compose(b, graded_identity(QQ, src)) == b


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
    with pytest.raises(ValueError, match="^composition across fields$"):
        compose(a, _p1_matrix("1", -1, -1, F7))


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


@pytest.mark.parametrize("source, target, message", [
    (FreeSheaf(1, (0,)), FreeSheaf(2, (0, 0)), "source and target on different projective spaces"),
    (FreeSheaf(1, (0,)), FreeSheaf(1, (0, 0)), "entry grid is not 2x1"),
], ids=["spaces", "grid"])
def test_graded_matrix_rejects_bad_shape(source, target, message):
    one = parse_poly("1", QQ, 1, 0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        GradedMatrix(QQ, source, target, [[one]])


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
    rows = boxed_rows(s)
    values = [rows[0][0], rows[1][0]]
    assert sum(1 for v in values if v) == 1 and values[0] == Boxed(QQ, 1)


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
        rhs = matrix_product(sections_matrix(a, t), sections_matrix(b, t))
        assert lhs == rhs


def test_sections_over_prime_field_rank():
    src = FreeSheaf(1, (-1,))
    tgt = FreeSheaf(1, (0,))
    m = GradedMatrix(F7, src, tgt, [[parse_poly("x0", F7, 1, 1)]])
    assert rank(sections_matrix(m, 2)) == 2


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=["Q", "F_2", "F_101"])
def test_syzygies_are_the_section_kernel(field):
    # the composite vanishes, the kernel has the corank the minor oracle
    # finds, and the sections of the syzygies are the kernel_basis vectors
    rng = Random(41)
    kernels = []
    for _ in range(25):
        n = rng.randint(1, 2)
        src = FreeSheaf(n, tuple(rng.randint(-2, 0) for _ in range(rng.randint(1, 3))))
        tgt = FreeSheaf(n, tuple(rng.randint(-1, 1) for _ in range(rng.randint(1, 2))))
        m = random_graded_matrix(field, src, tgt, rng, rng.choice((0.3, 1.0)))
        for t in (0, 1, 2):
            s = sections_matrix(m, t)
            if s.rows * s.cols > 42:  # the oracle searches every minor
                continue
            syz = syzygies(m, t)
            assert (syz.source, syz.target) == (FreeSheaf(n, (-t,) * syz.cols), src)
            assert compose(m, syz).is_zero()
            assert syz.cols == s.cols - rank_oracle(field, boxed_rows(s), s.cols)
            back = sections_matrix(syz, t)
            assert [{r: row[c] for r, row in enumerate(back.row_maps) if c in row}
                    for c in range(syz.cols)] == kernel_basis(s)
            kernels.append(syz.cols)
    assert 0 in kernels and max(kernels) >= 2


def test_syzygies_of_injective_sections_have_no_columns():
    m = _p1_matrix("x0", -1, 0)
    syz = syzygies(m, 1)
    assert (syz.source, syz.target, syz.cols) == (FreeSheaf(1, ()), m.source, 0)
    # a source summand without sections in the twist holds zero forms
    m = GradedMatrix(QQ, FreeSheaf(1, (-2, 0)), FreeSheaf(1, (0,)),
                     [[P("x0^2", 1, 2), P("0", 1, 0)]])
    syz = syzygies(m, 1)
    assert syz.cols == 2 and all(p.is_zero() and p.degree == -1 for p in syz.entries[0])
    assert compose(m, syz).is_zero()


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
    pc, qc = boxed_coefficients(p), boxed_coefficients(q)
    assert pc == qc
    assert all(type(c.value) is type(qc[m].value) for m, c in pc.items())


def _same_matrix(a, b):
    assert (a.field, a.source, a.target) == (b.field, b.source, b.target)
    for row_a, row_b in zip(a.entries, b.entries):
        for p, q in zip(row_a, row_b):
            _same_poly(p, q)


def _fraction_poly(field, n, degree, rng):
    """A random form with non-integer coefficients over Q."""
    terms = {polymat._unpack(n, m): Boxed(field, Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
             for m in monomials_of_degree(n, degree) if rng.random() < 0.7}
    return poly_from_boxed(field, n, degree, terms)


def _random_sheaf(rng, n, lo, hi, max_rank=3):
    return FreeSheaf(n, tuple(rng.randint(lo, hi) for _ in range(rng.randint(0, max_rank))))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_poly_arithmetic_matches_boxed_oracle(field):
    rng = Random(11)
    for _ in range(80):
        n = rng.randint(1, 3)
        one = from_coordinates(field, n, 0, {0: 1})
        minus_one = from_coordinates(field, n, 0, {0: -1})
        da, db = rng.randint(-2, 3), rng.randint(-2, 3)
        if field == QQ and rng.random() < 0.5:
            a = _fraction_poly(field, n, max(da, 0), rng)
            b = _fraction_poly(field, n, max(db, 0), rng)
        else:
            a = random_poly(field, n, da, rng, 0.6)
            b = random_poly(field, n, db, rng, 0.6)
        _same_poly(form_combination([a], [b]), poly_mul_oracle(a, b))
        _same_poly(form_combination([b], [a]), poly_mul_oracle(b, a))
        _same_poly(form_combination([a], [minus_one]), poly_from_boxed(
            field, n, a.degree, {m: -c for m, c in boxed_coefficients(a).items()}))
        _same_poly(form_combination([a, a], [one, minus_one]), HomogPoly.zero(field, n, a.degree))
        c = Boxed(field, rng.randint(-9, 9) if field == QQ else rng.randrange(field.p))
        _same_poly(form_combination([a], [from_coordinates(field, n, 0, {0: c.value})]),
                   poly_from_boxed(field, n, a.degree,
                                   {m: c * v for m, v in boxed_coefficients(a).items()}))
        b = random_poly(field, n, a.degree, rng, 0.6)
        _same_poly(form_combination([a, b], [one, one]), poly_add_oracle(a, b))
        _same_poly(form_combination([a, b], [one, minus_one]), poly_add_oracle(a, poly_from_boxed(
            field, n, b.degree, {m: -c for m, c in boxed_coefficients(b).items()})))


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
    col = GradedMatrix(field, FreeSheaf(n, (-3,)), FreeSheaf(n, (-1, -1)),
                       [[q], [poly_scale(q, Boxed(field, -1))]])
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
                          for c in boxed_coefficients(p).values())
        for a, b in ((g, g_inv), (g_inv, g), (g_inv, g_inv)):
            _same_matrix(compose(a, b), compose_oracle(a, b))
            for p, q in zip(a.entries[0], b.entries[0]):
                _same_poly(form_combination([p], [q]), poly_mul_oracle(p, q))
        one = graded_identity(field, sheaf)
        _same_matrix(compose(g, g_inv), one)
        _same_matrix(compose(g_inv, g), one)
    # over Q the inverses carry non-integer coefficients
    assert fractional > 5 if field == QQ else fractional == 0


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_constructor_canonicalises_raw_values(field):
    x0, x1, x2 = (0, 1), (1, 0), (2, 0)  # monomials on P^1 (x2 is degree 2)
    if field == QQ:
        p = HomogPoly(field, 1, 1, {x0: Fraction(6, 2), x1: Fraction(-4, 6)})
        assert p.terms == {x0: Fraction(3), x1: Fraction(-2, 3)}
        assert type(p.terms[x0]) is int
    else:
        q = field.p
        p = HomogPoly(field, 1, 1, {x0: -1, x1: q + 5})
        assert p.terms == {x0: q - 1, x1: 5}
        assert HomogPoly(field, 1, 1, {x0: q, x1: -2 * q}).is_zero()
    assert all(is_canonical(field, c) for c in p.terms.values())
    assert p == parse_poly(str(p), field, 1, 1)
    assert poly_from_boxed(field, 1, 1, boxed_coefficients(p)) == p
    for bad in (Boxed(field, 1), Boxed(GF(7), 1), 1.0, 0.5, "1"):
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
    assert boxed_coefficients(over_q) != boxed_coefficients(over_f)
    with pytest.raises(ValueError, match="wrong space or field"):
        form_combination([over_q], [from_coordinates(GF(101), 1, 0, {0: 1})])
    with pytest.raises(FieldError):
        from_coordinates(QQ, 1, 0, {0: Boxed(GF(101), 1)})


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_terms_hold_the_raw_type_of_section_matrices(field):
    rng = Random(16)
    a = random_graded_matrix(field, FreeSheaf(2, (-2, -1)), FreeSheaf(2, (0, 1)), rng)
    if field == QQ:
        a = GradedMatrix(field, a.source, a.target,
                         [[_fraction_poly(field, 2, f - e, rng) for e in a.source.twists]
                          for f in a.target.twists])
    term_types = {type(c) for row in a.entries for p in row for c in p.terms.values()}
    entries = [v for row in sections_matrix(a, 2).row_maps for v in row.values()]
    assert term_types == {type(v) for v in entries}
    assert all(is_canonical(field, v) for v in entries)
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


# Texts past MAX_DEGREE, each refused by parse_poly in one of its places.
DEGREE_REFUSALS = [
    ("x0^3000000000",
     f"exponent 3000000000 gives degree 3000000000, past the largest degree {MAX_DEGREE}"),
    ("(x0^1000000000)^3", f"exponent 3 gives degree 3000000000, past the largest degree "
                          f"{MAX_DEGREE}"),
    ("x0^2000000000*x0^2000000000", polymat._PAST_MAX_DEGREE),  # the plain factors
    ("(x0^2000000000)*(x1^2000000000)", polymat._PAST_MAX_DEGREE),  # a product
    ("(x0^2000000000)*x1^2000000000", polymat._PAST_MAX_DEGREE),  # plain times the rest
    ("x0^2147483647*x0", polymat._PAST_MAX_DEGREE),  # the whole form
    # the plain factors are folded first, so x9 is read before any product
    ("(x0^1000000000)*(x0^1000000000)*x0^1000000000*x9", "variable x9 out of range for P^1"),
]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@pytest.mark.parametrize("src,text", DEGREE_REFUSALS)
def test_parser_and_oracle_refuse_degrees_alike(field, src, text):
    for parse in (parse_poly, parse_poly_oracle):
        with pytest.raises(ParseError) as info:
            parse(src, field, 1)
        assert str(info.value) == text
    # a zero coefficient ends the term before its product is taken
    for parse in (parse_poly, parse_poly_oracle):
        assert parse("0*(x0^2000000000)*x0^2000000000", field, 1).is_zero()


@settings(max_examples=400, deadline=None)
@given(grammar_texts(), st.integers(1, 3), st.integers(0, 3))
@example("x0^3000000000", 1, 0)
@example("(x0^1000000000)^3", 1, 0)
@example("x0^2000000000*x0^2000000000", 1, 0)
@example("(x0^2000000000)*(x1^2000000000)", 1, 0)
def test_parse_generated_grammar_matches_boxed_oracle(src, n, degree):
    for field in ORACLE_FIELDS:
        for pinned in (None, degree):
            _check_parse_against_oracle(src, field, n, pinned)


# --- printing ---------------------------------------------------------


def _format_matrix(a: GradedMatrix) -> str:
    return format_blocks(a.n, a.field, [(0, a.source), (1, a.target)], "diff", [(0, a)])


def _parse_matrix(text: str) -> GradedMatrix:
    n, field, terms, raw, _ = read_blocks(text, "matrix", "diff")
    return parse_block("diff 0", raw.get(0, []), field, n, terms[0], terms[1], ParseBudget())


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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(101)]), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 1 << 32))
def test_generated_forms_print_as_the_oracle(field, n, degree, seed):
    rng = Random(seed)
    forms = [random_poly(field, n, degree, rng, density=rng.random())]
    if field is QQ:
        # random_poly draws ints only; the inverse of an automorphism over Q
        # carries Fractions
        sheaf = FreeSheaf(n, tuple(-rng.randint(0, degree) for _ in range(rng.randint(1, 3))))
        forms += [p for row in graded_inverse(random_automorphism(field, sheaf, rng)).entries
                  for p in row]
    for p in forms:
        assert str(p) == poly_str_oracle(p)


def test_generated_inverses_over_q_carry_fractions():
    # the inverses in the test above print Fraction coefficients, which
    # random_poly never draws
    rng = Random(0)
    sheaf = FreeSheaf(2, (0, -1, -1))
    entries = [p for _ in range(5)
               for row in graded_inverse(random_automorphism(QQ, sheaf, rng)).entries
               for p in row]
    assert any(type(c) is Fraction for p in entries for c in p.terms.values())


# --- tokens -------------------------------------------------------------

# Whole tokens, pieces of tokens, blanks and characters no token takes.
TOKEN_PIECES = ["0", "7", "12", "3/4", "1/", "/5", "x0", "x12", "x", "+", "-", "*", "^",
                "(", ")", " ", "  ", "\t", "\n", "é", "#", "."]


def _tokens_or_error(tokenize, src: str):
    try:
        return tokenize(src)
    except ParseError as exc:
        return f"error: {exc}"


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=24).map("".join))
@example("x0 + 3/4*x1 . ")
@example("12/34/5")
@example(" \t\n")
def test_tokenizer_matches_loop_oracle(src):
    assert _tokens_or_error(polymat._tokenize, src) == _tokens_or_error(_tokenize_oracle, src)


# --- packed monomials ---------------------------------------------------
# Exponent vectors up to the largest accepted degree on P^1..P^4, against
# the tuple oracles: products of packed monomials must never carry.


@st.composite
def exponent_vectors(draw, n: int, degree: int) -> tuple[int, ...]:
    """An exponent vector on x0..xn of the given degree."""
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=n, max_size=n)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


@st.composite
def sparse_forms(draw, field, n: int, degree: int, max_terms: int = 4) -> HomogPoly:
    """A form of the given degree with a few terms and small coefficients."""
    monos = draw(st.lists(exponent_vectors(n, degree), max_size=max_terms))
    values = draw(st.lists(st.integers(-5, 5), min_size=len(monos), max_size=len(monos)))
    return HomogPoly(field, n, degree, dict(zip(monos, values)))


def _degree(data, top: int = MAX_DEGREE) -> int:
    """A degree up to top, often top itself."""
    return data.draw(st.one_of(st.just(top), st.integers(0, top)))


def _split_degree(data, top: int = MAX_DEGREE) -> tuple[int, int]:
    """Two degrees whose sum is at most top, often at the bound itself."""
    total = _degree(data, top)
    first = data.draw(st.integers(0, total))
    return first, total - first


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from(ORACLE_FIELDS))
def test_packed_products_match_tuple_oracle(data, n, field):
    # each factor up to the bound, so the product reaches twice the bound
    da, db = _degree(data), _degree(data)
    a = data.draw(sparse_forms(field, n, da))
    b = data.draw(sparse_forms(field, n, db))
    want = {}
    for x, cx in boxed_coefficients(a).items():
        for y, cy in boxed_coefficients(b).items():
            xy = _monomial_mul_oracle(x, y)
            want[xy] = want.get(xy, Boxed(field, 0)) + cx * cy
    ab = form_combination([a], [b])
    assert boxed_coefficients(ab) == {m: c for m, c in want.items() if c}
    if da + db <= MAX_DEGREE:
        _same_poly(ab, poly_mul_oracle(a, b))
        assert parse_poly(str(ab), field, n, da + db) == ab


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from(ORACLE_FIELDS))
def test_packed_compose_matches_boxed_oracle(data, n, field):
    da, db = _split_degree(data)
    src, mid, tgt = FreeSheaf(n, (0, 0)), FreeSheaf(n, (da, da)), FreeSheaf(n, (da + db,))
    b = GradedMatrix(field, src, mid, [[data.draw(sparse_forms(field, n, da, 3))
                                        for _ in range(2)] for _ in range(2)])
    a = GradedMatrix(field, mid, tgt, [[data.draw(sparse_forms(field, n, db, 3))
                                        for _ in range(2)]])
    _same_matrix(compose(a, b), compose_oracle(a, b))


def _monomials_oracle(n: int, d: int) -> list[tuple[int, ...]]:
    """The exponent tuples of degree d, lexicographically descending."""
    return sorted((e for e in product(range(d + 1), repeat=n + 1) if sum(e) == d),
                  reverse=True)


def _index_oracle(m: tuple[int, ...]) -> int:
    """The place of m among the tuples of its degree, lexicographically
    descending: those before it agree up to some i and are larger at i,
    and there are comb(r - m[i] + k, k + 1) of those, k = n - i - 1."""
    n, r, index = len(m) - 1, sum(m), 0
    for i in range(n):
        index += comb(r - m[i] + n - i - 1, n - i)
        r -= m[i]
    return index


def test_monomial_lists_match_tuple_oracle():
    for n in range(5):
        for d in range(7):
            want = _monomials_oracle(n, d)
            assert [polymat._unpack(n, m) for m in monomials_of_degree(n, d)] == want
            assert [_index_oracle(m) for m in want] == list(range(len(want)))


def test_monomial_cache_holds_only_the_lists_asked_for():
    polymat.monomials_of_degree.cache_clear()
    try:
        got = [polymat._unpack(4, m) for m in monomials_of_degree(4, 12)]
        assert polymat.monomials_of_degree.cache_info().currsize == 1
        assert got == _monomials_oracle(4, 12)
        monomials_of_degree(1, 30)
        assert polymat.monomials_of_degree.cache_info().currsize == 2
    finally:
        polymat.monomials_of_degree.cache_clear()


def _largest_section_degree(n: int) -> int:
    """The largest degree whose forms fit one side of a guarded section matrix."""
    d = 0
    while forms_dimension(n, d + 1) <= MAX_SECTION_SIDE:
        d += 1
    return d


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from(ORACLE_FIELDS))
def test_packed_sections_matrix_matches_tuple_oracle(data, n, field):
    top = _largest_section_degree(n)
    d_tgt = data.draw(st.one_of(st.just(top), st.integers(0, top)))
    d_src = data.draw(st.integers(0, min(d_tgt, 3)))
    form = data.draw(sparse_forms(field, n, d_tgt - d_src))
    m = GradedMatrix(field, FreeSheaf(n, (0,)), FreeSheaf(n, (d_tgt - d_src,)), [[form]])
    try:
        s = sections_matrix(m, d_src)
        assert (s.rows, s.cols) == (forms_dimension(n, d_tgt), forms_dimension(n, d_src))
        want = {}
        for col, u in enumerate(_monomials_oracle(n, d_src)):
            for v, c in form.terms.items():
                want[_index_oracle(_monomial_mul_oracle(u, v)), col] = c
        got = {(r, col): c for r, row in enumerate(s.row_maps) for col, c in row.items()}
        assert got == want
    finally:
        # keep the unbounded monomial caches from holding the large degrees
        polymat.monomials_of_degree.cache_clear()
        polymat.monomial_index.cache_clear()


def test_degrees_past_the_bound_are_refused():
    top = MAX_DEGREE
    with pytest.raises(ValueError, match="largest monomial degree"):
        HomogPoly(QQ, 1, top + 1, {(top + 1, 0): 1})
    with pytest.raises(ValueError, match="largest monomial degree"):
        monomials_of_degree(0, top + 1)
    for src, degree in ((f"x0^{top + 1}", None), (f"x0^{top}*x1", None),
                        (f"x0^{top}*x0^{top}", None), (f"(x0)^{top}*(x1)", None),
                        (f"(x0)^{top}*(x0)^{top}*(x0)^{top}", None), ("x0", top + 1)):
        with pytest.raises(ParseError, match="largest degree"):
            parse_poly(src, QQ, 1, degree)
    p = parse_poly(f"x0^{top} - 2*x0*x1^{top - 1}", F7, 1, top)
    assert p.terms == {(top, 0): 1, (1, top - 1): 5}
    assert parse_poly(str(p), F7, 1) == p
