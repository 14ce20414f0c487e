from fractions import Fraction
from random import Random

import pytest

from conftest import confirm_rank_by_minors, rank_oracle, rref_oracle
from projmonad.autgroup import act, random_element
from projmonad.complexes import omega_resolution
from projmonad.linalg import Matrix, inverse, kernel_basis, rank, rref
from projmonad.modp3 import point_monad, sample_wss, twisted_cubic_point
from projmonad.polymat import sections_matrix
from projmonad.scalar import GF, QQ

F101 = GF(101)


def _random_matrix(field, rng, rows, cols, target_rank=None):
    if target_rank is not None:
        r = target_rank
        if r == 0:
            return Matrix.zeros(field, rows, cols)
        return _random_matrix(field, rng, rows, r) * _random_matrix(field, rng, r, cols)
    if field is QQ:
        data = [field.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                for _ in range(rows * cols)]
    else:
        data = [field.element(rng.randrange(field.p)) for _ in range(rows * cols)]
    return Matrix(field, rows, cols, data)


def test_rank_identity():
    assert rank(Matrix.identity(QQ, 5)) == 5


def test_rank_proportional_rows():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert rank(m) == 1


def test_rank_empty_shapes():
    assert rank(Matrix.zeros(QQ, 0, 4)) == 0
    assert rank(Matrix.zeros(QQ, 4, 0)) == 0


@pytest.mark.parametrize("field", [QQ, F101])
def test_rank_against_minor_oracle_200_random(field):
    # 100 matrices per field: dense draws plus engineered rank drops.
    # The oracle certifies rank r by finding a nonzero r-minor and
    # refuting every (r+1)-minor, so deep rank drops are the slow part.
    rng = Random(11)
    plan = [None] * 60 + [7] * 12 + [6] * 12 + [5] * 10 + [3] * 3 + [1] * 2 + [0]
    for target in plan:
        m = _random_matrix(field, rng, 8, 8, target_rank=target)
        rows = [m.row(i) for i in range(m.rows)]
        assert confirm_rank_by_minors(field, rows, m.cols, rank(m))


def test_kernel_of_zero_matrix():
    ker = kernel_basis(Matrix.zeros(QQ, 3, 4))
    assert len(ker) == 4


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(QQ, 2)) == []


@pytest.mark.parametrize("field", [QQ, F101])
def test_rank_nullity_200_random(field):
    rng = Random(12)
    for trial in range(100):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        drop = rng.randint(0, min(rows, cols) - 1) if trial % 3 == 0 else None
        m = _random_matrix(field, rng, rows, cols, target_rank=drop)
        ker = kernel_basis(m)
        assert cols == rank(m) + len(ker)
        for v in ker:
            image = [sum((m.entry(i, j) * v[j] for j in range(cols)), field.zero)
                     for i in range(rows)]
            assert not any(image)


def test_rank_equals_transpose_rank():
    rng = Random(13)
    for _ in range(50):
        m = _random_matrix(QQ, rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == rank(m.transpose())


def test_rref_idempotent_and_unique():
    rng = Random(14)
    for _ in range(50):
        m = _random_matrix(QQ, rng, rng.randint(1, 5), rng.randint(1, 5))
        red, pivots = rref(m)
        red2, pivots2 = rref(red)
        assert red2 == red and pivots2 == pivots
        # uniqueness: any row-equivalent presentation reduces to the same form
        order = list(range(m.rows))
        rng.shuffle(order)
        shuffled_rows = []
        for i in order:
            s = QQ.element(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            shuffled_rows.append([s * x for x in m.row(i)])
        shuffled = Matrix.from_rows(QQ, shuffled_rows)
        assert rref(shuffled)[0] == red


def test_rank_invariant_under_row_scaling():
    rng = Random(15)
    for _ in range(50):
        m = _random_matrix(QQ, rng, 4, 5)
        scaled_rows = []
        for i in range(4):
            s = QQ.element(Fraction(rng.randint(1, 7), rng.randint(1, 7)))
            scaled_rows.append([s * x for x in m.row(i)])
        scaled = Matrix.from_rows(QQ, scaled_rows)
        assert rank(m) == rank(scaled)
        ker = {tuple(v) for v in kernel_basis(m)}
        assert ker == {tuple(v) for v in kernel_basis(scaled)}


def test_rational_entries_and_bigint_fallback():
    # Entries far beyond 64 bits and rational rows stay exact.
    big = 1 << 40
    m = Matrix.from_rows(QQ, [[big, 1], [big, 1]])
    assert rank(m) == 1
    m2 = Matrix.from_rows(QQ, [[big, 1], [1, big]])
    assert rank(m2) == 2
    frac = Matrix.from_rows(
        QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rank(frac) == 1


def test_mid_elimination_overflow_bails_to_exact_path():
    # Entries near 2^20 have minors far past 64 bits after one step of
    # elimination; the rank must still match the minor certificate.
    rng = Random(17)
    for _ in range(5):
        rows = [[rng.randint(1 << 19, 1 << 20) for _ in range(6)] for _ in range(6)]
        m = Matrix.from_rows(QQ, rows)
        fes = [m.row(i) for i in range(6)]
        assert confirm_rank_by_minors(QQ, fes, 6, rank(m))


def test_inverse_round_trip():
    rng = Random(16)
    for field in (QQ, F101):
        found = 0
        while found < 10:
            m = _random_matrix(field, rng, 4, 4)
            if rank(m) < 4:
                continue
            inv = inverse(m)
            assert m * inv == Matrix.identity(field, 4)
            assert inv * m == Matrix.identity(field, 4)
            found += 1


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse(Matrix.from_rows(QQ, [[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        inverse(Matrix.zeros(QQ, 2, 3))


def test_modp_rank_small_example():
    m = Matrix.from_rows(GF(5), [[1, 2, 3], [2, 4, 1], [3, 1, 4]])
    rows = [m.row(i) for i in range(3)]
    assert rank(m) == rank_oracle(GF(5), rows, 3)


def _sparse_random_matrix(field, rng, rows, cols, density):
    """Entries present with the given density; about a quarter of the rows zero."""
    zero_rows = set(rng.sample(range(rows), rows // 4))
    data = []
    for i in range(rows):
        for _ in range(cols):
            if i in zero_rows or rng.random() >= density:
                data.append(field.zero)
            elif field is QQ:
                data.append(field.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
            else:
                data.append(field.element(rng.randrange(field.p)))
    return Matrix(field, rows, cols, data)


def _section_matrices(field):
    """Section matrices of Euler resolutions on P^4 and of a P^3 point, t <= 6."""
    out = []
    for p in range(1, 5):
        for d in omega_resolution(field, 4, p, 1).diffs.values():
            out.extend(sections_matrix(d, t) for t in range(3))
    if field is QQ:
        # Sampling needs a finite field; move the twisted cubic instead.
        m = point_monad(twisted_cubic_point(QQ))
        point = act(random_element(QQ, m, seed=5), m)
    else:
        point = point_monad(sample_wss(5, field))
    for d in point.diffs.values():
        out.extend(sections_matrix(d, t) for t in range(7))
    return out


def _check_against_rref_oracle(m):
    field = m.field
    rows = [m.row(i) for i in range(m.rows)]
    want, want_pivots = rref_oracle(field, rows, m.cols)
    red, pivots = rref(m)
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert [red.row(i) for i in range(red.rows)] == want
    assert pivots == want_pivots
    assert rank(m) == len(want_pivots)
    kernel = []
    for j in range(m.cols):
        if j in want_pivots:
            continue
        v = [field.zero] * m.cols
        v[j] = field.one
        for k, pc in enumerate(want_pivots):
            v[pc] = -want[k][j]
        kernel.append(v)
    assert kernel_basis(m) == kernel
    if m.rows != m.cols:
        return
    n = m.rows
    aug = [row + [field.one if k == i else field.zero for k in range(n)]
           for i, row in enumerate(rows)]
    aug_red, aug_pivots = rref_oracle(field, aug, 2 * n)
    if aug_pivots[:n] == list(range(n)):
        inv = inverse(m)
        assert [inv.row(i) for i in range(n)] == [row[n:] for row in aug_red]
    else:
        with pytest.raises(ValueError):
            inverse(m)


@pytest.mark.parametrize("field", [QQ, F101, GF(2147483647)])
def test_core_against_rref_oracle(field):
    rng = Random(18)
    shapes = [(0, 5), (5, 0), (0, 0), (1, 1)]
    shapes += [(n, n) for n in (2, 3, 4, 5, 6, 8, 10) for _ in range(3)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(40)]
    for rows, cols in shapes:
        density = rng.uniform(0.05, 1.0)
        _check_against_rref_oracle(_sparse_random_matrix(field, rng, rows, cols, density))
    for m in _section_matrices(field):
        _check_against_rref_oracle(m)
