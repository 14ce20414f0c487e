from fractions import Fraction
from random import Random

import pytest

from conftest import (
    Boxed,
    boxed_rows,
    confirm_rank_by_minors,
    matrix_from_boxed,
    matrix_product,
    rank_oracle,
    rref_oracle,
)
from projmonad.autgroup import act, random_element
from projmonad.complexes import koszul_monad, omega_resolution
from projmonad.linalg import Matrix, inverse, kernel_basis, rank, rref
from projmonad.monad import dualize
from projmonad.modp3 import point_monad, sample_wss_stats, twisted_cubic_point
from projmonad.polymat import sections_matrix
from projmonad.scalar import GF, QQ

F101 = GF(101)


def _zeros(field, rows, cols):
    return Matrix(field, rows, cols, [{} for _ in range(rows)])


def _identity(field, n):
    return Matrix(field, n, n, [{i: field.coerce(1)} for i in range(n)])


def _boxed_kernel(m):
    """kernel_basis(m) as dense lists of boxed scalars."""
    ker = kernel_basis(m)
    return boxed_rows(Matrix(m.field, len(ker), m.cols, ker))


def _random_matrix(field, rng, rows, cols, target_rank=None):
    if target_rank is not None:
        r = target_rank
        if r == 0:
            return _zeros(field, rows, cols)
        return matrix_product(_random_matrix(field, rng, rows, r),
                              _random_matrix(field, rng, r, cols))
    if field is QQ:
        data = [[Boxed(field, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                 for _ in range(cols)] for _ in range(rows)]
    else:
        data = [[Boxed(field, rng.randrange(field.p)) for _ in range(cols)]
                for _ in range(rows)]
    return matrix_from_boxed(field, data, cols)


def test_rank_identity():
    assert rank(_identity(QQ, 5)) == 5


def test_rank_proportional_rows():
    m = matrix_from_boxed(QQ, [[1, 2], [2, 4]])
    assert rank(m) == 1


def test_rank_empty_shapes():
    assert rank(_zeros(QQ, 0, 4)) == 0
    assert rank(_zeros(QQ, 4, 0)) == 0


@pytest.mark.parametrize("field", [QQ, F101])
def test_rank_against_minor_oracle_200_random(field):
    # 100 matrices per field: dense draws plus engineered rank drops.
    # The oracle certifies rank r by finding a nonzero r-minor and
    # refuting every (r+1)-minor, so deep rank drops are the slow part.
    rng = Random(11)
    plan = [None] * 60 + [7] * 12 + [6] * 12 + [5] * 10 + [3] * 3 + [1] * 2 + [0]
    for target in plan:
        m = _random_matrix(field, rng, 8, 8, target_rank=target)
        rows = boxed_rows(m)
        assert confirm_rank_by_minors(field, rows, m.cols, rank(m))


def test_kernel_of_zero_matrix():
    ker = kernel_basis(_zeros(QQ, 3, 4))
    assert len(ker) == 4


def test_kernel_of_identity_is_empty():
    assert kernel_basis(_identity(QQ, 2)) == []


@pytest.mark.parametrize("field", [QQ, F101])
def test_rank_nullity_200_random(field):
    rng = Random(12)
    for trial in range(100):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        drop = rng.randint(0, min(rows, cols) - 1) if trial % 3 == 0 else None
        m = _random_matrix(field, rng, rows, cols, target_rank=drop)
        ker = _boxed_kernel(m)
        assert cols == rank(m) + len(ker)
        entries = boxed_rows(m)
        for v in ker:
            image = [sum((entries[i][j] * v[j] for j in range(cols)), Boxed(field, 0))
                     for i in range(rows)]
            assert not any(image)


def test_rank_equals_transpose_rank():
    rng = Random(13)
    for _ in range(50):
        m = _random_matrix(QQ, rng, rng.randint(1, 6), rng.randint(1, 6))
        transposed = matrix_from_boxed(QQ, [list(col) for col in zip(*boxed_rows(m))], m.rows)
        assert rank(m) == rank(transposed)


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
        rows = boxed_rows(m)
        for i in order:
            s = Boxed(QQ, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            shuffled_rows.append([s * x for x in rows[i]])
        shuffled = matrix_from_boxed(QQ, shuffled_rows)
        assert rref(shuffled)[0] == red


def test_rank_invariant_under_row_scaling():
    rng = Random(15)
    for _ in range(50):
        m = _random_matrix(QQ, rng, 4, 5)
        scaled_rows = []
        rows = boxed_rows(m)
        for i in range(4):
            s = Boxed(QQ, Fraction(rng.randint(1, 7), rng.randint(1, 7)))
            scaled_rows.append([s * x for x in rows[i]])
        scaled = matrix_from_boxed(QQ, scaled_rows)
        assert rank(m) == rank(scaled)
        ker = {tuple(v) for v in _boxed_kernel(m)}
        assert ker == {tuple(v) for v in _boxed_kernel(scaled)}


def test_rational_entries_and_bigint_fallback():
    # Entries far beyond 64 bits and rational rows stay exact.
    big = 1 << 40
    m = matrix_from_boxed(QQ, [[big, 1], [big, 1]])
    assert rank(m) == 1
    m2 = matrix_from_boxed(QQ, [[big, 1], [1, big]])
    assert rank(m2) == 2
    frac = matrix_from_boxed(
        QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rank(frac) == 1


def test_mid_elimination_overflow_bails_to_exact_path():
    # Entries near 2^20 have minors far past 64 bits after one step of
    # elimination; the rank must still match the minor certificate.
    rng = Random(17)
    for _ in range(5):
        rows = [[rng.randint(1 << 19, 1 << 20) for _ in range(6)] for _ in range(6)]
        m = matrix_from_boxed(QQ, rows)
        fes = boxed_rows(m)
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
            assert matrix_product(m, inv) == _identity(field, 4)
            assert matrix_product(inv, m) == _identity(field, 4)
            found += 1


def test_data_yields_the_nonzero_entries():
    rng = Random(41)
    for field in (QQ, F101):
        for density in (0.0, 0.1, 0.5, 1.0):
            m = _sparse_random_matrix(field, rng, 9, 7, density)
            data = m.data
            assert len(data) == sum(map(len, m.row_maps))
            assert all(fe.field == field and fe.value for fe in data)
            assert [fe.value for fe in data] == [v for row in m.row_maps for v in row.values()]


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse(matrix_from_boxed(QQ, [[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        inverse(_zeros(QQ, 2, 3))


def test_modp_rank_small_example():
    m = matrix_from_boxed(GF(5), [[1, 2, 3], [2, 4, 1], [3, 1, 4]])
    rows = boxed_rows(m)
    assert rank(m) == rank_oracle(GF(5), rows, 3)


def _sparse_random_matrix(field, rng, rows, cols, density):
    """Entries present with the given density; about a quarter of the rows zero."""
    zero_rows = set(rng.sample(range(rows), rows // 4))
    data = []
    for i in range(rows):
        data.append([])
        for _ in range(cols):
            if i in zero_rows or rng.random() >= density:
                data[-1].append(Boxed(field, 0))
            elif field is QQ:
                data[-1].append(Boxed(field, Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
            else:
                data[-1].append(Boxed(field, rng.randrange(field.p)))
    return matrix_from_boxed(field, data, cols)


def _point(field):
    """A P^3 point over field, as a Monad."""
    if field is QQ:
        # Sampling needs a finite field; move the twisted cubic instead.
        m = point_monad(twisted_cubic_point(QQ))
        return act(random_element(QQ, m, seed=5), m)
    return point_monad(sample_wss_stats(5, field)[0])


def _section_matrices(field):
    """Section matrices of Euler resolutions on P^4 and of a P^3 point, t <= 6."""
    out = []
    for p in range(1, 5):
        for d in omega_resolution(field, 4, p, 1).diffs.values():
            out.extend(sections_matrix(d, t) for t in range(3))
    for d in _point(field).diffs.values():
        out.extend(sections_matrix(d, t) for t in range(7))
    return out


def _check_against_rref_oracle(m):
    field = m.field
    rows = boxed_rows(m)
    want, want_pivots = rref_oracle(field, rows, m.cols)
    red, pivots = rref(m)
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert boxed_rows(red) == want
    assert pivots == want_pivots
    assert rank(m) == len(want_pivots)
    kernel = []
    for j in range(m.cols):
        if j in want_pivots:
            continue
        v = [Boxed(field, 0)] * m.cols
        v[j] = Boxed(field, 1)
        for k, pc in enumerate(want_pivots):
            v[pc] = -want[k][j]
        kernel.append(v)
    assert _boxed_kernel(m) == kernel
    if m.rows != m.cols:
        return
    n = m.rows
    aug = [row + [Boxed(field, 1) if k == i else Boxed(field, 0) for k in range(n)]
           for i, row in enumerate(rows)]
    aug_red, aug_pivots = rref_oracle(field, aug, 2 * n)
    if aug_pivots[:n] == list(range(n)):
        inv = inverse(m)
        assert boxed_rows(inv) == [row[n:] for row in aug_red]
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


def _relabelled(m, rng, rows=True, cols=True):
    """m with its rows and (or) its columns put in a random order."""
    perm = list(range(m.cols))
    if cols:
        rng.shuffle(perm)
    out = [{perm[j]: v for j, v in row.items()} for row in m.row_maps]
    if rows:
        rng.shuffle(out)
    return Matrix(m.field, m.rows, m.cols, out)


def _transposed(m):
    out = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.row_maps):
        for j, v in row.items():
            out[j][i] = v
    return Matrix(m.field, m.cols, m.rows, out)


@pytest.mark.parametrize("field", [QQ, F101, GF(2147483647)], ids=repr)
def test_rank_ignores_row_and_column_order(field):
    # rank may reorder rows and columns internally; these section matrices
    # of a point, its dual and Koszul complexes pin that it stays exact
    point = _point(field)
    cases = [(point, range(1, 6)), (dualize(point), range(1, 6)),
             (koszul_monad(field, 3, (0, 1, 2, 3)), range(4)),
             (koszul_monad(field, 4, (0, 2, 3), twist=1), range(3))]
    rng = Random(19)
    for monad, twists in cases:
        for d in monad.diffs.values():
            for t in twists:
                m = sections_matrix(d, t)
                r = rank(m)
                assert r == rank(_transposed(m))
                assert r == rank(_relabelled(m, rng, cols=False))
                assert r == rank(_relabelled(m, rng, rows=False))
                for _ in range(2):
                    shuffled = _relabelled(m, rng)
                    assert r == rank(shuffled) == rank(_transposed(shuffled))
