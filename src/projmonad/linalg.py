"""Exact linear algebra over Q and F_p on sparse rows.

rank() is the hot path: the degree-window computations feed it section
matrices with hundreds of rows and a few percent nonzeros (they are
multiplication matrices).  A Matrix therefore stores each row as a dict
{column: raw value} of its nonzero entries (residues in [0, p) over F_p;
over Q ints, or reduced Fractions where the denominator is not 1); its
one constructor wraps such rows, and kernel_basis returns its vectors in
the same sparse raw format.  A Matrix has no arithmetic: section
matrices are ranked and solved, never multiplied, since taking sections
is a functor and the product of two section matrices is the section
matrix of polymat.compose of the graded matrices.

rank, rref, kernel_basis and inverse all run one sparse elimination
routine, _echelon; kernel_basis and inverse read its pivot rows
directly, and rref pads them into the full RREF for callers who want
it.  Matrix.data is the one reader that pairs values with their field,
as FieldElement records of the nonzero entries; the bench tracer counts
nonzeros with it.  The field owns that raw format: field.integral scales
a row to integers (returning an integral row itself, never a copy) and
field.reduce takes sums back to raw values and divides a new pivot row
by its pivot; only _echelon's inner loop works inline on residues or
numerators, switched by field.p.

Pivoting is deterministic: rows are reduced sparsest first (ties in row
order), each against the pivots found so far from its leftmost column
on, and the leftmost column that survives becomes the row's pivot.  The
rref mode then back-reduces every pivot row; the reduced row echelon
form is unique, so it and everything derived from it is the same bit for
bit whatever the pivot order.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .scalar import Field, FieldElement


class Matrix:
    """A rows x cols matrix over a field, stored as sparse rows.

    row_maps[i] maps a column index to the raw value of a nonzero entry
    of row i; zero entries are never stored.
    """

    __slots__ = ("field", "rows", "cols", "row_maps")

    def __init__(self, field: Field, rows: int, cols: int, row_maps: list[dict]):
        """Wrap sparse rows of nonzero raw values without copying them."""
        self.field, self.rows, self.cols, self.row_maps = field, rows, cols, row_maps

    @property
    def data(self) -> list[FieldElement]:
        """The nonzero entries as FieldElements, row by row (each row in
        stored order); zeros are never stored, so none is yielded."""
        return [FieldElement(self.field, v) for row in self.row_maps for v in row.values()]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other.row_maps == self.row_maps
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


def _echelon(m: Matrix, reduced: bool) -> dict[int, dict]:
    """Sparse Gaussian elimination: pivot column -> pivot row tail.

    A pivot row is 1 in its pivot column c plus the returned tail, whose
    columns all exceed c.  With reduced=True the tails are back-reduced
    as well: no tail then holds a pivot column, and the pivot rows in
    column order are the nonzero rows of the RREF.

    Over F_p the row being reduced holds unreduced Python ints, taken mod
    p only when an entry is read as a pivot candidate or stored.  Over Q
    each row is first scaled to integers (a row of ints, the common case,
    needs no scaling), so that rows meeting only integral pivot rows
    never touch Fraction arithmetic.
    """
    field = m.field
    p = field.p
    pivots: dict[int, dict] = {}
    limit = min(m.rows, m.cols)
    for row in sorted(m.row_maps, key=len):
        if len(pivots) == limit:
            break
        if not row:
            continue
        acc = dict(field.integral(row)[1])
        heap = sorted(acc)
        while heap:
            c = heappop(heap)
            x = acc.pop(c)
            if p:
                x %= p
            if not x:
                continue
            tail = pivots.get(c)
            if tail is None:
                pivots[c] = field.reduce(acc, x)
                break
            for k, v in tail.items():
                y = acc.get(k)
                if y is None:
                    acc[k] = -x * v
                    heappush(heap, k)
                else:
                    acc[k] = y - x * v
    if reduced:
        for c in sorted(pivots, reverse=True):
            tail = pivots[c]
            for k in [k for k in tail if k in pivots]:
                x = tail.pop(k)
                for j, v in pivots[k].items():
                    tail[j] = tail.get(j, 0) - x * v
            pivots[c] = field.reduce(tail)
    return pivots


def rank(m: Matrix) -> int:
    """Exact rank over the matrix's field."""
    return len(_echelon(m, reduced=False))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column list.

    The RREF of a matrix is unique; kernel_basis and inverse read the
    same pivot rows straight from _echelon.
    """
    pivots = _echelon(m, reduced=True)
    cols = sorted(pivots)
    one = m.field.coerce(1)
    rows = [{c: one, **pivots[c]} for c in cols]
    rows.extend({} for _ in range(m.rows - len(cols)))
    return Matrix(m.field, m.rows, m.cols, rows), cols


def kernel_basis(m: Matrix) -> list[dict]:
    """A basis of the right kernel: per free column j, the sparse raw row
    {column: value} that is 1 at j and -rref[c][j] at each pivot column c."""
    pivots = _echelon(m, reduced=True)
    field = m.field
    basis = {j: {} for j in range(m.cols) if j not in pivots}
    for c in sorted(pivots):
        for j, x in pivots[c].items():
            basis[j][c] = field.coerce(-x)
    one = field.coerce(1)
    for j, v in basis.items():
        v[j] = one
    return list(basis.values())


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises on singular input.

    [m | I] has at most n pivots; m inverts exactly when they are the
    columns 0..n-1, and each pivot row's tail is then a row of m^-1.
    """
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    n = m.rows
    one = m.field.coerce(1)
    aug = Matrix(m.field, n, 2 * n, [{**row, n + i: one} for i, row in enumerate(m.row_maps)])
    pivots = _echelon(aug, reduced=True)
    if any(c not in pivots for c in range(n)):
        raise ValueError("matrix is singular")
    return Matrix(m.field, n, n, [{j - n: v for j, v in pivots[c].items()} for c in range(n)])
