"""Exact linear algebra over Q and F_p on sparse rows.

rank() is the hot path: the degree-window computations feed it section
matrices with hundreds of rows and a few percent nonzeros (they are
multiplication matrices).  A Matrix therefore stores each row as a dict
{column: raw value} of its nonzero entries (residues in [0, p) over F_p,
reduced Fractions over Q), and rank, rref, kernel_basis and inverse all
run one sparse elimination routine, _echelon.  The field owns that raw
format: field.integral scales a Q row to integers and field.reduce takes
sums back to raw values; only _echelon's inner loop and _normalized
work inline on residues or numerators, switched by field.p.

Pivoting is deterministic: rows are reduced sparsest first (ties in row
order), each against the pivots found so far from its leftmost column
on, and the leftmost column that survives becomes the row's pivot.  The
rref mode then back-reduces every pivot row; the reduced row echelon
form is unique, so it and everything derived from it is the same bit for
bit whatever the pivot order.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush

from .scalar import Field, FieldElement


class Matrix:
    """A rows x cols matrix over a field, stored as sparse rows.

    row_maps[i] maps a column index to the raw value of a nonzero entry
    of row i; zero entries are never stored.
    """

    __slots__ = ("field", "rows", "cols", "row_maps")

    def __init__(self, field: Field, rows: int, cols: int, data: list[FieldElement]):
        """A matrix from its rows*cols entries in row-major order."""
        if len(data) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(data)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.row_maps = [{j: v for j in range(cols) if (v := data[i * cols + j].value)}
                         for i in range(rows)]

    @classmethod
    def from_row_maps(cls, field: Field, rows: int, cols: int,
                      row_maps: list[dict]) -> "Matrix":
        """Wrap sparse rows of nonzero raw values without copying them."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.row_maps = row_maps
        return m

    @classmethod
    def from_rows(cls, field: Field, rows: list[list]) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
            for x in r:
                flat.append(x if isinstance(x, FieldElement) else field.element(x))
        return cls(field, nr, nc, flat)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls.from_row_maps(field, rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.from_row_maps(field, n, n, [{i: field.one.value} for i in range(n)])

    @property
    def data(self) -> list[FieldElement]:
        """All rows*cols entries in row-major order."""
        out = [self.field.zero] * (self.rows * self.cols)
        for i, row in enumerate(self.row_maps):
            for j, v in row.items():
                out[i * self.cols + j] = FieldElement(self.field, v)
        return out

    def entry(self, i: int, j: int) -> FieldElement:
        v = self.row_maps[i].get(j)
        return self.field.zero if v is None else FieldElement(self.field, v)

    def row(self, i: int) -> list[FieldElement]:
        return [self.entry(i, j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.row_maps):
            for j, v in row.items():
                out[j][i] = v
        return Matrix.from_row_maps(self.field, self.cols, self.rows, out)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if other.field != self.field or self.cols != other.rows:
            raise ValueError("matrix product shape/field mismatch")
        out = []
        for row in self.row_maps:
            acc: dict = {}
            for k, a in row.items():
                for j, b in other.row_maps[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(self.field.reduce(acc))
        return Matrix.from_row_maps(self.field, self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return not any(self.row_maps)

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
    each row is first scaled to integers, so that rows meeting only unit
    pivots never touch Fraction arithmetic.
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
        acc = dict(row) if p else field.integral(row)[1]
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
                pivots[c] = _normalized(acc, x, p)
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


def _normalized(acc: dict, x, p: int) -> dict:
    """acc / x with zeros dropped: the tail of a new pivot row."""
    if p:
        inv = pow(x, p - 2, p)
        return {k: r for k, v in acc.items() if (r := v * inv % p)}
    out = {}
    for k, v in acc.items():
        if v:
            q = Fraction(v) / x
            out[k] = q.numerator if q.denominator == 1 else q
    return out


def rank(m: Matrix) -> int:
    """Exact rank over the matrix's field."""
    return len(_echelon(m, reduced=False))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column list.

    The RREF of a matrix is unique, so this is also the canonical form
    used by kernel_basis and inverse.
    """
    pivots = _echelon(m, reduced=True)
    cols = sorted(pivots)
    one = m.field.one.value
    rows = [{c: one, **pivots[c]} for c in cols]
    rows.extend({} for _ in range(m.rows - len(cols)))
    return Matrix.from_row_maps(m.field, m.rows, m.cols, rows), cols


def kernel_basis(m: Matrix) -> list[list[FieldElement]]:
    """A basis of the right kernel, one column vector per free column."""
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [_unit_vector(m.field, m.cols, j) for j in range(m.cols)]
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for j in free:
        v = _unit_vector(m.field, m.cols, j)
        for k, pc in enumerate(pivots):
            v[pc] = -red.entry(k, j)
        basis.append(v)
    return basis


def _unit_vector(field: Field, size: int, j: int) -> list[FieldElement]:
    v = [field.zero] * size
    v[j] = field.one
    return v


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises on singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    n = m.rows
    one = m.field.one.value
    aug = Matrix.from_row_maps(m.field, n, 2 * n,
                               [{**row, n + i: one} for i, row in enumerate(m.row_maps)])
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix.from_row_maps(m.field, n, n,
                                [{j - n: v for j, v in row.items() if j >= n}
                                 for row in red.row_maps])
