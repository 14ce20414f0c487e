"""Shared helpers: independent oracles and random complex generators.

The oracles here deliberately avoid the elimination code in
projmonad.linalg: determinants come from a subset DP over column
choices, ranks from a largest-nonzero-minor search, reduced row echelon
forms from a dense Gauss-Jordan on boxed scalars, and the catalog
cohomology of line bundles on a line is written down in closed form.
The Hilbert window oracle keeps the heuristic window start that the
regularity bound replaced.  The polynomial oracles multiply, compose and
parse forms one boxed scalar operation at a time, as projmonad.polymat
did before its arithmetic moved onto raw values; they read coefficients
through boxed_coefficients and hand raw values back only when they
build a form (poly_from_boxed).  The graded inverse
oracle sums the finite Neumann series that the degree induction of
projmonad.autgroup replaced.  The printing oracles set signs and units
term by term, as HomogPoly.__str__ and IntPoly.__str__ did before they
shared polymat.sum_str; the form oracle also builds every monomial's
text afresh for each term, as HomogPoly.__str__ did before it reused
them.  _tokenize_oracle walks the text one token match at a time, as
polymat._tokenize did before it became one regex pass.
The contraction oracle builds the Koszul differential the way
projmonad.complexes did before it shared one zero form per matrix: a
validated zero form per slot and every signed variable scaled by a boxed
+-1.  linalg takes and returns sparse raw rows only; matrix_from_boxed
and boxed_rows convert between those and the dense rows of boxed
scalars that the oracles and the older tests work on.  Matrix has no
arithmetic: matrix_product and matrix_is_zero, the product and zero test
it used to carry, serve the tests that multiply (inverse round trips,
functoriality of sections, the section-product form of membership
clause (b)).

projmonad keeps one scalar representation, the raw values.  Boxed, the
scalar the oracles compute with, lives here with its literal reader
(parse_scalar), as do the graded-matrix helpers only tests use: sums,
the identity, random matrices and the identity augmentation of a
complex.  Forms define no operators; tests add and negate them with the
boxed oracles (poly_add_oracle, poly_scale) and multiply them through
projmonad's compose (form_combination).  The reflection m -> -m of a
Hilbert polynomial (reflect), its value at an integer (evaluate), the
difference of two (difference), cohomology tables from {(i, p): h}
dicts (table_from_dict) and the lookup of one table entry (table_entry)
serve only tests too.  cli_digest, the sha256 over the exit code,
stdout and --out file of one in-process cli.run, is the byte pin of a
command line,
shared by tests/test_p3_pins.py and scripts/pin_p3_bytes.py.
"""

import contextlib
import hashlib
import io
import re
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from random import Random

import pytest

from projmonad.autgroup import act, constant_part, random_element
from projmonad.cli import run
from projmonad.complexes import direct_sum, koszul_monad
from projmonad.hilbert import IntPoly, InterpolationError, euler_poly, interpolate
from projmonad.linalg import Matrix, inverse as matrix_inverse
from projmonad.monad import CohTable, Monad, WindowDisagreementError, cohomology_hilbert_function
from projmonad.polymat import (
    _MAX_POWER_BITS,
    _PAST_MAX_DEGREE,
    MAX_DEGREE,
    FreeSheaf,
    GradedMatrix,
    HomogPoly,
    ParseError,
    compose,
    from_coordinates,
    random_poly,
)
from projmonad.scalar import GF, QQ, FieldError, PrimeField


class Boxed:
    """An immutable scalar: a raw value together with its field.

    The constructor canonicalises the value with field.coerce; every
    operation checks that both operands lie in one field.
    """

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", field.coerce(value))

    def __setattr__(self, name, val):
        raise AttributeError("Boxed is immutable")

    def _check(self, other: "Boxed"):
        if not isinstance(other, Boxed):
            raise TypeError(f"expected Boxed, got {other!r}")
        if other.field != self.field:
            raise FieldError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        return Boxed(self.field, self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return Boxed(self.field, self.value - other.value)

    def __mul__(self, other):
        self._check(other)
        return Boxed(self.field, self.value * other.value)

    def __truediv__(self, other):
        self._check(other)
        return Boxed(self.field, self.value * self.field.inv(other.value))

    def __neg__(self):
        return Boxed(self.field, -self.value)

    def inverse(self) -> "Boxed":
        return Boxed(self.field, self.field.inv(self.value))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        return (
            isinstance(other, Boxed)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return str(self.value)


def cli_digest(argv) -> str:
    """sha256 over the exit code and stdout of cli.run(argv), run in-process,
    and over the bytes of the --out file it wrote, which is then removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run(argv)
    text = f"{rc}\n{out.getvalue()}"
    path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if path is not None and path.is_file():
        text += f"--out\n{path.read_text()}"
        path.unlink()
    return hashlib.sha256(text.encode()).hexdigest()


def is_canonical(field, v) -> bool:
    """v is a raw value in the field's one format: a residue in [0, p)
    over F_p; over Q an int, or a Fraction whose denominator is not 1."""
    if field.p:
        return type(v) is int and 0 <= v < field.p
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def parse_scalar(field, text: str) -> Boxed:
    """Parse a scalar literal: optional sign, integer, optional '/' integer."""
    s = text.strip()
    neg = False
    if s.startswith(("+", "-")):
        neg = s[0] == "-"
        s = s[1:]
    num, slash, den = s.partition("/")
    if not num.isdigit() or (slash and not den.isdigit()):
        raise FieldError(f"bad scalar literal {text!r}")
    n = int(num)
    if neg:
        n = -n
    if slash:
        return Boxed(field, n) / Boxed(field, int(den))
    return Boxed(field, n)


def boxed_coefficients(p: HomogPoly) -> dict:
    """The nonzero coefficients of p, boxed, by monomial."""
    return {m: Boxed(p.field, c) for m, c in p.terms.items()}


def poly_variable(field, n: int, i: int) -> HomogPoly:
    exps = [0] * (n + 1)
    exps[i] = 1
    return HomogPoly(field, n, 1, {tuple(exps): 1})


def poly_scale(p: HomogPoly, c: Boxed) -> HomogPoly:
    """c * p, one boxed product per coefficient."""
    return poly_from_boxed(p.field, p.n, p.degree,
                           {m: c * v for m, v in boxed_coefficients(p).items()})


def form_combination(row: list[HomogPoly], column: list[HomogPoly]) -> HomogPoly:
    """sum_k row[k] * column[k], the one entry of compose of the 1 x k
    graded matrix row after the k x 1 graded matrix column; forms
    multiply only through compose."""
    field, n = row[0].field, row[0].n
    middle = FreeSheaf(n, tuple(q.degree for q in column))
    target = FreeSheaf(n, (row[0].degree + column[0].degree,))
    return compose(GradedMatrix(field, middle, target, [row]),
                   GradedMatrix(field, FreeSheaf(n, (0,)), middle,
                                [[q] for q in column])).entries[0][0]


def graded_identity(field, sheaf: FreeSheaf) -> GradedMatrix:
    ent = [[from_coordinates(field, sheaf.n, 0, {0: 1}) if i == j
            else HomogPoly.zero(field, sheaf.n, sheaf.twists[i] - sheaf.twists[j])
            for j in range(sheaf.rank)] for i in range(sheaf.rank)]
    return GradedMatrix(field, sheaf, sheaf, ent)


def graded_add(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    if b.source != a.source or b.target != a.target:
        raise ValueError("shape mismatch in graded sum")
    ent = [[poly_add_oracle(a.entries[i][j], b.entries[i][j]) for j in range(a.cols)]
           for i in range(a.rows)]
    return GradedMatrix(a.field, a.source, a.target, ent)


def graded_neg(a: GradedMatrix) -> GradedMatrix:
    minus_one = Boxed(a.field, -1)
    ent = [[poly_scale(p, minus_one) for p in row] for row in a.entries]
    return GradedMatrix(a.field, a.source, a.target, ent)


def random_graded_matrix(field, source: FreeSheaf, target: FreeSheaf,
                         rng: Random, density: float = 1.0) -> GradedMatrix:
    ent = [[random_poly(field, source.n, target.twists[i] - source.twists[j], rng, density)
            for j in range(source.rank)] for i in range(target.rank)]
    return GradedMatrix(field, source, target, ent)


def identity_summand(field, n: int, i: int, twist: int, c: int,
                     position: int = 0) -> Monad:
    """The acyclic two-term complex O(twist) = O(twist) at positions i, i+1."""
    sheaf = FreeSheaf(n, (twist,))
    terms = {i: sheaf, i + 1: sheaf}
    diffs = {i: graded_identity(field, sheaf)}
    lo, hi = min(i, position), max(i + 1, position)
    for j in range(lo, hi + 1):
        terms.setdefault(j, FreeSheaf(n, ()))
    return Monad(field, n, terms, diffs, c, position)


def augment_with_identity(m: Monad, i: int, twist: int) -> Monad:
    """Direct-sum an O(twist) identity block onto positions i, i+1.

    The result has the same cohomology but fails minimality: the new
    block is a nonzero constant between equal twists.
    """
    if not m.lo <= i < m.hi:
        raise ValueError("identity block must sit on an existing differential")
    piece = identity_summand(m.field, m.n, i, twist, m.c, m.cohomology_position)
    return direct_sum(m, piece)


def det_oracle(field, rows):
    """Determinant by the column-subset DP (no elimination involved).

    Works on raw values (Fraction or residue) for speed; the prime
    field reduction happens at the end.
    """
    n = len(rows)
    raw = [[x.value for x in row] for row in rows]
    if n == 0:
        return 1
    acc = {0: 1}
    for r in range(n):
        nxt = {}
        for mask, val in acc.items():
            if not val:
                continue
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    continue
                entry = raw[r][c]
                if not entry:
                    continue
                inversions = bin(mask >> (c + 1)).count("1")
                term = -val * entry if inversions % 2 else val * entry
                key = mask | bit
                nxt[key] = nxt.get(key, 0) + term
        acc = nxt
    det = acc.get((1 << n) - 1, 0)
    if isinstance(field, PrimeField):
        det = det % field.p
    return det


def confirm_rank_by_minors(field, rows, cols_count, r) -> bool:
    """Rank certificate: some r-minor is nonzero, all (r+1)-minors vanish."""
    from itertools import combinations

    m = len(rows)

    def some_nonzero(k):
        for ri in combinations(range(m), k):
            for ci in combinations(range(cols_count), k):
                if det_oracle(field, [[rows[i][j] for j in ci] for i in ri]):
                    return True
        return False

    if r > min(m, cols_count) or r < 0:
        return False
    if r > 0 and not some_nonzero(r):
        return False
    if r < min(m, cols_count) and some_nonzero(r + 1):
        return False
    return True


def rank_oracle(field, rows, cols_count):
    """Largest k with a nonzero k x k minor (full search; small inputs)."""
    from itertools import combinations

    m = len(rows)
    for k in range(min(m, cols_count), 0, -1):
        for ri in combinations(range(m), k):
            for ci in combinations(range(cols_count), k):
                if det_oracle(field, [[rows[i][j] for j in ci] for i in ri]):
                    return k
    return 0


def matrix_from_boxed(field, rows, cols=None) -> Matrix:
    """A Matrix from dense rows of boxed scalars, ints or Fractions; cols
    is needed only when there are no rows."""
    cols = len(rows[0]) if cols is None else cols
    if any(len(r) != cols for r in rows):
        raise ValueError("ragged rows")
    raw = [[(x if isinstance(x, Boxed) else Boxed(field, x)).value for x in r]
           for r in rows]
    return Matrix(field, len(rows), cols, [{j: v for j, v in enumerate(r) if v} for r in raw])


def boxed_rows(m: Matrix) -> list[list[Boxed]]:
    """The rows of m as dense lists of boxed scalars."""
    return [[Boxed(m.field, row.get(j, 0)) for j in range(m.cols)] for row in m.row_maps]


def matrix_product(a: Matrix, b: Matrix) -> Matrix:
    """The product a b on sparse raw rows, summed unreduced and reduced
    once per row by the field."""
    if b.field != a.field or a.cols != b.rows:
        raise ValueError("matrix product shape/field mismatch")
    out = []
    for row in a.row_maps:
        acc: dict = {}
        for k, x in row.items():
            for j, y in b.row_maps[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append(a.field.reduce(acc))
    return Matrix(a.field, a.rows, b.cols, out)


def matrix_is_zero(m: Matrix) -> bool:
    return not any(m.row_maps)


def rref_oracle(field, rows, cols_count):
    """Reduced row echelon form by dense Gauss-Jordan on boxed scalars.

    Pivots on the first nonzero entry of each column, rows scanned top
    down.  Returns the reduced rows (zero rows last) and the pivot
    columns; the RREF is unique, so any exact elimination must agree.
    """
    one = Boxed(field, 1)
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(cols_count):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        if rows[r][c] != one:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _monomial_mul_oracle(a, b):
    return tuple(x + y for x, y in zip(a, b))


def poly_from_boxed(field, n: int, degree: int, terms) -> HomogPoly:
    """The form with boxed coefficients terms, each checked to lie
    in field; zero coefficients are dropped by the constructor."""
    assert all(c.field == field for c in terms.values()), "coefficient from the wrong field"
    return HomogPoly(field, n, degree, {m: c.value for m, c in terms.items()})


def poly_add_oracle(a: HomogPoly, b: HomogPoly) -> HomogPoly:
    """Sum of two forms of one degree (or zero), coefficient by coefficient."""
    if not a.terms:
        return poly_from_boxed(a.field, a.n, b.degree, boxed_coefficients(b))
    if not b.terms:
        return poly_from_boxed(a.field, a.n, a.degree, boxed_coefficients(a))
    if a.degree != b.degree:
        raise ValueError("cannot add forms of different degrees")
    terms = boxed_coefficients(a)
    for m, c in boxed_coefficients(b).items():
        s = terms.get(m)
        terms[m] = c if s is None else s + c
    return poly_from_boxed(a.field, a.n, a.degree, terms)


def poly_mul_oracle(a: HomogPoly, b: HomogPoly) -> HomogPoly:
    """Product of two forms, one boxed product and sum per pair of terms."""
    terms = {}
    for ma, ca in boxed_coefficients(a).items():
        for mb, cb in boxed_coefficients(b).items():
            m = _monomial_mul_oracle(ma, mb)
            c = ca * cb
            s = terms.get(m)
            terms[m] = c if s is None else s + c
    return poly_from_boxed(a.field, a.n, a.degree + b.degree, terms)


def compose_oracle(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """The composite a . b, each entry summed product by product."""
    assert a.field == b.field and a.source == b.target
    ent = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = HomogPoly.zero(a.field, a.n, a.target.twists[i] - b.source.twists[j])
            for k in range(a.cols):
                p, q = a.entries[i][k], b.entries[k][j]
                if p.terms and q.terms:
                    acc = poly_add_oracle(acc, poly_mul_oracle(p, q))
            row.append(acc)
        ent.append(row)
    return GradedMatrix(a.field, b.source, a.target, ent)


def contraction_oracle(field, n: int, variables: tuple[int, ...], k: int,
                       twist: int) -> GradedMatrix:
    """Lambda^k -> Lambda^{k-1} of the span of the given coordinates."""
    src_sets = list(combinations(variables, k))
    tgt_sets = list(combinations(variables, k - 1))
    tgt_pos = {s: i for i, s in enumerate(tgt_sets)}
    source = FreeSheaf(n, (twist - k,) * len(src_sets))
    target = FreeSheaf(n, (twist - k + 1,) * len(tgt_sets))
    ent = [[HomogPoly.zero(field, n, 1) for _ in src_sets] for _ in tgt_sets]
    one = Boxed(field, 1)
    for j, s in enumerate(src_sets):
        for pos, v in enumerate(s):
            rest = s[:pos] + s[pos + 1:]
            coeff = one if pos % 2 == 0 else -one
            ent[tgt_pos[rest]][j] = poly_scale(poly_variable(field, n, v), coeff)
    return GradedMatrix(field, source, target, ent)


def lift_constants(field, sheaf: FreeSheaf, m: Matrix) -> GradedMatrix:
    """The scalar matrix m as a graded endomorphism of sheaf; m must
    vanish between different twists."""
    n = sheaf.n
    k = sheaf.rank
    ent = []
    for r in range(k):
        row = []
        for s in range(k):
            gap = sheaf.twists[r] - sheaf.twists[s]
            c = m.row_maps[r].get(s)
            if gap == 0 and c:
                row.append(from_coordinates(field, n, 0, {0: c}))
            else:
                # The inverse of a grading-preserving scalar matrix is
                # again grading preserving, so off-grade slots are zero.
                if c:
                    raise ValueError("constant inverse left the grading")
                row.append(HomogPoly.zero(field, n, gap))
        ent.append(row)
    return GradedMatrix(field, sheaf, sheaf, ent)


def graded_inverse_neumann_oracle(g: GradedMatrix) -> GradedMatrix:
    """Two-sided inverse of an automorphism g = g0 + nu.

    g = g0 (1 + g0^{-1} nu) and nu is nilpotent of order at most the
    number of distinct twists K, so
    g^{-1} = sum_{j<K} (-g0^{-1} nu)^j g0^{-1} exactly.
    """
    g0 = constant_part(g)
    try:
        g0_inv = matrix_inverse(g0)
    except ValueError as exc:
        raise ValueError("not an automorphism: constant part is singular") from exc
    sheaf = g.source
    lifted_inv = lift_constants(g.field, sheaf, g0_inv)
    nu = graded_add(g, graded_neg(lift_constants(g.field, sheaf, g0)))
    if nu.is_zero():
        return lifted_inv
    neumann_len = len(set(sheaf.twists))
    step = compose(lifted_inv, nu)
    acc = lifted_inv
    power = None
    sign = -1
    for _ in range(1, neumann_len):
        power = step if power is None else compose(step, power)
        term = compose(power, lifted_inv)
        acc = graded_add(acc, term if sign > 0 else graded_neg(term))
        sign = -sign
    return acc


_ORACLE_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<op>[-+*^()]))")


def _tokenize_oracle(src: str) -> list[str]:
    toks, pos = [], 0
    while pos < len(src):
        m = _ORACLE_TOKEN.match(src, pos)
        if not m:
            if src[pos:].strip():
                raise ParseError(f"unexpected character {src[pos:].lstrip()[0]!r} in {src!r}")
            break
        toks.append(m.group(m.lastgroup))
        pos = m.end()
    return toks


class _PolyParserOracle:
    """Recursive descent over {monomial: Boxed} dicts, token by token.

    It refuses a degree past MAX_DEGREE where parse_poly does, with the
    same ParseError text: an exponent whose power passes it, a term whose
    plain factors (literals, x_i and x_i^k) pass it once an x_i^k is read,
    a product of two nonzero factors that passes it, and a whole form
    that passes it.  So a term folds its plain factors first and
    multiplies the others in last, as the parser does.
    """

    def __init__(self, toks, field, n, degree=None):
        self.toks = toks
        self.i = 0
        self.field = field
        self.n = n
        self.degree = degree

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = {m: -c for m, c in acc.items()}
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            for m, c in t.items():
                v = acc.get(m, Boxed(self.field, 0)) + (c if op == "+" else -c)
                if v:
                    acc[m] = v
                elif m in acc:
                    del acc[m]
        return acc

    def term(self):
        exps, coef = (0,) * (self.n + 1), Boxed(self.field, 1)  # the plain factors
        rest = None  # product of the other factors
        while True:
            t = self.peek()
            powered = self.i + 1 < len(self.toks) and self.toks[self.i + 1] == "^"
            if t is not None and t.startswith("x"):
                (m, _), = self.power().items()
                exps = _monomial_mul_oracle(exps, m)
                if powered and sum(exps) > MAX_DEGREE:
                    raise ParseError(_PAST_MAX_DEGREE)
            elif t is not None and t[0].isdigit() and not powered:
                (_, c), = self.atom().items()
                coef = coef * c
            else:
                f = self.power()
                rest = f if rest is None else self._mul(rest, f)
            if self.peek() != "*":
                break
            self.take()
        if not coef:
            return {}
        out = {exps: coef}
        return out if rest is None else self._mul(out, rest)

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if e is None or not e.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            e = int(e)
            top = max(map(sum, base), default=0)
            if top and self.degree is not None and top * e > self.degree:
                raise ParseError(
                    f"exponent {e} gives degree {top * e}, past the expected {self.degree}")
            if top * e > MAX_DEGREE:
                raise ParseError(f"exponent {e} gives degree {top * e}, past the largest "
                                 f"degree {MAX_DEGREE}")
            if not top and not isinstance(self.field, PrimeField):
                bits = max((max(abs(c.value.numerator).bit_length(),
                                c.value.denominator.bit_length()) - 1
                            for c in base.values()), default=0)
                if bits * e > _MAX_POWER_BITS:
                    raise ParseError(f"constant power with exponent {e} is too large")
            out = {(0,) * (self.n + 1): Boxed(self.field, 1)}
            while e:
                if e & 1:
                    out = self._mul(out, base)
                e >>= 1
                if e:
                    base = self._mul(base, base)
            return out
        return base

    def atom(self):
        t = self.take()
        if t is None:
            raise ParseError("unexpected end of expression")
        if t == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return inner
        if t.startswith("x"):
            i = int(t[1:])
            if i > self.n:
                raise ParseError(f"variable {t} out of range for P^{self.n}")
            exps = [0] * (self.n + 1)
            exps[i] = 1
            return {tuple(exps): Boxed(self.field, 1)}
        if t[0].isdigit():
            try:
                return {(0,) * (self.n + 1): parse_scalar(self.field, t)}
            except Exception as exc:
                raise ParseError(str(exc)) from exc
        raise ParseError(f"unexpected token {t!r}")

    def _mul(self, a, b):
        if a and b and max(map(sum, a)) + max(map(sum, b)) > MAX_DEGREE:
            raise ParseError(_PAST_MAX_DEGREE)
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = _monomial_mul_oracle(ma, mb)
                v = out.get(m, Boxed(self.field, 0)) + ca * cb
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return out


def parse_poly_oracle(src: str, field, n: int, degree=None) -> HomogPoly:
    """parse_poly with every coefficient operation on boxed scalars."""
    if degree is not None and degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} is past the largest degree {MAX_DEGREE}")
    parser = _PolyParserOracle(_tokenize_oracle(src), field, n, degree)
    terms = {m: c for m, c in parser.expr().items() if c}
    if parser.peek() is not None:
        raise ParseError(f"trailing input near token {parser.peek()!r}")
    if not terms:
        return HomogPoly.zero(field, n, 0 if degree is None else degree)
    degrees = {sum(m) for m in terms}
    if len(degrees) > 1:
        raise ParseError(f"expression {src!r} is not homogeneous (degrees {sorted(degrees)})")
    d = degrees.pop()
    if degree is not None and d != degree:
        raise ParseError(f"expected degree {degree}, got {d} in {src!r}")
    if d > MAX_DEGREE:
        raise ParseError(_PAST_MAX_DEGREE)
    return poly_from_boxed(field, n, d, terms)


# Cells the fuzz and grammar tests mix into generated texts.
JUNK_CELLS = ["", "x9", "x0^", "((x0", "1/0", "x0 x1", "x0^1000000000", "2^1000000000",
              "x0*x1", "(x0+x1)^2", "x0 +", "?"]


def _monomial_str_oracle(m) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def poly_str_oracle(p: HomogPoly) -> str:
    """str(p), each term's monomial text built on the spot."""
    terms = boxed_coefficients(p)
    if not terms:
        return "0"
    out = []
    for m in sorted(terms, reverse=True):
        c = terms[m]
        mono = _monomial_str_oracle(m)
        cs = str(c)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        if mono and mag == "1":
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = mag
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


def int_poly_str_oracle(p: IntPoly) -> str:
    """str(p), signs and units set term by term as IntPoly.__str__ did
    before it shared the printer of forms."""
    if not p.coeffs:
        return "0"
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else ("m" if k == 1 else f"m^{k}")
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


def reflect(p: IntPoly) -> IntPoly:
    """The polynomial m -> p(-m)."""
    return IntPoly([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])


def evaluate(p: IntPoly, m) -> Fraction:
    """The value p(m), by Horner's rule on Fractions."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * m + c
    return acc


def difference(a: IntPoly, b: IntPoly) -> IntPoly:
    """The polynomial a - b."""
    return a + (-b)


def regularity_bound(m: Monad) -> int | None:
    """The window start hilbert_poly_of_cohomology used before t_n:
    max_ij (a_ij - i) for L_{p-i} = sum_j O(-a_ij), p the marked position.

    Defined only when p is the right end and the complex has length
    k = p - lo <= n (and some term is nonzero); None otherwise.  If the
    complex resolves F = H^p, F is Castelnuovo-Mumford regular in this
    degree (Eisenbud, The Geometry of Syzygies, ch. 4).
    """
    p = m.cohomology_position
    if p != m.hi or p - m.lo > m.n:
        return None
    return max((-e - (p - q) for q in range(m.lo, p + 1) for e in m.terms[q].twists),
               default=None)


def hilbert_poly_heuristic_window(m: Monad):
    """hilbert_poly_of_cohomology on the window it used before the
    regularity bound: always start at T = (n+1) + max |twist|."""
    target = euler_poly(m)
    if m.cohomology_position % 2:
        target = -target
    t0 = (m.n + 1) + max((abs(e) for s in m.terms.values() for e in s.twists), default=0)
    for width in (m.n + 2, 2 * m.n + 4):
        values = cohomology_hilbert_function(m, m.cohomology_position, range(t0, t0 + width))
        try:
            poly = interpolate(values, t0, m.n - m.c)
        except InterpolationError:
            continue
        if poly == target:
            return poly
    raise WindowDisagreementError(f"heuristic window disagrees with {target}")


def h_p1(q: int, d: int) -> int:
    """Cohomology of O(d) on a line: the complete closed form."""
    if q == 0:
        return d + 1 if d >= 0 else 0
    if q == 1:
        return -d - 1 if d <= -2 else 0
    return 0


def table_from_dict(n: int, d: int, entries: dict) -> CohTable:
    """The CohTable with entries[(i, p)] = h."""
    return CohTable(n, d, [(i, p, h) for (i, p), h in entries.items()])


def table_entry(table: CohTable, i: int, p: int) -> int:
    """h[i][p] of table, 0 off its nonzero entries."""
    return next((h for ei, ep, h in table.entries if (ei, ep) == (i, p)), 0)


def _comb0(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def line_cohomology_table(n: int, a: int) -> CohTable:
    """Catalog table of O_L(a), L a line in P^n, from closed forms only.

    The restriction of the twisted p-forms to the line splits as
    C(n-1, p-1) O_L(-1) + C(n-1, p) O_L, so every entry is a pair of
    line cohomology numbers.
    """
    entries = []
    for p in range(n + 1):
        for q in (0, 1):
            h = _comb0(n - 1, p - 1) * h_p1(q, a - 1) + _comb0(n - 1, p) * h_p1(q, a)
            if h:
                entries.append((q - p, p, h))
    return CohTable(n, 1, entries)


def random_terms(rng: Random, n: int, length: int, lo_twist=-5, hi_twist=2):
    return [FreeSheaf(n, tuple(rng.randint(lo_twist, hi_twist)
                               for _ in range(rng.randint(0, 3))))
            for _ in range(length)]


def random_monad(rng: Random, field=QQ) -> Monad:
    """Arbitrary complex data: random twists, dense-ish random entries,
    random declared codimension; d.d = 0 is NOT imposed."""
    n = rng.randint(1, 4)
    c = rng.randint(1, n)
    lo = rng.randint(-3, 0)
    hi = lo + rng.randint(0, 3)
    terms = {}
    prev = None
    for i in range(lo, hi + 1):
        terms[i] = FreeSheaf(n, tuple(rng.randint(-5, 2) for _ in range(rng.randint(0, 3))))
        prev = terms[i]
    diffs = {}
    for i in range(lo, hi):
        if rng.random() < 0.3:
            continue  # leave a zero differential
        diffs[i] = random_graded_matrix(field, terms[i], terms[i + 1], rng, density=0.6)
    pos = rng.randint(lo, hi)
    return Monad(field, n, terms, diffs, c, pos)


def random_valid_monad(rng: Random, field=QQ) -> Monad:
    """A complex with d.d = 0: scrambled direct sums of Koszul pieces."""
    n = rng.randint(2, 3)
    pieces = []
    for _ in range(rng.randint(1, 2)):
        size = rng.randint(1, n)
        variables = sorted(rng.sample(range(n + 1), size + 1 if size < n else size))
        pieces.append(koszul_monad(field, n, variables, twist=rng.randint(-2, 1)))
    m = pieces[0]
    for extra in pieces[1:]:
        m = direct_sum(m, extra)
    g = random_element(field, m, seed=rng.randrange(1 << 30), density=0.5)
    return act(g, m)


@pytest.fixture
def rng():
    return Random(20240811)


@pytest.fixture
def f101():
    return GF(101)
