"""Shared helpers: independent oracles and random complex generators.

The oracles here deliberately avoid the elimination code in
projmonad.linalg: determinants come from a subset DP over column
choices, ranks from a largest-nonzero-minor search, reduced row echelon
forms from a dense Gauss-Jordan on boxed field elements, and the catalog
cohomology of line bundles on a line is written down in closed form.
The Hilbert window oracle keeps the heuristic window start that the
regularity bound replaced.  The polynomial oracles multiply, compose and
parse forms one boxed FieldElement operation at a time, as projmonad.polymat
did before its arithmetic moved onto raw values; they read coefficients
through HomogPoly.coefficients() and hand raw values back only when
they build a form (poly_from_boxed).  The graded inverse
oracle sums the finite Neumann series that the degree induction of
projmonad.autgroup replaced.  The printing oracle builds every monomial's
text afresh for each term, as HomogPoly.__str__ did before it reused them.
"""

import re
from math import comb
from random import Random

import pytest

from projmonad.autgroup import act, constant_part, random_element
from projmonad.complexes import direct_sum, koszul_monad
from projmonad.hilbert import InterpolationError, euler_poly, interpolate
from projmonad.linalg import Matrix, inverse as matrix_inverse
from projmonad.monad import CohTable, Monad, WindowDisagreementError, cohomology_hilbert_function
from projmonad.polymat import (
    _MAX_POWER_BITS,
    FreeSheaf,
    GradedMatrix,
    HomogPoly,
    ParseError,
    compose,
    random_graded_matrix,
)
from projmonad.scalar import GF, QQ, PrimeField


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


def rref_oracle(field, rows, cols_count):
    """Reduced row echelon form by dense Gauss-Jordan on FieldElements.

    Pivots on the first nonzero entry of each column, rows scanned top
    down.  Returns the reduced rows (zero rows last) and the pivot
    columns; the RREF is unique, so any exact elimination must agree.
    """
    one = field.one
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
    """The form with FieldElement coefficients terms, each checked to lie
    in field; zero coefficients are dropped by the constructor."""
    assert all(c.field == field for c in terms.values()), "coefficient from the wrong field"
    return HomogPoly(field, n, degree, {m: c.value for m, c in terms.items()})


def poly_add_oracle(a: HomogPoly, b: HomogPoly) -> HomogPoly:
    """Sum of two forms of one degree (or zero), coefficient by coefficient."""
    if not a.terms:
        return poly_from_boxed(a.field, a.n, b.degree, b.coefficients())
    if not b.terms:
        return poly_from_boxed(a.field, a.n, a.degree, a.coefficients())
    if a.degree != b.degree:
        raise ValueError("cannot add forms of different degrees")
    terms = a.coefficients()
    for m, c in b.coefficients().items():
        s = terms.get(m)
        terms[m] = c if s is None else s + c
    return poly_from_boxed(a.field, a.n, a.degree, terms)


def poly_mul_oracle(a: HomogPoly, b: HomogPoly) -> HomogPoly:
    """Product of two forms, one FieldElement product and sum per pair of terms."""
    terms = {}
    for ma, ca in a.coefficients().items():
        for mb, cb in b.coefficients().items():
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
            c = m.entry(r, s)
            if gap == 0 and c:
                row.append(HomogPoly.constant(field, n, c))
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
    nu = g - lift_constants(g.field, sheaf, g0)
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
        acc = acc + (term if sign > 0 else -term)
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
    """Recursive descent over {monomial: FieldElement} dicts, token by token."""

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
                v = acc.get(m, self.field.zero) + (c if op == "+" else -c)
                if v:
                    acc[m] = v
                elif m in acc:
                    del acc[m]
        return acc

    def term(self):
        acc = self.power()
        while self.peek() == "*":
            self.take()
            acc = self._mul(acc, self.power())
        return acc

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
            if not top and not isinstance(self.field, PrimeField):
                bits = max((max(abs(c.value.numerator).bit_length(),
                                c.value.denominator.bit_length()) - 1
                            for c in base.values()), default=0)
                if bits * e > _MAX_POWER_BITS:
                    raise ParseError(f"constant power with exponent {e} is too large")
            out = {(0,) * (self.n + 1): self.field.one}
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
            return {tuple(exps): self.field.one}
        if t[0].isdigit():
            try:
                return {(0,) * (self.n + 1): self.field.parse(t)}
            except Exception as exc:
                raise ParseError(str(exc)) from exc
        raise ParseError(f"unexpected token {t!r}")

    def _mul(self, a, b):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = _monomial_mul_oracle(ma, mb)
                v = out.get(m, self.field.zero) + ca * cb
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return out


def parse_poly_oracle(src: str, field, n: int, degree=None) -> HomogPoly:
    """parse_poly with every coefficient operation on FieldElements."""
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
    terms = p.coefficients()
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


def _comb0(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def line_cohomology_table(n: int, a: int) -> CohTable:
    """Catalog table of O_L(a), L a line in P^n, from closed forms only.

    The restriction of the twisted p-forms to the line splits as
    C(n-1, p-1) O_L(-1) + C(n-1, p) O_L, so every entry is a pair of
    line cohomology numbers.
    """
    entries = {}
    for p in range(n + 1):
        for q in (0, 1):
            h = _comb0(n - 1, p - 1) * h_p1(q, a - 1) + _comb0(n - 1, p) * h_p1(q, a)
            if h:
                entries[(q - p, p)] = h
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
