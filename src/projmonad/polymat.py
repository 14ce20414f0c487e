"""Homogeneous polynomials and graded matrices on P^n.

A graded matrix is a morphism between finite direct sums of line
bundles, sum O(e_j) -> sum O(f_i); its (i, j) entry is a homogeneous
form of degree exactly f_i - e_j (the zero form when f_i - e_j < 0).
Taking global sections in a fixed twist turns a graded matrix into a
plain matrix over the field, which is where all rank computations
happen.

Monomials are exponent tuples of length n+1.  The canonical order on
the monomials of a fixed degree is lexicographic with x0 > x1 > ... >
xn, descending; every matrix and printed polynomial uses it, so output
is bit-stable.

Coefficients are stored as the raw values Matrix.row_maps holds:
residues in [0, p), or reduced Fractions over Q.  The arithmetic (sums,
products and composites of forms, and the parser) sums residues
unreduced and reduces once, or over Q works on integer numerators over
a common denominator.  HomogPoly.coefficients() boxes FieldElements.

The parser reads a term's plain factors (integer and a/b literals, x_i,
x_i^k) straight into one exponent list and one numerator and
denominator, so a printed form costs one coefficient per term; only
parenthesised factors and powers of literals build intermediate forms.
The printer builds the text of each monomial once (monomial_str is
cached) and reuses it on every later term with that monomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import add
from random import Random

from .linalg import Matrix, _modulus
from .scalar import Field, FieldElement, FieldError, PrimeField

Monomial = tuple[int, ...]


class ParseError(ValueError):
    """Raised on malformed polynomial or twist-list text."""


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, d: int) -> tuple[Monomial, ...]:
    """All exponent tuples on x0..xn of total degree d, canonical order."""
    if d < 0:
        return ()
    if n == 0:
        return ((d,),)
    out = []
    for a in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - a):
            out.append((a,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(n: int, d: int) -> dict[Monomial, int]:
    return {m: i for i, m in enumerate(monomials_of_degree(n, d))}


def forms_dimension(n: int, d: int) -> int:
    """dim of the space of degree-d forms on P^n: C(d+n, n) for d >= 0."""
    return comb(d + n, n) if d >= 0 else 0


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


@lru_cache(maxsize=1 << 12)
def monomial_str(m: Monomial) -> str:
    """x0^a*x1*... in variable order; "" for the constant monomial."""
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


class HomogPoly:
    """A homogeneous form of fixed degree in x0..xn over a field.

    terms maps monomials to nonzero raw values, canonicalised by
    field.coerce (a FieldElement is refused); coefficients() boxes them.
    The zero form has no terms but still records its degree (which may
    then be negative, for the forced-zero slots of a graded matrix).
    """

    __slots__ = ("field", "n", "degree", "terms")

    def __init__(self, field: Field, n: int, degree: int, terms: dict[Monomial, object]):
        clean = {}
        for m, c in terms.items():
            if not (c := field.coerce(c)):
                continue
            if len(m) != n + 1 or sum(m) != degree or min(m) < 0:
                raise ValueError(f"monomial {m} is not of degree {degree} on P^{n}")
            clean[m] = c
        self.field = field
        self.n = n
        self.degree = degree
        self.terms = clean

    @classmethod
    def _unchecked(cls, field: Field, n: int, degree: int, terms: dict) -> "HomogPoly":
        """A form from nonzero canonical raw values on monomials of this degree."""
        self = object.__new__(cls)
        self.field, self.n, self.degree, self.terms = field, n, degree, terms
        return self

    @classmethod
    def zero(cls, field: Field, n: int, degree: int) -> "HomogPoly":
        return cls(field, n, degree, {})

    @classmethod
    def constant(cls, field: Field, n: int, value: FieldElement) -> "HomogPoly":
        return cls.monomial(field, n, (0,) * (n + 1), value)

    @classmethod
    def variable(cls, field: Field, n: int, i: int) -> "HomogPoly":
        exps = [0] * (n + 1)
        exps[i] = 1
        return cls(field, n, 1, {tuple(exps): 1})

    @classmethod
    def monomial(cls, field: Field, n: int, m: Monomial, coeff: FieldElement | None = None) -> "HomogPoly":
        one = cls(field, n, sum(m), {m: 1})
        return one if coeff is None else one.scale(coeff)

    def coefficients(self) -> dict[Monomial, FieldElement]:
        """The nonzero coefficients, boxed, by monomial."""
        return {m: FieldElement(self.field, c) for m, c in self.terms.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def _compatible(self, other: "HomogPoly"):
        if self.field != other.field or self.n != other.n:
            raise ValueError("polynomials live on different spaces")

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._compatible(other)
        if self.is_zero():
            return HomogPoly._unchecked(self.field, self.n, other.degree, dict(other.terms))
        if other.is_zero():
            return HomogPoly._unchecked(self.field, self.n, self.degree, dict(self.terms))
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        p = _modulus(self.field)
        da, a = _raw(self, p)
        db, b = _raw(other, p)
        den = lcm(da, db)
        s = den // da
        num = {m: v * s for m, v in a.items()} if s != 1 else dict(a)
        s = den // db
        for m, v in b.items():
            num[m] = num.get(m, 0) + v * s
        return _from_numerators(self.field, self.n, self.degree, p, num, den)

    def __neg__(self) -> "HomogPoly":
        neg = self.field.neg
        return HomogPoly._unchecked(self.field, self.n, self.degree,
                                    {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        self._compatible(other)
        p = _modulus(self.field)
        da, a = _raw(self, p)
        db, b = _raw(other, p)
        num: dict[Monomial, int] = {}
        _mul_into(num, a, b, 1)
        return _from_numerators(self.field, self.n, self.degree + other.degree, p, num, da * db)

    def scale(self, c: FieldElement) -> "HomogPoly":
        field = self.field
        if c.field is not field and c.field != field:
            raise FieldError(f"field mismatch: {c.field} vs {field}")
        mul, x = field.mul, c.value
        return HomogPoly._unchecked(field, self.n, self.degree,
                                    {m: mul(x, v) for m, v in self.terms.items()} if x else {})

    def __eq__(self, other):
        # Zero forms are equal whatever their recorded degree.
        if not isinstance(other, HomogPoly) or other.field != self.field or other.n != self.n:
            return False
        if not self.terms and not other.terms:
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        key = self.degree if self.terms else None
        return hash((self.field, self.n, key, tuple(sorted(self.terms.items()))))

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        out = []
        for m in sorted(terms, reverse=True):
            cs = str(terms[m])
            mono = monomial_str(m)
            neg = cs[0] == "-"
            mag = cs[1:] if neg else cs
            if not mono:
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = f"{mag}*{mono}"
            if out:
                out.append(f"- {body}" if neg else f"+ {body}")
            else:
                out.append(f"-{body}" if neg else body)
        return " ".join(out)

    __repr__ = __str__


# Raw arithmetic.  A form travels as (den, {monomial: int}) and stands for
# sum num[m] * m / den: over F_p den is 1 and num holds residues, possibly
# unreduced; over Q num holds the numerators over a common denominator.


def _raw(poly: HomogPoly, p: int) -> tuple[int, dict[Monomial, int]]:
    """poly as (den, numerators); p is the modulus, 0 over Q.  Over F_p
    the numerators are poly.terms itself, which callers must not mutate."""
    terms = poly.terms
    if p:
        return 1, terms
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {m: c.numerator * (den // c.denominator) for m, c in terms.items()}


def _mul_into(out: dict[Monomial, int], a: dict[Monomial, int], b: dict[Monomial, int],
              scale: int):
    """out += scale * a * b on numerator dicts, without reducing."""
    get = out.get
    for ma, ca in a.items():
        ca *= scale
        for mb, cb in b.items():
            m = monomial_mul(ma, mb)
            out[m] = get(m, 0) + ca * cb


def _from_numerators(field: Field, n: int, degree: int, p: int, num: dict[Monomial, int],
                     den: int) -> HomogPoly:
    """The form sum num[m] * m / den over monomials of this degree, reduced."""
    if p:
        terms = {m: r for m, v in num.items() if (r := v % p)}
    else:
        terms = {m: Fraction(v, den) for m, v in num.items() if v}
    return HomogPoly._unchecked(field, n, degree, terms)


# Largest constant power the parser evaluates over Q, in bits.
_MAX_POWER_BITS = 1 << 16

# Deepest parenthesis nesting the parser accepts: each level costs four
# stack frames, so this stays far inside the interpreter's recursion limit.
MAX_PAREN_DEPTH = 100

_TOKEN = re.compile(r"\s*(\d+(?:/\d+)?|x\d+|[-+*^()])")
# A whole string of _TOKEN matches.  The lookaheads stop a digit run from
# splitting into several numbers, so a failed match cannot backtrack far.
_TOKENS = re.compile(r"(?:\s*(?:\d+(?!\d)(?:/\d+(?!\d))?|x\d+(?!\d)|[-+*^()]))*\s*")


def _tokenize(src: str) -> list[str]:
    if _TOKENS.fullmatch(src):
        return _TOKEN.findall(src)
    toks, pos = [], 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            if src[pos:].strip():
                raise ParseError(f"unexpected character {src[pos:].lstrip()[0]!r} in {src!r}")
            break
        toks.append(m.group(1))
        pos = m.end()
    return toks


class _PolyParser:
    """Recursive descent over +, -, *, ^ and parentheses.

    Works on plain {monomial: raw coefficient} dicts (residues in (0, p),
    or over Q nonzero ints and Fractions) so mixed-degree intermediates
    are allowed; homogeneity is checked at the end.  A term folds its
    plain factors (literals, x_i and x_i^k) into one exponent list and one
    numerator and denominator; only parenthesised factors and powers of
    literals go through power().  A power whose degree would pass the
    expected degree, or a constant power over Q larger than
    _MAX_POWER_BITS, is refused before it is expanded; parentheses nested
    deeper than MAX_PAREN_DEPTH are refused.
    """

    def __init__(self, toks: list[str], field: Field, n: int, degree: int | None = None):
        self.toks = toks + [None]
        self.i = 0
        self.field = field
        self.p = _modulus(field)
        self.n = n
        self.degree = degree
        self.const = (0,) * (n + 1)
        self.variables: dict[str, int] = {}  # variable token -> index
        self.depth = 0  # open parentheses

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        if t is not None:
            self.i += 1
        return t

    def expr(self) -> dict:
        toks, p = self.toks, self.p
        sign = 1
        if toks[self.i] in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = {m: p - c if p else -c for m, c in acc.items()}
        get = acc.get
        while (op := toks[self.i]) in ("+", "-"):
            self.i += 1
            neg = op == "-"
            for m, c in self.term().items():
                if neg:
                    c = p - c if p else -c
                v = get(m)
                if v is None:
                    acc[m] = c
                    continue
                v += c
                if p:
                    v %= p
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return acc

    def term(self) -> dict:
        toks, p, variables = self.toks, self.p, self.variables
        exps = [0] * (self.n + 1)
        num = den = 1
        rest = None  # product of the factors that went through power()
        i = self.i
        while True:
            t = toks[i]
            k = variables.get(t)
            if k is None and t is not None and t[0] == "x":
                k = self._variable(t)
            if k is not None:
                if toks[i + 1] == "^":
                    exps[k] += self._exponent(toks[i + 2], 1)
                    i += 3
                else:
                    exps[k] += 1
                    i += 1
            elif t is not None and t[0].isdigit() and toks[i + 1] != "^":
                a, b = self._literal(t)
                num *= a
                den *= b
                if p:
                    num %= p
                    den %= p
                i += 1
            else:
                self.i = i
                f = self.power()
                rest = f if rest is None else self._mul(rest, f)
                i = self.i
            if toks[i] != "*":
                break
            i += 1
        self.i = i
        c = self._value(num, den)
        if not c:
            return {}
        out = {tuple(exps): c}
        return out if rest is None else self._mul(out, rest)

    def power(self) -> dict:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.i += 1
        top = max(map(sum, base), default=0)
        e = self._exponent(self.take(), top)
        p = self.p
        if not top and not p:
            bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length()) - 1
                        for c in base.values()), default=0)
            if bits * e > _MAX_POWER_BITS:
                raise ParseError(f"constant power with exponent {e} is too large")
        if len(base) == 1:
            (m, c), = base.items()
            v = pow(c, e, p) if p else c ** e
            return {tuple([x * e for x in m]): v} if v else {}
        out = {self.const: 1}
        while e:
            if e & 1:
                out = self._mul(out, base)
            e >>= 1
            if e:
                base = self._mul(base, base)
        return out

    def atom(self) -> dict:
        t = self.take()
        if t is None:
            raise ParseError("unexpected end of expression")
        if t == "(":
            self.depth += 1
            if self.depth > MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}")
            inner = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            self.depth -= 1
            return inner
        if t[0].isdigit():
            v = self._value(*self._literal(t))
            return {self.const: v} if v else {}
        raise ParseError(f"unexpected token {t!r}")

    def _variable(self, t: str) -> int:
        """The index of variable token t, remembered for this parse."""
        i = int(t[1:])
        if i > self.n:
            raise ParseError(f"variable {t} out of range for P^{self.n}")
        self.variables[t] = i
        return i

    def _literal(self, t: str) -> tuple[int, int]:
        """Numerator and nonzero denominator of literal t, residues over F_p."""
        a, _, b = t.partition("/")
        try:
            num, den = int(a), int(b) if b else 1
            if self.p:
                num %= self.p
                den %= self.p
            if not den:
                self.field.inv(den)  # raises the field's division-by-zero error
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc)) from exc
        return num, den

    def _value(self, num: int, den: int):
        """The raw coefficient num / den."""
        if den == 1:
            return num
        p = self.p
        return num * pow(den, p - 2, p) % p if p else Fraction(num, den)

    def _exponent(self, e: str | None, top: int) -> int:
        """Exponent token e after a '^' whose base has top degree top."""
        if e is None or not e.isdigit():
            raise ParseError("exponent must be a nonnegative integer")
        e = int(e)
        if top and self.degree is not None and top * e > self.degree:
            raise ParseError(
                f"exponent {e} gives degree {top * e}, past the expected {self.degree}")
        return e

    def _mul(self, a: dict, b: dict) -> dict:
        """The product with its zero terms dropped."""
        p = self.p
        if len(a) == 1 and len(b) == 1:
            (ma, ca), = a.items()
            (mb, cb), = b.items()
            v = ca * cb % p if p else ca * cb
            return {monomial_mul(ma, mb): v} if v else {}
        out: dict = {}
        get = out.get
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = monomial_mul(ma, mb)
                out[m] = get(m, 0) + ca * cb
        if p:
            return {m: r for m, v in out.items() if (r := v % p)}
        return {m: v for m, v in out.items() if v}


def parse_poly(src: str, field: Field, n: int, degree: int | None = None) -> HomogPoly:
    """Parse a homogeneous form; degree, when given, pins the zero form too."""
    parser = _PolyParser(_tokenize(src), field, n, degree)
    raw = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input near token {parser.peek()!r}")
    if not raw:
        return HomogPoly.zero(field, n, 0 if degree is None else degree)
    degrees = set(map(sum, raw))
    if len(degrees) > 1:
        raise ParseError(f"expression {src!r} is not homogeneous (degrees {sorted(degrees)})")
    d = degrees.pop()
    if degree is not None and d != degree:
        raise ParseError(f"expected degree {degree}, got {d} in {src!r}")
    if not parser.p:
        raw = {m: Fraction(c) for m, c in raw.items()}
    return HomogPoly._unchecked(field, n, d, raw)


@dataclass(frozen=True)
class FreeSheaf:
    """A finite direct sum of line bundles sum_j O(e_j) on P^n."""

    n: int
    twists: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(self.twists))

    @property
    def rank(self) -> int:
        return len(self.twists)

    def dual(self) -> "FreeSheaf":
        """Twisted dual O(e) -> O(-n-1-e), slot order preserved."""
        return FreeSheaf(self.n, tuple(-self.n - 1 - e for e in self.twists))

    def sections_dim(self, t: int) -> int:
        return sum(forms_dimension(self.n, t + e) for e in self.twists)

    def __str__(self):
        return "[" + ",".join(str(e) for e in self.twists) + "]"


def parse_twists(src: str, n: int) -> FreeSheaf:
    s = src.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"twist list must be bracketed: {src!r}")
    body = s[1:-1].strip()
    if not body:
        return FreeSheaf(n, ())
    try:
        return FreeSheaf(n, tuple(int(x) for x in body.split(",")))
    except ValueError as exc:
        raise ParseError(f"bad twist list {src!r}") from exc


class GradedMatrix:
    """A morphism source -> target between free sheaves on the same P^n.

    entries[i][j] maps the j-th summand O(e_j) to the i-th summand
    O(f_i) and must be homogeneous of degree exactly f_i - e_j; slots
    with f_i - e_j < 0 hold the zero form.
    """

    __slots__ = ("field", "source", "target", "entries")

    def __init__(self, field: Field, source: FreeSheaf, target: FreeSheaf,
                 entries: list[list[HomogPoly]] | tuple):
        if source.n != target.n:
            raise ValueError("source and target on different projective spaces")
        rows, cols = target.rank, source.rank
        entries = tuple(tuple(r) for r in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entry grid is not {rows}x{cols}")
        for i in range(rows):
            for j in range(cols):
                p = entries[i][j]
                want = target.twists[i] - source.twists[j]
                if p.field != field or p.n != source.n:
                    raise ValueError("entry on the wrong space or field")
                if p.degree != want:
                    raise ValueError(
                        f"entry ({i},{j}) has degree {p.degree}, twists demand {want}")
                if want < 0 and not p.is_zero():
                    raise ValueError(f"entry ({i},{j}) must vanish: negative twist gap")
        self.field = field
        self.source = source
        self.target = target
        self.entries = entries

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def rows(self) -> int:
        return self.target.rank

    @property
    def cols(self) -> int:
        return self.source.rank

    @classmethod
    def zero(cls, field: Field, source: FreeSheaf, target: FreeSheaf) -> "GradedMatrix":
        ent = [[HomogPoly.zero(field, source.n, target.twists[i] - source.twists[j])
                for j in range(source.rank)] for i in range(target.rank)]
        return cls(field, source, target, ent)

    @classmethod
    def identity(cls, field: Field, sheaf: FreeSheaf) -> "GradedMatrix":
        ent = [[HomogPoly.constant(field, sheaf.n, field.one) if i == j
                else HomogPoly.zero(field, sheaf.n, sheaf.twists[i] - sheaf.twists[j])
                for j in range(sheaf.rank)] for i in range(sheaf.rank)]
        return cls(field, sheaf, sheaf, ent)

    def entry(self, i: int, j: int) -> HomogPoly:
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and other.field == self.field
            and other.source == self.source
            and other.target == self.target
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.field, self.source, self.target, self.entries))

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        if other.source != self.source or other.target != self.target:
            raise ValueError("shape mismatch in graded sum")
        ent = [[self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
               for i in range(self.rows)]
        return GradedMatrix(self.field, self.source, self.target, ent)

    def __neg__(self) -> "GradedMatrix":
        ent = [[-p for p in row] for row in self.entries]
        return GradedMatrix(self.field, self.source, self.target, ent)

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        return compose(self, other)

    def __repr__(self):
        return f"GradedMatrix({self.source} -> {self.target})"


def compose(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """The composite a . b of b: F -> G and a: G -> H.

    Each entry sums its k products into one numerator dict; over Q the
    products are scaled to the LCM of their denominators first.
    """
    if a.field != b.field:
        raise ValueError("composition across fields")
    if a.source != b.target:
        raise ValueError(f"composition mismatch: {a.source} vs {b.target}")
    field, n = a.field, a.n
    p = _modulus(field)
    raw_a = [[_raw(q, p) for q in row] for row in a.entries]
    raw_b = [[_raw(q, p) for q in row] for row in b.entries]
    cols_b = [[row[j] for row in raw_b] for j in range(b.cols)]
    ent = []
    for f, row_a in zip(a.target.twists, raw_a):
        row = []
        for e, col_b in zip(b.source.twists, cols_b):
            pairs = [(x, y) for x, y in zip(row_a, col_b) if x[1] and y[1]]
            den = lcm(*(dx * dy for (dx, _), (dy, _) in pairs))
            num: dict[Monomial, int] = {}
            for (dx, x), (dy, y) in pairs:
                _mul_into(num, x, y, den // (dx * dy))
            row.append(_from_numerators(field, n, f - e, p, num, den))
        ent.append(row)
    return GradedMatrix(field, b.source, a.target, ent)


def dual_hom(m: GradedMatrix) -> GradedMatrix:
    """Apply Hom(-, O(-n-1)): transpose the entries, dualize the twists.

    Degrees re-verify automatically: (-n-1-e_j) - (-n-1-f_i) = f_i - e_j.
    """
    ent = [[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)]
    return GradedMatrix(m.field, m.target.dual(), m.source.dual(), ent)


def sections_matrix(m: GradedMatrix, t: int) -> Matrix:
    """The matrix of H^0(m(t)): degree-(t+e_j) forms -> degree-(t+f_i) forms.

    Blocks follow the twist-list order, monomials the canonical order;
    a summand with t + twist < 0 contributes an empty block.  The rows
    come out sparse: only the products of monomials with terms are set.
    """
    n = m.n
    src_dims = [forms_dimension(n, t + e) for e in m.source.twists]
    tgt_dims = [forms_dimension(n, t + f) for f in m.target.twists]
    src_off = [0]
    for d in src_dims:
        src_off.append(src_off[-1] + d)
    tgt_off = [0]
    for d in tgt_dims:
        tgt_off.append(tgt_off[-1] + d)
    rows, cols = tgt_off[-1], src_off[-1]
    row_maps: list[dict] = [{} for _ in range(rows)]
    for j in range(m.cols):
        d_src = t + m.source.twists[j]
        if d_src < 0:
            continue
        src_monos = monomials_of_degree(n, d_src)
        for i in range(m.rows):
            p = m.entries[i][j]
            if not p.terms:
                continue
            index = monomial_index(n, t + m.target.twists[i])
            for cu, u in enumerate(src_monos):
                col = src_off[j] + cu
                for v, coef in p.terms.items():
                    row_maps[tgt_off[i] + index[monomial_mul(u, v)]][col] = coef
    return Matrix.from_row_maps(m.field, rows, cols, row_maps)


def random_poly(field: Field, n: int, degree: int, rng: Random,
                density: float = 1.0) -> HomogPoly:
    """A random form; each monomial appears with the given density, with a
    raw coefficient rng.randrange(p) over F_p or rng.randint(-9, 9) over Q."""
    if degree < 0:
        return HomogPoly.zero(field, n, degree)
    prime = field.p if isinstance(field, PrimeField) else 0
    terms = {}
    for m in monomials_of_degree(n, degree):
        if density < 1.0 and rng.random() >= density:
            continue
        if c := rng.randrange(prime) if prime else Fraction(rng.randint(-9, 9)):
            terms[m] = c
    return HomogPoly._unchecked(field, n, degree, terms)


def random_graded_matrix(field: Field, source: FreeSheaf, target: FreeSheaf,
                         rng: Random, density: float = 1.0) -> GradedMatrix:
    ent = [[random_poly(field, source.n, target.twists[i] - source.twists[j], rng, density)
            for j in range(source.rank)] for i in range(target.rank)]
    return GradedMatrix(field, source, target, ent)
