"""Homogeneous polynomials and graded matrices on P^n.

A graded matrix is a morphism between finite direct sums of line
bundles, sum O(e_j) -> sum O(f_i); its (i, j) entry is a homogeneous
form of degree exactly f_i - e_j (the zero form when f_i - e_j < 0).
Taking global sections in a fixed twist turns a graded matrix into a
plain matrix over the field, which is where all rank computations
happen.

Forms and graded matrices define no operators: forms combine only as
entries of graded matrices, through compose, so products of forms have
one implementation (two forms multiply as 1x1 graded matrices).

Monomials are packed exponent vectors (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors",
CASC 2007): one int holding the degree in its top field and the
exponents of x0..xn in WIDTH-bit fields below it.  Packing is linear,
so the product of two monomials is the sum of their ints, and it carries
into no neighbouring field while every degree stays at most MAX_DEGREE;
the parser refuses larger degrees, and the monad and group-element
readers refuse twist lists whose spread passes it.  Integer order is
the canonical order: degree first, then lexicographic with x0 > x1 >
... > xn.  The monomials of a fixed degree are listed descending; every
matrix and printed polynomial uses that order, so output is bit-stable.
Only this module builds or reads packed monomials; other modules use
them as opaque keys (mul_into, CONSTANT_MONOMIAL, coordinates).

Coefficients are stored as the raw values Matrix.row_maps holds:
residues in [0, p), or over Q ints, and reduced Fractions only where the
denominator is not 1.  The arithmetic (compose and the parser) takes
them to integer numerators over a common denominator with
field.integral, which hands an integral dict back itself rather than a
copy, sums and multiplies those unreduced, and turns the result back
into raw values once with field.reduce.  This module never builds a
Fraction, reads a numerator or inverts a residue: every quotient, a
literal a/b over Q and over F_p alike, comes from field.reduce, which
keeps every value canonical.

The tokenizer is one regex pass: the longest prefix of whole tokens must
be the whole text, and otherwise the first character past it is
refused.  The parser reads a term's plain factors (integer and a/b
literals, x_i, x_i^k) straight into one packed monomial and one
numerator and denominator, so a printed form costs one coefficient per
term; only parenthesised factors and powers of literals build
intermediate forms.  The printer sorts the packed monomials and decodes
the text of each once (monomial_str is cached), reusing it on every
later term; sum_str sets the signs and units, for forms and for the
Hilbert polynomials of hilbert.IntPoly alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, lcm
from random import Random
from types import MappingProxyType

from .linalg import Matrix
from .scalar import Field

Monomial = int  # a packed exponent vector

# Bits per exponent field.  Every form, parsed or built, and every
# section space has degree at most MAX_DEGREE, so the sum of two legal
# monomials has each exponent below 2^WIDTH and never carries.  Forms
# take their degrees from twist gaps, which the file readers bound;
# sections on P^n, n >= 1, stay below degree 200,000 by the window guards
# (a side of MAX_SECTION_SIDE on P^1), and monomials_of_degree refuses the
# rest.  Twist lists of 10^9 with a small spread stay accepted.
WIDTH = 32
MAX_DEGREE = (1 << (WIDTH - 1)) - 1
_MASK = (1 << WIDTH) - 1

# The constant monomial packs to 0 on every P^n.
CONSTANT_MONOMIAL = 0


class ParseError(ValueError):
    """Raised on malformed polynomial or twist-list text."""


def _pack(exps) -> Monomial:
    """The packed monomial of an exponent vector of degree <= MAX_DEGREE."""
    key = sum(exps)
    for e in exps:
        key = key << WIDTH | e
    return key


def _unpack(n: int, m: Monomial) -> tuple[int, ...]:
    """The exponent tuple of a packed monomial on x0..xn."""
    return tuple((m >> (WIDTH * (n - i))) & _MASK for i in range(n + 1))


def _unit(n: int, i: int) -> Monomial:
    """The packed monomial x_i on P^n."""
    return (1 << WIDTH * (n + 1)) | (1 << WIDTH * (n - i))


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, d: int) -> tuple[Monomial, ...]:
    """All packed monomials on x0..xn of total degree d, canonical order.

    Only the list asked for is cached; the lists on fewer variables that
    build it live in a memo of this one build.  Degrees past MAX_DEGREE
    are refused: their products could carry.
    """
    if d < 0:
        return ()
    if d > MAX_DEGREE:
        raise ValueError(f"degree {d} is past the largest monomial degree {MAX_DEGREE}")
    return tuple(_monomials(n, d, {}))


def _monomials(n: int, d: int, memo: dict) -> list[Monomial]:
    """The monomials of degree d on x0..xn, listed through memo by (n, d)."""
    top = d << WIDTH * (n + 1)
    if n == 0:
        return [top | d]
    out = memo.get((n, d))
    if out is None:
        # x0^a times a monomial of degree d - a in x1..xn: that one carries its
        # degree d - a in the field where x0's exponent a belongs.
        out = memo[n, d] = []
        for a in range(d, -1, -1):
            base = top + ((2 * a - d) << WIDTH * n)
            out.extend(base + m for m in _monomials(n - 1, d - a, memo))
    return out


@lru_cache(maxsize=None)
def monomial_index(n: int, d: int) -> dict[Monomial, int]:
    return {m: i for i, m in enumerate(monomials_of_degree(n, d))}


def forms_dimension(n: int, d: int) -> int:
    """dim of the space of degree-d forms on P^n: C(d+n, n) for d >= 0."""
    return comb(d + n, n) if d >= 0 else 0


@lru_cache(maxsize=1 << 12)
def monomial_str(n: int, m: Monomial) -> str:
    """x0^a*x1*... in variable order; "" for the constant monomial."""
    parts = []
    for i, e in enumerate(_unpack(n, m)):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def sum_str(terms) -> str:
    """A sum of (coefficient text, monomial text) terms, leading term first:
    unit coefficients are left off, and signs are set between the terms.
    "0" for no terms."""
    out = []
    for cs, mono in terms:
        neg = cs[0] == "-"
        mag = cs[1:] if neg else cs
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        if out:
            out.append(f"- {body}" if neg else f"+ {body}")
        else:
            out.append(f"-{body}" if neg else body)
    return " ".join(out) or "0"


class HomogPoly:
    """A homogeneous form of fixed degree in x0..xn over a field.

    coeffs maps packed monomials to nonzero raw values.  The public
    constructor takes exponent tuples instead and canonicalises every
    value by field.coerce, which refuses anything but an int or a raw
    value; terms gives the same read-only view back, for readers
    outside the package.  The zero form has no terms but still records
    its degree (which may then be negative, for the forced-zero slots of
    a graded matrix).
    """

    __slots__ = ("field", "n", "degree", "coeffs")

    def __init__(self, field: Field, n: int, degree: int, terms: dict[tuple[int, ...], object]):
        clean = {}
        for m, c in terms.items():
            if not (c := field.coerce(c)):
                continue
            if len(m) != n + 1 or sum(m) != degree or min(m) < 0:
                raise ValueError(f"monomial {m} is not of degree {degree} on P^{n}")
            if degree > MAX_DEGREE:
                raise ValueError(f"degree {degree} is past the largest monomial degree "
                                 f"{MAX_DEGREE}")
            clean[_pack(m)] = c
        self.field = field
        self.n = n
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def _unchecked(cls, field: Field, n: int, degree: int, coeffs: dict) -> "HomogPoly":
        """A form from nonzero canonical raw values on packed monomials of this degree."""
        self = object.__new__(cls)
        self.field, self.n, self.degree, self.coeffs = field, n, degree, coeffs
        return self

    @property
    def terms(self) -> MappingProxyType:
        """The nonzero raw values by exponent tuple, decoded on every read."""
        n = self.n
        return MappingProxyType({_unpack(n, m): c for m, c in self.coeffs.items()})

    @classmethod
    def zero(cls, field: Field, n: int, degree: int) -> "HomogPoly":
        return cls._unchecked(field, n, degree, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        # Zero forms are equal whatever their recorded degree.
        if not isinstance(other, HomogPoly) or other.field != self.field or other.n != self.n:
            return False
        if not self.coeffs and not other.coeffs:
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        key = self.degree if self.coeffs else None
        return hash((self.field, self.n, key, frozenset(self.coeffs.items())))

    def __str__(self):
        n, coeffs = self.n, self.coeffs
        return sum_str((str(coeffs[m]), monomial_str(n, m)) for m in sorted(coeffs, reverse=True))

    __repr__ = __str__


def coordinates(p: HomogPoly) -> dict[int, object]:
    """The nonzero raw values of p by the index of their monomial in
    monomials_of_degree(p.n, p.degree)."""
    coeffs = p.coeffs
    return {j: c for j, m in enumerate(monomials_of_degree(p.n, p.degree))
            if (c := coeffs.get(m))}


def from_coordinates(field: Field, n: int, degree: int, coords: dict[int, object]) -> HomogPoly:
    """The form with coordinates(form) == coords, each value canonicalised
    by field.coerce; the degree-1 coordinates are those of x0..xn."""
    monos = monomials_of_degree(n, degree)
    return HomogPoly._unchecked(field, n, degree, {monos[j]: v for j, c in coords.items()
                                                   if (v := field.coerce(c))})


# Raw arithmetic.  field.integral(poly.coeffs) gives a form as
# (den, {monomial: int}), standing for sum num[m] * m / den: over F_p den
# is 1 and num holds residues, possibly unreduced; over Q num holds the
# numerators over a common denominator.  field.reduce(num, den) turns the
# result back into the nonzero raw values of a form.


def mul_into(out: dict[Monomial, int], a: dict[Monomial, int], b: dict[Monomial, int],
             scale: int):
    """out += scale * a * b on numerator dicts keyed by packed monomials,
    without reducing."""
    get = out.get
    for ma, ca in a.items():
        ca *= scale
        for mb, cb in b.items():
            m = ma + mb
            out[m] = get(m, 0) + ca * cb


# Largest constant power the parser evaluates over Q, in bits.
_MAX_POWER_BITS = 1 << 16

# Deepest parenthesis nesting the parser accepts: each level costs four
# stack frames, so this stays far inside the interpreter's recursion limit.
MAX_PAREN_DEPTH = 100

# Most term products the parser multiplies out for all expressions of one
# file, about a second at 1 us each.  Powers of sums grow fast:
# (x0+x1+x2+x3)^90 has a legal degree but needs 2.2e8.  Per file, the test
# suite reaches at most 100 (a hundred nested parentheses), the bench none.
MAX_PARSE_PRODUCTS = 10**6

_PAST_MAX_DEGREE = f"a term has degree past the largest degree {MAX_DEGREE}"

_TOKEN = re.compile(r"\s*(\d+(?:/\d+)?|x\d+|[-+*^()])")
# A run of _TOKEN matches and the blanks after it; the longest such prefix
# ends at the first character no token takes, past any blanks.  The
# lookaheads stop a digit run from splitting into several numbers, so the
# match cannot backtrack far.
_TOKENS = re.compile(r"(?:\s*(?:\d+(?!\d)(?:/\d+(?!\d))?|x\d+(?!\d)|[-+*^()]))*\s*")


def _tokenize(src: str) -> list[str]:
    end = _TOKENS.match(src).end()  # the longest prefix of whole tokens
    if end < len(src):
        raise ParseError(f"unexpected character {src[end]!r} in {src!r}")
    return _TOKEN.findall(src)


class ParseBudget:
    """The term products that one file's expressions have multiplied out."""
    products = 0


class _PolyParser:
    """Recursive descent over +, -, *, ^ and parentheses.

    Works on plain {packed monomial: nonzero raw value} dicts (residues
    in (0, p), or canonical values over Q) so mixed-degree intermediates are
    allowed; homogeneity is checked at the end.  A term folds its plain
    factors (literals, x_i and x_i^k) into one packed monomial, a sum of
    variable units, and one numerator and denominator; only
    parenthesised factors and powers of literals go through power().  A
    power whose degree would pass the expected degree (MAX_DEGREE when
    none is given), a term or product past MAX_DEGREE, or a constant
    power over Q larger than _MAX_POWER_BITS, is refused before it is
    expanded, as is a product past MAX_PARSE_PRODUCTS on the budget one
    file's expressions share; parentheses nested deeper than
    MAX_PAREN_DEPTH are refused.
    """

    def __init__(self, toks: list[str], field: Field, n: int, degree: int | None = None,
                 budget: ParseBudget | None = None):
        self.toks = toks + [None]
        self.i = 0
        self.field = field
        self.p = field.p
        self.n = n
        self.degree = degree
        self.shift = WIDTH * (n + 1)  # packed monomials keep the degree above this
        self.limit = (MAX_DEGREE + 1) << self.shift  # the least packed degree refused
        self.variables: dict[str, Monomial] = {}  # variable token -> packed unit
        self.depth = 0  # open parentheses
        self.budget = budget or ParseBudget()

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        if t is not None:
            self.i += 1
        return t

    def expr(self) -> dict:
        toks, p, coerce = self.toks, self.p, self.field.coerce
        neg = False
        if toks[self.i] in ("+", "-"):
            neg = self.take() == "-"
        acc = self.term(neg)
        get = acc.get
        while (op := toks[self.i]) in ("+", "-"):
            self.i += 1
            for m, c in self.term(op == "-").items():
                v = get(m)
                if v is None:
                    acc[m] = c
                    continue
                v += c
                v = v % p if p else coerce(v)  # 1/2 + 1/2 is the int 1
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return acc

    def term(self, neg: bool) -> dict:
        """The next term, negated when neg: the sign goes into its numerator."""
        toks, p, variables = self.toks, self.p, self.variables
        mono = CONSTANT_MONOMIAL
        num, den = -1 if neg else 1, 1
        rest = None  # product of the factors that went through power()
        i = self.i
        while True:
            t = toks[i]
            u = variables.get(t)
            if u is None and t is not None and t[0] == "x":
                u = self._variable(t)
            if u is not None:
                if toks[i + 1] == "^":
                    # each power is at most MAX_DEGREE, so one step cannot carry
                    mono += self._exponent(toks[i + 2], 1) * u
                    if mono >= self.limit:
                        raise ParseError(_PAST_MAX_DEGREE)
                    i += 3
                else:
                    mono += u
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
        out = {mono: c}
        return out if rest is None else self._mul(out, rest)

    def power(self) -> dict:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.i += 1
        top = max(base, default=0) >> self.shift
        e = self._exponent(self.take(), top)
        p = self.p
        if not top and not p:
            den, num = self.field.integral(base)
            bits = max((max(abs(c).bit_length(), den.bit_length()) - 1
                        for c in num.values()), default=0)
            if bits * e > _MAX_POWER_BITS:
                raise ParseError(f"constant power with exponent {e} is too large")
        if len(base) == 1:
            (m, c), = base.items()
            v = pow(c, e, p) if p else c ** e
            return {m * e: v} if v else {}
        out = {CONSTANT_MONOMIAL: 1}
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
            return {CONSTANT_MONOMIAL: v} if v else {}
        raise ParseError(f"unexpected token {t!r}")

    def _variable(self, t: str) -> Monomial:
        """The packed unit of variable token t, remembered for this parse."""
        i = int(t[1:])
        if i > self.n:
            raise ParseError(f"variable {t} out of range for P^{self.n}")
        u = self.variables[t] = _unit(self.n, i)
        return u

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
        p = self.p
        if den == 1:
            return num % p if p else num
        return self.field.reduce({0: num}, den).get(0, 0)

    def _exponent(self, e: str | None, top: int) -> int:
        """Exponent token e after a '^' whose base has top degree top."""
        if e is None or not e.isdigit():
            raise ParseError("exponent must be a nonnegative integer")
        e = int(e)
        if top and self.degree is not None and top * e > self.degree:
            raise ParseError(
                f"exponent {e} gives degree {top * e}, past the expected {self.degree}")
        if top * e > MAX_DEGREE:
            raise ParseError(f"exponent {e} gives degree {top * e}, past the largest "
                             f"degree {MAX_DEGREE}")
        return e

    def _mul(self, a: dict, b: dict) -> dict:
        """The product with its zero terms dropped, refused before it is
        expanded if the budget's term products would pass
        MAX_PARSE_PRODUCTS or its degree would pass MAX_DEGREE."""
        self.budget.products += len(a) * len(b)
        if self.budget.products > MAX_PARSE_PRODUCTS:
            raise ParseError(f"input needs more than {MAX_PARSE_PRODUCTS} term products")
        if a and b and max(a) + max(b) >= self.limit:
            raise ParseError(_PAST_MAX_DEGREE)
        out: dict = {}
        mul_into(out, a, b, 1)
        return self.field.reduce(out)


def parse_poly(src: str, field: Field, n: int, degree: int | None = None,
               budget: ParseBudget | None = None) -> HomogPoly:
    """Parse a homogeneous form; degree, when given, pins the zero form too.

    A degree past MAX_DEGREE is refused.
    """
    if degree is not None and degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} is past the largest degree {MAX_DEGREE}")
    parser = _PolyParser(_tokenize(src), field, n, degree, budget)
    raw = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input near token {parser.peek()!r}")
    if not raw:
        return HomogPoly.zero(field, n, 0 if degree is None else degree)
    shift = parser.shift
    d = max(raw) >> shift
    if min(raw) >> shift != d:
        degrees = sorted({m >> shift for m in raw})
        raise ParseError(f"expression {src!r} is not homogeneous (degrees {degrees})")
    if degree is not None and d != degree:
        raise ParseError(f"expected degree {degree}, got {d} in {src!r}")
    if d > MAX_DEGREE:
        raise ParseError(_PAST_MAX_DEGREE)
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
                if p.field is not field or p.n != source.n:
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

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    # The twists fix every entry's field, n and degree, so two matrices with
    # the same field, source and target are equal when their coefficient
    # dicts are; zero forms of any recorded degree then compare and hash
    # alike.  The hash reads each entry's set of (monomial, raw value) pairs.

    def _term_dicts(self) -> list[dict]:
        return [p.coeffs for row in self.entries for p in row]

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and other.field == self.field
            and other.source == self.source
            and other.target == self.target
            and other._term_dicts() == self._term_dicts()
        )

    def __hash__(self):
        return hash((self.field, self.source, self.target,
                     tuple(frozenset(d.items()) for d in self._term_dicts())))

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
    raw_a = [[field.integral(q.coeffs) for q in row] for row in a.entries]
    raw_b = [[field.integral(q.coeffs) for q in row] for row in b.entries]
    cols_b = [[row[j] for row in raw_b] for j in range(b.cols)]
    ent = []
    for f, row_a in zip(a.target.twists, raw_a):
        row = []
        for e, col_b in zip(b.source.twists, cols_b):
            pairs = [(x, y) for x, y in zip(row_a, col_b) if x[1] and y[1]]
            den = lcm(*(dx * dy for (dx, _), (dy, _) in pairs))
            num: dict[Monomial, int] = {}
            for (dx, x), (dy, y) in pairs:
                mul_into(num, x, y, den // (dx * dy))
            row.append(HomogPoly._unchecked(field, n, f - e, field.reduce(num, den)))
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
            terms = m.entries[i][j].coeffs.items()
            if not terms:
                continue
            index = monomial_index(n, t + m.target.twists[i])
            off = tgt_off[i]
            for col, u in enumerate(src_monos, src_off[j]):
                for v, coef in terms:
                    row_maps[off + index[u + v]][col] = coef
    return Matrix(m.field, rows, cols, row_maps)


def random_poly(field: Field, n: int, degree: int, rng: Random,
                density: float = 1.0) -> HomogPoly:
    """A random form; each monomial appears with the given density, with a
    raw coefficient rng.randrange(p) over F_p or rng.randint(-9, 9) over Q."""
    if degree < 0:
        return HomogPoly.zero(field, n, degree)
    prime = field.p
    terms = {}
    for m in monomials_of_degree(n, degree):
        if density < 1.0 and rng.random() >= density:
            continue
        if c := rng.randrange(prime) if prime else rng.randint(-9, 9):
            terms[m] = c
    return HomogPoly._unchecked(field, n, degree, terms)

