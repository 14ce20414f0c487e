"""Closed-form cohomology of twisted forms, and Hilbert polynomials.

bott_h evaluates the classical Bott table for h^q(P^n, Omega^p(t)); the
test suite cross-validates it against a brute-force computation from
the exterior-power Euler resolution before anything else relies on it.

IntPoly is a univariate polynomial with exact rational coefficients,
integer valued on the integers; it carries Hilbert polynomials such as
3m+1 and is what euler_poly and interpolate return.  Its coefficients
are canonical raw values of QQ (ints where the denominator is 1), and
its one quotient, the 1/k! of binomial_poly, comes from QQ.inv.  It
prints through polymat.sum_str, the printer of forms.

An Euler polynomial depends on a complex's twist lists and their
positions only, never on its differentials, so euler_poly is cached on
those: every point of the 3m+1 space shares one entry, and its dual
another.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .polymat import sum_str
from .scalar import QQ


class IntPoly:
    """Polynomial in m over Q, coefficients stored lowest degree first
    as canonical raw values of QQ."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [QQ.coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls([])

    @classmethod
    def constant(cls, c) -> "IntPoly":
        return cls([c])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def scale(self, c) -> "IntPoly":
        return IntPoly([x * c for x in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, IntPoly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return sum_str((str(c), "" if k == 0 else "m" if k == 1 else f"m^{k}")
                       for k, c in reversed(tuple(enumerate(self.coeffs))) if c)

    __repr__ = __str__


# Largest k binomial_poly expands, so the largest projective dimension:
# 10 times the largest n any shipped computation uses (P^4).  Expanding
# costs about k^3 coefficient operations on numbers of about k log k bits.
MAX_DIMENSION = 40


def check_dimension(n: int):
    """Refuse a negative projective dimension or one above MAX_DIMENSION."""
    if n < 0:
        raise ValueError(f"dimension {n} is negative")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} is larger than {MAX_DIMENSION}")


@lru_cache(maxsize=1024)
def binomial_poly(shift: int, k: int) -> IntPoly:
    """C(m + shift, k) as a polynomial in m: (m+shift)...(m+shift-k+1)/k!.

    The polynomial extension is what makes evaluation at negative
    arguments meaningful.  A negative k, or k above MAX_DIMENSION, is
    refused before any work.  Results are cached: IntPoly is immutable,
    and one Euler polynomial or interpolation asks for the same few keys
    many times.
    """
    check_dimension(k)
    acc = IntPoly.constant(1)
    for j in range(k):
        acc = acc * IntPoly([shift - j, 1])
    return acc.scale(QQ.inv(factorial(k)))


def line_bundle_hilb(n: int, e: int) -> IntPoly:
    """Hilbert polynomial of O(e) on P^n: C(m + e + n, n)."""
    return binomial_poly(e + n, n)


def bott_h(n: int, p: int, q: int, t: int) -> int:
    """h^q(P^n, Omega^p(t)) by the Bott table.

    Nonzero only in three regimes: global sections for t > p, the
    one-dimensional diagonal h^p(Omega^p) at t = 0, and top cohomology
    for t < p - n.  A negative n, or n above MAX_DIMENSION, is refused
    before any work.
    """
    check_dimension(n)
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"(p, q) = ({p}, {q}) out of range for P^{n}")
    if q == 0 and t > p:
        return comb(t + n - p, t) * comb(t - 1, p)
    if q == p and t == 0:
        return 1
    if q == n and t < p - n:
        return comb(-t + p, -t) * comb(-t - 1, n - p)
    return 0


def euler_poly(monad) -> IntPoly:
    """Alternating sum sum_i (-1)^i P_{C^i} of the term Hilbert polynomials.

    For a complex exact away from position 0 this is the Hilbert
    polynomial of its cohomology sheaf.
    """
    return _euler_poly_of_terms(monad.n, tuple(sorted(monad.terms.items())))


@lru_cache(maxsize=256)
def _euler_poly_of_terms(n: int, terms: tuple) -> IntPoly:
    """euler_poly from (position, FreeSheaf) pairs; the positions stay in
    the key because the parity of each sets its sign."""
    acc = IntPoly.zero()
    for i, sheaf in terms:
        term = IntPoly.zero()
        for e in sheaf.twists:
            term = term + line_bundle_hilb(n, e)
        acc = acc + (term if i % 2 == 0 else -term)
    return acc


class InterpolationError(ValueError):
    """The sample window is not explained by a polynomial of the claimed degree."""


def interpolate(values, t0: int, degree_bound: int) -> IntPoly:
    """The unique polynomial of degree <= degree_bound through the samples.

    values are taken at consecutive integers t0, t0+1, ...; there must
    be at least degree_bound + 2 of them so that at least one excess
    finite difference certifies the degree claim.
    """
    vals = [QQ.coerce(v) for v in values]
    if len(vals) < degree_bound + 2:
        raise ValueError(
            f"need at least {degree_bound + 2} samples for degree bound {degree_bound}")
    table = [vals]
    while len(table) <= degree_bound:
        prev = table[-1]
        table.append([b - a for a, b in zip(prev, prev[1:])])
    check = table[-1]
    while len(check) > 1:
        check = [b - a for a, b in zip(check, check[1:])]
        if any(check):
            raise InterpolationError(
                f"not polynomial of claimed degree {degree_bound}")
    # Newton forward form: sum_k diff^k f(t0) * C(m - t0, k).
    acc = IntPoly.zero()
    for k in range(degree_bound + 1):
        acc = acc + binomial_poly(-t0, k).scale(table[k][0])
    return acc
