"""Exact scalars: the rationals and prime fields F_p.

Matrices and forms hold scalars as raw values.  Over F_p a raw value is
a residue in [0, p).  Over Q it is canonical in one way: a plain int
when its denominator is 1, and a reduced Fraction with denominator > 1
otherwise; a Fraction with denominator 1 is never stored.  Ints and
Fractions compare, hash and print alike, so the format shows in speed
only: integer entries, the common case, run on machine-speed ints.

The fields own that format, and no other module tests a field's type,
builds a Fraction, reads a numerator or a denominator, or inverts a
residue: they give p (the modulus, 0 over Q), coerce (an int or raw
value to canonical form), inv, integral (raw values to integer
numerators over a common denominator) and reduce (values divided by any
nonzero raw value, back to nonzero canonical raw values), so every
quotient, in elimination and in the parser alike, is taken here.
integral returns its argument itself when it is integral already (over
F_p always, over Q when every value is an int), so callers must not
mutate what it returns.  FieldElement is only the record that
Matrix.data yields: a raw value next to its field, with no arithmetic.

Fields are interned: QQ is the one RationalField, and GF(p) returns the
one PrimeField of each modulus, so fields compare and hash by identity
and define no __eq__ or __hash__.  A copied or unpickled field is the
interned one too, so forms, matrices and monads copy and pickle.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter


_denominator = attrgetter("denominator")  # 1 for an int


class FieldError(ValueError):
    """A bad modulus, or a value that is not a scalar of the field."""


# Miller-Rabin with these bases is exact below 3,215,031,751 > 2^31.
_WITNESSES = (2, 3, 5, 7)


def _is_prime(p: int) -> bool:
    """Primality for 0 <= p < 2^31 by deterministic Miller-Rabin."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Base class for the two supported fields, Q and F_p.

    Arithmetic on raw values goes through integral and reduce: integral
    turns a dict of raw values into (den, numerators) with integer
    numerators (den is always 1 over F_p), the caller adds and
    multiplies plain ints, and reduce(values, den) turns the result
    back into a dict of the nonzero raw values values[k] / den.  den is
    any nonzero raw value, and the values may mix raw values with ints:
    elimination divides a row by its pivot, and the parser a literal's
    numerator by its denominator, through reduce.
    """

    p = 0  # the modulus over F_p, 0 over Q

    def coerce(self, value):
        raise NotImplementedError


class RationalField(Field):
    """The field Q; raw values are ints, or reduced Fractions with
    denominator > 1."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def coerce(self, value):
        if type(value) is int:
            return value
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, int):  # bool and other int subclasses
            return int(value)
        raise FieldError(f"cannot coerce {value!r} into Q")

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("division by zero in Q")
        return self.coerce(1 / Fraction(a))

    def integral(self, values: dict) -> tuple[int, dict]:
        """(den, numerators) with every numerators[k] / den == values[k].
        When every value is an int this is (1, values), the argument
        itself, which callers must not mutate."""
        den = lcm(*map(_denominator, values.values()))
        if den == 1:
            return 1, values
        return den, {k: v * den if type(v) is int else v.numerator * (den // v.denominator)
                     for k, v in values.items()}

    def reduce(self, values: dict, den=1) -> dict:
        if den == 1:
            # a Fraction among the values may have come to denominator 1
            # (1/2 * 2)
            return {k: v if type(v) is int or v.denominator != 1 else v.numerator
                    for k, v in values.items() if v}
        # exact for int and Fraction values and divisors alike; an exact
        # quotient comes back as an int
        return {k: Fraction(v, den) if v % den else v // den
                for k, v in values.items() if v}

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """F_p for a prime p < 2^31; raw values are residues in [0, p)."""

    _cache: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int):
        inst = cls._cache.get(p)
        if inst is None:
            # the size check comes first: _is_prime is exact only below 2^31
            if isinstance(p, int) and p >= 1 << 31:
                raise FieldError(f"modulus {p} exceeds 2^31")
            if not isinstance(p, int) or not _is_prime(p):
                raise FieldError(f"modulus {p!r} is not prime")
            inst = super().__new__(cls)
            inst.p = p
            cls._cache[p] = inst
        return inst

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        raise FieldError(f"cannot coerce {value!r} into F_{self.p}")

    def inv(self, a):
        # pow(a, -1, p) inverts by the extended Euclidean algorithm: about
        # six times faster than the Fermat power pow(a, p - 2, p) at p near
        # 2^31, and under half a microsecond either way at p = 101.  It
        # raises ValueError on a non-unit, so zero is refused here first.
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, -1, self.p)

    def integral(self, values: dict) -> tuple[int, dict]:
        """(1, values): residues are integers already.  The dict returned
        is the argument itself, which callers must not mutate."""
        return 1, values

    def reduce(self, values: dict, den=1) -> dict:
        """Residues of values / den, for any unit den."""
        p = self.p
        if den != 1:
            inv = pow(den, -1, p)
            return {k: r for k, v in values.items() if (r := v * inv % p)}
        return {k: r for k, v in values.items() if (r := v % p)}

    def __reduce__(self):
        # copy and pickle through GF, so a copy is the interned field
        return GF, (self.p,)

    def __repr__(self):
        return f"F{self.p}"


class FieldElement:
    """A raw value next to its field, as Matrix.data yields it."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field, self.value = field, value


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)

