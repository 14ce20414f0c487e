"""Exact scalars: the rationals and prime fields F_p.

Every value is a FieldElement tagged with its field; elements of
different fields never combine.  Rationals are arbitrary precision and
always stored reduced (via fractions.Fraction), prime-field residues are
canonical representatives in [0, p).
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    """Mixing fields, bad modulus, or a malformed scalar literal."""


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

    Subclasses implement arithmetic on raw values (Fraction for Q, int
    residue for F_p); FieldElement wraps a raw value together with its
    field.  The raw layer exists so that the elimination kernels can
    work on unboxed values.
    """

    def element(self, value) -> "FieldElement":
        return FieldElement(self, self.coerce(value))

    def coerce(self, value):
        raise NotImplementedError

    def parse(self, text: str) -> "FieldElement":
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
            return self.element(n) / self.element(int(den))
        return self.element(n)

    @property
    def zero(self) -> "FieldElement":
        return self._zero

    @property
    def one(self) -> "FieldElement":
        return self._one


class RationalField(Field):
    """The field Q; raw values are reduced Fractions."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __init__(self):
        if not hasattr(self, "_zero"):
            self._zero = FieldElement(self, Fraction(0))
            self._one = FieldElement(self, Fraction(1))

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise FieldError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


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
            inst._zero = FieldElement(inst, 0)
            inst._one = FieldElement(inst, 1 % p)
            cls._cache[p] = inst
        return inst

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        raise FieldError(f"cannot coerce {value!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __repr__(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


class FieldElement:
    """An immutable scalar: a raw value together with its field."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {other!r}")
        if other.field != self.field:
            raise FieldError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.add(self.value, other.value))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.sub(self.value, other.value))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.mul(self.value, other.value))

    def __truediv__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.div(self.value, other.value))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return f"{self.value!s}"

    def __str__(self):
        return str(self.value)


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)

