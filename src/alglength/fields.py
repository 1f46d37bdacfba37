"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Every dimension decision in this package hinges on exact zero tests, so no
floating point is used anywhere.  Scalars are plain Python values kept in
canonical form:

* rationals are ``fractions.Fraction`` (auto-reduced, positive denominator),
* GF(p) residues are ints in ``[0, p)``.

A :class:`Field` object supplies the operations that depend on the field
(inversion, parsing, canonical reduction); addition and multiplication of
in-field values use the native ``+``/``*`` operators, reducing with the
field's ``coerce`` at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Union

from .errors import BadScalar, BudgetExceeded, DivisionByZero, FieldMismatch, RangeError

Scalar = Union[Fraction, int]

_SCALAR_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")
# Largest GF(p) modulus accepted: is_prime is trial division, O(sqrt(p)) steps.
MAX_MODULUS = 1 << 31


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


def _split_literal(token: str) -> tuple[int, int]:
    """Parse a scalar literal into (numerator, denominator), canonical only."""
    m = _SCALAR_RE.match(token.strip())
    if not m:
        raise BadScalar(f"malformed scalar {token!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # more digits than int() converts
        raise BadScalar(f"scalar literal of {len(token)} characters is too long") from None
    if den == 0:
        raise BadScalar(f"zero denominator in {token!r}")
    if gcd(abs(num), den) != 1:
        raise BadScalar(f"fraction {token!r} is not in lowest terms")
    return num, den


class Field:
    """What the two fields share: a field is its type and its modulus.

    A subclass supplies the class attributes ``zero`` and ``one`` and four
    operations: ``coerce(x)`` brings a Python number into the field or
    raises FieldMismatch, ``inv(a)`` inverts or raises DivisionByZero,
    ``parse(token)`` reads a scalar literal (``-?[0-9]+(/[0-9]+)?``), and
    ``descriptor()`` names the field as the file format's field line does.
    """

    modulus: int | None = None  # p for GF(p)

    def __eq__(self, other):
        return type(other) is type(self) and other.modulus == self.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<field {self.descriptor()}>"


class RationalField(Field):
    """The field of arbitrary-precision rationals."""

    zero, one = Fraction(0), Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise FieldMismatch(f"cannot interpret {x!r} as a rational scalar")

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in the rational field")
        return 1 / self.coerce(a)

    def parse(self, token: str) -> Fraction:
        num, den = _split_literal(token)
        return Fraction(num, den)

    def descriptor(self) -> str:
        return "rational"


class PrimeField(Field):
    """GF(p) with residues stored as ints in [0, p)."""

    zero, one = 0, 1

    def __init__(self, p: int):
        if type(p) is not int:
            raise RangeError(f"modulus must be an int, got {p!r}")
        if p > MAX_MODULUS:
            raise BudgetExceeded(f"a {p.bit_length()}-bit modulus exceeds the limit {MAX_MODULUS}")
        if not is_prime(p):
            raise RangeError(f"modulus {p} is not prime")
        self.modulus = p

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.modulus
        p = self.modulus
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise FieldMismatch(f"{x} has no image in GF({p}) (denominator divisible by p)")
            return x.numerator * self.inv(x.denominator) % p
        raise FieldMismatch(f"cannot interpret {x!r} as a GF({p}) scalar")

    def inv(self, a: int) -> int:
        p = self.modulus
        a %= p
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({p})")
        return pow(a, -1, p)

    def parse(self, token: str) -> int:
        num, den = _split_literal(token)
        p = self.modulus
        if den % p == 0:
            raise BadScalar(f"denominator of {token!r} is 0 mod {p}")
        if den == 1:
            return num % p
        return num * self.inv(den) % p

    def descriptor(self) -> str:
        return f"prime {self.modulus}"


QQ = RationalField()


def require_field(field) -> None:
    """Raise FieldMismatch unless ``field`` is a :class:`Field`."""
    if not isinstance(field, Field):
        raise FieldMismatch(f"coefficient field must be QQ or GF(p), got a {type(field).__name__}")


def GF(p: int) -> PrimeField:
    """GF(p), one cached instance per p.  A p that is not an int, which the
    cache might not even hash, goes to :class:`PrimeField` to be refused."""
    return _prime_field(p) if type(p) is int else PrimeField(p)


@lru_cache(maxsize=None)
def _prime_field(p: int) -> PrimeField:
    return PrimeField(p)
