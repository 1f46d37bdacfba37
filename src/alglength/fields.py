"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Every dimension decision in this package hinges on exact zero tests, so no
floating point is used anywhere.  Scalars are plain Python values kept in
canonical form:

* rationals are ``fractions.Fraction`` (auto-reduced, positive denominator),
* GF(p) residues are ints in ``[0, p)``.

A :class:`Field` object supplies the operations that depend on the field
(inversion, parsing, canonical reduction); addition and multiplication of
in-field values use the native ``+``/``*`` operators, reducing with
:meth:`Field.coerce` at the end.
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
    """Common interface of the two concrete fields."""

    modulus: int | None  # None for the rationals, p for GF(p)

    @property
    def zero(self) -> Scalar:
        raise NotImplementedError

    @property
    def one(self) -> Scalar:
        raise NotImplementedError

    def coerce(self, x) -> Scalar:
        """Bring a Python number into this field, or raise FieldMismatch."""
        raise NotImplementedError

    def inv(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def parse(self, token: str) -> Scalar:
        """Parse a scalar literal (``-?[0-9]+(/[0-9]+)?``) into this field."""
        raise NotImplementedError

    def format(self, x: Scalar) -> str:
        return str(x)

    def descriptor(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<field {self.descriptor()}>"


class RationalField(Field):
    """The field of arbitrary-precision rationals."""

    modulus = None

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

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

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class PrimeField(Field):
    """GF(p) with residues stored as ints in [0, p)."""

    def __init__(self, p: int):
        if p > MAX_MODULUS:
            raise BudgetExceeded(
                f"a {p.bit_length()}-bit modulus exceeds the limit {MAX_MODULUS}", count=None
            )
        if not is_prime(p):
            raise RangeError(f"modulus {p} is not prime")
        self.p = p
        self.modulus = p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1 % self.p

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldMismatch(
                    f"{x} has no image in GF({self.p}) (denominator divisible by p)"
                )
            return (x.numerator * self.inv(x.denominator % self.p)) % self.p
        raise FieldMismatch(f"cannot interpret {x!r} as a GF({self.p}) scalar")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.p})")
        return pow(a, -1, self.p)

    def parse(self, token: str) -> int:
        num, den = _split_literal(token)
        if den % self.p == 0:
            raise BadScalar(f"denominator of {token!r} is 0 mod {self.p}")
        val = num % self.p
        if den != 1:
            val = (val * self.inv(den % self.p)) % self.p
        return val

    def descriptor(self) -> str:
        return f"prime {self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)
