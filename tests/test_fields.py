import random
from fractions import Fraction

import pytest

from alglength import (
    Algebra,
    GF,
    QQ,
    BadScalar,
    DivisionByZero,
    FieldMismatch,
    ParseError,
    PrimeField,
    RangeError,
    RationalField,
    parse_algebra,
    serialize_algebra,
)


def test_rational_addition_exact():
    assert QQ.coerce(Fraction(1, 2) + Fraction(1, 3)) == Fraction(5, 6)


def test_prime_multiplication():
    f5 = GF(5)
    assert f5.coerce(3 * 4) == 2


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        GF(7).inv(0)


def test_rational_canonical_form():
    x = QQ.parse("3")
    assert x == 3 and isinstance(x, Fraction)
    y = QQ.parse("-4/7")
    assert (y.numerator, y.denominator) == (-4, 7)


@pytest.mark.parametrize("token", ["2/4", "1/0", "--3", "a", "1.5", "3/-2", ""])
def test_bad_scalars_rejected(token):
    with pytest.raises(BadScalar):
        QQ.parse(token)


def test_prime_parse_reduces_and_inverts():
    f5 = GF(5)
    assert f5.parse("-1") == 4
    assert f5.parse("7") == 2
    assert f5.parse("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    with pytest.raises(BadScalar):
        f5.parse("1/5")


def test_coerce_field_mismatch():
    with pytest.raises(FieldMismatch):
        GF(2).coerce(Fraction(1, 2))
    with pytest.raises(FieldMismatch):
        QQ.coerce(1.5)
    assert GF(3).coerce(Fraction(1, 2)) == 2  # inv(2) = 2 mod 3


def test_non_prime_modulus_rejected():
    GF(3)  # cached, so GF(3.0) checks that the cache tells 3.0 from 3
    for bad in (0, 1, 4, 9, 15, 3.0, 7.0, "7", [7]):
        with pytest.raises(RangeError):
            GF(bad)


def test_field_axioms_random():
    rng = random.Random(11)
    for field, sample in (
        (QQ, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
        (GF(7), lambda: rng.randrange(7)),
    ):
        for _ in range(200):
            a, b, c = sample(), sample(), sample()
            norm = field.coerce
            assert norm(a + b) == norm(b + a)
            assert norm(a * b) == norm(b * a)
            assert norm(a * norm(b + c)) == norm(norm(a * b) + norm(a * c))
            assert norm(a + norm(-a)) == field.zero
            assert norm(a - b) == norm(a + norm(-b))
            if norm(a) == field.zero:
                continue
            assert norm(a * field.inv(a)) == field.one


def test_descriptor_round_trip():
    # the file format's field line is the descriptor
    for field in (QQ, GF(11)):
        text = serialize_algebra(Algebra.from_products(field, 1, {}))
        assert f"field {field.descriptor()}\n" in text
        assert parse_algebra(text).field == field
    with pytest.raises(ParseError):
        parse_algebra(text.replace(GF(11).descriptor(), "complex"))


def test_a_field_is_its_type_and_modulus():
    assert RationalField() == QQ and hash(RationalField()) == hash(QQ)
    assert PrimeField(7) == GF(7) and hash(PrimeField(7)) == hash(GF(7))
    assert QQ != GF(2)
    assert GF(2) != GF(3)
    assert type(QQ.zero) is type(QQ.one) is Fraction
    assert type(GF(5).zero) is type(GF(5).one) is int


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1])
def test_prime_parse_agrees_with_coerce(p):
    field = GF(p)
    rng = random.Random(p)
    for _ in range(300):
        num = rng.randint(-(10**12), 10**12)
        den = rng.choice((1, rng.randint(1, 10**12)))
        x = Fraction(num, den)
        if x.denominator % p == 0:
            continue
        token = str(x)
        assert field.parse(token) == field.coerce(x), token
    with pytest.raises(BadScalar):
        field.parse(f"1/{p}")
