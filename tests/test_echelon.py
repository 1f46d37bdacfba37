import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from alglength import (
    FieldMismatch,
    GF,
    QQ,
    ShapeError,
)

from alglength.algebra import PACK_MIN_N, pack_slots, slot_limbs
from alglength.echelon import EchelonSubspace
from alglength.fields import is_prime

from helpers import random_vector, reduced_span


def test_insert_into_empty_then_multiple():
    space = EchelonSubspace(QQ, 3)
    space, row = space.insert((1, 0, 0))
    assert row is not None and space.dim == 1
    space, row = space.insert((2, 0, 0))
    assert row is None and space.dim == 1


def test_gf2_dependent_triple():
    # Brute-force oracle: check every GF(2) combination of the first two
    # vectors; the third must be one of them, so it cannot grow the span.
    v1, v2, v3 = (1, 1, 0), (0, 1, 1), (1, 0, 1)
    combos = {
        tuple((a * x + b * y) % 2 for x, y in zip(v1, v2))
        for a, b in itertools.product(range(2), repeat=2)
    }
    assert v3 in combos

    space = EchelonSubspace(GF(2), 3)
    space, row = space.insert(v1)
    assert row is not None
    space, row = space.insert(v2)
    assert row is not None
    space, row = space.insert(v3)
    assert row is None and space.dim == 2


def random_rational_vector(rng, n):
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))


def random_integer_vector(rng, n):
    """A vector over Q as the engine holds one: ints, since coerce_genset
    clears the denominators of generators."""
    return tuple(rng.randint(-12, 12) for _ in range(n))


def integral(v):
    """``v`` times the lcm of its denominators: the int vector on its line."""
    d = lcm(*(Fraction(x).denominator for x in v))
    return tuple(int(x * d) for x in v)


def test_contains():
    # Membership is a zero residue.
    space, _ = EchelonSubspace(QQ, 3).insert((1, 1, 0))
    assert not any(space.reduce((3, 3, 0)))
    assert any(space.reduce((0, 0, 1)))
    assert not any(space.reduce((0, 0, 0)))


def test_shape_error():
    space = EchelonSubspace(QQ, 3)
    with pytest.raises(ShapeError):
        space.insert((1, 0))
    for field, ambient in ((QQ, -1), (QQ, 2.0), (GF(7), 8.0), (QQ, True)):
        with pytest.raises(ShapeError):
            EchelonSubspace(field, ambient)
    assert EchelonSubspace(GF(7), 0).dim == 0


def test_a_field_that_is_not_a_field_is_refused():
    for field in ("x", 7, None):
        with pytest.raises(FieldMismatch):
            EchelonSubspace(field, 3)


def test_idempotent_insert_bitwise_identical():
    rng = random.Random(5)
    space = EchelonSubspace(GF(3), 4)
    vectors = [random_vector(rng, 4, 3) for _ in range(6)]
    for v in vectors:
        space, _ = space.insert(v)
    for v in vectors:
        again, row = space.insert(v)
        assert row is None
        assert again.rows == space.rows and again.pivots == space.pivots


def test_span_is_order_independent():
    rng = random.Random(17)
    for p in (2, 3):
        for _ in range(30):
            n = rng.randint(2, 5)
            vectors = [random_vector(rng, n, p) for _ in range(rng.randint(1, 6))]
            reference = reduced_span(GF(p), n, vectors)
            for _ in range(4):
                shuffled = vectors[:]
                rng.shuffle(shuffled)
                assert reduced_span(GF(p), n, shuffled).rows == reference.rows


def test_rational_order_independence():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 4)
        vectors = [random_rational_vector(rng, n) for _ in range(rng.randint(1, 5))]
        reference = reduced_span(QQ, n, vectors)
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert reduced_span(QQ, n, shuffled).rows == reference.rows


def test_dim_counts_successful_inserts():
    rng = random.Random(31)
    space = EchelonSubspace(GF(2), 6)
    grew_count = 0
    for _ in range(40):
        space, row = space.insert(random_vector(rng, 6, 2))
        grew_count += row is not None
        assert space.dim == grew_count
        assert space.dim <= 6
    assert space.dim == 6  # 40 random GF(2) vectors saturate w.h.p.


def test_contains_iff_insert_does_not_grow():
    rng = random.Random(41)
    space = EchelonSubspace(GF(3), 4)
    for v in [random_vector(rng, 4, 3) for _ in range(8)]:
        contained = not any(space.reduce(v))
        space2, row = space.insert(v)
        assert contained == (row is None)
        space = space2


def test_rows_are_reduced_echelon():
    rng = random.Random(59)
    space = reduced_span(GF(5), 5, [random_vector(rng, 5, 5) for _ in range(8)])
    assert list(space.pivots) == sorted(space.pivots)
    for i, (row, piv) in enumerate(zip(space.rows, space.pivots)):
        assert row[piv] == 1
        for j, other in enumerate(space.rows):
            if i != j:
                assert other[piv] == 0


def seeded_inserts():
    """(field, vectors) cases over GF(2), GF(3), GF(5) and Q."""
    rng = random.Random(61)
    for p in (2, 3, 5, None):
        for _ in range(15):
            n = rng.randint(1, 6)
            count = rng.randint(1, 8)
            if p is None:
                yield QQ, [random_integer_vector(rng, n) for _ in range(count)]
            else:
                yield GF(p), [random_vector(rng, n, p) for _ in range(count)]


def test_insert_is_plain_echelon_and_keeps_older_rows():
    for field, vectors in seeded_inserts():
        space = EchelonSubspace(field, len(vectors[0]))
        added = []  # (row, pivot) in insertion order
        for v in vectors:
            grown, row = space.insert(v)
            if row is None:
                assert grown is space
                continue
            # Older rows are untouched: the new row is appended.
            assert grown.rows == space.rows + (row,)
            pivot = grown.pivots[-1]
            assert grown.pivots[:-1] == space.pivots
            added.append((row, pivot))
            if field.modulus is None:
                # Over Q the row is a primitive integer vector with a
                # positive pivot; divided by its pivot it is the residue.
                assert all(type(x) is int for x in row)
                assert gcd(*row) == 1 and row[pivot] > 0
                row = tuple(Fraction(x, row[pivot]) for x in row)
            assert not any(row[:pivot]) and row[pivot] == 1
            assert all(row[p] == 0 for _, p in added[:-1])
            space = grown
        assert added == list(zip(space.rows, space.pivots))


def test_span_matches_reduced_reference():
    # The rows differ from the reduced ones, the span does not: every
    # reference row reduces to 0, and the dims agree, in any insertion order.
    rng = random.Random(67)
    for field, vectors in seeded_inserts():
        reference = reduced_span(field, len(vectors[0]), vectors)
        for _ in range(3):
            rng.shuffle(vectors)
            space = EchelonSubspace(field, len(vectors[0]))
            for v in vectors:
                space, _ = space.insert(v)
            assert space.dim == reference.dim
            assert not any(any(space.reduce(integral(r))) for r in reference.rows)



def test_prime_reduce_takes_any_congruent_ints():
    # The engine's products are only congruent to residues; reduce(v) depends
    # on v mod p alone, with negative entries and entries >= p alike.
    rng = random.Random(71)
    for p in (2, 3, 101, 2**31 - 1):
        field = GF(p)
        for _ in range(25):
            n = rng.randint(1, 8)
            space = EchelonSubspace(field, n)
            for _ in range(rng.randint(0, n)):
                space, _ = space.insert(random_vector(rng, n, p))
            v = random_vector(rng, n, p)
            shifted = [x + p * rng.randint(-p, p) for x in v]
            assert space.reduce(shifted) == space.reduce(v)
            assert all(0 <= x < p for x in space.reduce(shifted))
            assert space.insert(shifted)[1] == space.insert(v)[1]


def test_rational_rows_are_the_reference_residues():
    # The fraction-free residue divided by its pivot is the residue of plain
    # elimination on field scalars, which is unique for the span.
    for field, vectors in seeded_inserts():
        if field.modulus is not None:
            continue
        space = EchelonSubspace(field, len(vectors[0]))
        reference = reduced_span(field, len(vectors[0]), [])
        for v in vectors:
            space, row = space.insert(v)
            residue = reference.reduce(v)
            reference = reduced_span(field, len(v), reference.rows + (v,))
            if row is None:
                assert not any(residue)
                continue
            pivot = next(j for j, x in enumerate(row) if x)
            assert residue[pivot] != 0
            assert [Fraction(x, row[pivot]) for x in row] == [
                x / residue[pivot] for x in residue
            ]


def test_prime_field_rows_are_the_reference_residues_over_their_leads():
    # Over GF(p) the residue modulo 1-at-the-pivot rows is the residue of
    # plain elimination, so the added row is it times the inverse of its
    # lead: stored as it is where the lead is 1 (always over GF(2)), scaled
    # where it is not.  n runs on both sides of PACK_MIN_N.
    rng = random.Random(67)
    for p in (2, 3, 5, 101):
        field = GF(p)
        leads = set()
        for n in (3, PACK_MIN_N - 1, PACK_MIN_N, PACK_MIN_N + 3):
            for _ in range(4):
                space = EchelonSubspace(field, n)
                reference = reduced_span(field, n, [])
                for _ in range(n + 2):
                    v = random_vector(rng, n, p)
                    space, row = space.insert(v)
                    residue = reference.reduce(v)
                    reference = reduced_span(field, n, reference.rows + (v,))
                    if row is None:
                        assert not any(residue)
                        continue
                    lead = next(x for x in residue if x)
                    leads.add(lead == 1)
                    lead_inv = pow(lead, -1, p)
                    assert row == tuple(x * lead_inv % p for x in residue)
        assert leads == ({True} if p == 2 else {True, False}), p


def test_packed_reduce_at_the_slot_bound():
    # The largest prime whose slots take one limb at n = 8, so the slots are
    # nearly full.  The input's slots reach a product's bound (n-1)^2 (p-1)^3,
    # and each row op adds (p-1)^2, the most it can: the rows are p - 1 right
    # of their pivots and every pivot slot is 1 mod p when its row comes.
    # No slot may carry into the next.
    n = 8
    p = next(q for q in range(1 << 20, 0, -1) if slot_limbs(n, q) == 1 and is_prime(q))
    top = (n - 1) ** 2 * (p - 1) ** 3
    rows = tuple((0,) * t + (1,) + (p - 1,) * (n - 1 - t) for t in range(n - 1))
    space = EchelonSubspace(GF(p), n)
    for row in rows:  # each is 0 at the older pivots and 1 at its own: stored as it is
        space, added = space.insert(row)
        assert added == row
    slots = [top - (top - (1 - t)) % p for t in range(n)]
    assert 2**63 <= top and slots[-1] + (n - 1) * (p - 1) ** 2 < 2**64
    expected = reduced_span(GF(p), n, rows).reduce(slots)
    assert space.reduce(pack_slots(slots, 1)) == space.reduce(slots) == expected
    assert expected[:-1] == [0] * (n - 1) and expected[-1]
