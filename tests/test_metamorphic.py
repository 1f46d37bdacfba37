"""Metamorphic cross-checks, with inputs drawn by hypothesis (derandomized)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from alglength import GF, QQ, Algebra, compute_length, dims_from_charseq, make_example


@st.composite
def integer_tables(draw):
    """(n, products, gens): a random integer table and generating set."""
    n = draw(st.integers(2, 6))
    entry = st.integers(-3, 3)
    vector = st.lists(entry, min_size=n, max_size=n)
    pair = st.tuples(st.integers(1, n - 1), st.integers(1, n - 1))
    products = draw(st.dictionaries(pair, vector, max_size=(n - 1) ** 2))
    gens = draw(st.lists(vector, min_size=1, max_size=3))
    return n, products, gens


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(integer_tables(), st.sampled_from((2, 3, 5, 7)))
def test_dims_over_gf_p_are_at_most_dims_over_q(table, p):
    # Words over GF(p) are the reductions mod p of the integer words, and
    # reduction mod p cannot raise the rank of a set of integer vectors.
    _assert_dims_over_gf_p_are_at_most_dims_over_q(*table, p)


def _assert_dims_over_gf_p_are_at_most_dims_over_q(n, products, gens, p):
    over_q = compute_length(Algebra.from_products(QQ, n, products), gens)
    over_p = compute_length(Algebra.from_products(GF(p), n, products), gens)
    kmax = 2 * max(over_q.charseq[-1], over_p.charseq[-1]) + 1
    dims_q = dims_from_charseq(over_q.charseq, kmax)
    dims_p = dims_from_charseq(over_p.charseq, kmax)
    assert all(a <= b for a, b in zip(dims_p, dims_q)), (dims_p, dims_q)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.integers(8, 24),
    st.integers(0, 2**32 - 1),
    st.sampled_from((0.02, 0.05, 0.1, 0.4)),
    st.integers(1, 2),
    st.sampled_from((101, 10007)),
)
def test_packed_dims_over_gf_p_are_at_most_dims_over_q(n, seed, density, size, p):
    # The relation above where the GF(p) rows and products are packed
    # (n >= PACK_MIN_N).  Tables this large are drawn from a seeded random.
    rng = random.Random(seed)
    products = {
        (i, j): [rng.randint(-3, 3) for _ in range(n)]
        for i in range(1, n)
        for j in range(1, n)
        if rng.random() < density
    }
    gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(size)]
    _assert_dims_over_gf_p_are_at_most_dims_over_q(n, products, gens, p)


@pytest.mark.parametrize(
    "family, n",
    [(family, n) for family in ("power2", "stall-chain", "fib-lc", "lc-gap-family")
     for n in (20, 60)] + [("fib-lc", 200), ("lc-gap-family", 200)],
)
def test_families_have_one_sequence_over_every_field(family, n):
    # The family tables hold 0 and +-1 only, so every word is 0 or +- a
    # basis vector on every field: the integer reduce over Q and the packed
    # one over GF(p) must agree.  The fib-lc and lc-gap-family tables are
    # locally complex over Q only, so there the strict-pair run meets the
    # all-pairs runs.
    charseqs = {
        compute_length(*make_example(family, n, field)).charseq
        for field in (QQ, GF(3), GF(101), GF(10007))
    }
    assert len(charseqs) == 1


@st.composite
def unit_fixing_bases(draw, n, p):
    """An n x n integer matrix P = L U, invertible over Q and GF(p), with P e_0 = e_0.

    L is unit lower triangular with first column e_0.  U is upper triangular
    with first column e_0 and other diagonal entries nonzero mod p, so det P
    is a unit mod p.  Column i is the new basis vector P e_i, which may have
    a unit component.
    """
    entry = st.integers(-2, 2)
    diagonal = st.sampled_from([d for d in (1, -1, 2, -2, 3) if p is None or d % p])
    lower = [[draw(entry) if 0 < j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[draw(entry) if i < j else 0 for j in range(n)] for i in range(n)]
    upper[0][0] = 1
    for i in range(1, n):
        upper[i][i] = draw(diagonal)
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _inverse(matrix):
    """The inverse of an invertible square matrix over Q, by Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [
        [Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for c in range(n):
        r = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[r] = rows[r], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data(), integer_tables(), st.sampled_from((None, 2, 3, 5, 7)))
def test_a_change_of_basis_that_fixes_the_unit_keeps_the_sequence(data, table, p):
    # In the basis f_i = P e_i, f_i * f_j has coordinates P^-1 (f_i * f_j)
    # and s in S has P^-1 s.  Over GF(p) these are the reductions of the
    # rational ones, whose denominators divide det P, a unit mod p.
    n, products, gens = table
    matrix = data.draw(unit_fixing_bases(n, p))
    inverse = _inverse(matrix)

    def coordinates(v):
        return [sum(a * x for a, x in zip(row, v)) for row in inverse]

    over_q = Algebra.from_products(QQ, n, products)
    basis = [tuple(Fraction(row[i]) for row in matrix) for i in range(n)]
    new_products = {
        (i, j): coordinates(over_q.multiply(basis[i], basis[j]))
        for i in range(1, n)
        for j in range(1, n)
    }
    field = QQ if p is None else GF(p)
    old = compute_length(Algebra.from_products(field, n, products), gens)
    new = compute_length(
        Algebra.from_products(field, n, new_products), [coordinates(s) for s in gens]
    )
    assert new.charseq == old.charseq
