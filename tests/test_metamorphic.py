"""Metamorphic cross-checks, with inputs drawn by hypothesis (derandomized)."""

from hypothesis import given, settings, strategies as st

from alglength import GF, QQ, Algebra, compute_length, dims_from_charseq


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
    n, products, gens = table
    over_q = compute_length(Algebra.from_products(QQ, n, products), gens)
    over_p = compute_length(Algebra.from_products(GF(p), n, products), gens)
    kmax = 2 * max(over_q.charseq[-1], over_p.charseq[-1]) + 1
    dims_q = dims_from_charseq(over_q.charseq, kmax)
    dims_p = dims_from_charseq(over_p.charseq, kmax)
    assert all(a <= b for a, b in zip(dims_p, dims_q)), (dims_p, dims_q)
