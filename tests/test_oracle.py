import random
import time

import pytest

from alglength import (
    Algebra,
    BruteForceResult,
    BudgetExceeded,
    GF,
    PrimeFieldRequired,
    QQ,
    RangeError,
    ShapeError,
    bracketed_word_count,
    brute_force_algebra_length,
    catalan,
    compute_length,
    dims_from_charseq,
    enumerate_words_spans,
    gaussian_binomial,
    make_example,
    subspace_count,
)
from alglength.oracle import PRODUCT_BUDGET, SUBSPACE_BUDGET, WORD_BUDGET, iter_rref_bases

from helpers import random_genset, random_unital_algebra, random_vector


def test_catalan_values():
    assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def _count_trees(k):
    """Independent oracle: count distinct bracketings of k leaves recursively."""
    if k == 1:
        return 1
    return sum(_count_trees(a) * _count_trees(k - a) for a in range(1, k))


def test_bracketed_word_count_against_recursive_oracle():
    for k in range(1, 7):
        for letters in (1, 2, 3):
            assert bracketed_word_count(letters, k) == _count_trees(k) * letters**k


def test_negative_indices_are_range_errors():
    algebra, gens = make_example("power2", 4)
    for call in (
        lambda: catalan(-1),
        lambda: bracketed_word_count(2, 0),
        lambda: enumerate_words_spans(algebra, gens, -1),
        lambda: enumerate_words_spans(algebra, gens, 2.0),
    ):
        with pytest.raises(RangeError):
            call()


def test_words_spans_power2():
    algebra, gens = make_example("power2", 4)
    assert enumerate_words_spans(algebra, gens, 4) == [1, 2, 3, 3, 4]


def test_words_spans_kmax_zero():
    algebra, gens = make_example("stall-chain", 2)
    assert enumerate_words_spans(algebra, gens, 0) == [1]


def test_words_spans_fib_lc():
    algebra, gens = make_example("fib-lc", 5)
    assert enumerate_words_spans(algebra, gens, 3) == [1, 3, 4, 5]
    terms = compute_length(algebra, gens).charseq
    assert dims_from_charseq(terms, 3) == [1, 3, 4, 5]


def test_words_budget_enforced():
    # The word count is the one limit: one generator runs up to kmax 13
    # (290,512 words) and four generators run at small kmax.
    algebra, gens = make_example("power2", 4)
    terms = compute_length(algebra, gens).charseq
    assert enumerate_words_spans(algebra, gens, 11) == dims_from_charseq(terms, 11)
    with pytest.raises(BudgetExceeded) as info:
        enumerate_words_spans(algebra, gens, 14)
    total = sum(bracketed_word_count(1, k) for k in range(1, 15))
    assert f"{total} candidate words of lengths 1..14 (kmax=14, 1 generators)" in str(info.value)
    four = tuple(algebra.basis_vector(i) for i in (1, 2, 3, 1))
    terms = compute_length(algebra, four).charseq
    assert enumerate_words_spans(algebra, four, 3) == dims_from_charseq(terms, 3)


def test_words_spans_one_generator_at_the_largest_kmax():
    # 290,512 words of lengths 1..13, but power2 has few distinct word
    # values, and the oracle spans value sets.
    algebra, gens = make_example("power2", 7)
    start = time.perf_counter()
    dims = enumerate_words_spans(algebra, gens, 13)
    assert time.perf_counter() - start < 1.0
    assert dims == dims_from_charseq(compute_length(algebra, gens).charseq, 13)


def test_words_budget_bounds_the_total_word_count():
    # kmax = 8 and |S| = 3 are each within their own limit, but together
    # they give sum_{k<=8} Catalan(k-1) * 3^k words.
    algebra, _ = make_example("lc-gap7")
    gens = tuple(algebra.basis_vector(i) for i in (1, 2, 3))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        enumerate_words_spans(algebra, gens, 8)
    assert time.perf_counter() - start < 0.5
    assert 3_137_844 > WORD_BUDGET
    assert "3137844 candidate words of lengths 1..8 (kmax=8," in str(info.value)


def test_words_budget_for_huge_kmax_is_immediate():
    algebra, gens = make_example("power2", 4)
    total = sum(bracketed_word_count(1, k) for k in range(1, 15))
    for kmax in (8000, 2**20):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as info:
            enumerate_words_spans(algebra, gens, kmax)
        assert time.perf_counter() - start < 0.5
        # refused at k = 14, the first k past the budget, not at kmax
        assert f"{total} candidate words of lengths 1..14 (kmax={kmax}," in str(info.value)


def test_oracle_agrees_with_engine_on_families():
    cases = [
        ("power2", 4, 5),
        ("power2", 5, 7),
        ("stall-chain", 2, 6),
        ("stall-chain", 3, 7),
        ("fib-lc", 4, 6),
        ("fib-lc", 5, 6),
        ("lc-gap7", None, 5),
        ("lc-gap-family", 3, 7),
    ]
    for family, n, kmax in cases:
        algebra, gens = make_example(family, n)
        if len(gens) > 2 and kmax > 5:
            kmax = 5
        terms = compute_length(algebra, gens).charseq
        assert enumerate_words_spans(algebra, gens, kmax) == dims_from_charseq(
            terms, kmax
        ), family


def test_oracle_agrees_with_engine_on_random_tables():
    rng = random.Random(211)
    for _ in range(20):
        algebra = random_unital_algebra(rng, rng.randint(2, 4), rng.choice((2, 3)))
        gens = random_genset(rng, algebra, max_size=2)
        terms = compute_length(algebra, gens).charseq
        assert enumerate_words_spans(algebra, gens, 7) == dims_from_charseq(terms, 7)


def _count_products(monkeypatch):
    """Patch ``Algebra._product``, the word oracle's product, to count calls."""
    calls = []
    product = Algebra._product

    def counting(self, u, v):
        calls.append(None)
        return product(self, u, v)

    monkeypatch.setattr(Algebra, "_product", counting)
    return calls


def test_the_word_oracle_stops_once_the_span_is_full(monkeypatch):
    # A dense GF(3) table on which one generator's span stays at dim
    # n - 1 = 4 through step 4 and fills at step 5: the words of length 5
    # are evaluated, and no longer word at any kmax up to the budget's 13.
    rng = random.Random(86)
    algebra = random_unital_algebra(rng, 5, 3)
    gens = (random_vector(rng, 5, 3, nonzero=True),)
    terms = compute_length(algebra, gens).charseq
    assert terms == (0, 1, 2, 3, 5)
    formed = _count_products(monkeypatch)
    counts = []
    for kmax in range(14):
        start = len(formed)
        assert enumerate_words_spans(algebra, gens, kmax) == dims_from_charseq(terms, kmax)
        counts.append(len(formed) - start)
    assert counts[4] < counts[5]
    assert counts[5:] == [counts[5]] * 9


def test_the_word_oracle_forms_no_product_on_the_dim_one_algebra(monkeypatch):
    algebra = Algebra.from_products(GF(3), 1, {})
    formed = _count_products(monkeypatch)
    for kmax in range(14):
        assert enumerate_words_spans(algebra, [(2,)], kmax) == [1] * (kmax + 1)
    assert not formed


def _closed_algebra(rng, field, n):
    """A dense table in which span(e_0, ..., e_(n-2)) is a subalgebra.

    Over GF(p) the block is dense.  Over Q it is graded, e_i e_j in
    span(e_k : max(i, j) < k < n - 1), so that words of height n - 2 vanish
    and the word values stay few up to the largest kmax.
    """
    p = field.modulus

    def entry():
        return rng.randrange(p) if p else rng.randint(-3, 3)

    products = {}
    for i in range(1, n):
        for j in range(1, n):
            if n - 1 in (i, j):
                products[i, j] = [entry() for _ in range(n)]
            else:
                low = 0 if p else max(i, j) + 1
                products[i, j] = [entry() if low <= k < n - 1 else 0 for k in range(n)]
    return Algebra.from_products(field, n, products)


@pytest.mark.parametrize(
    "field, n, size",
    [(GF(2), 5, 1), (GF(2), 6, 2), (GF(3), 5, 1), (GF(3), 6, 2), (QQ, 5, 1), (QQ, 6, 2)],
    ids=["GF2-1", "GF2-2", "GF3-1", "GF3-2", "Q-1", "Q-2"],
)
def test_the_word_oracle_matches_the_engine_on_closed_subalgebras(field, n, size):
    # Generators in span(e_1, ..., e_(n-2)), inside the closed block, never
    # generate: their span stays at dim n - 1, so the oracle runs to kmax,
    # the budget's largest for the generator count.
    rng = random.Random(1009 * n + size)
    algebra = _closed_algebra(rng, field, n)
    p = field.modulus or 7
    gens = [(0,) + random_vector(rng, n - 2, p, nonzero=True) + (0,) for _ in range(size)]
    report = compute_length(algebra, gens)
    assert report.dims[-1] == n - 1
    kmax = {1: 13, 2: 9}[size]
    assert enumerate_words_spans(algebra, gens, kmax) == dims_from_charseq(report.charseq, kmax)


def test_the_products_budget_refuses_a_large_field_at_once():
    # One generator inside a closed dim-29 block of a dim-30 GF(10007)
    # table: nearly every word value is distinct, so the products grow
    # about 3x per length and kmax 13 would take about a minute, though its
    # words are within WORD_BUDGET.  The memo stops at PRODUCT_BUDGET // 30^2.
    rng = random.Random(30)
    algebra = _closed_algebra(rng, GF(10007), 30)
    gens = [(0,) + random_vector(rng, 28, 10007, nonzero=True) + (0,)]
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        enumerate_words_spans(algebra, gens, 13)
    assert time.perf_counter() - start < 5.0
    most = PRODUCT_BUDGET // 30**2
    assert most == 2222
    assert f"more than {most} distinct products by word length 10 (kmax=13, n=30)" in str(
        info.value
    )


@pytest.mark.parametrize("n, size", [(8, 1), (8, 2), (9, 1), (9, 2)])
def test_the_word_oracle_matches_the_engine_on_packed_tables(n, size):
    # GF(101) at n >= PACK_MIN_N packs the cells, so the oracle's product
    # unpacks them; every set here generates, so the oracle stops early.
    rng = random.Random(1013 * n + size)
    algebra = random_unital_algebra(rng, n, 101)
    assert algebra._limbs
    gens = [random_vector(rng, n, 101, nonzero=True) for _ in range(size)]
    report = compute_length(algebra, gens)
    assert report.is_generating
    kmax = {1: 13, 2: 9}[size]
    assert enumerate_words_spans(algebra, gens, kmax) == dims_from_charseq(report.charseq, kmax)


def test_gaussian_binomials():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(2, 3, 2) == gaussian_binomial(0, 1, 5) == 0  # r > m
    assert subspace_count(3, 2) == 16
    assert subspace_count(3, 3) == 28


def test_iter_rref_bases_lists_each_subspace_once():
    for p in (2, 3):
        for m in range(4):
            for r in range(m + 1):
                bases = list(iter_rref_bases(p, m, r))
                assert len(set(bases)) == len(bases) == gaussian_binomial(m, r, p)
                assert all(len(basis) == r for basis in bases)


@pytest.mark.parametrize("p, m, rank", [(2, 3, -1), (2, 2.0, 1), (True, 2, 1), (1, 2, 1)])
def test_iter_rref_bases_refuses_bad_arguments(p, m, rank):
    with pytest.raises(RangeError):
        list(iter_rref_bases(p, m, rank))


def test_brute_force_power2_gf2():
    algebra, _ = make_example("power2", 3, GF(2))
    result = brute_force_algebra_length(algebra)
    assert result.length == 2  # = 2^(3-2)
    assert any(v[1] == 1 for v in result.witness)  # witness involves e_1
    assert result.subspaces_tested == subspace_count(2, 2) - 1  # rank-0 skipped


def test_brute_force_zero_products_dim3():
    # every product of non-unit elements is zero: only L_1 = A generates
    algebra = Algebra.from_products(GF(2), 3, {})
    result = brute_force_algebra_length(algebra)
    assert result.length == 1


def test_brute_force_dim1():
    algebra = Algebra.from_products(GF(2), 1, {})
    result = brute_force_algebra_length(algebra)
    assert result == BruteForceResult(0, (algebra.unit(),), 1, 1)


def test_brute_force_dim2_always_length_one():
    rng = random.Random(223)
    for _ in range(5):
        algebra = random_unital_algebra(rng, 2, 2)
        assert brute_force_algebra_length(algebra).length == 1


def test_brute_force_requires_prime_field():
    algebra, _ = make_example("power2", 3)
    with pytest.raises(PrimeFieldRequired):
        brute_force_algebra_length(algebra)


@pytest.mark.parametrize(
    "not_an_algebra", [None, "x", make_example("power2", 3, GF(2))], ids=["None", "str", "pair"]
)
@pytest.mark.parametrize(
    "call",
    [lambda a: enumerate_words_spans(a, [(0, 1, 0)], 3), brute_force_algebra_length],
    ids=["enumerate_words_spans", "brute_force_algebra_length"],
)
def test_an_oracle_refuses_what_is_not_an_algebra(call, not_an_algebra):
    with pytest.raises(ShapeError, match="expected an Algebra, got a"):
        call(not_an_algebra)


def test_brute_force_budget():
    algebra, _ = make_example("power2", 8, GF(2))
    with pytest.raises(BudgetExceeded) as info:
        brute_force_algebra_length(algebra)
    assert subspace_count(7, 2) > SUBSPACE_BUDGET
    assert str(info.value).startswith(f"{subspace_count(7, 2)} subspaces contain the unit")


def test_brute_force_dominates_engine_lengths():
    rng = random.Random(227)
    for _ in range(8):
        algebra = random_unital_algebra(rng, 3, 2)
        result = brute_force_algebra_length(algebra)
        assert result.length <= 2  # 2^(n-2) for n = 3
        for _ in range(5):
            gens = random_genset(rng, algebra, max_size=2)
            report = compute_length(algebra, gens)
            if report.is_generating:
                assert result.length >= report.length
        witness_report = compute_length(algebra, result.witness)
        assert witness_report.length == result.length
