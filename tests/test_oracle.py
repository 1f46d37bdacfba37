import random
import time

import pytest

from alglength import (
    Algebra,
    BudgetExceeded,
    GF,
    PrimeFieldRequired,
    bracketed_word_count,
    brute_force_algebra_length,
    catalan,
    compute_length,
    dims_from_charseq,
    enumerate_words_spans,
    gaussian_binomial,
    iter_word_values,
    make_example,
    subspace_count,
)
from alglength.oracle import SUBSPACE_BUDGET, WORD_BUDGET

from helpers import random_genset, random_unital_algebra


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


def test_iter_word_values_counts():
    algebra, gens = make_example("fib-lc", 5)
    for k, values in iter_word_values(algebra, gens, 6):
        assert len(values) == bracketed_word_count(len(gens), k)


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
    algebra, gens = make_example("power2", 4)
    with pytest.raises(BudgetExceeded) as info:
        enumerate_words_spans(algebra, gens, 11)
    assert info.value.count == sum(bracketed_word_count(1, k) for k in range(1, 12))
    big = tuple(algebra.basis_vector(1) for _ in range(4))
    with pytest.raises(BudgetExceeded):
        enumerate_words_spans(algebra, big, 3)


def test_words_budget_bounds_the_total_word_count():
    # kmax = 8 and |S| = 3 are each within their own limit, but together
    # they give sum_{k<=8} Catalan(k-1) * 3^k words.
    algebra, _ = make_example("lc-gap7")
    gens = tuple(algebra.basis_vector(i) for i in (1, 2, 3))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        enumerate_words_spans(algebra, gens, 8)
    assert time.perf_counter() - start < 0.5
    assert info.value.count == 3_137_844 > WORD_BUDGET


def test_words_budget_for_huge_kmax_is_immediate():
    algebra, gens = make_example("power2", 4)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        enumerate_words_spans(algebra, gens, 8000)
    assert time.perf_counter() - start < 0.5
    assert info.value.count is None
    assert "kmax=8000" in str(info.value)


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


def test_gaussian_binomials():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(3, 1, 3) == 13
    assert subspace_count(3, 2) == 16
    assert subspace_count(3, 3) == 28


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


def test_brute_force_dim2_always_length_one():
    rng = random.Random(223)
    for _ in range(5):
        algebra = random_unital_algebra(rng, 2, 2)
        assert brute_force_algebra_length(algebra).length == 1


def test_brute_force_requires_prime_field():
    algebra, _ = make_example("power2", 3)
    with pytest.raises(PrimeFieldRequired):
        brute_force_algebra_length(algebra)


def test_brute_force_budget():
    algebra, _ = make_example("power2", 8, GF(2))
    with pytest.raises(BudgetExceeded) as info:
        brute_force_algebra_length(algebra)
    assert info.value.count == subspace_count(7, 2) > SUBSPACE_BUDGET


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
