import pytest

from alglength import (
    GF,
    BudgetExceeded,
    RangeError,
    check_lc_basis,
    compute_length,
    enumerate_words_spans,
    fibonacci,
    make_example,
)
from alglength.families import MAX_N

from helpers import assert_unit_law


@pytest.mark.parametrize(
    "family,n,dim",
    [
        ("power2", 3, 3),
        ("power2", 7, 7),
        ("stall-chain", 2, 4),
        ("stall-chain", 5, 7),
        ("fib-lc", 3, 3),
        ("fib-lc", 9, 9),
        ("lc-gap7", None, 7),
        ("lc-gap-family", 3, 7),
        ("lc-gap-family", 6, 10),
    ],
)
def test_families_build_unital(family, n, dim):
    algebra, gens = make_example(family, n)
    assert algebra.n == dim
    assert_unit_law(algebra)
    assert gens and all(len(v) == dim for v in gens)


@pytest.mark.parametrize(
    "family,n",
    [("power2", 2), ("stall-chain", 1), ("fib-lc", 2), ("lc-gap-family", 2), ("lc-gap7", 5)],
)
def test_out_of_range_parameters(family, n):
    with pytest.raises(RangeError):
        make_example(family, n)


def test_size_parameter_budget():
    with pytest.raises(BudgetExceeded):
        make_example("power2", MAX_N + 1)
    algebra, _ = make_example("power2", MAX_N)
    assert algebra.n == MAX_N


def test_unknown_family():
    with pytest.raises(RangeError):
        make_example("octonions", 8)
    with pytest.raises(RangeError):
        make_example("power2")  # missing n


def test_power2_lengths_attain_power_bound():
    for n in range(3, 9):
        algebra, gens = make_example("power2", n)
        report = compute_length(algebra, gens)
        assert report.length == 2 ** (n - 2)
        assert report.charseq == (0,) + tuple(2**h for h in range(n - 1))


def test_fib_lc_lengths_attain_fibonacci_bound():
    for n in range(3, 10):
        algebra, gens = make_example("fib-lc", n)
        report = compute_length(algebra, gens)
        assert report.length == fibonacci(n - 1)
        assert report.charseq == (0,) + tuple(
            fibonacci(h) for h in range(1, n)
        )


def test_fib_lc_4_cross_checked_with_oracle():
    algebra, gens = make_example("fib-lc", 4)
    report = compute_length(algebra, gens)
    assert report.length == 2 == fibonacci(3)
    assert report.charseq == (0, 1, 1, 2)
    assert enumerate_words_spans(algebra, gens, 3) == [1, 3, 4, 4]


def test_stall_chain_dims_profile():
    for n in range(2, 7):
        algebra, gens = make_example("stall-chain", n)
        report = compute_length(algebra, gens)
        dims = report.dims
        assert report.length == 2 * n
        for k in range(n + 1):
            assert dims[k] == k + 1
        assert all(dims[k] == n + 1 for k in range(n, 2 * n))
        assert dims[2 * n] == n + 2
        assert report.charseq == tuple(range(n + 1)) + (2 * n,)


def test_lc_gap_family_dims_profile():
    for n in range(3, 7):
        algebra, gens = make_example("lc-gap-family", n)
        report = compute_length(algebra, gens)
        dims = report.dims
        assert dims[n - 1] == n + 1
        assert all(dims[k] == n + 3 for k in range(n, 2 * n))
        assert dims[2 * n] == n + 4
        assert report.length == 2 * n


def test_lc_families_pass_lc_check():
    for family, n in (("fib-lc", 5), ("lc-gap7", None), ("lc-gap-family", 3)):
        algebra, _ = make_example(family, n)
        assert algebra.lc_flag and check_lc_basis(algebra)


def test_families_over_prime_fields():
    for family, n in (("power2", 4), ("stall-chain", 2), ("fib-lc", 4)):
        algebra, gens = make_example(family, n, GF(2))
        assert_unit_law(algebra)
        assert not algebra.lc_flag
        assert compute_length(algebra, gens).is_generating


def test_power2_over_gf2_same_length():
    # integer structure constants: the filtration profile survives reduction mod 2
    for n in (3, 4, 5):
        rational, gens_q = make_example("power2", n)
        modular, gens_p = make_example("power2", n, GF(2))
        assert (
            compute_length(rational, gens_q).charseq
            == compute_length(modular, gens_p).charseq
        )
