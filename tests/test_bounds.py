import itertools
import random

import pytest

from alglength import (
    CHECKS,
    KOutOfRange,
    RangeError,
    WellformednessError,
    check_addition_chain,
    check_fibonacci_bound,
    check_power_bound,
    compute_length,
    fibonacci,
    make_example,
    verify_sequence,
)


def test_fibonacci_base_and_values():
    assert fibonacci(1) == 1
    assert fibonacci(2) == 1
    assert fibonacci(7) == 13
    # independent oracle: the hand-iterated prefix of the sequence
    prefix = [1, 1]
    while len(prefix) < 14:
        prefix.append(prefix[-1] + prefix[-2])
    assert prefix[13] == 377
    assert fibonacci(14) == 377
    assert [fibonacci(i) for i in range(1, 11)] == prefix[:10]


def test_fibonacci_range_error():
    with pytest.raises(RangeError):
        fibonacci(0)


def _chain_oracle(m, strict):
    """Exhaustive index search, independent of the library implementation."""
    for h, value in enumerate(m):
        if value < 2:
            continue
        pairs = itertools.combinations(range(1, h), 2) if strict else (
            (t1, t2) for t1 in range(1, h) for t2 in range(t1, h)
        )
        if not any(m[t1] + m[t2] == value for t1, t2 in pairs):
            return False
    return True


def test_addition_chain_examples():
    relaxed = check_addition_chain((0, 1, 2, 4), strict=False)
    assert relaxed.ok
    assert (2, 1, 1) in relaxed.witnesses  # 2 = m_1 + m_1
    strict = check_addition_chain((0, 1, 2, 4), strict=True)
    assert not strict.ok
    assert _chain_oracle((0, 1, 2, 4), strict=True) is False
    assert strict.failures[0] == (2, 2)
    assert check_addition_chain((0, 1, 1, 2, 3, 5), strict=True).ok


def test_addition_chain_witnesses_are_valid():
    seq = (0, 1, 1, 2, 3, 3, 6)
    check = check_addition_chain(seq, strict=True)
    assert check.ok
    for h, t1, t2 in check.witnesses:
        assert 0 < t1 < t2 < h
        assert seq[t1] + seq[t2] == seq[h]


def test_addition_chain_matches_oracle_on_random_sequences():
    rng = random.Random(19)
    for _ in range(200):
        m = [0]
        for _ in range(rng.randint(1, 6)):
            m.append(m[-1] + rng.randint(0, 3) if m[-1] else 1)
        m = tuple(sorted(m))
        for strict in (False, True):
            assert check_addition_chain(m, strict).ok == _chain_oracle(m, strict)


def test_power_bound_examples():
    attained = check_power_bound((0, 1, 2, 4, 8, 16))
    assert attained.ok
    assert attained.equalities == (1, 2, 3, 4, 5)
    failing = check_power_bound((0, 1, 3))
    assert not failing.ok and failing.failures == ((2, 3),)
    assert check_power_bound((0, 1, 1, 1)).ok


def test_fibonacci_bound_examples():
    attained = check_fibonacci_bound((0, 1, 1, 2, 3, 5), k=1)
    assert attained.ok
    assert attained.equalities == (1, 2, 3, 4, 5)
    failing = check_fibonacci_bound((0, 1, 2, 4), k=1)
    assert not failing.ok
    assert failing.failures[0] == (2, 2)  # F_2 = 1 < 2
    assert check_fibonacci_bound((0, 1, 1, 1, 1), k=3).ok
    assert check_fibonacci_bound((0, 1, 1, 1, 1), k=1).ok


def test_fibonacci_bound_k_variant():
    # lc-gap7 run: (0,1,1,1,2,2,4) with k = 3 independent generators
    seq = (0, 1, 1, 1, 2, 2, 4)
    assert check_fibonacci_bound(seq, k=3).ok
    with pytest.raises(KOutOfRange):
        check_fibonacci_bound(seq, k=0)
    with pytest.raises(KOutOfRange):
        check_fibonacci_bound(seq, k=7)


def test_wellformedness_errors():
    for bad in ((), (1,), (0, 2, 1), (0, 0, 1), (0, -1)):
        with pytest.raises(WellformednessError):
            check_power_bound(bad)
    report = verify_sequence((0, 2, 1), ("chain", "power"))
    assert not report.wellformed and not report.ok()


def test_fibonacci_bound_implies_power_bound():
    rng = random.Random(29)
    for _ in range(150):
        m = [0]
        for _ in range(rng.randint(1, 7)):
            m.append(m[-1] + rng.randint(0, 2) if m[-1] else 1)
        m = tuple(m)
        fib_ok = check_fibonacci_bound(m, k=1).ok
        if fib_ok:
            assert check_power_bound(m).ok


def test_engine_sequences_satisfy_general_theorems():
    for family, n in (("power2", 6), ("stall-chain", 4), ("fib-lc", 7),
                      ("lc-gap7", None), ("lc-gap-family", 4)):
        algebra, gens = make_example(family, n)
        seq = compute_length(algebra, gens).charseq
        report = verify_sequence(seq, ("chain", "power"))
        assert report.ok(), (family, seq)


def test_lc_sequences_satisfy_strict_chain_and_fibonacci():
    for family, n in (("fib-lc", 8), ("lc-gap7", None), ("lc-gap-family", 5)):
        algebra, gens = make_example(family, n)
        seq = compute_length(algebra, gens).charseq
        assert check_addition_chain(seq, strict=True).ok, (family, seq)
        k = len(gens)
        assert check_fibonacci_bound(seq, k=k).ok, (family, seq)


def test_dimension_gap_on_recorded_dims():
    # For locally-complex runs: a +1 growth at step m with room left implies
    # at least two more dimensions by step 2m-1.
    for family, n in (("fib-lc", 7), ("lc-gap7", None), ("lc-gap-family", 4)):
        algebra, gens = make_example(family, n)
        report = compute_length(algebra, gens)
        dims = report.dims
        for m in range(1, len(dims)):
            if dims[m - 1] < dims[m] and dims[m - 1] <= algebra.n - 2:
                if 2 * m - 1 < len(dims):
                    assert dims[2 * m - 1] >= dims[m - 1] + 2, (family, dims, m)


def test_verify_sequence_aggregation():
    report = verify_sequence((0, 1, 2, 4), ("chain", "chain-strict", "power"))
    assert report.wellformed
    assert report.checks["chain"].ok
    assert not report.checks["chain-strict"].ok
    assert report.checks["power"].ok
    assert not report.ok()
    assert "fib" not in report.checks and "fib-k" not in report.checks


def test_every_table_check_matches_its_direct_call():
    direct = {
        "chain": lambda m: check_addition_chain(m, strict=False),
        "chain-strict": lambda m: check_addition_chain(m, strict=True),
        "power": check_power_bound,
        "fib": lambda m: check_fibonacci_bound(m, k=1),
        "fib-k": lambda m: check_fibonacci_bound(m, k=m.count(1)),
    }
    assert list(CHECKS) == list(direct)
    assert [key for key, _ in CHECKS.values()] == [
        "addition_chain", "strict_addition_chain", "power_bound",
        "fibonacci_bound", "k_bound",
    ]
    for m in ((0, 1, 2, 4), (0, 1, 1, 2, 3, 5), (0, 1, 1, 1, 2, 2, 4), (0, 1, 3)):
        report = verify_sequence(m, [*reversed(CHECKS), "chain"])
        assert list(report.checks) == list(CHECKS)
        for token, check in report.checks.items():
            assert check == direct[token](m), (token, m)
        assert report.ok() == all(direct[t](m).ok for t in direct)


def test_verify_sequence_token_errors():
    with pytest.raises(RangeError):
        verify_sequence((0, 1, 2), ("chain", "bogus"))
    # fib-k reads k off the sequence; the unit-only sequence has no term 1.
    with pytest.raises(KOutOfRange, match="at least one generator"):
        verify_sequence((0,), ("fib-k",))
    with pytest.raises(KOutOfRange, match="at least one generator"):
        verify_sequence((0,), ("fib", "fib-k"))
    assert verify_sequence((0,), ()).ok()
