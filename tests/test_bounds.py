import itertools
import random
import time

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
    dims_from_charseq,
    fibonacci,
    gaussian_binomial,
    make_example,
    subspace_count,
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
    """Exhaustive index search, independent of the library implementation:
    (witnesses, failures), each witness the first pair in (t1, t2) order."""
    witnesses, failures = [], []
    for h, value in enumerate(m):
        if value < 2:
            continue
        pairs = itertools.combinations(range(1, h), 2) if strict else (
            (t1, t2) for t1 in range(1, h) for t2 in range(t1, h)
        )
        found = next(((h, t1, t2) for t1, t2 in pairs if m[t1] + m[t2] == value), None)
        if found:
            witnesses.append(found)
        else:
            failures.append((h, value))
    return tuple(witnesses), tuple(failures)


def test_addition_chain_examples():
    relaxed = check_addition_chain((0, 1, 2, 4), strict=False)
    assert relaxed.ok
    assert (2, 1, 1) in relaxed.witnesses  # 2 = m_1 + m_1
    strict = check_addition_chain((0, 1, 2, 4), strict=True)
    assert not strict.ok
    assert _chain_oracle((0, 1, 2, 4), strict=True)[1] == ((2, 2), (3, 4))
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
    # Same verdict, witnesses and failures, with runs of equal terms.
    rng = random.Random(19)
    for trial in range(600):
        m = [0]
        for _ in range(rng.randint(1, 6 if trial < 200 else 14)):
            m.append(m[-1] + rng.randint(0, 3) if m[-1] else 1)
        m = tuple(sorted(m))
        for strict in (False, True):
            check = check_addition_chain(m, strict)
            assert (check.witnesses, check.failures) == _chain_oracle(m, strict), m
            assert check.ok == (not check.failures)


def test_addition_chain_is_quadratic():
    # The power sequence of power2 at n = MAX_N: 4095 terms up to 2^4094.
    seq = (0,) + tuple(2**h for h in range(4095))
    start = time.perf_counter()
    check = check_addition_chain(seq)
    assert time.perf_counter() - start < 10.0
    assert check.ok
    assert check.witnesses[-1] == (4095, 4094, 4094)


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


SEQ = (0, 1, 1, 2, 3)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: fibonacci(2.5), RangeError),
        (lambda: gaussian_binomial(3, 1.5, 2), RangeError),
        (lambda: gaussian_binomial(3.0, 1, 2), RangeError),
        (lambda: check_fibonacci_bound(SEQ, 2.5), KOutOfRange),
        (lambda: check_fibonacci_bound(SEQ, "2"), KOutOfRange),
        (lambda: dims_from_charseq(SEQ, 2.5), RangeError),
        (lambda: dims_from_charseq(SEQ, -1), RangeError),
        (lambda: gaussian_binomial(3, 1, 1), RangeError),
        (lambda: gaussian_binomial(3, 1, 0), RangeError),
        (lambda: gaussian_binomial(3, -1, 2), RangeError),
        (lambda: subspace_count(3, 1), RangeError),
        (lambda: subspace_count(2.0, 2), RangeError),
        (lambda: fibonacci(True), RangeError),
        (lambda: dims_from_charseq(SEQ, True), RangeError),
        (lambda: gaussian_binomial(True, 1, 2), RangeError),
        (lambda: subspace_count(2, True), RangeError),
    ],
)
def test_a_non_int_or_negative_integer_parameter_is_refused(call, error):
    with pytest.raises(error):
        call()


def test_fibonacci_bound_lists_each_failing_index_once():
    # m_2 = 2 breaks both m_1 = m_2 = 1 and m_2 <= F_2, and is one failure.
    check = check_fibonacci_bound((0, 1, 2, 3), k=2)
    assert check.failures == ((2, 2), (3, 3))
    assert check.equalities == (1,)


def test_fib_k_is_linear_in_the_sequence_length():
    seq = [0, 1, 1]
    while len(seq) < 8192:
        seq.append(seq[-1] + seq[-2])
    start = time.perf_counter()
    report = verify_sequence(seq, ("fib-k",))
    assert time.perf_counter() - start < 0.5
    assert report.ok()
    assert report.checks["fib-k"].equalities == tuple(range(1, 8192))


def _direct_power_bound(m):
    """(failures, equalities) of m_h <= 2^(h-1), h >= 1, term by term."""
    failures = [(h, m[h]) for h in range(1, len(m)) if m[h] > 2 ** (h - 1)]
    equalities = [h for h in range(1, len(m)) if m[h] == 2 ** (h - 1)]
    return tuple(failures), tuple(equalities)


def _direct_fibonacci_bound(m, k):
    """(failures, equalities) of the k-generator Fibonacci bound as stated:
    m_h <= F_h for k = 1; for k >= 2, m_1 = ... = m_k = 1 and
    m_(k+h) <= F_(h+2) for -1 <= h <= N-k, equalities from index k-1 on."""
    fib = [0, 1, 1]
    while len(fib) < len(m) + 3:
        fib.append(fib[-1] + fib[-2])
    N = len(m) - 1
    if k == 1:
        bound = {h: fib[h] for h in range(1, N + 1)}
    else:
        bound = {k + h: fib[h + 2] for h in range(-1, N - k + 1)}
    failures = [
        (t, m[t]) for t in range(1, N + 1)
        if (k >= 2 and t <= k and m[t] != 1) or (t in bound and m[t] > bound[t])
    ]
    equalities = [t for t in range(1, N + 1) if t in bound and m[t] == bound[t]]
    return tuple(failures), tuple(equalities)


def test_pointwise_bounds_match_their_statements_on_random_sequences():
    rng = random.Random(61)
    for _ in range(600):
        m = [0] + [1] * rng.randint(0, 5)
        for _ in range(rng.randint(0, 8)):
            m.append(max(1, m[-1] + rng.choice((0, 1, 1, 2, 3, m[-1]))))
        m = tuple(m)
        check = check_power_bound(m)
        assert (check.failures, check.equalities) == _direct_power_bound(m), m
        assert check.ok == (not check.failures)
        for k in range(1, 5):
            if k > 1 and k > len(m) - 1:
                continue
            check = check_fibonacci_bound(m, k=k)
            assert (check.failures, check.equalities) == _direct_fibonacci_bound(m, k), (m, k)
            assert check.ok == (not check.failures)


def test_wellformedness_errors():
    for bad in ((), (1,), (0, 2, 1), (0, 0, 1), (0, -1), (0, 1.5)):
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


def test_fib_is_vacuous_on_unit_only_sequence():
    # m_h <= F_h for h >= 1 has no terms to check on (0,), as chain and power.
    assert check_fibonacci_bound((0,)).ok
    assert verify_sequence((0,), ("fib",)).ok()
    assert verify_sequence((0,), ("chain", "power", "fib")).ok()
