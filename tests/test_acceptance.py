"""Acceptance suite: one test per criterion, exact expectations, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  All numeric comparisons are exact (the arithmetic is), the
time limits are the stated per-criterion budgets.
"""

import random
import time

from alglength import (
    GF,
    brute_force_algebra_length,
    check_addition_chain,
    check_fibonacci_bound,
    check_lc_basis,
    check_power_bound,
    compute_length,
    dims_from_charseq,
    enumerate_words_spans,
    fibonacci,
    is_wellformed_sequence,
    make_example,
)

from helpers import (
    assert_filtration_identity,
    find_generating_set,
    find_non_generating_set,
    mixed_equal_span_set,
    nested_generating_pair,
    random_genset,
    random_unital_algebra,
    random_vector,
    reference_run,
)


class _Timer:
    def __init__(self, number: int, name: str, budget: float):
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"\nACCEPTANCE {self.number:2d} {self.name}: {verdict} "
            f"({elapsed:.2f}s, budget {self.budget:g}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_sharp_power_bound():
    with _Timer(1, "sharp general bound (power2)", 1.0):
        for n in range(3, 13):
            algebra, gens = make_example("power2", n)
            report = compute_length(algebra, gens)
            assert report.length == 2 ** (n - 2)
            assert report.charseq.terms == (0,) + tuple(
                2 ** (h - 1) for h in range(1, n)
            )
            bound = check_power_bound(report.charseq)
            assert bound.ok
            assert bound.equalities == tuple(range(1, n))  # attained everywhere


def test_criterion_2_sharp_fibonacci_bound():
    with _Timer(2, "sharp Fibonacci bound (fib-lc)", 1.0):
        for n in range(3, 17):
            algebra, gens = make_example("fib-lc", n)
            assert check_lc_basis(algebra)
            report = compute_length(algebra, gens)
            assert report.length == fibonacci(n - 1)
            assert report.charseq.terms == (0,) + tuple(
                fibonacci(h) for h in range(1, n)
            )
            assert check_addition_chain(report.charseq, strict=True).ok
            fib = check_fibonacci_bound(report.charseq, k=1)
            assert fib.ok
            assert fib.equalities == tuple(range(1, n))  # attained everywhere


def test_criterion_3_stall_witness():
    with _Timer(3, "stall witness (stall-chain)", 1.0):
        for n in range(3, 11):
            algebra, gens = make_example("stall-chain", n)
            report = compute_length(algebra, gens)
            dims = report.dims
            for k in range(n + 1):
                assert dims[k] == k + 1
            assert all(dims[k] == dims[n] for k in range(n, 2 * n))
            assert dims[2 * n] == n + 2
            assert report.charseq.terms == tuple(range(n + 1)) + (2 * n,)
            assert report.length == 2 * n


def test_criterion_4_lc_counterexamples():
    with _Timer(4, "locally-complex gap witnesses", 1.0):
        gap7, gens7 = make_example("lc-gap7")
        assert check_lc_basis(gap7)
        assert compute_length(gap7, gens7).dims == (1, 4, 6, 6, 7)
        for n in range(3, 9):
            algebra, gens = make_example("lc-gap-family", n)
            assert check_lc_basis(algebra)
            dims = compute_length(algebra, gens).dims
            assert dims[n - 1] == n + 1
            assert all(dims[k] == n + 3 for k in range(n, 2 * n))
            assert dims[2 * n] == n + 4


def test_criterion_5_oracle_equivalence():
    with _Timer(5, "word-enumeration oracle equivalence", 30.0):
        rng = random.Random(20250501)
        for _ in range(200):
            algebra = random_unital_algebra(
                rng, rng.randint(2, 4), rng.choice((2, 3))
            )
            gens = random_genset(rng, algebra, max_size=2)
            oracle = enumerate_words_spans(algebra, gens, 7)
            engine = dims_from_charseq(compute_length(algebra, gens).charseq.terms, 7)
            assert oracle == engine, (algebra, gens)


def test_criterion_6_theorem_suite():
    with _Timer(6, "theorem suite on random generating sets", 60.0):
        rng = random.Random(20250502)
        for _ in range(500):
            n = rng.randint(2, 5)
            algebra = random_unital_algebra(rng, n, rng.choice((2, 3, 5)))
            gens = find_generating_set(rng, algebra)
            report = compute_length(algebra, gens)
            assert report.is_generating
            seq = report.charseq
            assert is_wellformed_sequence(seq)
            assert len(seq) == n
            assert seq.terms[-1] == report.length
            assert_filtration_identity(report)
            assert check_addition_chain(seq, strict=False).ok, (seq.terms,)
            assert check_power_bound(seq).ok, (seq.terms,)


def test_criterion_7_span_determinacy_and_monotonicity():
    with _Timer(7, "L_1-determinacy and monotonicity", 30.0):
        rng = random.Random(20250503)
        pairs = 0
        while pairs < 100:
            algebra = random_unital_algebra(
                rng, rng.randint(2, 4), rng.choice((2, 3))
            )
            gens = random_genset(rng, algebra, max_size=3)
            other = mixed_equal_span_set(rng, algebra, gens)
            if not other:
                continue  # S was inside the unit span; nothing to mix
            r0 = compute_length(algebra, gens)
            r1 = compute_length(algebra, other)
            assert (r0.dims, r0.charseq.terms, r0.length, r0.stop_reason) == (
                r1.dims,
                r1.charseq.terms,
                r1.length,
                r1.stop_reason,
            )
            pairs += 1
        nested = 0
        while nested < 100:
            algebra = random_unital_algebra(
                rng, rng.randint(3, 4), rng.choice((2, 3))
            )
            pair = nested_generating_pair(rng, algebra, tries=15)
            if pair is None:
                continue
            s0, s1 = pair
            l0 = compute_length(algebra, s0).length
            l1 = compute_length(algebra, s1).length
            assert l0 is not None and l1 is not None
            assert l0 >= l1, (s0, s1, l0, l1)
            nested += 1


def test_criterion_8_early_stop_soundness():
    with _Timer(8, "stabilization-window soundness", 30.0):
        rng = random.Random(20250504)
        checked = 0
        while checked < 50:  # general window on random prime-field tables
            algebra = random_unital_algebra(
                rng, rng.randint(2, 4), rng.choice((2, 3))
            )
            gens = find_non_generating_set(rng, algebra)
            if gens is None:
                continue
            windowed = compute_length(algebra, gens)
            full = reference_run(algebra, gens, kmax=1 << (algebra.n - 1))
            assert windowed.length is None and full.length is None
            assert windowed.dims[-1] == full.dims[-1], (gens, windowed, full)
            checked += 1
        lc_checked = 0
        while lc_checked < 50:  # tighter window on locally-complex inputs
            if rng.random() < 0.5:
                algebra, _ = make_example("fib-lc", rng.randint(3, 7))
            else:
                algebra, _ = make_example("lc-gap-family", rng.randint(3, 3))
            size = rng.randint(1, 2)
            gens = tuple(
                tuple(rng.randint(-2, 2) for _ in range(algebra.n))
                for _ in range(size)
            )
            if not any(any(v[1:]) for v in gens):
                continue
            windowed = compute_length(algebra, gens, lc_shortcut=True)
            if windowed.length is not None:
                continue
            full = reference_run(algebra, gens, kmax=1 << (algebra.n - 1))
            assert full.length is None
            assert windowed.dims[-1] == full.dims[-1], (gens, windowed, full)
            lc_checked += 1


def test_criterion_9_finite_field_algebra_length():
    with _Timer(9, "brute-force l(A) over GF(2)", 60.0):
        for family, n in (("power2", 3), ("stall-chain", 2), ("fib-lc", 3)):
            algebra, gens = make_example(family, n, GF(2))
            result = brute_force_algebra_length(algebra)
            assert result.length <= 2 ** (algebra.n - 2)
            engine = compute_length(algebra, gens)
            assert engine.is_generating
            assert result.length >= engine.length
            if family == "power2":
                assert result.length == 2
        rng = random.Random(20250505)
        for _ in range(20):
            algebra = random_unital_algebra(rng, 3, 2)
            result = brute_force_algebra_length(algebra)
            assert result.length <= 2  # 2^(3-2)
            for _ in range(6):
                gens = random_genset(rng, algebra, max_size=2)
                report = compute_length(algebra, gens)
                if report.is_generating:
                    assert result.length >= report.length


def test_criterion_10_infinite_field_note():
    with _Timer(10, "l(A) over infinite fields (documented substitution)", 1.0):
        # Not computable: l(A) over Q/R is a supremum over all generating
        # sets.  The artifact substitutes per-set equality certificates
        # (criteria 1-2) plus the upper-bound theorem suite (criterion 6),
        # which together give the sharpness statements: the bound holds for
        # every set, and the canonical sets attain it.
        for n in (3, 6):
            algebra, gens = make_example("power2", n)
            assert compute_length(algebra, gens).length == 2 ** (n - 2)
            algebra, gens = make_example("fib-lc", n)
            assert compute_length(algebra, gens).length == fibonacci(n - 1)
