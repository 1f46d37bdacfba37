"""Why locally-complex algebras generate at Fibonacci speed.

A real unital algebra is locally complex when every subalgebra generated by
one non-real element is a copy of the complex numbers.  On a suitable basis
this reads off the multiplication table: e_i^2 = -1 and e_i e_j = -e_j e_i.
The key consequence for lengths: squaring a fresh word never produces a new
direction (x^2 lands back in span{1, x}), so every dimension jump needs two
DISTINCT earlier fresh words.  The characteristic sequence then is an
addition chain without doubling, and its terms are capped by the Fibonacci
numbers: l(S) <= F_{n-1} in dimension n.

The fib-lc family attains the cap: e_k e_{k+1} = e_{k+2} makes fresh-word
lengths literally follow the Fibonacci recurrence.

Run:  python3 demos/02_fibonacci_sharpness.py
"""

from alglength import (
    check_addition_chain,
    check_fibonacci_bound,
    check_lc_basis,
    compute_length,
    fibonacci,
    make_example,
)


def main():
    print("fib-lc family: e_i^2 = -1, e_i e_j = -e_j e_i, e_k e_{k+1} = e_{k+2}")
    print("generating set S = {e1, e2}")
    print()
    print(f"{'n':>3} {'l(S)':>6} {'F_(n-1)':>8}  characteristic sequence")
    for n in range(3, 13):
        algebra, gens = make_example("fib-lc", n)
        assert check_lc_basis(algebra)
        report = compute_length(algebra, gens)
        assert report.length == fibonacci(n - 1)
        terms = ",".join(map(str, report.charseq[:9]))
        if len(report.charseq) > 9:
            terms += ",..."
        print(f"{n:>3} {report.length:>6} {fibonacci(n-1):>8}  ({terms})")

    print()
    n = 8
    algebra, gens = make_example("fib-lc", n)
    seq = compute_length(algebra, gens).charseq
    print(f"n = {n}: sequence {seq}")
    strict = check_addition_chain(seq, strict=True)
    print("no-doubling decompositions (indices must differ):")
    for h, t1, t2 in strict.witnesses:
        print(f"  m_{h} = {seq[h]} = m_{t1} + m_{t2} = {seq[t1]} + {seq[t2]}")
    fib = check_fibonacci_bound(seq, k=1)
    print(f"Fibonacci bound m_h <= F_h: ok = {fib.ok}, equality at {fib.equalities}")

    print()
    print("contrast: power2's sequence (0,1,2,4,...) violates the Fibonacci")
    power2, gens_p = make_example("power2", 5)
    seq_p = compute_length(power2, gens_p).charseq
    fib_p = check_fibonacci_bound(seq_p, k=1)
    print(f"bound at indices {[h for h, _ in fib_p.failures]}, "
          f"consistent with check_lc_basis(power2) = {check_lc_basis(power2)}")


if __name__ == "__main__":
    main()
