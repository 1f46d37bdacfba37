"""Cross-checking the engine, exhausting small algebras, and the file format.

The length engine only multiplies fresh-basis vectors whose word lengths sum
to the next step.  That optimization is validated here against a deliberately
naive oracle that evaluates every bracketed word over every letter choice.
It keeps the values of each length up to a scalar, so words on one line cost
one product, and it uses no fresh-basis restriction.

Over a prime field the whole algebra is finite, so l(A), the worst length
over ALL generating sets, is computable: enumerate the subspaces containing
the unit (the length of S only depends on span(unit, S)), run the engine on
a basis of each, and take the maximum.

Run:  python3 demos/04_oracles_and_files.py
"""

import random

from alglength import (
    Algebra,
    GF,
    brute_force_algebra_length,
    compute_length,
    dims_from_charseq,
    enumerate_words_spans,
    make_example,
    parse_algebra,
    serialize_algebra,
)


def main():
    print("=== word-enumeration oracle vs engine ===")
    algebra, gens = make_example("fib-lc", 5)
    kmax = 6
    oracle = enumerate_words_spans(algebra, gens, kmax)
    engine = dims_from_charseq(compute_length(algebra, gens).charseq, kmax)
    print(f"fib-lc(5), kmax = {kmax}:")
    print(f"  oracle dims {oracle}")
    print(f"  engine dims {engine}")
    print(f"  agree: {oracle == engine}")
    print()

    rng = random.Random(99)
    print("same check on a random GF(3) table:")
    n = 4
    products = {
        (i, j): [rng.randrange(3) for _ in range(n)]
        for i in range(1, n)
        for j in range(1, n)
    }
    random_algebra = Algebra.from_products(GF(3), n, products)
    gens = ((0, 1, 0, 0), (0, 0, 1, 2))
    oracle = enumerate_words_spans(random_algebra, gens, 7)
    engine = dims_from_charseq(compute_length(random_algebra, gens).charseq, 7)
    print(f"  oracle {oracle}")
    print(f"  engine {engine}")
    print(f"  agree: {oracle == engine}")
    print()

    print("=== l(A) over GF(2) by subspace enumeration ===")
    for family, n in (("power2", 3), ("power2", 4), ("stall-chain", 2), ("fib-lc", 3)):
        algebra, gens = make_example(family, n, GF(2))
        result = brute_force_algebra_length(algebra)
        per_set = compute_length(algebra, gens).length
        print(
            f"{family}(n={n}), dim {algebra.n}: l(A) = {result.length} "
            f"(canonical set: {per_set}; {result.generating_count} of "
            f"{result.subspaces_tested} subspaces generate)"
        )
        print(f"  maximizing witness: {[list(v) for v in result.witness]}")
    print()

    print("=== the on-disk format round-trips ===")
    algebra, _ = make_example("fib-lc", 4)
    text = serialize_algebra(algebra)
    print(text, end="")
    assert parse_algebra(text) == algebra
    print("parse(serialize(A)) == A holds.")
    print()
    print("the same capabilities are scriptable via the CLI, e.g.:")
    print("  alglength gen-example --family fib-lc --n 5 --out f5.alg")
    print("  alglength length --algebra f5.alg --gens e1,e2 --json report.json")
    print("  alglength verify --algebra f5.alg --gens e1,e2 --checks chain-strict,fib")


if __name__ == "__main__":
    main()
