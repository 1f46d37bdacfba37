"""How long can a single element take to generate an algebra?

For an n-dimensional unital algebra, every generating set reaches the whole
algebra using words of length at most 2^(n-2): the characteristic sequence
of dimension jumps is an addition chain, and addition chains cannot grow
faster than doubling.  The power2 family shows the bound is tight: each new
fresh word is the square of the previous one, so the dimension jumps land
exactly at 1, 2, 4, ..., 2^(n-2).

Run:  python3 demos/01_sharp_power_bound.py
"""

from alglength import (
    check_addition_chain,
    check_power_bound,
    compute_length,
    make_example,
)


def main():
    print("power2 family: e_k^2 = e_{k+1}, everything else zero, S = {e1}")
    print()
    print(f"{'n':>3} {'l(S)':>6} {'2^(n-2)':>8}  characteristic sequence")
    for n in range(3, 11):
        algebra, gens = make_example("power2", n)
        report = compute_length(algebra, gens)
        seq = report.charseq
        assert report.length == 2 ** (n - 2)
        shown = ",".join(map(str, seq[:7]))
        if len(seq) > 7:
            shown += ",..."
        print(f"{n:>3} {report.length:>6} {2**(n-2):>8}  ({shown})")

    print()
    n = 6
    algebra, gens = make_example("power2", n)
    seq = compute_length(algebra, gens).charseq
    print(f"n = {n}: sequence {seq}")

    bound = check_power_bound(seq)
    print(f"power bound m_h <= 2^(h-1): ok = {bound.ok}, "
          f"attained at every index h in {bound.equalities}")

    chain = check_addition_chain(seq, strict=False)
    print("addition-chain decompositions (every term >= 2 is a sum of two "
          "earlier terms):")
    for h, t1, t2 in chain.witnesses:
        print(f"  m_{h} = {seq[h]} = m_{t1} + m_{t2} = {seq[t1]} + {seq[t2]}")

    strict = check_addition_chain(seq, strict=True)
    print(f"strict variant (distinct indices) holds: {strict.ok}  "
          "<- fails: squaring IS doubling")


if __name__ == "__main__":
    main()
