"""Plateaus, stabilization windows, and why they are exactly as long as they are.

Unlike the associative case, the span filtration L_0 <= L_1 <= ... of a
non-associative algebra may stall for many steps and then grow again.  The
engine therefore needs a sound termination rule for non-generating sets:

* general window: no growth from the last-growth step g through step 2g
  means no growth ever (every longer word splits into two words that already
  live in L_g);
* locally-complex window: if the growth at g was by exactly one dimension,
  stability is certain one step earlier, at 2g-1.

The engine codes neither window.  It only visits steps k = a + b where a
and b are lengths at which the span grew, and no such sum exceeds 2g.  Over
a locally-complex basis it forms only the products f*h whose left row joined
before h, since there f*f and f*h + h*f lie in span(1); after a growth by
one row at g, step 2g has no such pair, so the run ends there, and
lc_shortcut names that stop.

The families here witness that both windows are tight:

* stall-chain stalls from step n to 2n-1 and jumps at 2n, so the general
  window cannot be shortened;
* lc-gap7 (growth by 2 at the stall entry) and the lc-gap family show the
  "+1 growth" hypothesis of the tighter window is indispensable.

Run:  python3 demos/03_stalls_and_windows.py
"""

from alglength import compute_length, dims_from_charseq, make_example

TAIL_K = 12


def show_run(title, algebra, gens, **opts):
    report = compute_length(algebra, gens, **opts)
    outcome = (
        f"l(S) = {report.length}"
        if report.is_generating
        else f"not generating ({report.stop_reason})"
    )
    print(f"{title}")
    print(f"  dims {report.dims}")
    print(f"  charseq {report.charseq}  ->  {outcome}")
    return report


def main():
    print("=== stall-chain: the longest possible stall before a jump ===")
    for n in (3, 5):
        algebra, gens = make_example("stall-chain", n)
        show_run(f"stall-chain(n={n}), dim {algebra.n}, S = {{e1}}", algebra, gens)
        print(f"  plateau over steps {n}..{2*n-1}, jump at {2*n}")
    print()

    print("=== lc-gap7: a locally-complex stall entered with +2 growth ===")
    algebra, gens = make_example("lc-gap7")
    show_run("lc-gap7, S = {e1,e2,e3}", algebra, gens)
    print("  dims 6 = 6 at steps 2..3, yet step 4 reaches 7: a run that")
    print("  stalls after a +2 jump may still wake up.")
    print()

    print("=== lc-gap family: the same phenomenon at every size ===")
    for n in (3, 5):
        algebra, gens = make_example("lc-gap-family", n)
        show_run(f"lc-gap-family(n={n}), dim {algebra.n}, S = {{e1,e2}}", algebra, gens)
    print()

    print("=== windows in action on a non-generating set ===")
    algebra, _ = make_example("fib-lc", 6)
    single = (algebra.basis_vector(1),)
    print("fib-lc(6) with S = {e1}: one non-real element only spans a copy of C")
    report = show_run("  general window", algebra, single)
    show_run("  locally-complex window (lc_shortcut)", algebra, single, lc_shortcut=True)
    tail = dims_from_charseq(report.charseq, TAIL_K)
    print(f"  dims out to k = {TAIL_K}: {tuple(tail)}")
    print("  both windows stop on the final dimension; the tail stays there.")


if __name__ == "__main__":
    main()
