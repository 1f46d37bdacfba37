"""Check that two source trees give byte-identical CLI results.

Usage:
    git archive <commit> | tar -x -C OLD     # any earlier tree
    python3 tools/compare_cli.py OLD [NEW]   # NEW defaults to this checkout

Both trees run the same argument lists: the README examples, the bench
``CLI_FAMILIES`` family files plus ``stall-chain`` n=120 over GF(10007),
whose runs chain many packed row ops, and over Q, whose run from e1 forms
14,400 products, each with a one-term left operand, two sparse files shaped
like the bench's ``CLI_SPARSE`` ones (each with non-generating sets too),
eleven seeded dense tables (over Q, GF(101) and GF(2^31 - 1) with integer
entries, the two prime fields at dims 6 and 9, on both sides of
``algebra.PACK_MIN_N``; over GF(10007) and GF(2^31 - 1) at dims 20 and 30,
one of them with a closed subalgebra that holds the generators, so that they
do not generate; and over Q with fractional entries such as 1/2 and -2/3;
every other non-unit product nonzero, run with two random coordinate rows,
so that no fresh row is a basis vector) and the dim-1 algebra, where
``fib-k`` has no k, with and without ``--lc-shortcut``, through ``length``,
``charseq``, ``dims``, ``verify`` and ``oracle-check``, the last also with
``--require-generating``.  ``verify`` also runs with reordered and repeated
check tokens, ``lc`` and an unknown token.  On ``pow2_4.alg``,
``oracle-check`` also runs at ``--kmax 13`` and 14, where one generator has
290,512 and 1,033,412 bracketed words of lengths 1..kmax: from ``e1``
(l = 4) the span fills at step 4 and no longer word is evaluated, and ``e2``
does not generate, so its span never fills, but its words vanish from
length 3 on and the oracle stops after length 4.  For every run the exit code,
stdout, stderr and the ``--json`` bytes must be equal.

The family files come from ``gen-example`` runs, which are compared too:
each runs in the old tree first, then in the new tree on the same paths,
and the bytes each writes to ``--out`` must also be equal.  The engine runs
then read the new tree's files.  Eight more ``gen-example`` runs write
``power2``, ``stall-chain``, ``fib-lc`` and ``lc-gap-family`` at the
largest n, 4096, over Q and over GF(10007), and are not run through the
engine, which would take hours on ``stall-chain``.  Each tree runs in its
own interpreter, so the two packages never share a process.  Exit status 0 means every run agreed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (family, n, field option, gens): the bench's CLI_FAMILIES files, then stall-chain
# n=120 over both kinds of field.
FAMILY_FILES = (
    ("power2", 6, "rational", "e1"),
    ("power2", 9, "prime:2", "e1"),
    ("power2", 12, "rational", "e1"),
    ("fib-lc", 7, "rational", "e1,e2"),
    ("fib-lc", 10, "prime:3", "e1,e2"),
    ("fib-lc", 13, "rational", "e1,e2"),
    ("fib-lc", 16, "rational", "e1,e2"),
    ("stall-chain", 8, "rational", "e1"),
    ("stall-chain", 20, "prime:10007", "e1"),
    ("stall-chain", 30, "rational", "e1"),
    ("stall-chain", 120, "prime:10007", "e1"),
    ("stall-chain", 120, "rational", "e1"),
    ("lc-gap-family", 6, "rational", "e1,e2"),
    ("lc-gap-family", 12, "rational", "e1,e2"),
    ("lc-gap-family", 24, "rational", "e1,e2"),
    ("lc-gap7", None, "rational", "e1,e2,e3"),
)
# Sets that do not generate, so that the stabilization windows end the run.
EXTRA_GENS = {"power2": ["e2"], "fib-lc": ["e1", "e3"], "stall-chain": ["e2"],
              "lc-gap-family": ["e1"], "lc-gap7": ["e1,e2"]}
# Families written by gen-example alone, at families.MAX_N, over each field option.
LARGE_FAMILIES = ("power2", "stall-chain", "fib-lc", "lc-gap-family")
LARGE_N = 4096
LARGE_FIELDS = ("rational", "prime:10007")

# (dim, field line, coefficient): sparse files like the bench's CLI_SPARSE.
SPARSE_FILES = ((100, "rational", "-2/5"), (150, "prime 10007", "5000"))
SPARSE_CHAIN = 5
INTEGERS = tuple(Fraction(c) for c in range(-2, 3))
FRACTIONS = tuple(Fraction(c) for c in ("-2/3", "-1", "0", "0", "1/2", "2", "5/3"))
# (dim, field line, seed, entries, closed): dense tables with every non-unit
# product nonzero and generator rows, entries drawn from the given values;
# with closed = m > 0, products of e_1..e_(m-1) and the generators lie in
# span(e_0..e_(m-1)).  GF(p) tables of dim 6 keep (k, c) pairs; the larger
# ones are packed, GF(2^31 - 1) in two-limb slots.
DENSE_FILES = ((5, "rational", 11, INTEGERS, 0), (6, "prime 101", 12, INTEGERS, 0),
               (5, "rational", 13, FRACTIONS, 0), (6, "prime 2147483647", 14, INTEGERS, 0),
               (9, "prime 101", 15, INTEGERS, 0), (9, "prime 2147483647", 16, INTEGERS, 0),
               (20, "prime 10007", 17, INTEGERS, 0), (20, "prime 2147483647", 18, INTEGERS, 0),
               (30, "prime 10007", 19, INTEGERS, 0), (30, "prime 2147483647", 20, INTEGERS, 0),
               (30, "prime 10007", 21, INTEGERS, 12))
UNIT_ONLY = "alglength-algebra v1\nfield rational\ndim 1\nbasis 1\n"


def _sparse_text(dim: int, field: str, coeff: str) -> tuple[str, list[str]]:
    """A stall chain on scattered basis elements plus one unreachable product.

    x_0 x_0 = c x_1, x_0 x_i = x_(i+1), x_m x_m = x_(m+1) for the chain
    length m, and x_(m+2) x_(m+3) = c x_0, which no word of x_0 reaches.
    Returns the v1 text and --gens values: x_0 by name, x_0 plus a unit
    component as a coordinate row, and the non-generating {x_(m+2)}.
    """
    m = SPARSE_CHAIN
    xs = [1 + (37 * t) % (dim - 1) for t in range(m + 4)]
    pairs = [((xs[0], xs[0]), f"{coeff}*e{xs[1]}")]
    pairs += [((xs[0], xs[i]), f"e{xs[i + 1]}") for i in range(1, m)]
    pairs.append(((xs[m], xs[m]), f"e{xs[m + 1]}"))
    pairs.append(((xs[m + 2], xs[m + 3]), f"{coeff}*e{xs[0]}"))
    lines = ["alglength-algebra v1", f"field {field}", f"dim {dim}",
             "basis 1 " + " ".join(f"e{i}" for i in range(1, dim))]
    lines += [f"prod e{i} e{j} = {rhs}" for (i, j), rhs in sorted(pairs)]
    row = ["0"] * dim
    row[0], row[xs[0]] = "3", "2"
    return "\n".join(lines) + "\n", [f"e{xs[0]}", "[" + ", ".join(row) + "]",
                                      f"e{xs[m + 2]}"]


def _dense_text(dim: int, field: str, seed: int, entries, closed: int) -> tuple[str, list[str]]:
    """A seeded table whose non-unit products are all nonzero, entries from ``entries``.

    With ``closed`` = m > 0, the products of e_1..e_(m-1) and the generators
    have coordinates below m only.  Returns the v1 text and one --gens
    value: two random coordinate rows.
    """
    rng = random.Random(seed)
    names = ["1"] + [f"e{i}" for i in range(1, dim)]
    lines = ["alglength-algebra v1", f"field {field}", f"dim {dim}",
             "basis " + " ".join(names)]
    for i in range(1, dim):
        for j in range(1, dim):
            top = closed if max(i, j) < closed else dim
            row = [0]
            while not any(row):
                row = [rng.choice(entries) if k < top else 0 for k in range(dim)]
            terms = [f"{c}*{names[k]}" for k, c in enumerate(row) if c]
            lines.append(f"prod e{i} e{j} = " + " + ".join(terms))
    top = closed or dim
    rows = [[rng.choice(entries) if k < top else 0 for k in range(dim)] for _ in range(2)]
    gens = ";".join("[" + ", ".join(map(str, row)) + "]" for row in rows)
    return "\n".join(lines) + "\n", [gens]


def _cases(workdir: Path) -> tuple[list[list[str]], list[list[str]]]:
    """The gen-example argument lists, and the runs that read their files."""
    gen = [["gen-example", "--family", family, "--n", str(LARGE_N), "--field", field,
            "--out", str(workdir / f"{family}_{LARGE_N}_{field.replace(':', '')}.alg")]
           for field in LARGE_FIELDS for family in LARGE_FAMILIES]
    runs = []
    files = [("pow2_4.alg", "power2", 4, "rational", ["e1", "e2"])]
    for family, n, field, gens in FAMILY_FILES:
        name = f"{family}_{n}_{field.replace(':', '')}.alg"
        files.append((name, family, n, field, [gens] + EXTRA_GENS[family]))
    for dim, field, coeff in SPARSE_FILES:
        text, gen_sets = _sparse_text(dim, field, coeff)
        name = f"sparse_{dim}.alg"
        (workdir / name).write_text(text, encoding="utf-8")
        files.append((name, None, None, None, gen_sets))
    for dim, field, seed, entries, closed in DENSE_FILES:
        text, gen_sets = _dense_text(dim, field, seed, entries, closed)
        name = f"dense_{dim}_{seed}.alg"
        (workdir / name).write_text(text, encoding="utf-8")
        files.append((name, None, None, None, gen_sets))
    (workdir / "unit_only.alg").write_text(UNIT_ONLY, encoding="utf-8")
    files.append(("unit_only.alg", None, None, None, ["1"]))
    for name, family, n, field, gen_sets in files:
        path = str(workdir / name)
        if family is not None:
            argv = ["gen-example", "--family", family, "--out", path, "--field", field]
            gen.append(argv + ([] if n is None else ["--n", str(n)]))
        for gens in gen_sets:
            for lc in ([], ["--lc-shortcut"]):
                base = ["--algebra", path, "--gens", gens] + lc
                runs += [
                    ["length"] + base,
                    ["length", "--require-generating"] + base,
                    ["charseq"] + base,
                    ["dims", "--kmax", "0"] + base,
                    ["dims", "--kmax", "6"] + base,
                    ["dims", "--kmax", "70"] + base,
                    ["dims", "--kmax", "9", "--require-generating"] + base,
                    ["verify"] + base,
                    ["verify", "--checks", "chain,chain-strict,power,fib,fib-k"] + base,
                    ["verify", "--checks", "fib-k,power,chain,chain,lc,chain-strict,fib"]
                    + base,
                    ["verify", "--checks", "lc,power,power"] + base,
                    ["verify", "--checks", "chain,bogus"] + base,
                    ["oracle-check", "--kmax", "5"] + base,
                    ["oracle-check", "--kmax", "5", "--require-generating"] + base,
                ]
    pow2 = str(workdir / "pow2_4.alg")
    runs += [["oracle-check", "--kmax", kmax, "--algebra", pow2, "--gens", gens]
             for gens in ("e1", "e2") for kmax in ("13", "14")]
    p3 = str(workdir / "p3.alg")
    gen.append(["gen-example", "--family", "power2", "--n", "3", "--out", p3,
                "--field", "prime:2"])
    runs.append(["brute-force", "--algebra", p3])
    return gen, runs


def _worker(src: str, workdir: str) -> None:
    """Run each argument list read from stdin; print one JSON result each.

    A result is the exit code, stdout, stderr, the ``--json`` report and the
    bytes written to ``--out`` (None for a file not written), the last as
    latin-1 text, which maps each byte to one character.
    """
    sys.path.insert(0, src)
    from alglength.cli import main

    report = Path(workdir) / "report.json"
    results = []
    for argv in json.load(sys.stdin):
        written = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        report.unlink(missing_ok=True)
        if written:
            written.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json", str(report)])
        body = report.read_text(encoding="utf-8") if report.exists() else None
        data = written.read_bytes().decode("latin-1") if written and written.exists() else None
        results.append([code, out.getvalue(), err.getvalue(), body, data])
    json.dump(results, sys.stdout)


def _run_tree(tree: Path, workdir: Path, argvs) -> list:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree / "src"), str(workdir)],
        input=json.dumps(argvs), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        _worker(argv[1], argv[2])
        return 0
    old = Path(argv[0]).resolve()
    new = Path(argv[1]).resolve() if len(argv) > 1 else ROOT
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        gen, runs = _cases(workdir)
        old_results = _run_tree(old, workdir, gen)
        new_results = _run_tree(new, workdir, gen)  # overwrites the old tree's files
        old_results += _run_tree(old, workdir, runs)
        new_results += _run_tree(new, workdir, runs)
    runs = gen + runs
    fields = ("exit code", "stdout", "stderr", "json", "written file")
    bad = 0
    for argv_, a, b in zip(runs, old_results, new_results):
        diff = [f for f, x, y in zip(fields, a, b) if x != y]
        if diff:
            bad += 1
            print(f"DIFFER ({', '.join(diff)}): {' '.join(argv_)}")
    print(f"{len(runs)} runs compared, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
