"""Check that two source trees give byte-identical CLI results.

Usage:
    git archive <commit> | tar -x -C OLD     # any earlier tree
    python3 tools/compare_cli.py OLD [NEW]   # NEW defaults to this checkout

Both trees run the same argument lists: the README examples, the bench
``CLI_FAMILIES`` family files, two sparse files shaped like the bench's
``CLI_SPARSE`` ones (each with non-generating sets too), two seeded dense
tables (over Q and GF(101), every non-unit product nonzero, run with two
random coordinate rows, so that no fresh row is a basis vector) and the
dim-1 algebra, where ``fib-k`` has no k, with and without
``--lc-shortcut``, through ``length``, ``charseq``, ``dims``, ``verify`` and
``oracle-check``, the last also with ``--require-generating``.  ``verify``
also runs with reordered and repeated check tokens, ``lc`` and an unknown
token.  For every run the exit code, stdout, stderr and the ``--json`` bytes
must be equal.  Each tree runs in its own
interpreter, so the two packages never share a process.  Exit status 0
means every run agreed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (family, n, field option, gens), the bench's CLI_FAMILIES files.
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
    ("lc-gap-family", 6, "rational", "e1,e2"),
    ("lc-gap-family", 12, "rational", "e1,e2"),
    ("lc-gap-family", 24, "rational", "e1,e2"),
    ("lc-gap7", None, "rational", "e1,e2,e3"),
)
# Sets that do not generate, so that the stabilization windows end the run.
EXTRA_GENS = {"power2": ["e2"], "fib-lc": ["e1", "e3"], "stall-chain": ["e2"],
              "lc-gap-family": ["e1"], "lc-gap7": ["e1,e2"]}

# (dim, field line, coefficient): sparse files like the bench's CLI_SPARSE.
SPARSE_FILES = ((100, "rational", "-2/5"), (150, "prime 10007", "5000"))
SPARSE_CHAIN = 5
# (dim, field line, seed): dense tables with every non-unit product nonzero.
DENSE_FILES = ((5, "rational", 11), (6, "prime 101", 12))
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


def _dense_text(dim: int, field: str, seed: int) -> tuple[str, list[str]]:
    """A seeded table whose non-unit products are all nonzero, entries in [-2, 2].

    Returns the v1 text and one --gens value: two random coordinate rows.
    """
    rng = random.Random(seed)
    names = ["1"] + [f"e{i}" for i in range(1, dim)]
    lines = ["alglength-algebra v1", f"field {field}", f"dim {dim}",
             "basis " + " ".join(names)]
    for i in range(1, dim):
        for j in range(1, dim):
            row = [0]
            while not any(row):
                row = [rng.randint(-2, 2) for _ in range(dim)]
            terms = [f"{c}*{names[k]}" for k, c in enumerate(row) if c]
            lines.append(f"prod e{i} e{j} = " + " + ".join(terms))
    rows = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(2)]
    gens = ";".join("[" + ", ".join(map(str, row)) + "]" for row in rows)
    return "\n".join(lines) + "\n", [gens]


def _cases(workdir: Path) -> list[list[str]]:
    gen = []  # gen-example runs, made once by the new tree
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
    for dim, field, seed in DENSE_FILES:
        text, gen_sets = _dense_text(dim, field, seed)
        name = f"dense_{dim}.alg"
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
    p3 = str(workdir / "p3.alg")
    gen.append(["gen-example", "--family", "power2", "--n", "3", "--out", p3,
                "--field", "prime:2"])
    runs.append(["brute-force", "--algebra", p3])
    return gen, runs


def _worker(src: str, workdir: str) -> None:
    """Run each argument list read from stdin; print one JSON result each."""
    sys.path.insert(0, src)
    from alglength.cli import main

    report = Path(workdir) / "report.json"
    results = []
    for argv in json.load(sys.stdin):
        report.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json", str(report)])
        body = report.read_text(encoding="utf-8") if report.exists() else None
        results.append([code, out.getvalue(), err.getvalue(), body])
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
        _run_tree(new, workdir, gen)
        old_results = _run_tree(old, workdir, runs)
        new_results = _run_tree(new, workdir, runs)
    fields = ("exit code", "stdout", "stderr", "json")
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
