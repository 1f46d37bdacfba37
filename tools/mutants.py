"""Mutation gate: each seeded mutant of the package must fail its tests.

Usage:
    python3 tools/mutants.py

Each entry of :data:`MUTANTS` is one exact text replacement in a module under
``src/`` and the test files that must catch it.  For each entry the script
copies ``src/`` to a temporary directory, applies the replacement there and
runs pytest on the named test files against the copy, stopping at the first
failure.  A run with a failing test kills the mutant, and so does a run that
passes :data:`TIMEOUT_S`: a rule such as the full-span exit, once broken, can
make a test run for minutes.  An entry whose old text does not occur
exactly once in its module is an error, so a stale entry cannot pass unseen;
every entry is checked before any test runs.  An entry marked equivalent,
such as a comment edit, changes no behaviour and must survive: that shows a
clean run is told apart from a killed one.  Exit status 0 means every mutant
met its expectation.

Needs pytest and hypothesis, as the tier-1 suite does, and nothing else.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Seconds one mutant's tests may run; each run takes 1-5 s on a 2-vCPU host.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    module: str  # path under src/alglength
    old: str
    new: str
    tests: tuple[str, ...]  # paths under tests/
    equivalent: bool = False


LENGTH, ORACLE, ECHELON, ALGEBRA, CLI = (
    "length.py", "oracle.py", "echelon.py", "algebra.py", "cli.py"
)

MUTANTS = (
    # The word oracle's full-span exit: none at all, and one a row early.
    Mutant(
        "oracle-no-full-span-exit", ORACLE,
        "if space.dim == n or k > 2", "if k > 2",
        ("test_oracle.py",),
    ),
    Mutant(
        "oracle-exit-below-full-span", ORACLE,
        "if space.dim == n or k > 2", "if space.dim >= n - 1 or k > 2",
        ("test_oracle.py",),
    ),
    # Every residue stored as it is, not scaled to its normal row.
    Mutant(
        "residue-unscaled", ECHELON,
        "newrow = normal_row(self.field, residue)", "newrow = tuple(residue)",
        ("test_echelon.py",),
    ),
    # The pair rule without the within-group pairs.
    Mutant(
        "strict-top-drops-equal-lengths", LENGTH,
        "top = k // 2 if pairs", "top = (k - 1) // 2 if pairs",
        ("test_length.py",),
    ),
    # The pair rule read off the option, or on every table.
    Mutant(
        "strict-from-lc-shortcut", LENGTH,
        "pairs = algebra.commutative or algebra.quadratic", "pairs = lc_shortcut",
        ("test_length.py",),
    ),
    Mutant(
        "strict-always", LENGTH,
        "pairs = algebra.commutative or algebra.quadratic", "pairs = True",
        ("test_length.py",),
    ),
    # The commutative rule starts a group's right operands after f, so it
    # drops f*f.
    Mutant(
        "commutative-rule-drops-squares", LENGTH,
        "after = int(algebra.quadratic)", "after = 1",
        ("test_length.py",),
    ),
    # The quadratic check skips a pair i > j with e_i e_j stored and no
    # e_j e_i, so it accepts one broken anticommutator.
    Mutant(
        "quadratic-check-skips-a-one-sided-pair", ALGEBRA,
        "if j == i or (j < i and back):", "if j == i or j < i:",
        ("test_algebra.py",),
    ),
    # The commutative check reads only the cells with j <= i, so it skips a
    # pair with e_i e_j stored for some i < j and no e_j e_i.
    Mutant(
        "commutative-check-skips-a-one-sided-pair", ALGEBRA,
        "for i, row in enumerate(rows) for j, cell in row.items()",
        "for i, row in enumerate(rows) for j, cell in row.items() if j <= i",
        ("test_algebra.py",),
    ),
    # The locally-complex stop label also when S adds nothing.
    Mutant(
        "lc-stop-without-growth", LENGTH,
        "lc_shortcut and last > 0 and", "lc_shortcut and",
        ("test_length.py",),
    ),
    # The greatest pending sum visited first.
    Mutant(
        "visit-greatest-sum", LENGTH,
        "k = min(pending)", "k = max(pending)",
        ("test_length.py",),
    ),
    # The doubling step 2k never made pending.
    Mutant(
        "no-doubling-step", LENGTH,
        "pending.update(k + b for b in lefts)",
        "pending.update(k + b for b in lefts if b != k)",
        ("test_length.py",),
    ),
    # Products still formed once the span is full.
    Mutant(
        "no-full-span-break", LENGTH,
        "if acc.dim == n:  # a full span cannot grow",
        "if acc.dim > n:  # a full span cannot grow",
        ("test_length.py",),
    ),
    # The unit law's share of e_0 * e_0 with the wrong sign.
    Mutant(
        "unit-law-sign", ALGEBRA,
        "out[0] -= du0 * v0", "out[0] += du0 * v0",
        ("test_algebra.py",),
    ),
    # Q rows primitive but with a negative lead.
    Mutant(
        "q-row-negative-lead", ECHELON,
        "if lead < 0:", "if lead > 0:",
        ("test_echelon.py",),
    ),
    # GF(p) rows scaled by their lead, not by its inverse.
    Mutant(
        "gfp-lead-not-inverted", ECHELON,
        "lead_inv = field.inv(lead)", "lead_inv = lead",
        ("test_echelon.py",),
    ),
    # The packed row op adds c * row, which leaves the pivot slot nonzero.
    Mutant(
        "packed-row-op-sign", ECHELON,
        "x += (mod - c) * row", "x += c * row",
        ("test_echelon.py",),
    ),
    # A packed left operator that keeps only the last row term of each column.
    Mutant(
        "operator-drops-the-sum-over-i", ALGEBRA,
        "cols[j] = cols.get(j, 0) + c * (packed << shift)", "cols[j] = c * (packed << shift)",
        ("test_algebra.py",),
    ),
    # The operator's memory rule keeps only one-term rows as their terms.
    Mutant(
        "operator-always-built", ALGEBRA,
        "len(terms) < 2 or sum(self._row_bits[i] for i, _ in terms) < bound", "len(terms) < 2",
        ("test_length.py",),
    ),
    # The operator's column split reads the block one column over.
    Mutant(
        "wide-split-one-column-over", ALGEBRA,
        "raw[j * size : (j + 1) * size]", "raw[(j + 1) * size : (j + 2) * size]",
        ("test_algebra.py",),
    ),
    # Every nonempty row kept wide, whatever its density.
    Mutant(
        "every-row-kept-wide", ALGEBRA,
        "> 2 * self._row_bits[i]:", "< 0:",
        ("test_length.py",),
    ),
    # Over Q a generator's numerators kept without the lcm of its denominators.
    Mutant(
        "genset-numerators-only", ALGEBRA,
        "x.numerator * (d // x.denominator)", "x.numerator",
        ("test_length.py",),
    ),
    # The non-unit cell check lets the unit index through, so terms(0, j) reads [].
    Mutant(
        "terms-accepts-the-unit-index", ALGEBRA,
        "0 < i < n and 0 < j < n", "0 <= i < n and 0 < j < n",
        ("test_algebra.py",),
    ),
    # A number option read by int(), which also takes a sign, spaces, "_"
    # and other scripts' digits.
    Mutant(
        "n-option-read-by-int", CLI,
        'type=digits("--n")', "type=int",
        ("test_cli.py",),
    ),
    Mutant(
        "dims-kmax-read-by-int", CLI,
        '"dims of L_0..L_K")\n    p.add_argument("--kmax", type=digits("--kmax")',
        '"dims of L_0..L_K")\n    p.add_argument("--kmax", type=int',
        ("test_cli.py",),
    ),
    # A comment edit: no behaviour changes, so it must survive.
    Mutant(
        "comment-edit", LENGTH,
        "# unvisited steps: 1 (S)", "# steps not yet visited: 1 (S)",
        ("test_length.py",),
        equivalent=True,
    ),
)


def check(mutant: Mutant) -> str:
    """The mutated module's text; ValueError unless the old text occurs once."""
    text = (ROOT / "src" / "alglength" / mutant.module).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(
            f"mutant {mutant.name}: {mutant.old!r} occurs {count} times in "
            f"{mutant.module}, not once"
        )
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant, text: str) -> tuple[str, float]:
    """Run the mutant's tests on a mutated copy of src/: 'killed', 'survived'
    or 'error', and the seconds the run took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "alglength" / mutant.module).write_text(text, encoding="utf-8")
        command = [
            sys.executable, "-W", "error", "-m", "pytest", "-q", "-x",
            "-p", "no:cacheprovider", "-o", f"pythonpath={src}",
            *(str(Path("tests") / t) for t in mutant.tests),
        ]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return "killed", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if done.returncode in (0, 1):  # all passed, or some test failed
        return ("survived", "killed")[done.returncode], seconds
    print(done.stdout[-2000:] + done.stderr[-2000:], file=sys.stderr)
    return "error", seconds


def main() -> int:
    try:
        texts = [check(m) for m in MUTANTS]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = 0
    for mutant, text in zip(MUTANTS, texts):
        outcome, seconds = run(mutant, text)
        expected = "survived" if mutant.equivalent else "killed"
        ok = outcome == expected
        failed += not ok
        note = " (equivalent)" if mutant.equivalent else ""
        print(f"{'ok  ' if ok else 'FAIL'} {outcome:8} {mutant.name}{note} {seconds:.1f} s")
    print(f"{len(MUTANTS)} mutants, {failed} not as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
