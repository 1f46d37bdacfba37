"""Are two sets of benchmark runs of the same commit in agreement?

Usage (from the repository root):

    python3 bench/steady.py --runs 10            # every workload
    python3 bench/steady.py --runs 5 --workloads wide-exact

Two sets of runs: each set runs every workload ``--runs`` times for
``run_seconds`` of BENCHMARK.json, each run with another seed (1, 2, 3, ...),
with tracing off.  For every workload and end-to-end metric it prints the
median of each set, the spread of each set (distance between the first and
third quartile over the median) and the metric's bound from BENCHMARK.json.
A metric agrees when both spreads are within the bound and the second set's
median differs from the first set's, either way, by at most the bound.  The
share of failed operations must be the same in both sets.  Exit code 0 when
everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    ok = True
    seed = 1
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(2):
            results = []
            for _ in range(args.runs):
                results.append(run_once(workload, seed, spec["run_seconds"]))
                seed += 1
            sets.append(results)
        shares = {sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets}
        if len(shares) > 1 or not all(r["correct"] for rs in sets for r in rs):
            ok = False
        print(f"{workload}: failed share per set {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            spread_ok = all(s <= bound for s in spreads)
            shift_ok = abs(medians[1] - medians[0]) / medians[0] <= bound
            ok &= spread_ok and shift_ok
            print(
                f"  {name:12s} medians " + " ".join(f"{m:12.5f}" for m in medians)
                + "  spreads " + " ".join(f"{s:6.3f}" for s in spreads)
                + f"  bound {bound:.2f}  {'ok' if spread_ok and shift_ok else 'DISAGREE'}"
            )
    print("agree" if ok else "disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
