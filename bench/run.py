"""Benchmark of alglength: end-to-end metrics, or per-layer metrics with --trace 1.

Usage (from the repository root):

    python3 bench/run.py --workload deep-filtration --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  One process,
one thread, a closed loop: operations run one at a time, each checked before
the next starts.  The seeded inputs and expected values are made once,
untimed; set-up (importing alglength from ``src/`` and building the inputs
through it) is then repeated and its median reported.
Passes over the workload's operation list repeat until ``--seconds`` have
elapsed; a pass always runs to its end.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Per-operation records and, with tracing, the spans of the last traced pass
go to ``.bench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import os
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from calibrate import Clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5  # at least; cheap set-ups repeat until SETUP_MIN_S have passed
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25

END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")
PER_LAYER = (
    "fields.coerce.calls", "fields.inv.calls",
    "algebra.construct.calls", "algebra.construct.self_s",
    "algebra.multiply.calls", "algebra.multiply.self_s",
    "algebra.validate_unital.calls", "algebra.validate_unital.self_s",
    "algebra.check_lc_basis.calls", "algebra.check_lc_basis.self_s",
    "echelon.insert.calls", "echelon.insert.self_s",
    "echelon.insert.grew", "echelon.insert.grew_ratio",
    "echelon.reduce.calls", "echelon.reduce.self_s",
    "length.compute_length.calls", "length.compute_length.self_s",
    "oracle.enumerate_words_spans.calls", "oracle.enumerate_words_spans.self_s",
    "oracle.brute_force_algebra_length.calls", "oracle.brute_force_algebra_length.self_s",
    "fileformat.parse_algebra.calls", "fileformat.parse_algebra.self_s",
    "fileformat.serialize_algebra.self_s", "fileformat.parse_gens.self_s",
    "bounds.verify_sequence.self_s", "reporting.self_s",
    "cli.main.calls", "cli.main.self_s",
    "setup.algebra.construct.calls", "setup.algebra.construct.self_s",
    "setup.fields.coerce.calls", "setup.fileformat.serialize_algebra.self_s",
    "trace.overhead_s", "untraced.wall_s", "untraced.raw_wall_s",
)
# Layers of the traced set-up reported as ``setup.<layer metric>``.
SETUP_LAYER = ("algebra.construct.calls", "algebra.construct.self_s",
               "fields.coerce.calls", "fileformat.serialize_algebra.self_s")


class SetupError(Exception):
    """alglength cannot be imported from this checkout."""


def import_program():
    """Import alglength afresh from ``src/``, with ``alglength.cli`` loaded.

    Workloads call through the returned package at call time, so a tracer
    that rebinds its functions sees every call.
    """
    for name in [m for m in sys.modules if m == "alglength" or m.startswith("alglength.")]:
        del sys.modules[name]
    if not (SRC / "alglength" / "__init__.py").is_file():
        raise SetupError(f"no alglength package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("alglength")
    importlib.import_module("alglength.cli")
    if Path(package.__file__).resolve().parent != SRC / "alglength":
        raise SetupError(f"alglength was imported from {package.__file__}, not {SRC}")
    return package


def setup(workload: str, seed: int, workdir: Path, clock: Clock):
    """Median reference seconds over fresh set-ups, their number, and the last ops.

    Each set-up makes the seeded inputs untimed, then times the import and
    ``build``, which frees the inputs as it turns them into algebras.
    """
    times = []
    raw_total = 0.0
    ops = None
    while len(times) < SETUP_REPEATS or (raw_total < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        ops = None  # the previous set-up's inputs must not add to peak memory
        build = WORKLOADS[workload](random.Random(seed), workdir)
        gc.collect()
        ops, raw, scaled = clock.timed(lambda: build(import_program()))
        if isinstance(ops, Exception):
            raise ops
        times.append(scaled)
        raw_total += raw
    return statistics.median(times), len(times), ops


def traced_setup(workload: str, seed: int, workdir: Path):
    """One set-up with the tracer installed after the import; the ops and ``setup.*`` metrics."""
    build = WORKLOADS[workload](random.Random(seed), workdir)
    ag = import_program()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = build(ag)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    return ops, {f"setup.{key}": (summary[key], "s" if key.endswith(".self_s") else "count")
                 for key in SETUP_LAYER}


def run_pass(ops, records: list, pass_no: int, clock: Clock):
    """Run every op once.

    Returns (reference seconds per op, failures, subspaces tested, raw seconds of the pass).
    """
    gc.collect()
    raw_total = 0.0
    seconds = []
    failures = []
    brute_tested = 0
    for op in ops:
        out, raw, scaled = clock.timed(op.run)
        if isinstance(out, Exception):
            error = type(out).__name__
        else:
            try:
                bad = op.check(out)
            except Exception as exc:  # a check that cannot read the output fails it
                bad = [f"check_raised:{type(exc).__name__}"]
            error = ",".join(bad) or None
            if op.kind == "brute_force":
                brute_tested += getattr(out, "subspaces_tested", 0)
        seconds.append(scaled)
        raw_total += raw
        if error is not None:
            failures.append(error)
        records.append((pass_no, op.id, op.kind, raw, scaled, error is None, error or ""))
    return seconds, failures, brute_tested, raw_total


def measure(ops, seconds: float, records: list, clock: Clock):
    """Whole passes until ``seconds`` elapse (at least one)."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(ops, records, len(passes), clock))
    return passes


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def pass_wall(passes) -> float:
    return statistics.median(sum(p[0]) for p in passes)


def raw_pass_wall(passes) -> float:
    return statistics.median(p[3] for p in passes)


def end_to_end(ops, passes, setup_s: float) -> dict:
    per_op = [statistics.median(p[0][i] for p in passes) for i in range(len(ops))]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (pass_wall(passes), "s"),
        "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "op_p90_ms": (1000 * quantile(per_op, 0.90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(ops, seconds: float, records: list, clock: Clock, out_dir: Path, ops_name: str):
    """Untraced and traced passes in turn until ``seconds`` elapse; per-layer metrics for one pass.

    Taking the two kinds in turn keeps a change of host speed from landing on
    one kind only.  ``*.self_s`` and ``trace.overhead_s`` are raw seconds;
    ``untraced.wall_s`` (reference seconds) next to ``untraced.raw_wall_s``
    shows the scaling.
    """
    untraced, traced_passes, summaries = [], [], []
    tracer = tracing.Tracer()
    start = perf_counter()
    while not traced_passes or perf_counter() - start < seconds:
        untraced.append(run_pass(ops, records, 2 * len(traced_passes), clock))
        tracer.reset()
        tracer.install()
        try:
            traced_passes.append(run_pass(ops, records, 2 * len(traced_passes) + 1, clock))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
    tracer.write_spans(out_dir / f"{ops_name}-spans.tsv")

    problems = []
    counted = [k for k in summaries[0] if not k.endswith(".self_s")]
    if any(s[k] != summaries[0][k] for s in summaries for k in counted):
        problems.append("trace counts differ between traced passes")
    metrics = {
        key: (statistics.median(s[key] for s in summaries), "s") if key.endswith(".self_s")
        else (summaries[0][key], "count")
        for key in summaries[0]
    }
    calls = metrics["echelon.insert.calls"][0]
    metrics["echelon.insert.grew_ratio"] = (metrics["echelon.insert.grew"][0] / calls if calls else 0.0, "ratio")
    metrics["trace.overhead_s"] = (raw_pass_wall(traced_passes) - raw_pass_wall(untraced), "s")
    metrics["untraced.wall_s"] = (pass_wall(untraced), "s")
    metrics["untraced.raw_wall_s"] = (raw_pass_wall(untraced), "s")
    if any(op.direct_compute_length for op in ops):
        expected = sum(op.direct_compute_length for op in ops) + traced_passes[0][2]
        got = metrics["length.compute_length.calls"][0]
        if got != expected:
            problems.append(f"length.compute_length.calls {got} != direct calls plus subspaces_tested {expected}")
    return untraced + traced_passes, metrics, problems


def run_workload(args) -> int:
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"work-{stem}-{os.getpid()}"
    try:
        clock = Clock()
        setups = 1
        try:
            if args.trace:
                ops, setup_metrics = traced_setup(args.workload, args.seed, workdir)
            else:
                setup_s, setups, ops = setup(args.workload, args.seed, workdir, clock)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        records: list = []
        problems: list = []
        if args.trace:
            passes, metrics, problems = traced(ops, args.seconds, records, clock, out_dir, args.workload)
            metrics = {k: {**metrics, **setup_metrics}[k] for k in PER_LAYER}
        else:
            passes = measure(ops, args.seconds, records, clock)
            metrics = end_to_end(ops, passes, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(out_dir / f"{stem}-ops.tsv", "w", encoding="utf-8") as fh:
        fh.write("pass\tid\tkind\traw_s\treference_s\tok\tfailure\n")
        for rec in records:
            fh.write("\t".join(str(x) for x in rec) + "\n")
    attempted = len(records)
    kinds = Counter(kind for p in passes for f in p[1] for kind in f.split(","))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(ops)} operations, "
          f"median pass {raw_pass_wall(passes):.6f} raw s")
    for name, (value, unit) in metrics.items():
        note = f"  (median of {setups} set-ups)" if name == "setup_s" else ""
        if name in ("op_p50_ms", "op_p90_ms"):
            beyond = len(ops) - int(0.9 * len(ops)) if name == "op_p90_ms" else len(ops) // 2
            note = f"  (n={len(ops)} operations, {beyond} beyond)"
        print(f"  {name:40s} {value:14.6f} {unit}{note}")
    print(f"  attempted {attempted}, failed {sum(len(p[1]) for p in passes)}")
    for kind, count in sorted(kinds.items()):
        print(f"  failure {kind}: {count}")
    for problem in problems:
        print(f"  problem: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(len(p[1]) for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
