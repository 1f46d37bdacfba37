"""Command line interface.

Subcommands and the flags each takes:

* ``length``, ``charseq``, ``dims``, ``verify`` and ``oracle-check`` run the
  length engine: ``--algebra PATH``, ``--gens SPEC``, ``--lc-shortcut`` and
  ``--require-generating``.
* ``brute-force``: ``--algebra PATH``.
* ``gen-example`` writes a family instance to ``--out PATH``.

All seven take ``--json PATH`` for a machine-readable report; its
``options`` are the subcommand's own arguments.  A flag that a subcommand
does not take is a usage error.

Every run takes one path through :func:`main`: load the algebra (or build
it, for gen-example), run the subcommand's body, which prints its lines and
returns its ``result`` block and verdict, write the report, then give the
verdict.

Exit codes: 0 success, 1 domain errors (e.g. a non-generating set under
``--require-generating``), 2 usage or parse errors.  Every error path prints
one line ``error[<Class>]: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .algebra import Algebra, GenSet, check_lc_basis
from .bounds import CHECKS, verify_sequence
from .errors import (
    AlgLengthError,
    BudgetExceeded,
    ChecksFailed,
    NotGenerating,
    OracleMismatch,
    ParseError,
)
from .fields import GF, QQ
from .fileformat import parse_algebra, parse_digits, parse_gens, serialize_algebra
from .families import FAMILY_NAMES, make_example
from .length import MAX_KMAX, LengthReport, compute_length, dims_from_charseq
from .oracle import brute_force_algebra_length, enumerate_words_spans
from . import reporting

CHECK_TOKENS = (*CHECKS, "lc")
DEFAULT_CHECKS = "chain,power"
# Parsed arguments that name the run or its files rather than its options.
_NOT_OPTIONS = ("command", "run", "algebra", "json", "out")


def _seq_str(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _check_tokens(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


@functools.cache  # built once per process; main only parses with it
def _build_parser() -> argparse.ArgumentParser:
    algebra_arg = argparse.ArgumentParser(add_help=False)
    algebra_arg.add_argument("--algebra", metavar="PATH", help="algebra file (v1 format)")
    json_arg = argparse.ArgumentParser(add_help=False)
    json_arg.add_argument("--json", metavar="PATH", help="write a JSON run report")
    engine_args = argparse.ArgumentParser(add_help=False)
    engine_args.add_argument("--gens", required=True, help="generating set spec")
    engine_args.add_argument(
        "--lc-shortcut",
        action="store_true",
        help="use the tighter stabilization window for locally-complex algebras",
    )
    engine_args.add_argument(
        "--require-generating",
        action="store_true",
        help="fail (exit 1) when the set does not generate",
    )
    engine = [algebra_arg, json_arg, engine_args]

    parser = argparse.ArgumentParser(
        prog="alglength",
        description="Lengths and characteristic sequences of generating sets "
        "of finite-dimensional non-associative algebras, with exact arithmetic.",
    )
    parser.add_argument("--version", action="version", version=f"alglength {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, parents, run, help):
        p = sub.add_parser(name, parents=parents, help=help)
        p.set_defaults(run=run)
        return p

    command("length", engine, _cmd_length, "compute l(S)")
    command("charseq", engine, _cmd_charseq, "characteristic sequence of S")
    p = command("dims", engine, _cmd_dims, "dims of L_0..L_K")
    p.add_argument("--kmax", type=int, required=True, metavar="K")
    p = command("verify", engine, _cmd_verify, "run bound checks on S")
    p.add_argument(
        "--checks",
        type=_check_tokens,
        default=DEFAULT_CHECKS,
        help=f"comma list from {', '.join(CHECK_TOKENS)} (default {DEFAULT_CHECKS})",
    )
    p = command("gen-example", [json_arg], _cmd_gen_example, "write a family instance")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n", type=int, default=None, help="family size parameter")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument(
        "--field",
        default="rational",
        help="coefficient field: 'rational' (default) or 'prime:<p>'",
    )
    p = command(
        "oracle-check", engine, _cmd_oracle_check,
        "compare engine dims with word enumeration",
    )
    p.add_argument("--kmax", type=int, required=True, metavar="K")
    command(
        "brute-force", [algebra_arg, json_arg], _cmd_brute_force,
        "l(A) over GF(p) by subspace enumeration",
    )
    return parser


def _parse_field_option(text: str):
    if text == "rational":
        return QQ
    if text.startswith("prime:") and text[6:].isdigit():
        return GF(parse_digits(text[6:]))
    raise ParseError(f"bad --field value {text!r}; use 'rational' or 'prime:<p>'")


def _write_file(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from None


def _load(args) -> tuple[Algebra, GenSet | None, str, bytes]:
    """The run's algebra and generators, and the path and bytes of its file.

    gen-example builds the family instance and writes it to ``--out``; every
    other subcommand reads ``--algebra`` and parses ``--gens`` if it takes it.
    """
    if args.command == "gen-example":
        algebra, gens = make_example(args.family, args.n, _parse_field_option(args.field))
        text, out = serialize_algebra(algebra), Path(args.out)
        _write_file(out, text)
        return algebra, gens, str(out), text.encode("utf-8")
    if not args.algebra:
        raise ParseError("--algebra PATH is required for this subcommand")
    path = Path(args.algebra)
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from None
    algebra = parse_algebra(text)
    gens = parse_gens(args.gens, algebra) if "gens" in args else None
    return algebra, gens, str(path), data


def _engine_report(algebra, gens, args) -> LengthReport:
    report = compute_length(algebra, gens, lc_shortcut=args.lc_shortcut)
    if args.require_generating and not report.is_generating:
        raise NotGenerating(
            f"set does not generate (stop: {report.stop_reason}, "
            f"partial sequence {_seq_str(report.charseq)})"
        )
    return report


def _check_kmax(kmax: int) -> None:
    if kmax < 0:
        raise ParseError("--kmax must be >= 0")
    if kmax > MAX_KMAX:
        raise BudgetExceeded(f"--kmax {kmax} exceeds the limit {MAX_KMAX}")


def _print_run_header(algebra, args) -> None:
    field = algebra.field.descriptor()
    print(f"algebra {Path(args.algebra)}: dim {algebra.n}, field {field}")


# Each body prints its lines and returns the report's ``result`` block and
# the run's verdict: None, a closing line, or the error that fails the run.
# Both come after the report is written.


def _cmd_length(args, algebra, gens):
    report = _engine_report(algebra, gens, args)
    _print_run_header(algebra, args)
    if report.is_generating:
        print(f"l(S) = {report.length}")
        print(f"characteristic sequence: {_seq_str(report.charseq)}")
    else:
        print(f"l(S) = not generating (stop: {report.stop_reason})")
        print(f"partial sequence: {_seq_str(report.charseq)}")
    return reporting.length_report_payload(report), None


def _cmd_charseq(args, algebra, gens):
    report = _engine_report(algebra, gens, args)
    marker = "" if report.is_generating else " (partial: set does not generate)"
    print(f"characteristic sequence: {_seq_str(report.charseq)}{marker}")
    return reporting.length_report_payload(report), None


def _cmd_dims(args, algebra, gens):
    _check_kmax(args.kmax)
    dims = dims_from_charseq(_engine_report(algebra, gens, args).charseq, args.kmax)
    print(f"dims: {_seq_str(dims)}")
    return {"dims": dims}, None


def _cmd_verify(args, algebra, gens):
    for t in args.checks:
        if t not in CHECK_TOKENS:
            raise ParseError(
                f"unknown check {t!r}; choose from {', '.join(CHECK_TOKENS)}"
            )
    report = _engine_report(algebra, gens, args)
    bound = verify_sequence(report.charseq, [t for t in args.checks if t != "lc"])
    results = {"wellformed": bound.wellformed}
    results.update((t, check.ok) for t, check in bound.checks.items())
    if "lc" in args.checks:
        results["lc"] = check_lc_basis(algebra)
    print(f"characteristic sequence: {_seq_str(report.charseq)}")
    for name, ok in results.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    failed = ",".join(name for name, ok in results.items() if not ok)
    result = {
        "checks": results,
        "all_ok": not failed,
        "bounds": reporting.bound_report_payload(bound),
        "charseq": list(report.charseq),
    }
    return result, ChecksFailed(failed) if failed else "all checks passed"


def _cmd_gen_example(args, algebra, gens):
    names = [algebra.basis_names[v.index(algebra.field.one)] for v in gens]
    print(
        f"wrote {Path(args.out)} (family {args.family}, dim {algebra.n}, "
        f"field {algebra.field.descriptor()}, gens {','.join(names)})"
    )
    return {"path": str(Path(args.out)), "gens": names, "lc": algebra.lc_flag}, None


def _cmd_oracle_check(args, algebra, gens):
    _check_kmax(args.kmax)
    engine_dims = dims_from_charseq(_engine_report(algebra, gens, args).charseq, args.kmax)
    oracle_dims = enumerate_words_spans(algebra, gens, args.kmax)
    agree = oracle_dims == engine_dims
    print(f"engine dims: {_seq_str(engine_dims)}")
    print(f"oracle dims: {_seq_str(oracle_dims)}")
    print(f"agree: {'yes' if agree else 'NO'}")
    result = {"engine_dims": engine_dims, "oracle_dims": oracle_dims, "agree": agree}
    return result, None if agree else OracleMismatch("engine and word enumeration disagree")


def _cmd_brute_force(args, algebra, gens):
    result = brute_force_algebra_length(algebra)
    _print_run_header(algebra, args)
    print(f"l(A) = {result.length}")
    for v in result.witness:
        print(f"witness: [{', '.join(reporting.vector_payload(v))}]")
    print(
        f"subspaces tested: {result.subspaces_tested}, "
        f"generating: {result.generating_count}"
    )
    return reporting.brute_force_payload(result), None


def _run(args) -> int:
    algebra, gens, path, data = _load(args)
    result, verdict = args.run(args, algebra, gens)
    if args.json:
        options = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
        payload = reporting.run_report(
            args.command, __version__, algebra, path, data, options, result
        )
        _write_file(args.json, reporting.canonical_json(payload))
    if isinstance(verdict, AlgLengthError):
        raise verdict
    if verdict:
        print(verdict)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _run(args)
    except AlgLengthError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
