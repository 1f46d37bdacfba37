"""Command line interface.

Subcommands: ``length``, ``charseq``, ``dims``, ``verify``, ``gen-example``,
``oracle-check``, ``brute-force``.  All take ``--algebra PATH`` (except
gen-example, which writes one), optional ``--json PATH`` for a
machine-readable report, ``--lc-shortcut`` and ``--require-generating``.

Exit codes: 0 success, 1 domain errors (e.g. a non-generating set under
``--require-generating``), 2 usage or parse errors.  Every error path prints
one line ``error[<Class>]: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .algebra import Algebra, check_lc_basis
from .bounds import CHECKS, verify_sequence
from .errors import (
    AlgLengthError,
    BudgetExceeded,
    NotGenerating,
    ParseError,
)
from .fields import GF, QQ
from .fileformat import parse_algebra, parse_digits, parse_gens, serialize_algebra
from .families import FAMILY_NAMES, make_example
from .length import LengthReport, compute_length, dims_from_charseq
from .oracle import brute_force_algebra_length, enumerate_words_spans
from . import reporting

CHECK_TOKENS = (*CHECKS, "lc")
DEFAULT_CHECKS = "chain,power"
# Largest --kmax accepted: the dims list has K+1 entries.
MAX_KMAX = 1 << 20


def _seq_str(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", metavar="PATH", help="algebra file (v1 format)")
    common.add_argument("--json", metavar="PATH", help="write a JSON run report")
    common.add_argument(
        "--lc-shortcut",
        action="store_true",
        help="use the tighter stabilization window for locally-complex algebras",
    )
    common.add_argument(
        "--require-generating",
        action="store_true",
        help="fail (exit 1) when the set does not generate",
    )

    parser = argparse.ArgumentParser(
        prog="alglength",
        description="Lengths and characteristic sequences of generating sets "
        "of finite-dimensional non-associative algebras, with exact arithmetic.",
    )
    parser.add_argument("--version", action="version", version=f"alglength {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("length", parents=[common], help="compute l(S)")
    p.add_argument("--gens", required=True, help="generating set spec")

    p = sub.add_parser("charseq", parents=[common], help="characteristic sequence of S")
    p.add_argument("--gens", required=True)

    p = sub.add_parser("dims", parents=[common], help="dims of L_0..L_K")
    p.add_argument("--gens", required=True)
    p.add_argument("--kmax", type=int, required=True, metavar="K")

    p = sub.add_parser("verify", parents=[common], help="run bound checks on S")
    p.add_argument("--gens", required=True)
    p.add_argument(
        "--checks",
        default=DEFAULT_CHECKS,
        help=f"comma list from {', '.join(CHECK_TOKENS)} (default {DEFAULT_CHECKS})",
    )

    p = sub.add_parser("gen-example", parents=[common], help="write a family instance")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n", type=int, default=None, help="family size parameter")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument(
        "--field",
        default="rational",
        help="coefficient field: 'rational' (default) or 'prime:<p>'",
    )

    p = sub.add_parser(
        "oracle-check", parents=[common], help="compare engine dims with word enumeration"
    )
    p.add_argument("--gens", required=True)
    p.add_argument("--kmax", type=int, required=True, metavar="K")

    sub.add_parser(
        "brute-force", parents=[common], help="l(A) over GF(p) by subspace enumeration"
    )
    return parser


def _load_algebra(args) -> tuple[Algebra, str, bytes]:
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
    return parse_algebra(text), str(path), data


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
        raise BudgetExceeded(
            f"--kmax {kmax} exceeds the limit {MAX_KMAX}", count=kmax + 1
        )


def _write_file(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from None


def _write_json(args, payload) -> None:
    if args.json:
        _write_file(args.json, reporting.canonical_json(payload))


def _report_options(args, **extra) -> dict:
    opts = {
        "lc_shortcut": args.lc_shortcut,
        "require_generating": args.require_generating,
    }
    opts.update(extra)
    return opts


def _print_run_header(algebra, path: str) -> None:
    print(f"algebra {path}: dim {algebra.n}, field {algebra.field.descriptor()}")


def _cmd_length(args) -> int:
    algebra, path, data = _load_algebra(args)
    gens = parse_gens(args.gens, algebra)
    report = _engine_report(algebra, gens, args)
    _print_run_header(algebra, path)
    if report.is_generating:
        print(f"l(S) = {report.length}")
        print(f"characteristic sequence: {_seq_str(report.charseq)}")
    else:
        print(f"l(S) = not generating (stop: {report.stop_reason})")
        print(f"partial sequence: {_seq_str(report.charseq)}")
    payload = reporting.run_report(
        "length", __version__, algebra, path, data,
        _report_options(args, gens=args.gens),
        reporting.length_report_payload(report, algebra.field),
    )
    _write_json(args, payload)
    return 0


def _cmd_charseq(args) -> int:
    algebra, path, data = _load_algebra(args)
    gens = parse_gens(args.gens, algebra)
    report = _engine_report(algebra, gens, args)
    marker = " (partial: set does not generate)" if report.charseq.partial else ""
    print(f"characteristic sequence: {_seq_str(report.charseq)}{marker}")
    payload = reporting.run_report(
        "charseq", __version__, algebra, path, data,
        _report_options(args, gens=args.gens),
        reporting.length_report_payload(report, algebra.field),
    )
    _write_json(args, payload)
    return 0


def _cmd_dims(args) -> int:
    algebra, path, data = _load_algebra(args)
    gens = parse_gens(args.gens, algebra)
    _check_kmax(args.kmax)
    if args.require_generating:
        report = _engine_report(algebra, gens, args)
    else:
        report = compute_length(algebra, gens)
    dims = dims_from_charseq(report.charseq.terms, args.kmax)
    print(f"dims: {_seq_str(dims)}")
    payload = reporting.run_report(
        "dims", __version__, algebra, path, data,
        _report_options(args, gens=args.gens, kmax=args.kmax),
        {"dims": dims},
    )
    _write_json(args, payload)
    return 0


def _cmd_verify(args) -> int:
    algebra, path, data = _load_algebra(args)
    gens = parse_gens(args.gens, algebra)
    tokens = [t.strip() for t in args.checks.split(",") if t.strip()]
    for t in tokens:
        if t not in CHECK_TOKENS:
            raise ParseError(
                f"unknown check {t!r}; choose from {', '.join(CHECK_TOKENS)}"
            )
    report = _engine_report(algebra, gens, args)
    bound = verify_sequence(report.charseq, [t for t in tokens if t != "lc"])
    results = {"wellformed": bound.wellformed}
    results.update((t, check.ok) for t, check in bound.checks.items())
    if "lc" in tokens:
        results["lc"] = check_lc_basis(algebra)
    print(f"characteristic sequence: {_seq_str(report.charseq)}")
    for name, ok in results.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    all_ok = all(results.values())
    payload = reporting.run_report(
        "verify", __version__, algebra, path, data,
        _report_options(args, gens=args.gens, checks=tokens),
        {
            "checks": results,
            "all_ok": all_ok,
            "bounds": reporting.bound_report_payload(bound),
            "charseq": list(report.charseq.terms),
        },
    )
    _write_json(args, payload)
    if not all_ok:
        failed = ",".join(name for name, ok in results.items() if not ok)
        print(f"error[ChecksFailed]: {failed}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _parse_field_option(text: str):
    if text == "rational":
        return QQ
    if text.startswith("prime:") and text[6:].isdigit():
        return GF(parse_digits(text[6:]))
    raise ParseError(f"bad --field value {text!r}; use 'rational' or 'prime:<p>'")


def _cmd_gen_example(args) -> int:
    field = _parse_field_option(args.field)
    algebra, gens = make_example(args.family, args.n, field)
    text = serialize_algebra(algebra)
    out = Path(args.out)
    _write_file(out, text)
    gen_names = []
    for v in gens:
        idx = max(i for i, x in enumerate(v) if x)
        gen_names.append(algebra.basis_names[idx])
    print(
        f"wrote {out} (family {args.family}, dim {algebra.n}, "
        f"field {algebra.field.descriptor()}, gens {','.join(gen_names)})"
    )
    payload = reporting.run_report(
        "gen-example", __version__, algebra, str(out), text.encode("utf-8"),
        _report_options(args, family=args.family, n=args.n, field=args.field),
        {"path": str(out), "gens": gen_names, "lc": algebra.lc_flag},
    )
    _write_json(args, payload)
    return 0


def _cmd_oracle_check(args) -> int:
    algebra, path, data = _load_algebra(args)
    gens = parse_gens(args.gens, algebra)
    _check_kmax(args.kmax)
    oracle_dims = enumerate_words_spans(algebra, gens, args.kmax)
    terms = compute_length(algebra, gens).charseq.terms
    engine_dims = dims_from_charseq(terms, args.kmax)
    agree = oracle_dims == engine_dims
    print(f"engine dims: {_seq_str(engine_dims)}")
    print(f"oracle dims: {_seq_str(oracle_dims)}")
    print(f"agree: {'yes' if agree else 'NO'}")
    payload = reporting.run_report(
        "oracle-check", __version__, algebra, path, data,
        _report_options(args, gens=args.gens, kmax=args.kmax),
        {"engine_dims": engine_dims, "oracle_dims": oracle_dims, "agree": agree},
    )
    _write_json(args, payload)
    if not agree:
        print("error[OracleMismatch]: engine and word enumeration disagree", file=sys.stderr)
        return 1
    return 0


def _cmd_brute_force(args) -> int:
    algebra, path, data = _load_algebra(args)
    result = brute_force_algebra_length(algebra)
    _print_run_header(algebra, path)
    print(f"l(A) = {result.length}")
    for v in result.witness:
        print(f"witness: [{', '.join(algebra.field.format(x) for x in v)}]")
    print(
        f"subspaces tested: {result.subspaces_tested}, "
        f"generating: {result.generating_count}"
    )
    payload = reporting.run_report(
        "brute-force", __version__, algebra, path, data,
        _report_options(args),
        reporting.brute_force_payload(result, algebra.field),
    )
    _write_json(args, payload)
    return 0


_COMMANDS = {
    "length": _cmd_length,
    "charseq": _cmd_charseq,
    "dims": _cmd_dims,
    "verify": _cmd_verify,
    "gen-example": _cmd_gen_example,
    "oracle-check": _cmd_oracle_check,
    "brute-force": _cmd_brute_force,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except AlgLengthError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
