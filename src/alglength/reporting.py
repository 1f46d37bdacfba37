"""Machine-readable run reports with byte-deterministic serialization."""

from __future__ import annotations

import hashlib
import json

from .algebra import Algebra
from .bounds import BoundCheck, BoundReport, ChainCheck
from .fields import Field
from .length import LengthReport
from .oracle import BruteForceResult

SCHEMA_VERSION = 2


def canonical_json(payload) -> str:
    """Stable byte form: sorted keys, compact separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def vector_payload(field: Field, vector) -> list[str]:
    return [field.format(x) for x in vector]


def length_report_payload(report: LengthReport, field: Field) -> dict:
    return {
        "charseq": list(report.charseq.terms),
        "charseq_partial": report.charseq.partial,
        "length": report.length,
        "generating": report.is_generating,
        "stop_reason": report.stop_reason,
        "fresh_basis": [
            {
                "length": length,
                "vectors": [vector_payload(field, v) for v in vectors],
            }
            for length, vectors in report.fresh_basis
        ],
    }


def _chain_payload(check: ChainCheck) -> dict:
    return {
        "ok": check.ok,
        "strict": check.strict,
        "witnesses": [list(w) for w in check.witnesses],
        "failures": [list(f) for f in check.failures],
    }


def _bound_payload(check: BoundCheck) -> dict:
    return {
        "ok": check.ok,
        "failures": [list(f) for f in check.failures],
        "equalities": list(check.equalities),
    }


def bound_report_payload(report: BoundReport) -> dict:
    payload: dict = {"wellformed": report.wellformed, "ok": report.ok()}
    if report.addition_chain is not None:
        payload["addition_chain"] = _chain_payload(report.addition_chain)
    if report.strict_addition_chain is not None:
        payload["strict_addition_chain"] = _chain_payload(report.strict_addition_chain)
    if report.power_bound is not None:
        payload["power_bound"] = _bound_payload(report.power_bound)
    if report.fibonacci_bound is not None:
        payload["fibonacci_bound"] = _bound_payload(report.fibonacci_bound)
    if report.k_bound is not None:
        payload["k_bound"] = _bound_payload(report.k_bound)
    return payload


def brute_force_payload(result: BruteForceResult, field: Field) -> dict:
    return {
        "length": result.length,
        "witness": [vector_payload(field, v) for v in result.witness],
        "subspaces_tested": result.subspaces_tested,
        "generating_count": result.generating_count,
    }


def run_report(
    command: str,
    version: str,
    algebra: Algebra | None,
    algebra_path: str | None,
    algebra_bytes: bytes | None,
    options: dict,
    result: dict,
) -> dict:
    report: dict = {
        "schema": SCHEMA_VERSION,
        "tool": "alglength",
        "version": version,
        "command": command,
        "options": options,
        "result": result,
    }
    if algebra is not None:
        report["input"] = {
            "path": algebra_path,
            "sha256": sha256_hex(algebra_bytes) if algebra_bytes is not None else None,
            "dim": algebra.n,
            "field": algebra.field.descriptor(),
        }
    return report
