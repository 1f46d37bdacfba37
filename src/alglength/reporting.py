"""Machine-readable run reports with byte-deterministic serialization."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from .algebra import Algebra
from .bounds import CHECKS, BoundReport
from .length import LengthReport
from .oracle import BruteForceResult

SCHEMA_VERSION = 2


def canonical_json(payload) -> str:
    """Stable byte form: sorted keys, compact separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def vector_payload(vector) -> list[str]:
    return [str(x) for x in vector]


def length_report_payload(report: LengthReport) -> dict:
    return {
        "charseq": list(report.charseq),
        "charseq_partial": not report.is_generating,
        "length": report.length,
        "generating": report.is_generating,
        "stop_reason": report.stop_reason,
        "fresh_basis": [
            {
                "length": length,
                "vectors": [vector_payload(v) for v in vectors],
            }
            for length, vectors in report.fresh_basis
        ],
    }


def bound_report_payload(report: BoundReport) -> dict:
    payload: dict = {"wellformed": report.wellformed, "ok": report.ok()}
    for token, check in report.checks.items():
        payload[CHECKS[token][0]] = asdict(check)
    return payload


def brute_force_payload(result: BruteForceResult) -> dict:
    return {
        "length": result.length,
        "witness": [vector_payload(v) for v in result.witness],
        "subspaces_tested": result.subspaces_tested,
        "generating_count": result.generating_count,
    }


def run_report(
    command: str,
    version: str,
    algebra: Algebra,
    algebra_path: str,
    algebra_bytes: bytes,
    options: dict,
    result: dict,
) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": "alglength",
        "version": version,
        "command": command,
        "options": options,
        "result": result,
        "input": {
            "path": algebra_path,
            "sha256": sha256_hex(algebra_bytes),
            "dim": algebra.n,
            "field": algebra.field.descriptor(),
        },
    }
