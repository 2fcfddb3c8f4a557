"""Machine-readable report envelope shared by every CLI command.

The schema is published as :data:`REPORT_SCHEMA`; reports are deterministic
for deterministic commands except for the ``timing_seconds`` field.
"""

from __future__ import annotations

import hashlib
import json

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://example.invalid/orthologic-report.schema.json",
    "title": "orthologic CLI report",
    "type": "object",
    "required": [
        "command",
        "arguments",
        "inputs",
        "results",
        "witnesses",
        "passed",
        "exit_code",
        "timing_seconds",
        "version",
    ],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "arguments": {"type": "array", "items": {"type": "string"}},
        "inputs": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["source", "sha256"],
                "additionalProperties": False,
                "properties": {
                    "source": {"type": "string"},
                    "sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
                },
            },
        },
        "results": {"type": "object"},
        "witnesses": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["property", "elements"],
                "additionalProperties": False,
                "properties": {
                    "property": {"type": "string"},
                    "elements": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "passed": {"type": "boolean"},
        "exit_code": {"type": "integer", "enum": [0, 1, 2]},
        "timing_seconds": {"type": "number"},
        "version": {"type": "string"},
        "error": {"type": "string"},
    },
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def render_text(report: dict) -> str:
    lines = [f"orthologic {report['command']} (v{report['version']})"]
    if "error" in report:
        lines.append(f"error: {report['error']}")
    verdict = "pass" if report["passed"] else "FAIL"
    lines.append(f"status: {verdict} (exit {report['exit_code']})")
    for key in sorted(report["results"]):
        value = report["results"][key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key}: {value}")
    for witness in report["witnesses"]:
        elements = ", ".join(witness["elements"])
        lines.append(f"witness {witness['property']}: ({elements})")
    lines.append(f"timing: {report['timing_seconds']:.6f}s")
    return "\n".join(lines)
