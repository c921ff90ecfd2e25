"""The terminal rendering of a :class:`~repro.analysis.core.LintResult`."""

from __future__ import annotations

from typing import List

from .core import Finding, LintResult


def render_human(result: LintResult) -> str:
    """The terminal report: one line per finding plus a summary."""
    lines: List[str] = []
    for f in sorted(result.findings, key=Finding.sort_key):
        lines.append(f"{f.location()}: {f.rule} [{f.severity}] {f.message}")
        if f.snippet:
            lines.append(f"    {f.snippet}")
    for err in result.parse_errors:
        lines.append(f"parse error: {err}")
    summary = (f"simlint: {result.files_scanned} files, "
               f"{len(result.findings)} findings "
               f"({result.suppressed} suppressed)")
    if result.ok:
        summary += " — ok"
    lines.append(summary)
    return "\n".join(lines)
