"""Report rendering: one human-readable line per finding plus a summary."""

from __future__ import annotations

from typing import Iterable

from repro.analysis.framework import Finding


def render_human(
    findings: Iterable[Finding], files_scanned: int, verbose: bool = False
) -> str:
    """One line per unsuppressed finding plus a summary.

    ``verbose`` additionally lists suppressed findings with their pragma
    justifications, so a reviewer can audit the waivers without reading
    every pragma in the tree.
    """
    findings = list(findings)
    live = [f for f in findings if not f.suppressed]
    waived = [f for f in findings if f.suppressed]
    lines = [f"{f.location()}: {f.rule} {f.message}" for f in live]
    if verbose and waived:
        lines.append("")
        lines.append("suppressed by pragma:")
        lines.extend(
            f"  {f.location()}: {f.rule} — {f.reason}" for f in waived
        )
    lines.append("")
    lines.append(
        f"detlint: {len(live)} finding(s), {len(waived)} suppressed by "
        f"pragma, {files_scanned} file(s) scanned"
    )
    return "\n".join(lines).lstrip("\n")
