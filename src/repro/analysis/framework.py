"""Analyzer core: findings, the rule registry, and the analyze entrypoints.

A :class:`Rule` is a small AST checker scoped by
:mod:`repro.analysis.domains`; the framework parses each file once,
runs every applicable rule, then applies pragma suppressions
(:mod:`repro.analysis.pragmas`). Suppressed findings are *kept* in the
result with their justification — reports show what was waived, not
just what failed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.pragmas import parse_pragmas

#: Rule id of the framework-level "malformed pragma" finding.
MALFORMED_PRAGMA = "DET000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    #: Package-relative path (``core/runtime.py``) the domain tables use.
    relpath: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    #: Pragma justification when suppressed.
    reason: str | None = None

    def location(self) -> str:
        """``path:line:col`` for human output (1-based column)."""
        return f"{self.path}:{self.line}:{self.col + 1}"


class Rule:
    """Base class for one detlint rule.

    Subclasses set :attr:`id` / :attr:`title`, scope themselves via
    ``applies_to(relpath)``, and yield ``(line, col, message)`` triples
    from ``check(tree, relpath)``. Registration happens at import time through
    :func:`register`.
    """

    id: str = ""
    title: str = ""


_REGISTRY: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add ``rule`` to the registry (id collisions are a bug)."""
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule


def all_rules() -> list[Rule]:
    """Every registered rule, id-ordered (imports the rule modules)."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rule_ids() -> frozenset[str]:
    """Registered ids plus the framework's own DET000."""
    _load_builtin_rules()
    return frozenset(_REGISTRY) | {MALFORMED_PRAGMA}


def _load_builtin_rules() -> None:
    # Imported lazily to avoid a cycle: rule modules import this module
    # for Rule/register.
    from repro.analysis import det_rules, hot_rules  # noqa: F401


def analyze_source(
    source: str,
    relpath: str,
    path: str | None = None,
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Analyze one source string as if it lived at ``relpath``.

    This is the fixture-test entrypoint: tests hand in synthetic code
    with a package-relative path so domain scoping applies exactly as
    it would on a real file. Returns findings sorted by location, with
    pragma suppressions already applied.
    """
    display = path or relpath
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rule=MALFORMED_PRAGMA,
                path=display,
                relpath=relpath,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    active = list(rules) if rules is not None else all_rules()
    known = rule_ids()
    findings: list[Finding] = []
    for rule in active:
        if not rule.applies_to(relpath):
            continue
        for line, col, message in rule.check(tree, relpath):
            findings.append(
                Finding(
                    rule=rule.id,
                    path=display,
                    relpath=relpath,
                    line=line,
                    col=col,
                    message=message,
                )
            )

    pragmas = parse_pragmas(source)
    well_formed = []
    for pragma in pragmas:
        problems = pragma.problems(known)
        if problems:
            findings.append(
                Finding(
                    rule=MALFORMED_PRAGMA,
                    path=display,
                    relpath=relpath,
                    line=pragma.line,
                    col=pragma.col,
                    message="malformed pragma: " + "; ".join(problems),
                )
            )
        else:
            well_formed.append(pragma)

    for i, finding in enumerate(findings):
        if finding.rule == MALFORMED_PRAGMA:
            continue
        for pragma in well_formed:
            if finding.rule in pragma.rules and pragma.covers(finding.line):
                findings[i] = replace(
                    finding, suppressed=True, reason=pragma.reason
                )
                break
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def package_relpath(path: Path) -> str:
    """Map an on-disk path to the package-relative form domains use.

    Everything after the last ``repro`` directory component:
    ``/root/repo/src/repro/core/runtime.py`` -> ``core/runtime.py``.
    Falls back to the bare filename for paths outside the package.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1 :])
    return path.name


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            seen.extend(child for child in p.rglob("*.py"))
        else:
            seen.append(p)
    yield from sorted(set(seen))


def analyze_paths(
    paths: Iterable[str | Path], rules: Iterable[Rule] | None = None
) -> tuple[list[Finding], int]:
    """Analyze files/trees; returns ``(findings, files_scanned)``."""
    findings: list[Finding] = []
    count = 0
    for path in iter_python_files(paths):
        count += 1
        findings.extend(
            analyze_source(
                path.read_text(encoding="utf-8"),
                package_relpath(path),
                path=str(path),
                rules=rules,
            )
        )
    return findings, count
