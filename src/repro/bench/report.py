"""One renderer and one writer for every bench report.

A bench report is a plain JSON-able document. :func:`render` prints
any such document; :func:`write` commits it as ``BENCH_<name>.json``
at the repository root, the artifact CI regenerates and diffs.

Every number :func:`render` prints sits beside the path that names it,
in the syntax ``tools/check_bench_baseline.py`` resolves (dotted keys,
``[i]`` list indices), and is printed exactly as the JSON artifact
stores it — so any number on screen can be bounded or looked up.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Where artifacts are committed: the repository root.
ROOT = Path(__file__).resolve().parents[3]
#: Characters a key may not contain: the path syntax's separators, and
#: whitespace, which separates a path from its value in the rendering.
_UNNAMEABLE = frozenset(".[] \t\n")


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _is_cell(value) -> bool:
    return value is None or isinstance(value, (bool, int, float))


def _table(path: str, node: dict) -> str | None:
    """``node`` as a table, if its values are dicts of numbers with the
    same keys (rows by key, columns by inner key); else ``None``."""
    rows = list(node.values())
    if not all(isinstance(row, dict) and row for row in rows):
        return None
    columns = list(rows[0])
    if any(
        list(row) != columns or not all(map(_is_cell, row.values()))
        for row in rows
    ):
        return None
    grid = [[""] + [str(column) for column in columns]] + [
        [str(key)] + [json.dumps(row[column]) for column in columns]
        for key, row in node.items()
    ]
    widths = [max(len(line[i]) for line in grid) for i in range(len(grid[0]))]
    return "\n".join(
        [path]
        + [
            "  " + "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
            for line in grid
        ]
    )


def _collect(node, path: str, out: list) -> None:
    if isinstance(node, dict) and node:
        table = _table(path, node)
        if table is not None:
            out.append(table)
            return
        for key, child in node.items():
            _collect(child, _join(path, key), out)
    elif isinstance(node, (list, tuple)) and node:
        for i, child in enumerate(node):
            _collect(child, f"{path}[{i}]", out)
    else:
        out.append((path, json.dumps(node)))


def render(doc) -> str:
    """Print ``doc``: tables where they fit, ``path value`` elsewhere.

    A dict whose values are dicts of numbers with the same keys prints
    as a table under its path: a header of column keys, then one
    indented row per key. Every other leaf prints as one line, its
    path then its JSON value.
    """
    entries: list = []
    _collect(doc, "", entries)
    width = max((len(e[0]) for e in entries if isinstance(e, tuple)), default=0)
    return "\n".join(
        e if isinstance(e, str) else f"{e[0]:<{width}}  {e[1]}" for e in entries
    )


def _check_names(node, path: str) -> None:
    if isinstance(node, dict):
        for key, child in node.items():
            if _UNNAMEABLE & set(str(key)):
                raise ValueError(
                    f"key {str(key)!r} under {path or 'the root'!r} cannot be "
                    "named by a metric path"
                )
            _check_names(child, _join(path, key))
    elif isinstance(node, (list, tuple)):
        for i, child in enumerate(node):
            _check_names(child, f"{path}[{i}]")


def write(name: str, doc) -> Path:
    """Commit ``doc`` as ``BENCH_<name>.json`` at the repository root.

    Raises :class:`ValueError` on a key no metric path can name and on
    a non-finite float (neither is valid in an artifact), and
    :class:`FileNotFoundError` when the package is not imported from a
    source checkout (an installed copy has no repository root to write
    to, and the drift gate would then diff untouched files).
    """
    if not (ROOT / "pyproject.toml").is_file():
        raise FileNotFoundError(
            f"{ROOT} is not a source checkout (no pyproject.toml); "
            "bench artifacts are written from one"
        )
    _check_names(doc, "")
    path = ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2, allow_nan=False))
    return path
