#!/usr/bin/env python3
"""Reachability gate: every module under ``src/`` has a production importer.

A module only its own tests import is dead weight that a grep for its
name will not find, because the package ``__init__`` re-exports it.
This tool walks the import graph from the production roots and fails
when a module is left over.

**Roots.** Every ``*.py`` under ``benchmarks/``, ``examples/`` and
``tools/`` (``test_*.py`` excluded — a test is not a caller), plus the
module of each ``[project.scripts]`` target in ``pyproject.toml``.

**Edges.** ``import a.b`` and ``from a.b import c`` statements anywhere
in a file (function bodies included), for modules under ``src/``:

* ``from pkg import name`` where ``pkg.name`` is a submodule reaches it;
* ``from pkg import Name`` where the package ``__init__`` binds ``Name``
  with an import of its own reaches the module that *defines* ``Name``
  (followed through as many ``__init__`` re-exports as it takes);
* a package ``__init__`` importing its submodules is **not** a use of
  them — that is the re-export that hides an orphan — so an
  ``__init__`` is only ever read as a table of re-exports, and
  ``import pkg`` of a package reaches nothing (import the name you use).

Imports built from strings at run time are not followed. Prints every
unreachable module; exit status 1 if there is one. Usage::

    python tools/check_reachability.py [repo_root]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOT_DIRS = ("benchmarks", "examples", "tools")


def source_modules(src: Path) -> dict[str, Path]:
    """Dotted name -> file for every module under ``src`` (a package
    is named by its directory and maps to its ``__init__.py``)."""
    modules: dict[str, Path] = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path, module: str | None = None) -> list[tuple[str, str | None, str]]:
    """Every ``(module, name, bound_as)`` a file imports; ``name`` is
    ``None`` for ``import module``. ``module`` (the file's own dotted
    name, ending ``.__init__`` for a package) resolves relative imports."""
    found: list[tuple[str, str | None, str]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend(
                (alias.name, None, alias.asname or alias.name.split(".")[0])
                for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if module is None:
                    continue  # a root script has no package to be relative to
                package = module.split(".")[: -node.level]
                base = ".".join(package + ([base] if base else []))
            found.extend((base, alias.name, alias.asname or alias.name) for alias in node.names)
    return found


def script_modules(pyproject: Path) -> list[str]:
    """The module of each ``[project.scripts]`` target (``mod:func``)."""
    if not pyproject.exists():
        return []
    section = re.search(
        r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)", pyproject.read_text(), re.M | re.S
    )
    if section is None:
        return []
    return re.findall(r'=\s*"([\w.]+):', section.group(1))


def root_files(repo: Path) -> list[Path]:
    """The production entry points outside ``src/``."""
    return [
        path
        for name in ROOT_DIRS
        for path in sorted((repo / name).rglob("*.py"))
        if not path.name.startswith("test_")
    ]


def unreachable(repo: Path) -> list[str]:
    """Modules under ``repo/src`` that no root reaches, sorted."""
    modules = source_modules(repo / "src")
    packages = {name for name, path in modules.items() if path.name == "__init__.py"}
    reexports: dict[str, dict[str, tuple[str, str | None]]] = {}

    def exports(package: str) -> dict[str, tuple[str, str | None]]:
        """Name -> the import that binds it in ``package/__init__.py``."""
        if package not in reexports:
            reexports[package] = {
                bound: (module, name)
                for module, name, bound in imported_names(
                    modules[package], f"{package}.__init__"
                )
            }
        return reexports[package]

    def resolve(module: str, name: str | None, seen: frozenset = frozenset()) -> list[str]:
        """The plain modules one import statement reaches."""
        if module not in modules or (module, name) in seen:
            return []
        if module not in packages:
            return [module]  # whatever name is taken from it
        if name is None:
            return []  # ``import pkg`` runs the __init__ and uses nothing
        if f"{module}.{name}" in modules:
            return resolve(f"{module}.{name}", None)
        source = exports(module).get(name)  # None: defined in the __init__ itself
        return resolve(*source, seen | {(module, name)}) if source else []

    reached: set[str] = set()
    todo: list[tuple[Path, str | None]] = []

    def reach(module: str, name: str | None) -> None:
        for target in resolve(module, name):
            if target not in reached:
                reached.add(target)
                todo.append((modules[target], target))

    for module in script_modules(repo / "pyproject.toml"):
        reach(module, None)
    todo.extend((path, None) for path in root_files(repo))
    while todo:
        path, own = todo.pop()
        for module, name, _ in imported_names(path, own):
            reach(module, name)
    return sorted(set(modules) - packages - reached)


def main(argv: list[str]) -> int:
    """Print the unreachable modules of the tree; 1 if there is one."""
    repo = Path(argv[1]).resolve() if len(argv) > 1 else REPO_ROOT
    orphans = unreachable(repo)
    for module in orphans:
        print(f"unreachable: {module} (no benchmark, example, tool or script imports it)")
    total = len(source_modules(repo / "src"))
    print(f"checked {total} module(s) under src/: {len(orphans)} unreachable")
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
