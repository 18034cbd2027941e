"""Determinism rules DET001-DET005.

Each rule is an AST visitor scoped by the domain tables. They share a
small "set-ish" expression classifier: an expression whose iteration
order is unordered (``set()`` / ``frozenset()`` calls, set
comprehensions, non-constant set literals, locals assigned from those,
and set-algebra binops over them). The classifier is deliberately
local and conservative — it tracks simple same-scope assignments, not
attributes or cross-function flow — so every hit is a real unordered
source, at the price of missing some (a lint, not a verifier).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis import domains
from repro.analysis.framework import Rule, register

# ---------------------------------------------------------------------------
# shared helpers


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportMap(ast.NodeVisitor):
    """Aliases for modules and from-imported names in one file."""

    def __init__(self) -> None:
        #: local alias -> canonical module path ("np" -> "numpy")
        self.modules: dict[str, str] = {}
        #: local name -> "module.name" for from-imports
        self.names: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self.names[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted path of a Name/Attribute chain, or None."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.modules:
            return self.modules[head] + ("." + rest if rest else "")
        if head in self.names:
            return self.names[head] + ("." + rest if rest else "")
        return dotted


def _import_map(tree: ast.AST) -> _ImportMap:
    imports = _ImportMap()
    imports.visit(tree)
    return imports


def _is_setish(node: ast.expr, known_sets: set[str]) -> bool:
    """Whether ``node`` evaluates to an unordered set-like collection."""
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Set):
        # Literal sets of constants ({"a", "b"}) are allowed by spec:
        # their contents are visible at the use site and typically feed
        # membership tests; anything computed is an unordered source.
        return any(not isinstance(elt, ast.Constant) for elt in node.elts)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.Name):
        return node.id in known_sets
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_setish(node.left, known_sets) or _is_setish(
            node.right, known_sets
        )
    return False


def _iter_scopes(tree: ast.AST) -> Iterable[list[ast.AST]]:
    """Yield each lexical scope's nodes (module body, then each function).

    Nested function definitions start their own scope and are excluded
    from the enclosing one, so a set-valued name in one function never
    taints an identically named list in another.
    """
    pending: list[ast.AST] = [tree]
    while pending:
        root = pending.pop(0)
        bucket: list[ast.AST] = []
        stack: list[ast.AST] = [root]
        while stack:
            node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    pending.append(child)
                    continue
                bucket.append(child)
                stack.append(child)
        yield bucket


def _known_set_names(nodes: Iterable[ast.AST]) -> set[str]:
    """Names assigned an unambiguously set-valued expression in one scope.

    ``x = set(...)``, ``x = {c for ...}``, ``x = a | b`` over known
    sets; a second pass resolves one level of chaining.
    """
    nodes = list(nodes)
    known: set[str] = set()
    for _ in range(2):  # second pass resolves x = set(); y = x | other
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _is_setish(node.value, known):
                    known.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name) and _is_setish(
                    node.value, known
                ):
                    known.add(node.target.id)
    return known


# ---------------------------------------------------------------------------
# DET001 — wall-clock reads


#: Attributes of the ``time`` module that read (or wait on) a real clock.
_TIME_READS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
        "sleep",
    }
)

#: Constructors on ``datetime`` objects that capture "now".
_DATETIME_READS = frozenset({"now", "utcnow", "today"})


class WallClockRule(Rule):
    """DET001: no wall-clock reads inside clock-governed domains."""

    id = "DET001"
    title = "wall-clock read in a virtual-clock domain"

    def applies_to(self, relpath: str) -> bool:
        return domains.is_clock_checked(relpath)

    def check(self, tree: ast.AST, relpath: str) -> Iterable[tuple[int, int, str]]:
        imports = _import_map(tree)
        hint = "route timing through VirtualClock (see analysis/domains.py)"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _TIME_READS:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"imports wall-clock `time.{alias.name}` — {hint}",
                        )
            elif isinstance(node, ast.Attribute):
                resolved = imports.resolve(node)
                if resolved is None:
                    continue
                if resolved.startswith("time.") and node.attr in _TIME_READS:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"wall-clock read `{resolved}` — {hint}",
                    )
                elif (
                    resolved.startswith("datetime.")
                    and node.attr in _DATETIME_READS
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"wall-clock read `{resolved}` — {hint}",
                    )


# ---------------------------------------------------------------------------
# DET002 — unseeded / unrouted randomness


class RandomnessRule(Rule):
    """DET002: all randomness flows through the ``sim/rng.py`` chokepoint.

    Flags module-level ``random.*`` calls, every ``numpy.random.*``
    call (even explicitly seeded — construction belongs in
    :func:`repro.sim.rng.generator_from_seed` so streams stay labelled
    and auditable), and ``uuid.uuid1/uuid4`` (random identifiers break
    replay comparison of traces and journals). ``random.Random(seed)``
    with an explicit seed is tolerated; bare ``random.Random()`` and
    ``random.SystemRandom`` are not.
    """

    id = "DET002"
    title = "randomness outside the seeded chokepoint"

    def applies_to(self, relpath: str) -> bool:
        return relpath not in domains.RNG_CHOKEPOINT

    def check(self, tree: ast.AST, relpath: str) -> Iterable[tuple[int, int, str]]:
        imports = _import_map(tree)
        hint = "route through repro.sim.rng (SeededRNG / generator_from_seed)"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"from-import of stdlib random — {hint}",
                    )
                elif node.module == "uuid":
                    for alias in node.names:
                        if alias.name in {"uuid1", "uuid4"}:
                            yield (
                                node.lineno,
                                node.col_offset,
                                f"imports nondeterministic uuid.{alias.name} — {hint}",
                            )
            elif isinstance(node, ast.Call):
                resolved = imports.resolve(node.func)
                if resolved is None:
                    continue
                if resolved.startswith("random."):
                    tail = resolved.split(".", 1)[1]
                    if tail == "Random" and node.args:
                        continue  # explicitly seeded instance
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"unseeded stdlib randomness `{resolved}` — {hint}",
                    )
                elif resolved.startswith("numpy.random."):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"numpy randomness `{resolved}` constructed outside "
                        f"sim/rng.py — {hint}",
                    )
                elif resolved in {"uuid.uuid1", "uuid.uuid4"}:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"nondeterministic id `{resolved}` — derive ids from "
                        "a seeded counter or stable natural key",
                    )


# ---------------------------------------------------------------------------
# DET003 — unordered iteration where order decides scheduling/settlement


class UnorderedIterationRule(Rule):
    """DET003: no order-sensitive iteration over unordered collections.

    In the decision modules, flags ``for``-loop / list- and
    dict-comprehension iteration over set-ish expressions, ``list()`` /
    ``tuple()`` materialization of them, ``sorted(..., key=id)``, and
    ``id(...)`` used as a mapping key — each makes a scheduling or
    settlement order depend on memory layout or hash seed. Wrapping the
    collection in ``sorted(...)`` is the standard fix and is recognized
    as safe.
    """

    id = "DET003"
    title = "unordered iteration in a scheduling/settlement module"

    def applies_to(self, relpath: str) -> bool:
        return relpath in domains.DECISION_MODULES

    def check(self, tree: ast.AST, relpath: str) -> Iterable[tuple[int, int, str]]:
        fix = "sort it (sorted(...)) or keep an ordered structure"
        for scope in _iter_scopes(tree):
            known = _known_set_names(scope)
            yield from self._check_scope(scope, known, fix)

    def _check_scope(
        self, nodes: Iterable[ast.AST], known: set[str], fix: str
    ) -> Iterable[tuple[int, int, str]]:
        for node in nodes:
            if isinstance(node, ast.For) and _is_setish(node.iter, known):
                yield (
                    node.iter.lineno,
                    node.iter.col_offset,
                    f"for-loop over an unordered collection — {fix}",
                )
            elif isinstance(node, (ast.ListComp, ast.DictComp)):
                for gen in node.generators:
                    if _is_setish(gen.iter, known):
                        yield (
                            gen.iter.lineno,
                            gen.iter.col_offset,
                            "comprehension drains an unordered collection "
                            f"into an ordered result — {fix}",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in {"list", "tuple"} and any(
                    _is_setish(arg, known) for arg in node.args
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"{node.func.id}() materializes an unordered "
                        f"collection — {fix}",
                    )
                elif node.func.id == "sorted":
                    for kw in node.keywords:
                        if (
                            kw.arg == "key"
                            and isinstance(kw.value, ast.Name)
                            and kw.value.id == "id"
                        ):
                            yield (
                                node.lineno,
                                node.col_offset,
                                "sorted(..., key=id) orders by memory "
                                "address — sort on a stable key",
                            )
            elif isinstance(node, ast.Subscript):
                if (
                    isinstance(node.slice, ast.Call)
                    and isinstance(node.slice.func, ast.Name)
                    and node.slice.func.id == "id"
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "id(...) as a mapping key ties state to memory "
                        "layout — key on a stable identifier",
                    )


# ---------------------------------------------------------------------------
# DET004 — float accumulation order


class FloatOrderRule(Rule):
    """DET004: no ``sum()`` over unordered collections in accumulation paths.

    Float addition does not associate: summing a set (directly or via a
    generator over one) yields bit-different totals depending on hash
    order. In the metric/forecast modules every ``sum`` must consume an
    ordered source — ``sorted(...)`` the set if the order is otherwise
    arbitrary.
    """

    id = "DET004"
    title = "order-sensitive float accumulation over an unordered collection"

    def applies_to(self, relpath: str) -> bool:
        return relpath in domains.ACCUMULATION_MODULES

    def check(self, tree: ast.AST, relpath: str) -> Iterable[tuple[int, int, str]]:
        for scope in _iter_scopes(tree):
            known = _known_set_names(scope)
            for node in scope:
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"
                    and node.args
                ):
                    continue
                arg = node.args[0]
                hazard = _is_setish(arg, known)
                if isinstance(arg, ast.GeneratorExp):
                    hazard = any(
                        _is_setish(gen.iter, known) for gen in arg.generators
                    )
                if hazard:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "sum() over an unordered collection is bit-unstable "
                        "(float addition does not associate) — sum a "
                        "sorted(...) or otherwise ordered source",
                    )


# ---------------------------------------------------------------------------
# DET005 — process-wide counters


class ProcessCounterRule(Rule):
    """DET005: no ``itertools.count`` bound outside a function.

    A counter bound at module (or class) level is shared by everything
    the process builds, so what it hands one run depends on how many
    things earlier runs drew from it. An id drawn from it that reaches
    modelled time (a pickled width, an order) makes a run depend on its
    process rather than its seed. Bind the counter on the instance that
    owns the ids instead.
    """

    id = "DET005"
    title = "process-wide itertools.count"

    def applies_to(self, relpath: str) -> bool:
        return True

    def check(self, tree: ast.AST, relpath: str) -> Iterable[tuple[int, int, str]]:
        imports = _import_map(tree)
        stack: list[ast.AST] = [tree]
        while stack:
            for node in ast.iter_child_nodes(stack.pop()):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if (
                    isinstance(node, ast.Call)
                    and imports.resolve(node.func) == "itertools.count"
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "itertools.count bound outside a function is shared by "
                        "every run in the process — own it on an instance",
                    )
                stack.append(node)


register(WallClockRule())
register(RandomnessRule())
register(UnorderedIterationRule())
register(FloatOrderRule())
register(ProcessCounterRule())
