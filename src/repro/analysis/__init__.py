"""detlint — AST-based determinism and hot-path lint for this repo.

Every bench baseline and replay proof in this tree leans on one
invariant: a serve-loop run on the :class:`~repro.sim.clock.VirtualClock`
is *bit-for-bit reproducible*. A stray ``time.time()``, an unseeded
``random`` call, or an iteration over an unordered ``set`` feeding a
scheduling decision silently breaks that — and nothing in ordinary
testing catches it, because the broken run is still a *plausible* run.

This package turns the invariant into CI-enforced rules:

- **DET001** — wall-clock reads banned in virtual-clock domains.
- **DET002** — randomness must flow through :mod:`repro.sim.rng`.
- **DET003** — no unordered iteration in scheduling/settlement modules.
- **DET004** — no ``sum()`` over unordered collections in metric /
  forecast accumulation paths (float addition is order-sensitive).
- **DET005** — no ``itertools.count`` bound outside a function: a
  process-wide counter makes a run depend on the runs before it.
- **HOT001** — no new comprehensions / ``.copy()`` allocations inside
  the registered per-tick hot functions (protects the O(log n) work).

Findings are suppressed inline with a justified pragma::

    something_flagged()  # detlint: allow[DET001] — reason it is safe

A pragma without a reason is itself a finding (**DET000**). Run the
analyzer with ``python tools/run_detlint.py src/repro``.
"""

from repro.analysis.framework import (
    Finding,
    Rule,
    all_rules,
    analyze_paths,
    analyze_source,
)
from repro.analysis.pragmas import Pragma, parse_pragmas
from repro.analysis.report import render_human

__all__ = [
    "Finding",
    "Pragma",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "parse_pragmas",
    "render_human",
]
