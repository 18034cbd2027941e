"""Tier-1 check that the e2e benchmark's traced layers still resolve.

``benchmarks/e2e/outside_trace.py`` wraps each layer's boundary
functions through ``vars(owner)[name]`` on every traced suite run, so a
refactor that renames, moves or inherits one of them breaks the
benchmark, not the suite. This reads ``LAYERS`` and requires every name
to be defined directly on its owner.
"""

import sys
from pathlib import Path

# The benchmark's modules import each other by bare name; it is read
# here, never edited.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))
import outside_trace  # noqa: E402


def test_every_traced_layer_function_is_defined_on_its_owner():
    missing = [
        f"{layer}: {getattr(owner, '__name__', owner)}.{name}"
        for layer, owners in outside_trace.LAYERS.items()
        for owner, names in owners
        for name in names
        if name not in vars(owner)
    ]
    assert not missing
