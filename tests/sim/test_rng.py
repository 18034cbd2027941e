"""Unit tests for seeded RNG streams."""

import numpy as np

from repro.sim.rng import SeededRNG


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a, b = SeededRNG(42), SeededRNG(42)
        assert np.array_equal(a.normal(size=16), b.normal(size=16))

    def test_different_seeds_differ(self):
        a, b = SeededRNG(1), SeededRNG(2)
        assert not np.array_equal(a.normal(size=16), b.normal(size=16))

    def test_children_independent_by_label(self):
        root = SeededRNG(0)
        a = root.child("latency")
        b = root.child("dataset")
        assert not np.array_equal(a.normal(size=16), b.normal(size=16))

    def test_child_streams_stable(self):
        """Adding consumers never perturbs an existing child stream."""
        x = SeededRNG(5).child("alpha").normal(size=8)
        root = SeededRNG(5)
        root.child("beta")  # new consumer
        y = root.child("alpha").normal(size=8)
        assert np.array_equal(x, y)

    def test_nested_children(self):
        a = SeededRNG(0).child("x").child("y")
        b = SeededRNG(0).child("x").child("y")
        assert np.array_equal(a.normal(size=4), b.normal(size=4))

    def test_passthroughs(self):
        rng = SeededRNG(0)
        assert -10 < rng.normal(0, 1) < 10
