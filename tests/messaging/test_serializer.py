"""Unit tests for size-accounted serialization."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.messaging.serializer import (
    PickleSerializer,
    SerializationError,
    estimate_nbytes,
)
from repro.sim.clock import VirtualClock


class TestPickleSerializer:
    def test_roundtrip(self):
        s = PickleSerializer()
        obj = {"a": [1, 2, 3], "b": np.arange(4)}
        restored = pickle.loads(s.dumps(obj))
        assert restored["a"] == [1, 2, 3]
        assert np.array_equal(restored["b"], np.arange(4))

    def test_charges_clock(self):
        clock = VirtualClock()
        s = PickleSerializer(clock)
        s.dumps({"x": 1})
        assert clock.now() > 0

    def test_byte_accounting(self):
        s = PickleSerializer()
        data = s.dumps([1, 2, 3])
        assert s.bytes_serialized == len(data)

    def test_unpicklable_raises(self):
        s = PickleSerializer()
        with pytest.raises(SerializationError):
            s.dumps(lambda x: x)

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=20),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=8), children, max_size=4),
            max_leaves=20,
        )
    )
    def test_roundtrip_property(self, obj):
        s = PickleSerializer()
        assert pickle.loads(s.dumps(obj)) == obj


class TestEstimate:
    def test_ndarray_estimate_uses_nbytes(self):
        arr = np.zeros(1000)
        assert estimate_nbytes(arr) >= arr.nbytes

    def test_bytes_and_str(self):
        assert estimate_nbytes(b"abcd") == 4
        assert estimate_nbytes("abcd") == 4

    def test_generic_object(self):
        assert estimate_nbytes({"a": 1}) > 0

    def test_unpicklable_falls_back(self):
        assert estimate_nbytes(lambda: None) == 512
