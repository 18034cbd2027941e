"""Size-accounted serialization.

Task envelopes crossing the wire are serialized here so that (a) the byte
counts feeding the latency model are real, and (b) serialization costs are
charged to the virtual clock, mirroring the pickle costs a production
deployment pays.
"""

from __future__ import annotations

import io
import pickle
from typing import Any

import numpy as np

from repro.sim import calibration as cal
from repro.sim.clock import VirtualClock


class SerializationError(ValueError):
    """Raised when an object cannot be serialized."""


class Serializer:
    """Base serializer; subclasses implement ``_encode(obj) -> bytes``.

    If constructed with a :class:`VirtualClock`, each :meth:`dumps`
    charges the calibrated fixed + per-byte serialization cost.
    """

    name = "base"

    def __init__(self, clock: VirtualClock | None = None) -> None:
        self.clock = clock
        self.bytes_serialized = 0

    def _charge(self, nbytes: int) -> None:
        if self.clock is not None:
            self.clock.advance(cal.SERIALIZE_FIXED_S + nbytes * cal.SERIALIZE_PER_BYTE_S)

    def dumps(self, obj: Any) -> bytes:
        data = self._encode(obj)
        self.bytes_serialized += len(data)
        self._charge(len(data))
        return data


class PickleSerializer(Serializer):
    """Pickle-based serializer (what ZeroMQ task envelopes use)."""

    name = "pickle"

    def _encode(self, obj: Any) -> bytes:
        try:
            return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # unpicklable lambdas, open handles, ...
            raise SerializationError(f"cannot pickle {type(obj).__name__}: {exc}") from exc


def estimate_nbytes(obj: Any) -> int:
    """Cheap size estimate for latency accounting.

    NumPy arrays report their buffer size directly; other objects fall back
    to a pickle round (acceptable for the small envelopes DLHub ships).
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 128
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    buf = io.BytesIO()
    try:
        pickle.dump(obj, buf, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return 512
    return buf.tell()
