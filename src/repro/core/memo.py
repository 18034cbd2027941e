"""Memoization cache (the Parsl-executor cache at the Task Manager).

"DLHub's Parsl executor implements memoization, caching the inputs and
outputs for each request and returning the recorded output for a new
request if its inputs are in the cache" (SS V-B2). The crucial design
point — ablated in the Fig. 8 bench — is *placement*: this cache lives at
the Task Manager, so hits never touch the cluster, unlike Clipper's
in-cluster frontend cache.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Any

from repro.sim import calibration as cal
from repro.sim.clock import VirtualClock


class MemoCache:
    """LRU input->output cache with virtual-time lookup cost."""

    _MISSING = object()

    def __init__(
        self,
        clock: VirtualClock | None = None,
        max_entries: int = 10_000,
        lookup_cost_s: float = cal.TASK_MANAGER_CACHE_LOOKUP_S,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.clock = clock
        self.max_entries = max_entries
        self.lookup_cost_s = lookup_cost_s
        self._cache: OrderedDict[bytes, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.unhashable = 0

    @staticmethod
    def make_key(signature: tuple) -> bytes | None:
        """Serialize an input signature; None if it cannot be keyed."""
        try:
            return pickle.dumps(signature, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None

    def _charge(self) -> None:
        if self.clock is not None:
            self.clock.advance(self.lookup_cost_s)

    def lookup(self, key: bytes | None) -> Any:
        """Return the value cached under ``key`` (a :meth:`make_key`
        result, ``None`` for an unkeyable signature) or :attr:`MISSING`;
        charges lookup cost."""
        self._charge()
        if key is None:
            self.unhashable += 1
            return self._MISSING
        value = self._cache.get(key, self._MISSING)
        if value is self._MISSING:
            self.misses += 1
        else:
            self._cache.move_to_end(key)
            self.hits += 1
        return value

    @property
    def MISSING(self) -> object:
        """The sentinel :meth:`lookup` returns on a miss."""
        return self._MISSING

    def store(self, key: bytes | None, value: Any) -> bool:
        """Insert a result under ``key`` (as :meth:`lookup` takes it);
        returns False if the signature was unkeyable."""
        if key is None:
            return False
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self.evictions += 1
        return True

    # -- cache warming (fleet rebalancing) ---------------------------------------
    def export_entries(
        self, servable_name: str | None = None
    ) -> list[tuple[bytes, Any]]:
        """Snapshot cache entries, optionally for one servable.

        Signatures are ``(servable_name, args, kwargs_items)`` tuples
        (see :meth:`TaskRequest.input_signature`), so filtering unpickles
        each key and matches its first element. Used to warm a freshly
        placed copy so rebalancing does not cold-start the ~1 ms
        memoized path (SS V-B5).
        """
        entries: list[tuple[bytes, Any]] = []
        for key, value in self._cache.items():
            if servable_name is not None:
                try:
                    signature = pickle.loads(key)
                except Exception:  # pragma: no cover - keys we made unpickle
                    continue
                if not (
                    isinstance(signature, tuple)
                    and signature
                    and signature[0] == servable_name
                ):
                    continue
            entries.append((key, value))
        return entries

    def absorb(self, entries: list[tuple[bytes, Any]]) -> int:
        """Import exported entries (no lookup cost charged — the copy
        ships alongside the deployment transfer already paid for).

        Existing entries are overwritten in place; LRU order treats
        absorbed entries as most recent. Returns how many were stored.
        """
        for key, value in entries:
            self._cache[key] = value
            self._cache.move_to_end(key)
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self.evictions += 1
        return len(entries)

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        self._cache.clear()
