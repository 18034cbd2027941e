"""Pluggable durable media for the write-ahead journal.

A :class:`DurableStore` persists two things: an append-only journal of
record lines and one snapshot document. The snapshot protocol is
two-phase — persist the new snapshot *first*, then truncate the journal
records it covers — so a crash between the phases leaves a snapshot
plus an overlapping journal tail, which recovery dedupes by record
sequence number (every snapshot carries the last sequence it folded).

:class:`InMemoryDurableStore` is the zero-cost default (bit-for-bit
legacy behaviour, state dies with the process — useful for tests that
simulate a crash by keeping the store object while discarding the
serving objects). :class:`FileDurableStore` writes a JSONL journal and
a JSON snapshot under a directory, with the snapshot replaced
atomically via a temp file + ``os.replace``.
"""

from __future__ import annotations

import os


class StoreCorruption(RuntimeError):
    """The durable medium itself is unreadable (distinct from a record
    failing CRC validation, which is :class:`~repro.durability.codec.
    JournalCorruption`)."""


class DurableStore:
    """Contract every durable medium implements.

    ``write_snapshot`` takes the chaos hook so the *mid-snapshot*
    injection point can crash between the two phases of the snapshot
    protocol on any medium.
    """

    def append(self, seq: int, line: str) -> None:
        """Durably append one encoded journal record."""
        raise NotImplementedError

    def read_journal(self) -> list[str]:
        """All persisted journal lines, in append order."""
        raise NotImplementedError

    def write_snapshot(self, doc: str, last_seq: int, chaos=None) -> None:
        """Persist ``doc`` as the snapshot, then drop journal records
        with ``seq <= last_seq``. Trips the ``mid_snapshot`` injection
        point between the two phases."""
        raise NotImplementedError

    def read_snapshot(self) -> str | None:
        """The persisted snapshot document, or ``None``."""
        raise NotImplementedError


class InMemoryDurableStore(DurableStore):
    """Journal + snapshot held in plain Python structures."""

    def __init__(self) -> None:
        self._records: list[tuple[int, str]] = []
        self._snapshot: str | None = None
        self.appends = 0
        self.snapshots = 0

    def append(self, seq: int, line: str) -> None:
        self._records.append((seq, line))
        self.appends += 1

    def read_journal(self) -> list[str]:
        return [line for _, line in self._records]

    def write_snapshot(self, doc: str, last_seq: int, chaos=None) -> None:
        self._snapshot = doc
        self.snapshots += 1
        if chaos is not None:
            chaos.trip("mid_snapshot")
        self._records = [(seq, line) for seq, line in self._records if seq > last_seq]

    def read_snapshot(self) -> str | None:
        return self._snapshot


class FileDurableStore(DurableStore):
    """JSONL journal + JSON snapshot under one directory.

    Layout: ``<dir>/journal.jsonl`` (one record line per append) and
    ``<dir>/snapshot.json`` (replaced atomically). A leftover
    ``snapshot.json.tmp`` from a crash mid-write is ignored on read and
    overwritten on the next snapshot. The journal is appended through
    one handle, opened by the first append and flushed per record;
    :meth:`close` releases it (a later append reopens).
    """

    JOURNAL = "journal.jsonl"
    SNAPSHOT = "snapshot.json"

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._journal_path = os.path.join(self.directory, self.JOURNAL)
        self._snapshot_path = os.path.join(self.directory, self.SNAPSHOT)
        self._journal_fh = None
        self.appends = 0
        self.snapshots = 0

    def append(self, seq: int, line: str) -> None:
        if self._journal_fh is None:
            self._journal_fh = open(self._journal_path, "a", encoding="utf-8")
        self._journal_fh.write(line + "\n")
        self._journal_fh.flush()
        self.appends += 1

    def close(self) -> None:
        """Release the journal append handle."""
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None

    def read_journal(self) -> list[str]:
        try:
            with open(self._journal_path, encoding="utf-8") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise StoreCorruption(f"unreadable journal: {exc}") from exc
        # A torn final append may leave a line without its newline; the
        # record-level CRC (not this split) decides whether it is valid.
        return [line for line in raw.split("\n") if line]

    def write_snapshot(self, doc: str, last_seq: int, chaos=None) -> None:
        from repro.durability.codec import decode_record

        tmp = self._snapshot_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(doc)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._snapshot_path)
        self.snapshots += 1
        if chaos is not None:
            chaos.trip("mid_snapshot")
        kept = []
        for line in self.read_journal():
            try:
                seq, _, _ = decode_record(line)
            except Exception:
                # An undecodable line is a torn write that never took
                # effect; the snapshot now durably covers everything
                # that did, so dropping it is the repair, not a loss.
                continue
            if seq > last_seq:
                kept.append(line)
        journal_tmp = self._journal_path + ".tmp"
        with open(journal_tmp, "w", encoding="utf-8") as fh:
            for line in kept:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        # The held handle would keep appending to the replaced file.
        self.close()
        os.replace(journal_tmp, self._journal_path)

    def read_snapshot(self) -> str | None:
        try:
            with open(self._snapshot_path, encoding="utf-8") as fh:
                return fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreCorruption(f"unreadable snapshot: {exc}") from exc
