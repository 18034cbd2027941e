"""Pluggable durable media for the write-ahead journal.

A :class:`DurableStore` persists two things, both encoded ``bytes``
(:mod:`repro.durability.codec`): an append-only journal of records and
one snapshot document. The snapshot protocol is two-phase — persist the
new snapshot *first*, then truncate the journal records it covers — so
a crash between the phases leaves a snapshot plus an overlapping
journal tail, which recovery dedupes by record sequence number (every
snapshot carries the last sequence it folded).

:class:`InMemoryDurableStore` is the zero-cost default: it keeps the
bytes as they are, and they die with the process (tests simulate a
crash by keeping the store object while discarding the serving
objects). :class:`FileDurableStore` writes them under a directory.
"""

from __future__ import annotations

import base64
import binascii
import os


class StoreCorruption(RuntimeError):
    """The durable medium itself is unreadable (distinct from a record
    failing CRC validation, which is :class:`~repro.durability.codec.
    JournalCorruption`)."""


class DurableStore:
    """Contract every durable medium implements.

    ``append(seq, record)`` durably appends one encoded journal record;
    ``read_journal()`` returns every persisted record in append order;
    ``read_snapshot()`` returns the persisted snapshot document or
    ``None``; ``write_snapshot(doc, last_seq, chaos)`` persists ``doc``,
    then drops the records with ``seq <= last_seq``. It takes the chaos
    hook so the *mid-snapshot* injection point can crash between those
    two phases on any medium.
    """


class InMemoryDurableStore(DurableStore):
    """Journal + snapshot held in plain Python structures."""

    def __init__(self) -> None:
        self._records: list[tuple[int, bytes]] = []
        self._snapshot: bytes | None = None
        self.appends = 0
        self.snapshots = 0

    def append(self, seq: int, record: bytes) -> None:
        """Keep one record under its ``seq``."""
        self._records.append((seq, record))
        self.appends += 1

    def read_journal(self) -> list[bytes]:
        """Every kept record, in append order."""
        return [record for _, record in self._records]

    def write_snapshot(self, doc: bytes, last_seq: int, chaos=None) -> None:
        """Keep ``doc``, trip ``mid_snapshot``, drop ``seq <= last_seq``."""
        self._snapshot = doc
        self.snapshots += 1
        if chaos is not None:
            chaos.trip("mid_snapshot")
        self._records = [(seq, record) for seq, record in self._records if seq > last_seq]

    def read_snapshot(self) -> bytes | None:
        """The last snapshot kept, or ``None``."""
        return self._snapshot


def _unline(line: bytes) -> bytes:
    """The record a journal line holds. A line that is no base64 is a
    JSON line of an older format, handed on for the codec to refuse by
    its version, or garbage or a torn write: no record at all."""
    try:
        return base64.b64decode(line, validate=True)
    except binascii.Error:
        return line if line[:1] == b"{" else b""


class FileDurableStore(DurableStore):
    """Base64-line journal + raw snapshot under one directory.

    Layout: ``<dir>/journal.jsonl``, one base64 line per record (a torn
    write is an unterminated last line, mid-file damage one bad line
    among good ones), and ``<dir>/snapshot.json``, the raw snapshot
    bytes replaced atomically via a temp file + ``os.replace`` (a
    leftover ``.tmp`` is ignored). The names predate format 6, so an
    older format's directory is read and refused. The journal is
    appended through one handle, opened by the first append and flushed
    per record; :meth:`close` releases it (a later append reopens).
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

    def append(self, seq: int, record: bytes) -> None:
        """Append one record as a flushed base64 line."""
        if self._journal_fh is None:
            self._journal_fh = open(self._journal_path, "ab")
        self._journal_fh.write(base64.b64encode(record) + b"\n")
        self._journal_fh.flush()
        self.appends += 1

    def close(self) -> None:
        """Release the journal append handle."""
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None

    def read_journal(self) -> list[bytes]:
        """Every line's record (:func:`_unline`), in append order."""
        try:
            with open(self._journal_path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise StoreCorruption(f"unreadable journal: {exc}") from exc
        # A torn final append may leave a line without its newline; the
        # codec (not this split) decides whether its record is valid.
        return [_unline(line) for line in raw.split(b"\n") if line]

    def write_snapshot(self, doc: bytes, last_seq: int, chaos=None) -> None:
        """Replace the snapshot atomically, then keep records past ``last_seq``."""
        from repro.durability.codec import JournalCorruption, decode_record

        tmp = self._snapshot_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(doc)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._snapshot_path)
        self.snapshots += 1
        if chaos is not None:
            chaos.trip("mid_snapshot")
        kept = []
        for record in self.read_journal():
            try:
                seq, _, _ = decode_record(record)
            except JournalCorruption:
                # An undecodable record is a torn write that never took
                # effect; the snapshot now durably covers everything
                # that did, so dropping it is the repair, not a loss.
                continue
            if seq > last_seq:
                kept.append(base64.b64encode(record) + b"\n")
        journal_tmp = self._journal_path + ".tmp"
        with open(journal_tmp, "wb") as fh:
            fh.write(b"".join(kept))
            fh.flush()
            os.fsync(fh.fileno())
        # The held handle would keep appending to the replaced file.
        self.close()
        os.replace(journal_tmp, self._journal_path)

    def read_snapshot(self) -> bytes | None:
        """The snapshot's bytes, or ``None`` when none was written."""
        try:
            with open(self._snapshot_path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreCorruption(f"unreadable snapshot: {exc}") from exc
