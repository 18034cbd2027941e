"""Journal records, snapshot documents and the request-body codec.

Format 7 frames a record and a snapshot document alike: a five-byte
header — the format version and the CRC-32 of the payload — then the
payload, ``pickle.dumps(obj, protocol=5)`` of ``(seq, op, values)`` or
of the document (under :data:`DOC_VERSION`). A reader checks version
and CRC before it unpickles anything. The journal and snapshot are the
process's own state: unpickling them trusts them, as format 5 trusted
every body, and the CRC detects damage, not forgery.

Records are *positional*: :data:`FIELDS` names, per op, the values of
its record in order. A ``put`` that carries its request's admission
(see :meth:`repro.durability.journal.Journal.hold_admit`) holds the
admit's values less the uuid (:data:`CARRIED_ADMIT`) in its last
field, or ``None``; ``baseline``, ``recover`` and any op without a
field tuple keep a keyed ``data`` dict. :func:`decode_record` names
the values again, so replay folds keyed ``dict`` records. A body is
the pickled tuple of its request's 8 :data:`BODY_FIELDS` values
(:func:`encode_body`), held as ``bytes``; format 6's had 10.

Formats 1 to 5 were JSON text lines, and snapshot documents 1 to 4
JSON objects; like any other version they are refused
(:class:`FormatMismatch`, naming both versions), not migrated. Each
format's history is in ``docs/ARCHITECTURE.md``, "Durability &
recovery".
"""

from __future__ import annotations

import dataclasses
import json
import operator
import pickle
import struct
import zlib

from repro.core.tasks import TaskRequest

FORMAT_VERSION = 7
DOC_VERSION = 6  # the snapshot document's, since documents are framed
_HEADER = struct.Struct("<BI")  # version, CRC-32 of the payload

#: A body's values, in pickled-tuple order.
BODY_FIELDS = tuple(f.name for f in dataclasses.fields(TaskRequest))
_body_values = operator.attrgetter(*BODY_FIELDS)

#: op -> the names of its record's values, in order.
FIELDS: dict[str, tuple[str, ...]] = {
    "put": (
        "topic",
        "message_id",
        "enqueued_at",
        "counted",
        "task_uuid",
        "body",
        "dispatch_tag",
        "admit",
    ),
    "claim": ("topic", "claims", "claimed_at"),
    "ack": ("delivery_tags",),
    "nack": ("delivery_tag", "outcome"),
    "withdraw": ("topic", "message_ids"),
    "restore": ("message_id",),
    "admit": ("task_uuid", "tenant", "servable", "arrived_at", "weight", "body"),
    "settle": ("task_uuids",),
}

#: The values of an admit a ``put`` carries: the admit's own, less the
#: uuid the put names.
CARRIED_ADMIT = FIELDS["admit"][1:]


class JournalCorruption(RuntimeError):
    """A journal record or snapshot failed structural or CRC validation."""


class FormatMismatch(JournalCorruption):
    """A well-formed record or snapshot written in another format
    version — never a torn write, so never tolerated as one."""


def _frame(version: int, obj) -> bytes:
    payload = pickle.dumps(obj, protocol=5)
    return _HEADER.pack(version, zlib.crc32(payload)) + payload


def _unframe(blob: bytes, version: int, what: str):
    """The object framed in ``blob``, once its version and CRC check."""
    if blob[:1] == b"{":  # JSON text, formats 1 to 5: refused by its version
        try:
            found = json.loads(blob)["v"]
        except (ValueError, TypeError, KeyError) as exc:
            raise JournalCorruption(f"unparseable {what}: {exc!r}") from exc
        raise FormatMismatch(f"{what} has format version {found!r}, expected {version}")
    if len(blob) < _HEADER.size:
        raise JournalCorruption(f"unparseable {what}: {len(blob)} bytes, no whole header")
    found, crc = _HEADER.unpack_from(blob)
    if found != version:
        raise FormatMismatch(f"{what} has format version {found}, expected {version}")
    payload = memoryview(blob)[_HEADER.size:]
    computed = zlib.crc32(payload)
    if computed != crc:
        raise JournalCorruption(f"crc mismatch on {what}: stored {crc}, computed {computed}")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # a CRC-valid payload that is no pickle: not ours
        raise JournalCorruption(f"unparseable {what}: {exc!r}") from exc


def encode_record(seq: int, op: str, values) -> bytes:
    """Encode one journal record: ``values`` in :data:`FIELDS` order (a
    carried admit as its :data:`CARRIED_ADMIT` values), or the keyed
    ``data`` of an op without a field tuple."""
    return _frame(FORMAT_VERSION, (seq, op, values))


def decode_record(record: bytes) -> tuple[int, str, dict]:
    """Decode and CRC-verify one journal record; returns ``(seq, op, data)``.

    Raises :class:`JournalCorruption` on a short frame, a CRC mismatch,
    or an unexpected structure. Callers tolerating a torn final write
    must catch this for the *last* record only (see
    :func:`repro.durability.recovery.load_state`) — except its
    :class:`FormatMismatch` subclass, raised for an intact record of
    another format version.
    """
    rec = _unframe(record, FORMAT_VERSION, "journal record")
    if not isinstance(rec, tuple) or len(rec) != 3:
        raise JournalCorruption(f"malformed journal record: {rec!r:.120}")
    seq, op, data = rec
    fields = FIELDS.get(op) if isinstance(op, str) else None
    if fields is None:
        shaped = isinstance(data, dict)
    else:
        shaped = isinstance(data, (list, tuple)) and len(data) == len(fields)
    if not isinstance(seq, int) or not isinstance(op, str) or not shaped:
        raise JournalCorruption(f"malformed journal record fields: {rec!r:.120}")
    if fields is None:
        return seq, op, data
    record = dict(zip(fields, data))
    if op == "put" and record["admit"] is not None:
        admit = record["admit"]
        if not isinstance(admit, (list, tuple)) or len(admit) != len(CARRIED_ADMIT):
            raise JournalCorruption(f"malformed carried admit at seq={seq}")
        record["admit"] = dict(zip(CARRIED_ADMIT, admit))
    return seq, op, record


def encode_doc(doc: dict) -> bytes:
    """Frame one snapshot document."""
    return _frame(DOC_VERSION, doc)


def decode_doc(blob: bytes) -> dict:
    """Inverse of :func:`encode_doc`, version and CRC checked first."""
    return _unframe(blob, DOC_VERSION, "snapshot")


def encode_body(body: TaskRequest) -> bytes:
    """Encode a request: its :data:`BODY_FIELDS` values, pickled.

    A body is exactly the request's fields: its trace, per-incarnation
    state, is on its :class:`~repro.core.record.RequestRecord`.
    """
    return pickle.dumps(_body_values(body), protocol=5)


def decode_body(data: bytes) -> TaskRequest:
    """Inverse of :func:`encode_body`: the request is rebuilt without
    ``__init__``, so no task counter moves."""
    request = object.__new__(TaskRequest)
    try:
        values = pickle.loads(data)
        vars(request).update(zip(BODY_FIELDS, values, strict=True))
    except Exception as exc:  # corrupt payloads fail loud, never partially
        raise JournalCorruption(f"undecodable message body: {exc}") from exc
    return request
