"""Journal record lines and the request-body codec.

A journal record is one JSON line::

    {"crc": <crc32 of canonical rec>, "rec": [seq, op, [values...]], "v": 5}

Records are *positional*: :data:`FIELDS` names, per op, the values of
its record in line order, so a line never spells out a key. A ``put``
that carries its request's admission holds the admit's values (all but
the uuid the put already names, :data:`CARRIED_ADMIT`) as a nested list
in its last field, or ``null``. ``baseline`` and ``recover`` records
are rare and nested, so they keep a keyed ``data`` object; so does any
op without a field tuple. The write path hands :func:`encode_record`
the values already in line order; :func:`decode_record` names them
again, so replay folds keyed ``dict`` records.

Values are restricted to JSON types. A request body inside them is the
base64 of the pickled tuple of its :data:`BODY_FIELDS` values, trace
``None`` (:func:`encode_body`). The CRC is computed over the canonical
serialization (sorted keys, no spaces) of the ``rec`` array, so a
decoded record can be re-verified without byte-preserving the original
line; records and snapshot documents share one canonical encoder.

Version 5 made the body a field tuple. Version 4 had made records
positional and let a ``put`` carry the ``admit`` of a request released
by the door call that admitted it (see :meth:`repro.durability.journal.
Journal.hold_admit`), version 3 one ``ack`` record per ``ack`` call and
one ``settle`` record per gateway ``on_settled`` call, version 2 the
body-less ``put``. Lines of any other version are refused
(:class:`FormatMismatch`), not migrated.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import operator
import pickle
import zlib
from json import encoder as _json

from repro.core.tasks import TaskRequest

FORMAT_VERSION = 5

#: A body's values, in pickled-tuple order.
BODY_FIELDS = tuple(f.name for f in dataclasses.fields(TaskRequest))
_TRACE = BODY_FIELDS.index("trace")
_body_values = operator.attrgetter(*BODY_FIELDS)

#: op -> the names of its record's values, in line order.
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


# One C encoder, built here: ``JSONEncoder.encode`` builds one per call.
# No circular-reference bookkeeping (``markers`` None): records and
# documents are fresh trees.
_iterencode = _json.c_make_encoder(
    None, json.JSONEncoder().default, _json.encode_basestring_ascii,
    None, ":", ",", True, False, True,  # indent, separators, sort_keys, skipkeys, allow_nan
)


def encode_record(seq: int, op: str, values) -> str:
    """Encode one journal record as a CRC-protected JSON line: ``values``
    in :data:`FIELDS` order (a carried admit as its :data:`CARRIED_ADMIT`
    values), or the keyed ``data`` of an op without a field tuple."""
    # The canonical ``rec`` text is both the CRC input and, spliced in
    # verbatim, the envelope's middle: the line equals a sorted-keys
    # dump of the whole envelope without serializing ``rec`` twice.
    rec = encode_doc([seq, op, values])
    crc = zlib.crc32(rec.encode("utf-8"))
    return f'{{"crc":{crc},"rec":{rec},"v":{FORMAT_VERSION}}}'


def encode_doc(doc) -> str:
    """``json.dumps(doc, sort_keys=True, separators=(",", ":"))``: a
    snapshot document, or a record's ``rec``, serialized canonically."""
    return "".join(_iterencode(doc, 0))


def decode_record(line: str) -> tuple[int, str, dict]:
    """Decode and CRC-verify one journal line; returns ``(seq, op, data)``.

    Raises :class:`JournalCorruption` on malformed JSON, an unexpected
    structure, or a CRC mismatch. Callers tolerating a torn final write
    must catch this for the *last* line only (see
    :func:`repro.durability.recovery.load_state`) — except its
    :class:`FormatMismatch` subclass, raised for an intact record of
    another format version.
    """
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise JournalCorruption(f"unparseable journal line: {exc}") from exc
    if (
        not isinstance(doc, dict)
        or not isinstance(doc.get("rec"), list)
        or len(doc["rec"]) != 3
    ):
        raise JournalCorruption(f"malformed journal record: {line[:120]!r}")
    if doc.get("v") != FORMAT_VERSION:
        raise FormatMismatch(
            f"journal record has format version {doc.get('v')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    seq, op, data = doc["rec"]
    fields = FIELDS.get(op) if isinstance(op, str) else None
    if fields is None:
        shaped = isinstance(data, dict)
    else:
        shaped = isinstance(data, list) and len(data) == len(fields)
    if not isinstance(seq, int) or not isinstance(op, str) or not shaped:
        raise JournalCorruption(f"malformed journal record fields: {line[:120]!r}")
    crc = zlib.crc32(encode_doc(doc["rec"]).encode("utf-8"))
    if crc != doc.get("crc"):
        raise JournalCorruption(
            f"crc mismatch on record seq={seq} op={op!r}: "
            f"stored {doc.get('crc')}, computed {crc}"
        )
    if fields is None:
        return seq, op, data
    record = dict(zip(fields, data))
    if op == "put" and record["admit"] is not None:
        admit = record["admit"]
        if not isinstance(admit, list) or len(admit) != len(CARRIED_ADMIT):
            raise JournalCorruption(f"malformed carried admit at seq={seq}")
        record["admit"] = dict(zip(CARRIED_ADMIT, admit))
    return seq, op, record


def encode_body(body: TaskRequest) -> str:
    """Encode a request to text: its :data:`BODY_FIELDS` values, pickled.

    The trace context is written as ``None``: it is per-incarnation
    observability state, never needed to re-serve the request, and may
    reference live tracer internals.
    """
    values = _body_values(body)
    if values[_TRACE] is not None:
        values = (*values[:_TRACE], None, *values[_TRACE + 1:])
    return base64.b64encode(pickle.dumps(values, pickle.HIGHEST_PROTOCOL)).decode("ascii")


def decode_body(text: str) -> TaskRequest:
    """Inverse of :func:`encode_body`: the request is rebuilt without
    ``__init__``, so no task counter moves."""
    request = object.__new__(TaskRequest)
    try:
        values = pickle.loads(base64.b64decode(text.encode("ascii")))
        vars(request).update(zip(BODY_FIELDS, values, strict=True))
    except Exception as exc:  # corrupt payloads fail loud, never partially
        raise JournalCorruption(f"undecodable message body: {exc}") from exc
    return request
