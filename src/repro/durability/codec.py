"""Journal record lines and the request-body codec.

A journal record is one JSON line::

    {"crc": <crc32 of canonical [seq, op, data]>, "rec": [seq, op, data], "v": 3}

``data`` is restricted to JSON types; request bodies inside it are
pickled and base64-encoded by :func:`encode_body` (with the trace
context stripped — traces are observability state, not serving state,
and may hold unpicklable tracer internals). Bodies are not compressed:
a pickled ``TaskRequest`` is ~220 bytes, of which zlib saved ~30 for
three quarters of the encoding time. The CRC is computed over the
canonical serialization (sorted keys, no spaces) of the ``rec`` array,
so a decoded record can be re-verified without byte-preserving the
original line.

Version 3 writes one ``ack`` record per ``ack`` call (the delivery
tags of a dispatched micro-batch) and one ``settle`` record per gateway
``on_settled`` call (its task uuids), and snapshots keep a count of
settled requests instead of their uuids (see
:mod:`repro.durability.state`). Version 2 had dropped the body
compression and the body of ``put`` records that follow an ``admit``.
Lines and snapshots of any other version are refused
(:class:`FormatMismatch`), not migrated.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import pickle
import zlib
from typing import Any

FORMAT_VERSION = 3


class JournalCorruption(RuntimeError):
    """A journal record or snapshot failed structural or CRC validation."""


class FormatMismatch(JournalCorruption):
    """A well-formed record or snapshot written in another format
    version — never a torn write, so never tolerated as one."""


_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_record(seq: int, op: str, data: dict) -> str:
    """Encode one journal record as a CRC-protected JSON line."""
    # The canonical ``rec`` text is both the CRC input and, spliced in
    # verbatim, the envelope's middle: the line equals a sorted-keys
    # dump of the whole envelope without serializing ``rec`` twice.
    rec = _canonical([seq, op, data])
    crc = zlib.crc32(rec.encode("utf-8"))
    return f'{{"crc":{crc},"rec":{rec},"v":{FORMAT_VERSION}}}'


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
    if not isinstance(seq, int) or not isinstance(op, str) or not isinstance(data, dict):
        raise JournalCorruption(f"malformed journal record fields: {line[:120]!r}")
    crc = zlib.crc32(_canonical(doc["rec"]).encode("utf-8"))
    if crc != doc.get("crc"):
        raise JournalCorruption(
            f"crc mismatch on record seq={seq} op={op!r}: "
            f"stored {doc.get('crc')}, computed {crc}"
        )
    return seq, op, data


def encode_body(body: Any) -> str:
    """Encode a queue message body (usually a ``TaskRequest``) to text.

    The trace context is stripped before pickling: it is per-incarnation
    observability state, never needed to re-serve the request, and may
    reference live tracer internals.
    """
    if dataclasses.is_dataclass(body) and getattr(body, "trace", None) is not None:
        body = dataclasses.replace(body, trace=None)
    raw = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(raw).decode("ascii")


def decode_body(text: str) -> Any:
    """Inverse of :func:`encode_body`."""
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as exc:  # corrupt payloads fail loud, never partially
        raise JournalCorruption(f"undecodable message body: {exc}") from exc
