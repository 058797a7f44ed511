"""Wire codec for the detection service — ``repro.serve/v1``.

Every request and response body on the wire is one *payload*: a JSON-able
tree of dicts, lists, strings, numbers, booleans, and nulls.  The codec
speaks two formats for the same payloads, negotiated per request by
``Content-Type`` (the versioned dual-format idiom — a readable default plus
a compact binary twin):

- ``application/json`` — UTF-8 JSON, the default and the debuggable form.
  Python's ``json`` emits ``repr``-exact floats, so probability vectors
  survive a JSON round-trip bit-for-bit.
- ``application/x-repro-pack`` — "repro-pack", a compact length-prefixed
  binary encoding defined here (stdlib ``struct`` only; the container has
  no msgpack).  Floats travel as raw IEEE-754 doubles, so the binary form
  is exact *by construction* and roughly 2× smaller than JSON for
  probability-heavy responses.

Both directions are total on supported payloads: ``decode(encode(x)) == x``
for every tree of supported types (property-tested in
``tests/test_serving_wire.py``).  Unsupported types raise :class:`WireError`
at encode time; malformed bytes raise :class:`WireError` at decode time —
never an unhandled struct/Unicode error.

repro-pack format
-----------------

A payload is ``MAGIC || value`` where ``MAGIC = b"RPK1"``.  A value is one
tag byte followed by tag-specific content; all integers little-endian::

    n                None
    t / f            True / False
    i  <int64>       integer (|x| < 2**63; larger ints are rejected)
    d  <float64>     IEEE-754 double
    s  <u32> bytes   UTF-8 string
    l  <u32> value*  list
    m  <u32> (s-value value)*   dict with string keys, insertion order kept

The format is deliberately closed under exactly the JSON data model: a
payload that encodes as repro-pack also encodes as JSON and vice versa.
"""

from __future__ import annotations

import json
import struct
from typing import Iterator

from repro.utils.specfile import canonical_json

#: Wire schema identifier carried by every request/response payload.
SERVE_SCHEMA = "repro.serve/v1"

MAGIC = b"RPK1"

JSON_CONTENT_TYPE = "application/json"
BINARY_CONTENT_TYPE = "application/x-repro-pack"

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


class WireError(ValueError):
    """A payload cannot be encoded, or wire bytes cannot be decoded."""


# --------------------------------------------------------------------- #
# repro-pack
# --------------------------------------------------------------------- #


def _pack_value(value: object, out: list[bytes]) -> None:
    if value is None:
        out.append(b"n")
    elif value is True:
        out.append(b"t")
    elif value is False:
        out.append(b"f")
    elif isinstance(value, int):
        if not _I64_MIN <= value <= _I64_MAX:
            raise WireError(f"integer out of int64 range: {value!r}")
        out.append(b"i" + struct.pack("<q", value))
    elif isinstance(value, float):
        out.append(b"d" + struct.pack("<d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"s" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(value, (list, tuple)):
        out.append(b"l" + struct.pack("<I", len(value)))
        for item in value:
            _pack_value(item, out)
    elif isinstance(value, dict):
        out.append(b"m" + struct.pack("<I", len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireError(f"dict keys must be strings, got {key!r}")
            raw = key.encode("utf-8")
            out.append(struct.pack("<I", len(raw)) + raw)
            _pack_value(item, out)
    else:
        raise WireError(
            f"unsupported wire type {type(value).__name__} (value {value!r})"
        )


def pack(payload: object) -> bytes:
    """Encode a JSON-able payload tree to repro-pack bytes."""
    out: list[bytes] = [MAGIC]
    _pack_value(payload, out)
    return b"".join(out)


class _Cursor:
    """Bounds-checked reader over one repro-pack buffer."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireError(
                f"truncated repro-pack payload (wanted {n} bytes at "
                f"offset {self.pos}, have {len(self.data) - self.pos})"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _unpack_string(cursor: _Cursor) -> str:
    raw = cursor.take(cursor.u32())
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid UTF-8 in repro-pack string: {exc}") from exc


def _unpack_value(cursor: _Cursor) -> object:
    tag = cursor.take(1)
    if tag == b"n":
        return None
    if tag == b"t":
        return True
    if tag == b"f":
        return False
    if tag == b"i":
        return struct.unpack("<q", cursor.take(8))[0]
    if tag == b"d":
        return struct.unpack("<d", cursor.take(8))[0]
    if tag == b"s":
        return _unpack_string(cursor)
    if tag == b"l":
        count = cursor.u32()
        return [_unpack_value(cursor) for _ in range(count)]
    if tag == b"m":
        count = cursor.u32()
        return {_unpack_string(cursor): _unpack_value(cursor) for _ in range(count)}
    raise WireError(f"unknown repro-pack tag {tag!r} at offset {cursor.pos - 1}")


def unpack(data: bytes) -> object:
    """Decode repro-pack bytes back to the payload tree."""
    if data[: len(MAGIC)] != MAGIC:
        raise WireError(
            f"not a repro-pack payload (magic {data[:len(MAGIC)]!r}, "
            f"expected {MAGIC!r})"
        )
    cursor = _Cursor(data)
    cursor.pos = len(MAGIC)
    value = _unpack_value(cursor)
    if cursor.pos != len(data):
        raise WireError(
            f"{len(data) - cursor.pos} trailing byte(s) after repro-pack payload"
        )
    return value


# --------------------------------------------------------------------- #
# Content negotiation
# --------------------------------------------------------------------- #


def encode_payload(payload: object, content_type: str = JSON_CONTENT_TYPE) -> bytes:
    """Encode ``payload`` for the wire in the requested format."""
    base = content_type.split(";")[0].strip().lower()
    if base == BINARY_CONTENT_TYPE:
        return pack(payload)
    if base in (JSON_CONTENT_TYPE, "", "*/*"):
        try:
            return canonical_json(payload).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise WireError(f"payload is not JSON-encodable: {exc}") from exc
    raise WireError(f"unsupported content type {content_type!r}")


def decode_payload(data: bytes, content_type: str = JSON_CONTENT_TYPE) -> object:
    """Decode wire bytes according to the declared content type."""
    base = content_type.split(";")[0].strip().lower()
    if base == BINARY_CONTENT_TYPE:
        return unpack(data)
    if base in (JSON_CONTENT_TYPE, "", "*/*"):
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"invalid JSON payload: {exc}") from exc
    raise WireError(f"unsupported content type {content_type!r}")


# --------------------------------------------------------------------- #
# Request validation helpers
# --------------------------------------------------------------------- #


def require_schema(payload: object) -> dict:
    """Check the envelope: a dict declaring ``schema = repro.serve/v1``."""
    if not isinstance(payload, dict):
        raise WireError(f"request payload must be an object, got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema != SERVE_SCHEMA:
        raise WireError(f"request needs schema = {SERVE_SCHEMA!r}, got {schema!r}")
    return payload


def iter_cells(raw: object) -> Iterator[tuple[int, str]]:
    """Validate a wire cell list (``[[row, attribute], ...]``)."""
    if not isinstance(raw, list):
        raise WireError("cells must be a list of [row, attribute] pairs")
    for entry in raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not isinstance(entry[0], int)
            or isinstance(entry[0], bool)
            or not isinstance(entry[1], str)
        ):
            raise WireError(f"bad cell entry {entry!r}; expected [row, attribute]")
        yield entry[0], entry[1]
