"""Wire codec for the detection service — ``repro.serve/v1``.

Every request and response body on the wire is one *payload*: a JSON-able
tree of dicts, lists, strings, numbers, booleans, and nulls, sent as UTF-8
``application/json``.  Python's ``json`` emits ``repr``-exact floats, so
probability vectors survive a round-trip bit-for-bit, and the encoder sorts
keys (:func:`~repro.utils.specfile.canonical_json`), so equal payloads give
equal bytes.

``decode(encode(x)) == x`` for every tree of supported types
(property-tested in ``tests/test_serving_wire.py``).  Unsupported types
raise :class:`WireError` at encode time, malformed bytes at decode time
(arrays nested too deep to parse and integers past Python's 4,300-digit
conversion limit among them), and a content type other than JSON in either
direction — never an unhandled JSON/Unicode error.  The decoder is strict JSON (RFC 8259): the
non-standard ``NaN``, ``Infinity`` and ``-Infinity`` constants that
Python's ``json`` accepts by default are malformed bytes too.
"""

from __future__ import annotations

import json
from typing import Iterator

from repro.utils.specfile import canonical_json

#: Wire schema identifier carried by every request/response payload.
SERVE_SCHEMA = "repro.serve/v1"

JSON_CONTENT_TYPE = "application/json"


class WireError(ValueError):
    """A payload cannot be encoded, or wire bytes cannot be decoded."""


def _require_json(content_type: str) -> None:
    base = content_type.split(";")[0].strip().lower()
    if base not in (JSON_CONTENT_TYPE, "", "*/*"):
        raise WireError(f"unsupported content type {content_type!r}")


def encode_payload(payload: object, content_type: str = JSON_CONTENT_TYPE) -> bytes:
    """Encode ``payload`` as wire JSON; ``content_type`` must name JSON."""
    _require_json(content_type)
    try:
        return canonical_json(payload).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"payload is not JSON-encodable: {exc}") from exc


def _reject_constant(name: str) -> object:
    raise WireError(f"invalid JSON payload: {name} is not a JSON number")


def decode_payload(data: bytes, content_type: str = JSON_CONTENT_TYPE) -> object:
    """Decode wire bytes declared as ``content_type``, which must be JSON."""
    _require_json(content_type)
    try:
        return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except WireError:
        raise
    except (ValueError, RecursionError) as exc:
        # ValueError covers undecodable UTF-8, malformed JSON and an
        # integer past Python's digit limit; RecursionError, nesting too
        # deep for the parser.
        raise WireError(f"invalid JSON payload: {exc}") from exc


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
