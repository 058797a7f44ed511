"""Wire-protocol tests: round-trip identity, golden schema pins, error paths.

The ``repro.serve/v1`` codec is JSON only and promises
``decode(encode(x)) == x`` for every payload tree in the JSON data model,
with floats bit for bit.  Hypothesis drives the identity properties over
arbitrary trees; the golden fixtures pin the exact bytes of representative
request/response payloads so an accidental schema or encoding change fails
loudly against a committed artifact.  Any other declared content type is a
:class:`WireError`.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.wire import (
    JSON_CONTENT_TYPE,
    SERVE_SCHEMA,
    WireError,
    decode_payload,
    encode_payload,
    iter_cells,
    require_schema,
)

GOLDEN = Path(__file__).parent / "golden"

# The JSON data model, recursively: what the wire format must be closed
# under.  Floats exclude NaN and the infinities: strict JSON (RFC 8259) has
# neither, and the decoder rejects both (``TestDecodeErrors``).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)
payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=20), children, max_size=6),
    ),
    max_leaves=25,
)


def round_trip(payload: object) -> object:
    return decode_payload(encode_payload(payload, JSON_CONTENT_TYPE), JSON_CONTENT_TYPE)


class TestRoundTripProperties:
    @given(payload=payloads)
    @settings(max_examples=75, deadline=None)
    def test_json_negotiated_identity(self, payload):
        assert round_trip(payload) == payload

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=50, deadline=None)
    def test_probability_vectors_bit_exact(self, values):
        """The property the serving layer actually depends on: float vectors
        survive the wire bit-for-bit."""
        decoded = round_trip({"probabilities": values})
        assert decoded["probabilities"] == values
        for a, b in zip(decoded["probabilities"], values):
            assert struct.pack("<d", a) == struct.pack("<d", b)

    def test_awkward_floats_exact(self):
        awkward = [0.1, 2 / 3, 1e-300, 1e300, 5e-324, -0.0, 123456.789]
        decoded = round_trip(awkward)
        assert [struct.pack("<d", v) for v in decoded] == [
            struct.pack("<d", v) for v in awkward
        ]

    def test_tuple_encodes_as_list(self):
        assert round_trip((1, 2, "x")) == [1, 2, "x"]


class TestGoldenFixtures:
    """Committed artifacts pinning the repro.serve/v1 schema and encoding.

    Regenerate with ``pytest tests/test_serving_wire.py --update-golden``.
    """

    @pytest.fixture()
    def golden(self, update_golden):
        path = GOLDEN / "serve_v1_wire.json"
        payloads = _golden_payloads()
        if update_golden:
            document = {
                name: {
                    "payload": payload,
                    "json": encode_payload(payload, JSON_CONTENT_TYPE).decode(
                        "utf-8"
                    ),
                }
                for name, payload in payloads.items()
            }
            path.write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        return json.loads(path.read_text(encoding="utf-8"))

    def test_golden_covers_every_payload(self, golden):
        assert set(golden) == set(_golden_payloads())

    def test_golden_json_encoding_pinned(self, golden):
        for name, payload in _golden_payloads().items():
            assert (
                encode_payload(payload, JSON_CONTENT_TYPE).decode("utf-8")
                == golden[name]["json"]
            ), f"JSON encoding drifted for golden payload {name!r}"

    def test_golden_bytes_decode_to_payload(self, golden):
        for name, entry in golden.items():
            assert decode_payload(
                entry["json"].encode("utf-8"), JSON_CONTENT_TYPE
            ) == entry["payload"], name

    def test_golden_schema_fields(self, golden):
        """The envelope fields of every request/response kind are pinned."""
        for entry in golden.values():
            assert entry["payload"]["schema"] == SERVE_SCHEMA
        detect = golden["detect_response"]["payload"]
        assert set(detect) == {"schema", "kind", "fingerprint", "tenant", "report"}
        report = detect["report"]
        assert set(report) == {
            "schema", "version", "rows", "attributes", "threshold",
            "scored_cells", "flagged_cells", "spec_fingerprint",
            "feature_cache", "artifact_store", "cells",
        }
        assert set(report["cells"][0]) == {
            "row", "attribute", "value", "error_probability", "flagged",
        }
        error = golden["error_response"]["payload"]
        assert set(error) == {"schema", "kind", "error"}
        assert set(error["error"]) == {"code", "message"}


class TestEncodeErrors:
    def test_unsupported_type_rejected(self):
        with pytest.raises(WireError):
            encode_payload({"bad": object()}, JSON_CONTENT_TYPE)

    def test_unsupported_content_type_rejected(self):
        for content_type in ("application/xml", "application/x-repro-pack"):
            with pytest.raises(WireError, match="content type"):
                encode_payload({}, content_type)
            with pytest.raises(WireError, match="content type"):
                decode_payload(b"{}", content_type)


class TestDecodeErrors:
    def test_invalid_json(self):
        with pytest.raises(WireError, match="invalid JSON"):
            decode_payload(b"{nope", JSON_CONTENT_TYPE)
        with pytest.raises(WireError, match="invalid JSON"):
            decode_payload(b"\xff\xfe", JSON_CONTENT_TYPE)

    @pytest.mark.parametrize(
        "body", [b"NaN", b"Infinity", b"-Infinity", b'{"threshold": NaN}',
                 b'{"threshold": [0.5, -Infinity]}'],
    )
    def test_non_standard_constants_rejected(self, body):
        """Python's ``json`` reads these by default; strict JSON has no
        such numbers, so they are malformed bytes like any other."""
        with pytest.raises(WireError, match="is not a JSON number"):
            decode_payload(body, JSON_CONTENT_TYPE)


class TestRequestValidation:
    def test_require_schema_accepts_envelope(self):
        payload = {"schema": SERVE_SCHEMA, "tenant": "acme"}
        assert require_schema(payload) is payload

    def test_require_schema_rejects_non_dict(self):
        with pytest.raises(WireError, match="must be an object"):
            require_schema([1, 2])

    def test_require_schema_rejects_wrong_schema(self):
        with pytest.raises(WireError, match="repro.serve/v1"):
            require_schema({"schema": "repro.serve/v0"})
        with pytest.raises(WireError, match="repro.serve/v1"):
            require_schema({})

    def test_iter_cells_valid(self):
        assert list(iter_cells([[0, "city"], [3, "zip"]])) == [
            (0, "city"),
            (3, "zip"),
        ]

    def test_iter_cells_rejects_bad_entries(self):
        for bad in (
            "cells",
            [[0]],
            [[0, "city", "extra"]],
            [["0", "city"]],
            [[True, "city"]],
            [[0, 1]],
            [None],
        ):
            with pytest.raises(WireError):
                list(iter_cells(bad))


def _golden_payloads() -> dict[str, dict]:
    """Representative payloads of every wire kind, with fixed values."""
    return {
        "detect_request": {
            "schema": SERVE_SCHEMA,
            "fingerprint": "3042e575351c",
            "tenant": "acme",
            "columns": ["zip", "city"],
            "rows": [["60612", "Chicago"], ["60612", "Cicago"]],
            "threshold": 0.5,
        },
        "detect_response": {
            "schema": SERVE_SCHEMA,
            "kind": "detect",
            "fingerprint": "3042e575351c" + "0" * 52,
            "tenant": "acme",
            "report": {
                "schema": "repro.detect/v1",
                "version": "0.1.0",
                "rows": 2,
                "attributes": ["zip", "city"],
                "threshold": 0.5,
                "scored_cells": 4,
                "flagged_cells": 1,
                "spec_fingerprint": "3042e575351c" + "0" * 52,
                "feature_cache": None,
                "artifact_store": None,
                "cells": [
                    {
                        "row": 1,
                        "attribute": "city",
                        "value": "Cicago",
                        "error_probability": 0.87,
                        "flagged": True,
                    },
                    {
                        "row": 0,
                        "attribute": "zip",
                        "value": "60612",
                        "error_probability": 0.03,
                        "flagged": False,
                    },
                ],
            },
        },
        "rescore_request": {
            "schema": SERVE_SCHEMA,
            "tenant": "acme",
            "edits": [{"row": 1, "attribute": "city", "value": "Chicago"}],
            "refresh": False,
        },
        "error_response": {
            "schema": SERVE_SCHEMA,
            "kind": "error",
            "error": {
                "code": "unknown_fingerprint",
                "message": "unknown spec fingerprint 'deadbeef'",
            },
        },
    }
