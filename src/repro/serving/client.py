"""Blocking client for the detection service (stdlib ``http.client``).

The programmatic twin of the wire protocol: one method per route, payload
assembly and the JSON wire encoding handled here so callers work with plain
dicts and :class:`~repro.dataset.table.Dataset` objects.  Used by the
``repro client`` CLI subcommand, the concurrency test suite, and
``benchmarks/bench_serving.py`` — all three drive a server exactly the way
an external integration would.

A non-2xx response raises :class:`ServeClientError` carrying the decoded
structured error payload (``.code`` matches the server's error codes).
"""

from __future__ import annotations

import http.client
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.serving.wire import (
    JSON_CONTENT_TYPE,
    SERVE_SCHEMA,
    decode_payload,
    encode_payload,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataset.table import Cell, Dataset


class ServeClientError(Exception):
    """A structured error answer from the server."""

    def __init__(self, status: int, payload: object):
        self.status = status
        self.payload = payload if isinstance(payload, dict) else {}
        error = self.payload.get("error", {})
        self.code = error.get("code", "unknown") if isinstance(error, dict) else "unknown"
        message = (
            error.get("message", "") if isinstance(error, dict) else str(payload)
        )
        super().__init__(f"HTTP {status} [{self.code}] {message}")


class ServeClient:
    """One server endpoint; connections are per-request (the server closes
    after every response)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        timeout: float = 60.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport -------------------------------------------------------- #

    def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One round trip; returns the decoded payload or raises."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = b""
            headers = {"Accept": JSON_CONTENT_TYPE}
            if payload is not None:
                body = encode_payload(payload)
                headers["Content-Type"] = JSON_CONTENT_TYPE
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            decoded = decode_payload(
                raw, response.getheader("Content-Type", JSON_CONTENT_TYPE)
            )
        finally:
            connection.close()
        if response.status != 200:
            raise ServeClientError(response.status, decoded)
        if not isinstance(decoded, dict):
            raise ServeClientError(response.status, {"error": {
                "code": "bad_response", "message": f"non-object payload {decoded!r}"
            }})
        return decoded

    # -- routes ----------------------------------------------------------- #

    def health(self) -> dict:
        return self.request("GET", "/v1/health")

    def registry(self) -> dict:
        return self.request("GET", "/v1/registry")

    def detect(
        self,
        fingerprint: str | None = None,
        *,
        dataset: "Dataset | None" = None,
        columns: Sequence[str] | None = None,
        rows: Sequence[Sequence[str]] | None = None,
        tenant: str | None = None,
        cells: "Sequence[Cell | tuple[int, str]] | None" = None,
        threshold: float | None = None,
        include_cells: bool = True,
    ) -> dict:
        """``POST /v1/detect``.

        Pass ``dataset`` (or ``columns`` + ``rows``) to score a relation —
        with ``tenant`` this also registers the tenant session.  Pass
        ``cells`` alone (with ``tenant``) for a coalescable subset query.
        """
        payload: dict = {"schema": SERVE_SCHEMA}
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        if tenant is not None:
            payload["tenant"] = tenant
        if dataset is not None:
            columns = list(dataset.attributes)
            rows = [
                [dataset.column(a)[r] for a in dataset.attributes]
                for r in range(dataset.num_rows)
            ]
        if columns is not None:
            payload["columns"] = list(columns)
            payload["rows"] = [list(row) for row in rows or []]
        if cells is not None:
            payload["cells"] = [
                [c.row, c.attr] if hasattr(c, "attr") else [c[0], c[1]] for c in cells
            ]
        if threshold is not None:
            payload["threshold"] = threshold
        if not include_cells:
            payload["include_cells"] = False
        return self.request("POST", "/v1/detect", payload)

    def rescore(
        self,
        tenant: str,
        edits: "Mapping[Cell, str] | Sequence[dict]",
        *,
        refresh: bool = False,
        threshold: float | None = None,
        include_cells: bool = True,
    ) -> dict:
        """``POST /v1/rescore`` against a tenant's registered session."""
        if isinstance(edits, Mapping):
            wire_edits = [
                {"row": cell.row, "attribute": cell.attr, "value": value}
                for cell, value in edits.items()
            ]
        else:
            wire_edits = [dict(e) for e in edits]
        payload: dict = {
            "schema": SERVE_SCHEMA,
            "tenant": tenant,
            "edits": wire_edits,
            "refresh": refresh,
        }
        if threshold is not None:
            payload["threshold"] = threshold
        if not include_cells:
            payload["include_cells"] = False
        return self.request("POST", "/v1/rescore", payload)

    def evict(
        self, *, fingerprint: str | None = None, tenant: str | None = None
    ) -> dict:
        payload: dict = {"schema": SERVE_SCHEMA}
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        if tenant is not None:
            payload["tenant"] = tenant
        return self.request("POST", "/v1/evict", payload)


def probabilities_of(report_or_response: dict) -> dict[tuple[int, str], float]:
    """Flatten a detect/rescore answer to ``{(row, attribute): probability}``.

    Accepts either the full response envelope or its inner report.
    """
    report = report_or_response.get("report", report_or_response)
    cells = report.get("cells", []) if isinstance(report, dict) else []
    return {
        (entry["row"], entry["attribute"]): entry["error_probability"]
        for entry in cells
    }
