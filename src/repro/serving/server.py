"""The detection server: asyncio HTTP/1.1, multi-tenant, stdlib only.

One long-lived process serves saved detectors to many concurrent clients:

- ``POST /v1/detect`` — score a relation (or a cell subset of a tenant's
  registered relation) with the detector named by spec fingerprint;
- ``POST /v1/rescore`` — apply cell repairs to a tenant's relation and
  incrementally re-score through that tenant's
  :class:`~repro.core.detector.DetectionSession` (O(edit), PR 2);
- ``POST /v1/evict`` — drop a hot detector or a tenant session;
- ``GET /v1/health`` / ``GET /v1/registry`` — liveness and accounting.

Architecture (see ``docs/architecture.md`` → Serving):

- routing/caching key is the :meth:`~repro.spec.DetectorSpec.fingerprint`
  of the saved model, resolved (git-style prefixes allowed) against a
  *model root* directory by the :class:`~repro.serving.registry.DetectorRegistry`
  LRU;
- **tenant isolation**: each tenant owns a private detector instance
  with a per-tenant artifact-store directory, its own relation copy, and
  its own session — one tenant's repairs can never reach another tenant's
  scores;
- **coalescing**: concurrent small detect requests against one tenant are
  merged by the :class:`~repro.serving.batching.ScoreBatcher` into a single
  chunked predict, bit-identical to sequential calls because per-cell
  scores are chunk-composition independent;
- **fault containment**: malformed requests, oversized payloads, unknown
  fingerprints, slow or vanishing clients, and corrupt saved-model
  directories all produce structured ``repro.serve/v1`` error payloads
  (never a dead event loop, never a poisoned registry entry).

CPU-bound scoring runs synchronously on the event loop by design: the
detector is not thread-safe under dataset re-attachment, and the loop
serialises handlers between awaits, which is exactly the mutual exclusion
attach→predict needs.  Concurrency is won through coalescing (many requests,
one pass), not through parallel forwards.
"""

from __future__ import annotations

import asyncio
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.dataset.relation import check_cell
from repro.serving.batching import ScoreBatcher
from repro.serving.registry import DetectorRegistry, RegistryError
from repro.serving.reports import build_detect_report
from repro.serving.wire import (
    BINARY_CONTENT_TYPE,
    JSON_CONTENT_TYPE,
    SERVE_SCHEMA,
    WireError,
    decode_payload,
    encode_payload,
    iter_cells,
    require_schema,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detector import DetectionSession, HoloDetect
    from repro.dataset.table import Dataset

_TENANT_RE = re.compile(r"[A-Za-z0-9_-]{1,64}")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that must be answered with a structured error payload."""

    def __init__(self, status: int, code: str, message: str,
                 retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after


def error_payload(code: str, message: str,
                  retry_after: float | None = None) -> dict:
    error: dict = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = round(float(retry_after), 3)
    return {
        "schema": SERVE_SCHEMA,
        "kind": "error",
        "error": error,
    }


def _include_cells(payload: dict) -> bool:
    """Whether the response report carries its ranked ``cells`` list."""
    return payload.get("include_cells") is not False


@dataclass
class ServeConfig:
    """Every knob of one :class:`DetectionServer`."""

    model_root: str | Path
    host: str = "127.0.0.1"
    #: 0 = pick an ephemeral port (the bound port is ``server.port``).
    port: int = 0
    #: Hot-registry LRU capacity (loaded detectors kept in memory).
    capacity: int = 8
    #: Root for per-tenant artifact stores (``<root>/tenants/<name>``);
    #: ``None`` disables the disk tier for served detectors.
    artifact_root: str | Path | None = None
    #: Reject request bodies larger than this many bytes (413).
    max_body: int = 8 * 1024 * 1024
    #: Per-read timeout for slow clients (408 on the headers, drop on body).
    read_timeout: float = 10.0
    #: Coalescing window for concurrent small detect requests, seconds.
    batch_window: float = 0.002
    #: Bound on one merged scoring pass, in cells.
    max_batch_cells: int = 4096
    default_threshold: float = 0.5
    #: Admission control: connections handled concurrently beyond this are
    #: shed with a structured 503 instead of queueing unboundedly.
    max_inflight: int = 64
    #: The ``Retry-After`` hint on overload 503s, seconds.
    retry_after: float = 1.0
    #: Consecutive load failures that trip a fingerprint's circuit open.
    breaker_threshold: int = 3
    #: Seconds an open circuit fast-fails before admitting a probe load.
    breaker_cooldown: float = 30.0

    def __post_init__(self) -> None:
        if self.max_body < 1:
            raise ValueError(f"max_body must be positive, got {self.max_body}")
        if self.read_timeout <= 0:
            raise ValueError(f"read_timeout must be positive, got {self.read_timeout}")
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be positive, got {self.max_inflight}"
            )
        if self.retry_after <= 0:
            raise ValueError(f"retry_after must be positive, got {self.retry_after}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be positive, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown <= 0:
            raise ValueError(
                f"breaker_cooldown must be positive, got {self.breaker_cooldown}"
            )


@dataclass
class Tenant:
    """One tenant's private serving state."""

    name: str
    fingerprint: str
    dataset: "Dataset"
    detector: "HoloDetect"
    session: "DetectionSession"
    created_at: float = field(default_factory=time.monotonic)

    @property
    def batch_key(self) -> tuple[str, str]:
        return ("tenant", self.name)


@dataclass
class _Request:
    method: str
    path: str
    headers: dict[str, str]
    body: bytes

    @property
    def content_type(self) -> str:
        return self.headers.get("content-type", JSON_CONTENT_TYPE)

    @property
    def response_content_type(self) -> str:
        accept = self.headers.get("accept", "").split(";")[0].strip().lower()
        if accept == BINARY_CONTENT_TYPE:
            return BINARY_CONTENT_TYPE
        if self.content_type.split(";")[0].strip().lower() == BINARY_CONTENT_TYPE:
            return BINARY_CONTENT_TYPE
        return JSON_CONTENT_TYPE


class DetectionServer:
    """Asyncio detection-as-a-service front end over a model root."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.registry = DetectorRegistry(
            Path(config.model_root),
            capacity=config.capacity,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown=config.breaker_cooldown,
        )
        self.batcher = ScoreBatcher(
            window=config.batch_window, max_cells=config.max_batch_cells
        )
        self.tenants: dict[str, Tenant] = {}
        self.requests_handled = 0
        self.errors_returned = 0
        self.requests_shed = 0
        self._inflight = 0
        self._server: asyncio.base_events.Server | None = None
        self._started = time.monotonic()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "DetectionServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started = time.monotonic()
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        await self.batcher.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection, one request, one response; never raises."""
        # Admission control before any read: a server already at its
        # in-flight cap sheds the connection with a structured 503 rather
        # than queueing unboundedly behind slow scoring passes.
        if self._inflight >= self.config.max_inflight:
            self.requests_shed += 1
            self.errors_returned += 1
            await self._write_response(
                writer,
                503,
                error_payload(
                    "overloaded",
                    f"server at its in-flight cap of "
                    f"{self.config.max_inflight} requests",
                    retry_after=self.config.retry_after,
                ),
                JSON_CONTENT_TYPE,
                retry_after=self.config.retry_after,
            )
            return
        self._inflight += 1
        try:
            await self._handle_admitted(reader, writer)
        finally:
            self._inflight -= 1

    async def _handle_admitted(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        content_type = JSON_CONTENT_TYPE
        retry_after: float | None = None
        try:
            request = await self._read_request(reader)
            if request is None:  # client vanished before sending anything
                return
            content_type = request.response_content_type
            status, payload = await self._dispatch(request)
        except HttpError as exc:
            retry_after = exc.retry_after
            status, payload = exc.status, error_payload(
                exc.code, str(exc), retry_after=retry_after
            )
        except WireError as exc:
            status, payload = 400, error_payload("bad_request", str(exc))
        except RegistryError as exc:
            status = {
                "corrupt_model": 500,
                "ambiguous_fingerprint": 400,
                "circuit_open": 503,
            }.get(exc.code, 404)
            retry_after = getattr(exc, "retry_after", None)
            payload = error_payload(exc.code, str(exc), retry_after=retry_after)
        except (ConnectionError, asyncio.IncompleteReadError):
            # Mid-request disconnect: nothing to answer, nobody to answer to.
            self._close_quietly(writer)
            return
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            status, payload = 500, error_payload(
                "internal_error", f"{type(exc).__name__}: {exc}"
            )
        self.requests_handled += 1
        if status != 200:
            self.errors_returned += 1
        await self._write_response(
            writer, status, payload, content_type, retry_after=retry_after
        )

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        timeout = self.config.read_timeout
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout)
        except asyncio.TimeoutError:
            raise HttpError(408, "timeout", "timed out reading the request line")
        except ValueError:
            raise HttpError(400, "bad_request", "request line too long")
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HttpError(400, "bad_request", f"malformed request line {request_line!r}")
        method, path = parts[0].upper(), parts[1]

        headers: dict[str, str] = {}
        while True:
            try:
                line = await asyncio.wait_for(reader.readline(), timeout)
            except asyncio.TimeoutError:
                raise HttpError(408, "timeout", "timed out reading headers")
            except ValueError:
                raise HttpError(400, "bad_request", "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= 100:
                raise HttpError(400, "bad_request", "too many headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise HttpError(400, "bad_request", f"malformed header {line!r}")
            headers[name.strip().lower()] = value.strip()

        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            raise HttpError(400, "bad_request", f"bad Content-Length {length_raw!r}")
        if length < 0:
            raise HttpError(400, "bad_request", f"bad Content-Length {length}")
        if length > self.config.max_body:
            raise HttpError(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body}-byte limit",
            )
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(reader.readexactly(length), timeout)
            except asyncio.TimeoutError:
                raise HttpError(
                    408, "timeout", f"timed out reading a {length}-byte body"
                )
        return _Request(method=method, path=path, headers=headers, body=body)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        content_type: str,
        retry_after: float | None = None,
    ) -> None:
        try:
            body = encode_payload(payload, content_type)
        except WireError:
            content_type = JSON_CONTENT_TYPE
            body = encode_payload(
                error_payload("internal_error", "response encoding failed"),
                content_type,
            )
            status = 500
        reason = _REASONS.get(status, "Unknown")
        extra = ""
        if retry_after is not None:
            # Integer seconds, minimum 1: the header grammar is delta-seconds.
            extra = f"Retry-After: {max(1, round(retry_after))}\r\n"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away mid-response; nothing to do
        finally:
            self._close_quietly(writer)

    @staticmethod
    def _close_quietly(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    async def _dispatch(self, request: _Request) -> tuple[int, dict]:
        routes = {
            ("GET", "/v1/health"): self._handle_health,
            ("GET", "/v1/registry"): self._handle_registry,
            ("POST", "/v1/detect"): self._handle_detect,
            ("POST", "/v1/rescore"): self._handle_rescore,
            ("POST", "/v1/evict"): self._handle_evict,
        }
        handler = routes.get((request.method, request.path))
        if handler is None:
            known_paths = {path for _, path in routes}
            if request.path in known_paths:
                raise HttpError(
                    405,
                    "method_not_allowed",
                    f"{request.method} is not allowed on {request.path}",
                )
            raise HttpError(404, "unknown_route", f"no route for {request.path}")
        return await handler(request)

    def _decode_body(self, request: _Request) -> dict:
        try:
            return require_schema(decode_payload(request.body, request.content_type))
        except WireError as exc:
            raise HttpError(400, "bad_request", str(exc)) from exc

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #

    async def _handle_health(self, request: _Request) -> tuple[int, dict]:
        components = self._degraded_components()
        return 200, {
            "schema": SERVE_SCHEMA,
            "kind": "health",
            "status": "degraded" if components else "ok",
            "models": len(self.registry.fingerprints),
            "hot": len(self.registry.hot_fingerprints),
            "tenants": len(self.tenants),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "components": components,
            "inflight": self._inflight,
            "shed": self.requests_shed,
        }

    def _degraded_components(self) -> dict[str, object]:
        """The currently degraded components (empty dict = healthy).

        ``circuits`` — per-fingerprint load breakers that are open or
        accumulating failures; ``artifact_stores`` — tenants whose
        artifact store saw a fatal disk fault (memory tier still serves).
        """
        components: dict[str, object] = {}
        circuits = self.registry.breaker_states()
        if circuits:
            components["circuits"] = circuits
        degraded_stores = sorted(
            name
            for name, tenant in self.tenants.items()
            if getattr(tenant.detector.artifact_stats, "degraded", False)
        )
        if degraded_stores:
            components["artifact_stores"] = degraded_stores
        return components

    async def _handle_registry(self, request: _Request) -> tuple[int, dict]:
        return 200, {
            "schema": SERVE_SCHEMA,
            "kind": "registry",
            "fingerprints": self.registry.fingerprints,
            "hot": self.registry.hot_fingerprints,
            "tenants": sorted(self.tenants),
            "registry": self.registry.stats.as_dict(),
            "batcher": self.batcher.stats.as_dict(),
            "requests_handled": self.requests_handled,
            "errors_returned": self.errors_returned,
        }

    async def _handle_detect(self, request: _Request) -> tuple[int, dict]:
        payload = self._decode_body(request)
        threshold = self._threshold(payload)
        tenant_name = payload.get("tenant")
        if tenant_name is None:
            return await self._detect_stateless(payload, threshold)
        tenant = self._register_or_get_tenant(payload, tenant_name)
        raw_cells = payload.get("cells")
        if raw_cells is None:
            # Whole-relation view: the session's live predictions, no
            # recompute needed (they are maintained bit-exact by rescore).
            report = build_detect_report(
                tenant.dataset, tenant.session.predictions, threshold,
                detector=tenant.detector, include_cells=_include_cells(payload),
            )
            return 200, self._detect_response(tenant.fingerprint, tenant_name, report)
        cells = self._parse_cells(raw_cells, tenant.dataset)
        probabilities = await self.batcher.score(
            tenant.batch_key, tenant.detector._score_probabilities, cells
        )
        from repro.core.detector import ErrorPredictions

        predictions = ErrorPredictions(
            cells=list(cells), probabilities=probabilities, threshold=threshold
        )
        report = build_detect_report(
            tenant.dataset, predictions, threshold,
            detector=tenant.detector, include_cells=_include_cells(payload),
        )
        return 200, self._detect_response(tenant.fingerprint, tenant_name, report)

    async def _detect_stateless(
        self, payload: dict, threshold: float
    ) -> tuple[int, dict]:
        fingerprint_query = payload.get("fingerprint")
        if not isinstance(fingerprint_query, str):
            raise HttpError(
                400, "bad_request", "detect needs a string 'fingerprint'"
            )
        dataset = self._parse_relation(payload, required=True)
        raw_cells = payload.get("cells")
        cells = (
            list(dataset.cells())
            if raw_cells is None
            else self._parse_cells(raw_cells, dataset)
        )
        # attach → score is one synchronous block: no other coroutine can
        # re-attach the shared hot instance in between.
        detector = self._acquire_hot(fingerprint_query, dataset)
        fingerprint = self.registry.resolve(fingerprint_query)
        probabilities = detector._score_probabilities(cells)
        from repro.core.detector import ErrorPredictions

        predictions = ErrorPredictions(
            cells=cells, probabilities=probabilities, threshold=threshold
        )
        report = build_detect_report(
            dataset, predictions, threshold,
            detector=detector, include_cells=_include_cells(payload),
        )
        return 200, self._detect_response(fingerprint, None, report)

    async def _handle_rescore(self, request: _Request) -> tuple[int, dict]:
        payload = self._decode_body(request)
        threshold = self._threshold(payload)
        tenant = self._require_tenant(payload)
        edits = self._parse_edits(payload, tenant.dataset)
        refresh = bool(payload.get("refresh", False))
        # Ordering barrier: anything already queued for this tenant scores
        # against the pre-edit relation, exactly as a sequential client
        # interleaving detect → rescore would observe.
        self.batcher.flush_key(
            tenant.batch_key, tenant.detector._score_probabilities
        )
        before = tenant.session.rescored_cells
        tenant.session.apply(edits, refresh=refresh)
        delta = tenant.session.last_delta
        report = build_detect_report(
            tenant.dataset, tenant.session.predictions, threshold,
            detector=tenant.detector, include_cells=_include_cells(payload),
        )
        return 200, {
            "schema": SERVE_SCHEMA,
            "kind": "rescore",
            "fingerprint": tenant.fingerprint,
            "tenant": tenant.name,
            "applied_edits": len(delta.cells) if delta is not None else 0,
            "rescored_cells": tenant.session.rescored_cells - before,
            "refreshed": refresh,
            "report": report,
        }

    async def _handle_evict(self, request: _Request) -> tuple[int, dict]:
        payload = self._decode_body(request)
        fingerprint = payload.get("fingerprint")
        tenant_name = payload.get("tenant")
        if fingerprint is None and tenant_name is None:
            raise HttpError(
                400, "bad_request", "evict needs 'fingerprint' and/or 'tenant'"
            )
        evicted_model = False
        if fingerprint is not None:
            if not isinstance(fingerprint, str):
                raise HttpError(400, "bad_request", "'fingerprint' must be a string")
            evicted_model = self.registry.evict(fingerprint)
        evicted_tenant = False
        if tenant_name is not None:
            evicted_tenant = self.tenants.pop(tenant_name, None) is not None
        return 200, {
            "schema": SERVE_SCHEMA,
            "kind": "evict",
            "evicted_model": evicted_model,
            "evicted_tenant": evicted_tenant,
            "hot": self.registry.hot_fingerprints,
        }

    # ------------------------------------------------------------------ #
    # Request pieces
    # ------------------------------------------------------------------ #

    def _threshold(self, payload: dict) -> float:
        raw = payload.get("threshold", self.config.default_threshold)
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise HttpError(400, "bad_request", f"threshold must be a number, got {raw!r}")
        return float(raw)

    def _detect_response(
        self, fingerprint: str, tenant: str | None, report: dict
    ) -> dict:
        return {
            "schema": SERVE_SCHEMA,
            "kind": "detect",
            "fingerprint": fingerprint,
            "tenant": tenant,
            "report": report,
        }

    def _parse_relation(self, payload: dict, *, required: bool) -> "Dataset | None":
        columns = payload.get("columns")
        rows = payload.get("rows")
        if columns is None and rows is None:
            if required:
                raise HttpError(
                    400, "bad_request",
                    "detect without a tenant session needs 'columns' and 'rows'",
                )
            return None
        if not isinstance(columns, list) or not all(
            isinstance(c, str) for c in columns
        ):
            raise HttpError(400, "bad_request", "'columns' must be a list of strings")
        if not isinstance(rows, list):
            raise HttpError(400, "bad_request", "'rows' must be a list of rows")
        from repro.dataset.table import Dataset

        try:
            return Dataset.from_rows(columns, rows)
        except (ValueError, TypeError) as exc:
            raise HttpError(400, "bad_request", f"bad relation: {exc}") from exc

    def _parse_cells(self, raw: object, dataset: "Dataset") -> list:
        try:
            pairs = list(iter_cells(raw))
        except WireError as exc:
            raise HttpError(400, "bad_request", str(exc)) from exc
        try:
            return [check_cell(dataset, row, attr) for row, attr in pairs]
        except ValueError as exc:
            raise HttpError(400, "bad_request", str(exc)) from exc

    def _parse_edits(self, payload: dict, dataset: "Dataset") -> dict:
        raw = payload.get("edits")
        if not isinstance(raw, list) or not raw:
            raise HttpError(
                400, "bad_request",
                "rescore needs a non-empty 'edits' list of "
                "{row, attribute, value} objects",
            )
        edits: dict = {}
        for entry in raw:
            if not isinstance(entry, dict):
                raise HttpError(400, "bad_edit", f"bad edit entry {entry!r}")
            row, attr, value = entry.get("row"), entry.get("attribute"), entry.get("value")
            if (
                not isinstance(row, int)
                or isinstance(row, bool)
                or not isinstance(attr, str)
                or not isinstance(value, str)
            ):
                raise HttpError(
                    400, "bad_edit",
                    f"bad edit entry {entry!r}; expected "
                    "{row: int, attribute: str, value: str}",
                )
            try:
                edits[check_cell(dataset, row, attr)] = value
            except ValueError as exc:
                raise HttpError(400, "bad_edit", str(exc)) from exc
        return edits

    # ------------------------------------------------------------------ #
    # Tenants + hot instances
    # ------------------------------------------------------------------ #

    def _acquire_hot(self, fingerprint_query: str, dataset: "Dataset") -> "HoloDetect":
        fingerprint = self.registry.resolve(fingerprint_query)
        fresh = fingerprint not in self.registry.hot_fingerprints
        detector = self.registry.acquire(fingerprint, dataset)
        if fresh and self.config.artifact_root is not None:
            # Stateless traffic shares one artifact namespace; tenants get
            # their own (see _register_or_get_tenant).
            detector.use_artifacts(Path(self.config.artifact_root) / "shared")
        return detector

    def _register_or_get_tenant(self, payload: dict, tenant_name: object) -> Tenant:
        if not isinstance(tenant_name, str) or not _TENANT_RE.fullmatch(tenant_name):
            raise HttpError(
                400, "bad_request",
                f"tenant must match {_TENANT_RE.pattern!r}, got {tenant_name!r}",
            )
        dataset = self._parse_relation(payload, required=False)
        fingerprint_query = payload.get("fingerprint")
        existing = self.tenants.get(tenant_name)
        if dataset is None:
            if existing is None:
                raise HttpError(
                    404, "unknown_tenant",
                    f"tenant {tenant_name!r} has no registered relation; "
                    "POST /v1/detect with 'columns' and 'rows' first",
                )
            if fingerprint_query is not None and isinstance(fingerprint_query, str):
                if self.registry.resolve(fingerprint_query) != existing.fingerprint:
                    raise HttpError(
                        409, "tenant_fingerprint_mismatch",
                        f"tenant {tenant_name!r} is bound to "
                        f"{existing.fingerprint[:12]}; re-register with "
                        "'columns'/'rows' to switch detectors",
                    )
            return existing
        if not isinstance(fingerprint_query, str):
            raise HttpError(
                400, "bad_request",
                "registering a tenant relation needs a string 'fingerprint'",
            )
        fingerprint = self.registry.resolve(fingerprint_query)
        # Private instance: own artifact namespace, own session — full
        # isolation from other tenants and the hot pool.
        detector = self.registry.checkout(fingerprint, dataset)
        if self.config.artifact_root is not None:
            detector.use_artifacts(
                Path(self.config.artifact_root) / "tenants" / tenant_name
            )
        from repro.core.detector import DetectionSession

        session = DetectionSession(detector, cells=list(dataset.cells()))
        tenant = Tenant(
            name=tenant_name,
            fingerprint=fingerprint,
            dataset=dataset,
            detector=detector,
            session=session,
        )
        self.tenants[tenant_name] = tenant
        return tenant

    def _require_tenant(self, payload: dict) -> Tenant:
        tenant_name = payload.get("tenant")
        if not isinstance(tenant_name, str):
            raise HttpError(400, "bad_request", "rescore needs a string 'tenant'")
        tenant = self.tenants.get(tenant_name)
        if tenant is None:
            raise HttpError(
                404, "unknown_tenant",
                f"tenant {tenant_name!r} has no registered relation; "
                "POST /v1/detect with 'columns' and 'rows' first",
            )
        return tenant
