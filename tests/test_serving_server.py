"""Server tests: routes, tenants, concurrency equivalence, fault injection.

Three layers of harness from :mod:`repro.serving.testing`:

- ``feed_request`` drives the connection handler over in-memory streams for
  protocol-level tests (malformed requests, oversized bodies) with no ports;
- :class:`InProcessServer` + :class:`ServeClient` exercise the real socket
  path, including thread-pool concurrency;
- :class:`RawConnection` plays the misbehaving client (slow, vanishing).

The load-bearing assertions are the *bit-identity* ones: concurrent and
coalesced responses must equal the sequential single-client answer
exactly — which in turn equals a direct ``HoloDetect``/``DetectionSession``
computation on a freshly loaded model.  The wire is JSON only: a body
declared as any other content type is a structured 400, and every answer
is JSON whatever the ``Accept`` header asks for.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dataset.table import Cell
from repro.persistence import load_detector
from repro.serving import (
    SERVE_SCHEMA,
    ServeClient,
    ServeClientError,
    ServeConfig,
    probabilities_of,
)
from repro.serving.server import DetectionServer
from repro.serving.testing import (
    InProcessServer,
    RawConnection,
    _CaptureTransport,
    feed_request,
)

# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #


@pytest.fixture()
def server(served_world, tmp_path):
    config = ServeConfig(
        model_root=served_world.model_root,
        artifact_root=tmp_path / "artifacts",
        batch_window=0.05,  # generous window so threaded tests coalesce
    )
    with InProcessServer(config) as harness:
        yield harness


@pytest.fixture()
def client(server) -> ServeClient:
    return ServeClient(server.host, server.port)


def fresh_baseline(served_world, dataset=None):
    """A freshly loaded detector, configured exactly as the server loads it."""
    dataset = dataset if dataset is not None else served_world.bundle.dirty
    detector = load_detector(served_world.model_root / "alpha", dataset)
    detector._train_cells = set()
    return detector


def served_probabilities(response) -> dict[tuple[int, str], float]:
    cells = probabilities_of(response)
    assert cells, "response carried no cells"
    return cells


def direct_probabilities(detector, cells) -> dict[tuple[int, str], float]:
    predictions = detector.predict(list(cells))
    return {
        (cell.row, cell.attr): round(float(p), 6)
        for cell, p in zip(predictions.cells, predictions.probabilities)
    }


# --------------------------------------------------------------------- #
# Routes and stateless detection
# --------------------------------------------------------------------- #


class TestBasics:
    def test_health(self, served_world, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema"] == SERVE_SCHEMA
        assert health["models"] == 2
        assert health["hot"] == 0

    def test_registry_endpoint(self, served_world, client):
        info = client.registry()
        assert info["fingerprints"] == sorted(
            [served_world.fingerprint, served_world.fingerprint_b]
        )
        assert info["hot"] == []
        assert info["tenants"] == []
        assert set(info["registry"]) == {
            "hits", "loads", "evictions", "load_failures", "checkouts",
            "fast_failures",
        }
        assert set(info["batcher"]) == {
            "requests", "batches", "coalesced_requests", "max_batch_cells",
        }

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.request("GET", "/v2/nothing")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_route"

    def test_method_not_allowed_405(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.request("POST", "/v1/health", {"schema": SERVE_SCHEMA})
        assert excinfo.value.status == 405
        assert excinfo.value.code == "method_not_allowed"

    def test_stateless_detect_matches_direct_predict(self, served_world, client):
        dataset = served_world.bundle.dirty
        response = client.detect(served_world.fingerprint, dataset=dataset)
        assert response["kind"] == "detect"
        assert response["fingerprint"] == served_world.fingerprint
        assert response["report"]["scored_cells"] == dataset.num_rows * len(
            dataset.attributes
        )
        baseline = fresh_baseline(served_world)
        assert served_probabilities(response) == direct_probabilities(
            baseline, dataset.cells()
        )

    def test_fingerprint_prefix_resolves_to_full(self, served_world, client):
        response = client.detect(
            served_world.fingerprint[:8], dataset=served_world.bundle.dirty
        )
        assert response["fingerprint"] == served_world.fingerprint

    def test_threshold_controls_flagging(self, served_world, client):
        dataset = served_world.bundle.dirty
        everything = client.detect(
            served_world.fingerprint, dataset=dataset, threshold=0.0
        )
        report = everything["report"]
        assert report["flagged_cells"] == report["scored_cells"]
        nothing = client.detect(
            served_world.fingerprint, dataset=dataset, threshold=1.1
        )
        assert nothing["report"]["flagged_cells"] == 0

    def test_include_cells_false_drops_cell_list(self, served_world, client):
        """On every report route, ``include_cells: false`` answers the full
        response minus ``report.cells``: tenant registration, a tenant cell
        subset, a stateless detect and a rescore.  Twin tenants take the
        same requests; ``timings`` are wall clock, so only their keys
        compare."""
        dataset = served_world.bundle.dirty
        fingerprint = served_world.fingerprint
        subset = list(dataset.cells())[:30]
        edits = {Cell(2, dataset.attributes[1]): "Replacement Value"}

        def exchange(tenant, include_cells):
            return [
                client.detect(fingerprint, dataset=dataset, tenant=tenant,
                              include_cells=include_cells),
                client.detect(tenant=tenant, cells=subset, include_cells=include_cells),
                client.detect(fingerprint, dataset=dataset, include_cells=include_cells),
                client.rescore(tenant, edits, include_cells=include_cells),
            ]

        def comparable(response):
            report = dict(response["report"])
            report.pop("cells", None)
            report["timings"] = sorted(report["timings"] or ())
            return {**response, "tenant": None, "report": report}

        full = exchange("full", True)
        lean = exchange("lean", False)
        for with_cells, without_cells in zip(full, lean):
            assert with_cells["report"]["cells"]
            assert "cells" not in without_cells["report"]
            assert without_cells["report"]["scored_cells"] > 0
            assert comparable(without_cells) == comparable(with_cells)

    def test_unknown_fingerprint_404(self, served_world, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.detect("deadbeefdeadbeef", dataset=served_world.bundle.dirty)
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_fingerprint"

    def test_short_prefix_404(self, served_world, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.detect(
                served_world.fingerprint[:4], dataset=served_world.bundle.dirty
            )
        assert excinfo.value.status == 404

    def test_detect_without_relation_400(self, served_world, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.detect(served_world.fingerprint)
        assert excinfo.value.status == 400

    def test_detect_bad_cells_400(self, served_world, client):
        dataset = served_world.bundle.dirty
        with pytest.raises(ServeClientError) as excinfo:
            client.detect(
                served_world.fingerprint,
                dataset=dataset,
                cells=[(0, "NoSuchAttribute")],
            )
        assert excinfo.value.status == 400
        with pytest.raises(ServeClientError) as excinfo:
            client.detect(
                served_world.fingerprint,
                dataset=dataset,
                cells=[(dataset.num_rows + 5, dataset.attributes[0])],
            )
        assert excinfo.value.status == 400

    def test_repeated_requests_identical(self, served_world, client):
        dataset = served_world.bundle.dirty
        first = client.detect(served_world.fingerprint, dataset=dataset)
        second = client.detect(served_world.fingerprint, dataset=dataset)
        assert first["report"]["cells"] == second["report"]["cells"]


# --------------------------------------------------------------------- #
# Tenants and rescoring
# --------------------------------------------------------------------- #


def register(client, served_world, tenant="acme"):
    return client.detect(
        served_world.fingerprint, dataset=served_world.bundle.dirty, tenant=tenant
    )


class TestTenants:
    def test_register_then_subset_detect(self, served_world, client):
        response = register(client, served_world)
        assert response["tenant"] == "acme"
        dataset = served_world.bundle.dirty
        subset = [(0, dataset.attributes[0]), (3, dataset.attributes[2])]
        answer = client.detect(tenant="acme", cells=subset)
        probabilities = served_probabilities(answer)
        assert set(probabilities) == {(r, a) for r, a in subset}
        baseline = fresh_baseline(served_world)
        expected = direct_probabilities(
            baseline, [Cell(r, a) for r, a in subset]
        )
        assert probabilities == expected

    def test_whole_relation_view_matches_stateless(self, served_world, client):
        register(client, served_world)
        tenant_view = client.detect(tenant="acme")
        stateless = client.detect(
            served_world.fingerprint, dataset=served_world.bundle.dirty
        )
        assert served_probabilities(tenant_view) == served_probabilities(stateless)

    def test_subset_without_registration_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.detect(tenant="ghost", cells=[(0, "x")])
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_tenant"

    def test_invalid_tenant_name_400(self, served_world, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.detect(
                served_world.fingerprint,
                dataset=served_world.bundle.dirty,
                tenant="not/ok",
            )
        assert excinfo.value.status == 400

    def test_tenant_fingerprint_mismatch_409(self, served_world, client):
        register(client, served_world)
        with pytest.raises(ServeClientError) as excinfo:
            client.detect(
                served_world.fingerprint_b, tenant="acme", cells=[(0, "x")]
            )
        assert excinfo.value.status == 409
        assert excinfo.value.code == "tenant_fingerprint_mismatch"

    def test_rescore_matches_direct_session(self, served_world, client):
        register(client, served_world)
        dataset = served_world.bundle.dirty
        attr = dataset.attributes[1]
        edits = {Cell(2, attr): "Replacement Value"}
        response = client.rescore("acme", edits)
        assert response["kind"] == "rescore"
        assert response["applied_edits"] == 1
        assert response["rescored_cells"] > 0
        from repro.core.detector import DetectionSession

        baseline = fresh_baseline(served_world)
        session = DetectionSession(baseline, cells=list(dataset.cells()))
        session.apply(dict(edits))
        expected = {
            (cell.row, cell.attr): round(float(p), 6)
            for cell, p in zip(
                session.predictions.cells, session.predictions.probabilities
            )
        }
        assert served_probabilities(response) == expected

    def test_rescore_refresh_rescores_everything(self, served_world, client):
        register(client, served_world)
        dataset = served_world.bundle.dirty
        response = client.rescore(
            "acme",
            [{"row": 0, "attribute": dataset.attributes[0], "value": "zz"}],
            refresh=True,
        )
        assert response["refreshed"] is True
        assert response["rescored_cells"] == dataset.num_rows * len(
            dataset.attributes
        )

    def test_tenant_isolation(self, served_world, client):
        register(client, served_world, tenant="acme")
        register(client, served_world, tenant="globex")
        before = served_probabilities(client.detect(tenant="globex"))
        dataset = served_world.bundle.dirty
        client.rescore(
            "acme",
            [{"row": 0, "attribute": dataset.attributes[0], "value": "MUTATED"}],
        )
        after = served_probabilities(client.detect(tenant="globex"))
        assert before == after

    def test_rescore_unknown_tenant_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.rescore("ghost", [{"row": 0, "attribute": "x", "value": "y"}])
        assert excinfo.value.status == 404

    def test_rescore_bad_edits_400(self, served_world, client):
        register(client, served_world)
        for edits in (
            [],
            [{"row": "0", "attribute": "x", "value": "y"}],
            [{"row": 0, "attribute": "NoSuchAttribute", "value": "y"}],
            [{"row": 10**6, "attribute": served_world.bundle.dirty.attributes[0],
              "value": "y"}],
        ):
            with pytest.raises(ServeClientError) as excinfo:
                client.rescore("acme", edits)
            assert excinfo.value.status == 400
        # Non-object edit entries are rejected by the server itself (the
        # client refuses to encode them, so go through the raw route).
        with pytest.raises(ServeClientError) as excinfo:
            client.request(
                "POST",
                "/v1/rescore",
                {"schema": SERVE_SCHEMA, "tenant": "acme", "edits": ["nope"]},
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_edit"

    def test_bad_cells_and_edits_keep_codes_and_messages(self, served_world, client):
        register(client, served_world)
        dataset = served_world.bundle.dirty
        attr, rows = dataset.attributes[0], dataset.num_rows
        cases = [
            (lambda: client.detect(tenant="acme", cells=[(0, "Nope")]),
             "bad_request", "unknown attribute 'Nope'"),
            (lambda: client.detect(tenant="acme", cells=[(rows, "Nope")]),
             "bad_request", "unknown attribute 'Nope'"),
            (lambda: client.detect(tenant="acme", cells=[(0, attr), (rows, attr)]),
             "bad_request", f"row {rows} out of range"),
            (lambda: client.rescore("acme", [{"row": 0, "attribute": "Nope", "value": "v"}]),
             "bad_edit", "unknown attribute 'Nope'"),
            (lambda: client.rescore("acme", [{"row": -1, "attribute": attr, "value": "v"}]),
             "bad_edit", "row -1 out of range"),
        ]
        for call, code, message in cases:
            with pytest.raises(ServeClientError) as excinfo:
                call()
            assert excinfo.value.status == 400
            assert excinfo.value.code == code
            assert excinfo.value.payload["error"]["message"] == message

    def test_evict_tenant_and_model(self, served_world, client):
        register(client, served_world)
        client.detect(served_world.fingerprint, dataset=served_world.bundle.dirty)
        response = client.evict(
            fingerprint=served_world.fingerprint, tenant="acme"
        )
        assert response["evicted_model"] is True
        assert response["evicted_tenant"] is True
        assert response["hot"] == []
        with pytest.raises(ServeClientError) as excinfo:
            client.detect(tenant="acme", cells=[(0, "x")])
        assert excinfo.value.status == 404

    def test_evicted_model_reloads_cleanly(self, served_world, client):
        dataset = served_world.bundle.dirty
        before = served_probabilities(
            client.detect(served_world.fingerprint, dataset=dataset)
        )
        client.evict(fingerprint=served_world.fingerprint)
        after = served_probabilities(
            client.detect(served_world.fingerprint, dataset=dataset)
        )
        assert before == after
        stats = client.registry()["registry"]
        assert stats["loads"] == 2
        assert stats["evictions"] == 0  # explicit evict, not LRU pressure

    def test_evict_requires_a_target(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.evict()
        assert excinfo.value.status == 400


# --------------------------------------------------------------------- #
# Concurrency: bit-identity under parallel clients
# --------------------------------------------------------------------- #


class TestConcurrency:
    def test_concurrent_stateless_detects_bit_identical(
        self, served_world, server
    ):
        dataset = served_world.bundle.dirty
        client = ServeClient(server.host, server.port)
        sequential = client.detect(served_world.fingerprint, dataset=dataset)
        expected = sequential["report"]["cells"]

        def worker(_):
            return ServeClient(server.host, server.port).detect(
                served_world.fingerprint, dataset=dataset
            )

        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(worker, range(6)))
        for response in responses:
            assert response["report"]["cells"] == expected

    def test_concurrent_subset_detects_coalesce_bit_identical(
        self, served_world, server
    ):
        dataset = served_world.bundle.dirty
        client = ServeClient(server.host, server.port)
        register(client, served_world)
        attributes = dataset.attributes
        queries = [
            [(row, attributes[(row + k) % len(attributes)]) for k in range(3)]
            for row in range(8)
        ]
        sequential = [
            served_probabilities(client.detect(tenant="acme", cells=q))
            for q in queries
        ]
        barrier = threading.Barrier(len(queries))

        def worker(query):
            barrier.wait()  # land inside one coalescing window
            return served_probabilities(
                ServeClient(server.host, server.port).detect(
                    tenant="acme", cells=query
                )
            )

        with ThreadPoolExecutor(max_workers=len(queries)) as pool:
            concurrent = list(pool.map(worker, queries))
        assert concurrent == sequential
        batcher = client.registry()["batcher"]
        assert batcher["coalesced_requests"] > 0, (
            "concurrent subset requests never merged into one scoring pass"
        )

    def test_interleaved_detect_rescore_same_tenant(self, served_world, server):
        dataset = served_world.bundle.dirty
        client = ServeClient(server.host, server.port)
        register(client, served_world)
        attr = dataset.attributes[0]
        query = [(row, attr) for row in range(dataset.num_rows)]
        pre = served_probabilities(client.detect(tenant="acme", cells=query))
        edits = [{"row": 1, "attribute": attr, "value": "Interleaved Edit"}]

        results: dict[str, object] = {}

        def detect_worker(tag):
            response = ServeClient(server.host, server.port).detect(
                tenant="acme", cells=query
            )
            results[tag] = served_probabilities(response)

        def rescore_worker():
            results["rescore"] = ServeClient(server.host, server.port).rescore(
                "acme", edits
            )

        threads = [
            threading.Thread(target=detect_worker, args=(f"detect-{i}",))
            for i in range(4)
        ]
        threads.insert(2, threading.Thread(target=rescore_worker))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        post = served_probabilities(client.detect(tenant="acme", cells=query))

        # Every interleaved detect saw a consistent snapshot: exactly the
        # pre-edit or the post-edit probabilities, never a mix.
        for tag, probabilities in results.items():
            if tag == "rescore":
                continue
            assert probabilities in (pre, post), (
                f"{tag} observed a torn snapshot during a concurrent rescore"
            )

        # And the final state matches a direct sequential session replay.
        from repro.core.detector import DetectionSession

        baseline = fresh_baseline(served_world)
        session = DetectionSession(baseline, cells=list(dataset.cells()))
        session.apply({Cell(1, attr): "Interleaved Edit"})
        expected_post = {
            (row, attr): round(
                float(
                    session.predictions.probabilities[
                        session.predictions.cells.index(Cell(row, attr))
                    ]
                ),
                6,
            )
            for row in range(dataset.num_rows)
        }
        assert post == expected_post

    def test_concurrent_tenant_registrations_isolated(self, served_world, server):
        names = [f"tenant{i}" for i in range(4)]

        def worker(name):
            client = ServeClient(server.host, server.port)
            register(client, served_world, tenant=name)
            return name, served_probabilities(client.detect(tenant=name))

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = dict(pool.map(worker, names))
        first = results[names[0]]
        for name in names[1:]:
            assert results[name] == first
        client = ServeClient(server.host, server.port)
        assert client.registry()["tenants"] == sorted(names)


# --------------------------------------------------------------------- #
# Fault injection
# --------------------------------------------------------------------- #


def protocol_server(served_world) -> DetectionServer:
    """An unstarted server for in-memory protocol tests (no sockets)."""
    return DetectionServer(ServeConfig(model_root=served_world.model_root))


def http_request(path="/v1/detect", body=b"", method="POST",
                 content_type="application/json", accept=None) -> bytes:
    accept_line = f"Accept: {accept}\r\n" if accept is not None else ""
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\nContent-Type: {content_type}\r\n{accept_line}"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def parse_response(raw: bytes) -> tuple[int, dict]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body.decode("utf-8"))


class TestFaultInjection:
    def test_bad_json_body_400(self, served_world):
        server = protocol_server(served_world)
        status, payload = parse_response(
            feed_request(server, http_request(body=b"{nope"))
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    @pytest.mark.parametrize(
        "body",
        [
            b"[" * 100_000,
            b'{"schema": "repro.serve/v1", "threshold": ' + b"7" * 5_000 + b"}",
        ],
        ids=["nested-past-recursion-limit", "integer-past-digit-limit"],
    )
    def test_body_the_json_parser_refuses_400(self, served_world, body):
        """Python's ``json`` raises ``RecursionError`` on deep nesting and
        ``ValueError`` on an integer past its 4,300-digit limit; both are
        malformed bodies, answered 400 ``bad_request``, not 500."""
        server = protocol_server(served_world)
        status, payload = parse_response(
            feed_request(server, http_request(body=body))
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert payload["error"]["message"].startswith("invalid JSON payload")

    @pytest.mark.parametrize(
        "threshold",
        [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"1" + b"0" * 400, b'"0.5"', b"true"],
        ids=["nan", "infinity", "-infinity", "1e400", "int-beyond-float", "string", "bool"],
    )
    def test_threshold_must_be_a_finite_number_400(self, served_world, threshold):
        """A threshold must be a finite JSON number: the non-standard
        constants fail to decode, and a literal beyond float range (a float
        parses to infinity, an integer does not convert), a string or a
        boolean fails the threshold check.  The request is otherwise a valid
        stateless detect."""
        server = protocol_server(served_world)
        dataset = served_world.bundle.dirty
        request = json.dumps({
            "schema": "repro.serve/v1",
            "fingerprint": served_world.fingerprint,
            "columns": dataset.attributes,
            "rows": [dataset.row_values(0)],
            "cells": [[0, dataset.attributes[0]]],
            "threshold": "<threshold>",
        }).encode()
        body = request.replace(b'"<threshold>"', threshold)
        status, payload = parse_response(
            feed_request(server, http_request(body=body))
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        message = payload["error"]["message"]
        assert "threshold must be a finite number" in message or (
            "is not a JSON number" in message
        )

    def test_wrong_schema_400(self, served_world):
        server = protocol_server(served_world)
        body = json.dumps({"schema": "repro.serve/v0"}).encode()
        status, payload = parse_response(
            feed_request(server, http_request(body=body))
        )
        assert status == 400
        assert "repro.serve/v1" in payload["error"]["message"]

    def test_malformed_request_line_400(self, served_world):
        server = protocol_server(served_world)
        status, payload = parse_response(
            feed_request(server, b"NOT A VALID REQUEST\r\n\r\n")
        )
        assert status == 400

    def test_binary_content_type_with_json_bytes_400(self, served_world):
        server = protocol_server(served_world)
        raw = feed_request(
            server,
            http_request(
                body=b'{"schema": "repro.serve/v1"}',
                content_type="application/x-repro-pack",
            ),
        )
        # The wire is JSON only: the retired binary type is an unsupported
        # content type, answered in JSON like any other.
        assert b"Content-Type: application/json" in raw.partition(b"\r\n\r\n")[0]
        status, payload = parse_response(raw)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "application/x-repro-pack" in payload["error"]["message"]
        # The server keeps answering afterwards.
        status, payload = parse_response(
            feed_request(server, http_request("/v1/health", method="GET"))
        )
        assert status == 200

    def test_binary_accept_header_answered_in_json(self, served_world):
        server = protocol_server(served_world)
        raw = feed_request(
            server,
            http_request(
                "/v1/health", method="GET", accept="application/x-repro-pack"
            ),
        )
        assert b"Content-Type: application/json" in raw.partition(b"\r\n\r\n")[0]
        status, payload = parse_response(raw)
        assert status == 200
        assert payload["kind"] == "health"

    def test_oversized_payload_413(self, served_world):
        server = DetectionServer(
            ServeConfig(model_root=served_world.model_root, max_body=1024)
        )
        body = b"x" * 2048
        status, payload = parse_response(feed_request(server, http_request(body=body)))
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"

    def test_too_many_headers_400(self, served_world):
        server = protocol_server(served_world)
        headers = "".join(f"X-Pad-{i}: {i}\r\n" for i in range(150))
        raw = (
            "POST /v1/detect HTTP/1.1\r\n" + headers + "\r\n"
        ).encode()
        status, payload = parse_response(feed_request(server, raw))
        assert status == 400

    def test_error_counters_increment(self, served_world):
        server = protocol_server(served_world)
        feed_request(server, http_request(body=b"{nope"))
        assert server.requests_handled == 1
        assert server.errors_returned == 1

    def test_slow_client_times_out_408(self, served_world, tmp_path):
        config = ServeConfig(
            model_root=served_world.model_root, read_timeout=0.3
        )
        with InProcessServer(config) as harness:
            connection = RawConnection(harness.host, harness.port, timeout=10)
            try:
                # Declare a body, never deliver it; the server must answer
                # 408 instead of waiting forever.
                connection.send_request_head(content_length=64)
                raw = connection.read_response()
            finally:
                connection.close()
            status, payload = parse_response(raw)
            assert status == 408
            assert payload["error"]["code"] == "timeout"
            # The loop is alive and serving.
            assert ServeClient(harness.host, harness.port).health()[
                "status"
            ] == "ok"

    def test_disconnecting_client_does_not_kill_the_loop(
        self, served_world, server
    ):
        for _ in range(3):
            connection = RawConnection(server.host, server.port)
            connection.send_request_head(content_length=4096)
            connection.send(b"partial")
            connection.abort()
        # A polite client right after the rude ones gets full service.
        client = ServeClient(server.host, server.port)
        assert client.health()["status"] == "ok"
        response = client.detect(
            served_world.fingerprint, dataset=served_world.bundle.dirty
        )
        assert response["report"]["scored_cells"] > 0

    def test_empty_connection_is_ignored(self, served_world, server):
        connection = RawConnection(server.host, server.port)
        connection.close()
        time.sleep(0.05)
        assert ServeClient(server.host, server.port).health()["status"] == "ok"

    def test_connection_that_sends_nothing_is_closed(self, served_world):
        """A client that connects and hangs up (a health probe, a port
        scan) gets no answer, and its connection is closed rather than
        left open until a garbage collection."""
        server = protocol_server(served_world)

        async def run() -> tuple[list[bytes], bool]:
            reader = asyncio.StreamReader()
            reader.feed_eof()
            transport = _CaptureTransport()
            protocol = asyncio.StreamReaderProtocol(asyncio.StreamReader())
            writer = asyncio.StreamWriter(
                transport, protocol, None, asyncio.get_running_loop()
            )
            await server._handle_connection(reader, writer)
            # Read while ``writer`` is alive: dropping an open StreamWriter
            # closes its transport too, with a ResourceWarning.
            return transport.chunks, transport.is_closing()

        assert asyncio.run(run()) == ([], True)

    def test_half_closed_empty_connection_sees_the_close(self, server):
        connection = RawConnection(server.host, server.port, timeout=3)
        try:
            connection.sock.shutdown(socket.SHUT_WR)
            # End of stream, not a timeout: the server closed its side.
            assert connection.sock.recv(1) == b""
        finally:
            connection.close()

    def test_corrupt_model_500_then_heals(self, served_world, tmp_path):
        root = tmp_path / "models"
        shutil.copytree(served_world.model_root / "alpha", root / "alpha")
        state_path = root / "alpha" / "state.json"
        good_state = state_path.read_text(encoding="utf-8")
        state_path.write_text(good_state[:150], encoding="utf-8")

        with InProcessServer(ServeConfig(model_root=root)) as harness:
            client = ServeClient(harness.host, harness.port)
            with pytest.raises(ServeClientError) as excinfo:
                client.detect(
                    served_world.fingerprint, dataset=served_world.bundle.dirty
                )
            assert excinfo.value.status == 500
            assert excinfo.value.code == "corrupt_model"
            # Loop alive, registry unpoisoned.
            assert client.health()["status"] == "ok"
            assert client.registry()["hot"] == []
            # Repair on disk; the very next request serves — no restart.
            state_path.write_text(good_state, encoding="utf-8")
            response = client.detect(
                served_world.fingerprint, dataset=served_world.bundle.dirty
            )
            assert response["report"]["scored_cells"] > 0

    def test_structured_error_payload_shape(self, served_world, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.detect("deadbeefdeadbeef", dataset=served_world.bundle.dirty)
        payload = excinfo.value.payload
        assert payload["schema"] == SERVE_SCHEMA
        assert payload["kind"] == "error"
        assert set(payload["error"]) == {"code", "message"}


# --------------------------------------------------------------------- #
# Early batch close: the count of requests still being read
# --------------------------------------------------------------------- #

#: A batch window long enough that a batch closing at it is unmistakable.
LONG_WINDOW = 5.0


def await_mid_read(harness, count: int) -> None:
    """Wait (up to 10 s) until the batcher counts ``count`` reads."""

    async def mid_read():
        return harness.server.batcher.mid_read

    deadline = time.monotonic() + 10
    while harness.submit(mid_read()) != count and time.monotonic() < deadline:
        time.sleep(0.01)


def settled_mid_read(harness) -> int | None:
    """The batcher's mid-read count once no connection is in flight."""

    async def state():
        return harness.server._inflight, harness.server.batcher.mid_read

    deadline = time.monotonic() + 10
    inflight, mid_read = harness.submit(state())
    while inflight and time.monotonic() < deadline:
        time.sleep(0.01)
        inflight, mid_read = harness.submit(state())
    return mid_read


def tenant_detect_pair(harness, served_world) -> list[float]:
    """Seconds each of two concurrent one-cell detects of tenant ``acme``
    takes to answer."""
    attr = served_world.bundle.dirty.attributes[0]
    barrier = threading.Barrier(2)

    def detect(row):
        client = ServeClient(harness.host, harness.port)
        barrier.wait()
        started = time.perf_counter()
        client.detect(tenant="acme", cells=[(row, attr)])
        return time.perf_counter() - started

    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(detect, (0, 1)))


def raw_status(harness, data: bytes) -> int:
    connection = RawConnection(harness.host, harness.port)
    try:
        return parse_response(connection.send(data).read_response())[0]
    finally:
        connection.close()


def end_bad_request_line(harness, served_world):
    assert raw_status(harness, b"NOT A VALID REQUEST\r\n\r\n") == 400


def head_only_status(harness, content_length: int) -> int:
    """The answer to a request head whose declared body is never sent."""
    connection = RawConnection(harness.host, harness.port)
    try:
        connection.send_request_head(content_length=content_length)
        return parse_response(connection.read_response())[0]
    finally:
        connection.close()


def end_payload_too_large(harness, served_world):
    assert head_only_status(harness, harness.config.max_body + 1) == 413


def end_read_timeout(harness, served_world):
    assert head_only_status(harness, 64) == 408


def end_disconnect_mid_body(harness, served_world):
    connection = RawConnection(harness.host, harness.port)
    connection.send_request_head(content_length=4096)
    connection.send(b"partial")
    # Abort once the server is reading the body: the abort lands mid-body,
    # and the connection is in flight before the settle wait begins.
    await_mid_read(harness, 1)
    connection.abort()


def end_unknown_route(harness, served_world):
    assert raw_status(harness, http_request("/v1/nope", method="GET")) == 404


def end_method_not_allowed(harness, served_world):
    assert raw_status(harness, http_request("/v1/detect", method="GET")) == 405


def end_shed(harness, served_world):
    """Stalled connections fill every in-flight slot; the next is shed."""

    async def inflight():
        return harness.server._inflight

    cap = harness.config.max_inflight
    stalled = [RawConnection(harness.host, harness.port) for _ in range(cap)]
    try:
        deadline = time.monotonic() + 10
        while harness.submit(inflight()) < cap and time.monotonic() < deadline:
            time.sleep(0.01)
        assert raw_status(harness, http_request("/v1/health", method="GET")) == 503
    finally:
        for connection in stalled:
            connection.close()


def end_stateless_detect(harness, served_world):
    ServeClient(harness.host, harness.port).detect(
        served_world.fingerprint, dataset=served_world.bundle.dirty
    )


def end_whole_relation_view(harness, served_world):
    ServeClient(harness.host, harness.port).detect(tenant="acme")


def end_rescore(harness, served_world):
    attr = served_world.bundle.dirty.attributes[0]
    ServeClient(harness.host, harness.port).rescore(
        "acme", [{"row": 2, "attribute": attr, "value": "Edited"}]
    )


def end_evict(harness, served_world):
    ServeClient(harness.host, harness.port).evict(
        fingerprint=served_world.fingerprint
    )


ENDINGS = [
    end_bad_request_line, end_payload_too_large, end_read_timeout,
    end_disconnect_mid_body, end_unknown_route, end_method_not_allowed,
    end_shed, end_stateless_detect, end_whole_relation_view, end_rescore,
    end_evict,
]


class TestMidReadCount:
    """The batcher closes a batch of two or more once no admitted
    connection is still reading its request.  A count left raised by some
    way a connection ends would bring the whole window back to every
    batch, so each ending must bring it back to zero."""

    @pytest.mark.parametrize(
        "raw",
        [
            b"NOT A VALID REQUEST\r\n\r\n",
            http_request(body=b"x" * 2048),
            b"POST /v1/detect HTTP/1.1\r\nContent-Length: 4096\r\n\r\npartial",
            http_request("/v1/nope", method="GET"),
            http_request("/v1/detect", method="GET"),
            http_request(body=b"{nope"),
            http_request("/v1/health", method="GET"),
            b"",
        ],
        ids=["bad-request-line", "413", "disconnect-mid-body", "404", "405",
             "bad-json", "health", "empty-connection"],
    )
    def test_fed_request_leaves_no_read_counted(self, served_world, raw):
        server = DetectionServer(
            ServeConfig(model_root=served_world.model_root, max_body=1024)
        )
        feed_request(server, raw)
        assert server.batcher.mid_read == 0

    def test_shed_connection_is_never_counted(self, served_world):
        server = protocol_server(served_world)
        server._inflight = server.config.max_inflight
        status, _ = parse_response(
            feed_request(server, http_request("/v1/health", method="GET"))
        )
        assert status == 503
        assert server.batcher.mid_read is None  # no read was ever counted

    @pytest.fixture()
    def window_server(self, served_world, tmp_path):
        config = ServeConfig(
            model_root=served_world.model_root,
            artifact_root=tmp_path / "artifacts",
            batch_window=LONG_WINDOW,
            read_timeout=2.0,
            max_inflight=2,
        )
        with InProcessServer(config) as harness:
            register(ServeClient(harness.host, harness.port), served_world)
            yield harness

    @pytest.mark.parametrize(
        "ending", ENDINGS, ids=[e.__name__.removeprefix("end_") for e in ENDINGS]
    )
    def test_every_ending_leaves_no_read_counted(
        self, served_world, window_server, ending
    ):
        ending(window_server, served_world)
        assert settled_mid_read(window_server) == 0
        # Nothing left mid-read: a pair of detects closes its batch at once
        # instead of sitting out the 5 s window.
        assert max(tenant_detect_pair(window_server, served_world)) < LONG_WINDOW / 2

    def test_stalled_read_brings_back_only_the_window(self, served_world, tmp_path):
        window = 0.5
        config = ServeConfig(
            model_root=served_world.model_root,
            artifact_root=tmp_path / "artifacts",
            batch_window=window,
            read_timeout=30.0,
        )

        with InProcessServer(config) as harness:
            register(ServeClient(harness.host, harness.port), served_world)
            stalled = RawConnection(harness.host, harness.port)
            try:
                stalled.send(b"POST /v1/detect HTTP/1.1\r\n")  # the head never ends
                await_mid_read(harness, 1)
                elapsed = tenant_detect_pair(harness, served_world)
            finally:
                stalled.close()
            # The stalled read could still join, so the pair waits out the
            # window, and no longer: the read itself would run to 30 s.
            assert window <= max(elapsed) < 10
            assert settled_mid_read(harness) == 0


class TestTenantBarrier:
    """A detect queued for a tenant is scored against the relation it was
    sent against, even when the tenant's relation is replaced before the
    batch closes: the replacement flushes the batch first.  The 5 s window
    keeps the detect queued until then."""

    @pytest.mark.parametrize("replace", ["re-register", "evict-then-register"])
    def test_queued_detect_scores_the_relation_it_was_sent_against(
        self, served_world, tmp_path, replace
    ):
        dataset = served_world.bundle.dirty
        attr = dataset.attributes[0]
        changed = dataset.copy()
        changed.set_value(Cell(0, attr), "Changed Value")
        config = ServeConfig(
            model_root=served_world.model_root,
            artifact_root=tmp_path / "artifacts",
            batch_window=LONG_WINDOW,
        )

        def detect(harness, barrier=None):
            client = ServeClient(harness.host, harness.port)
            if barrier is not None:
                barrier.wait()
            return served_probabilities(client.detect(tenant="acme", cells=[(0, attr)]))

        with InProcessServer(config) as harness:
            client = ServeClient(harness.host, harness.port)
            register(client, served_world)
            with ThreadPoolExecutor(max_workers=3) as pool:
                queued = pool.submit(detect, harness)
                deadline = time.monotonic() + 10
                while (
                    client.registry()["batcher"]["requests"] < 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                if replace == "evict-then-register":
                    client.evict(tenant="acme")
                client.detect(
                    served_world.fingerprint, dataset=changed, tenant="acme",
                    include_cells=False,
                )
                # A pair, so the batch after the replacement closes at once.
                barrier = threading.Barrier(2)
                later = list(pool.map(detect, [harness] * 2, [barrier] * 2))
                first = queued.result(timeout=30)

        cell = [Cell(0, attr)]
        assert first == direct_probabilities(fresh_baseline(served_world), cell)
        expected = direct_probabilities(fresh_baseline(served_world, changed), cell)
        assert later == [expected, expected]
        assert first != expected


class TestCliClient:
    def test_client_detect_writes_the_served_triage_csv(self, served_world, server, tmp_path):
        import csv

        from repro.cli import main
        from repro.dataset import write_csv

        data = tmp_path / "data.csv"
        write_csv(served_world.bundle.dirty, data)
        triage, response = tmp_path / "served.csv", tmp_path / "served.json"
        assert main(
            ["client", "detect", "--port", str(server.port),
             "--fingerprint", served_world.fingerprint[:12], "--input", str(data),
             "--output", str(triage), "--json", str(response)]
        ) == 0
        cells = json.loads(response.read_text())["report"]["cells"]
        with triage.open(newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["row", "attribute", "value", "error_probability", "flagged"]
        assert rows[1:] == [
            [str(c["row"]), c["attribute"], c["value"],
             f"{c['error_probability']:.4f}", str(int(c["flagged"]))]
            for c in cells
        ]
        assert len(rows) - 1 == served_world.bundle.dirty.num_cells
