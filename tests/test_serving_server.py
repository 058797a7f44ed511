"""Server tests: routes, tenants, concurrency equivalence, fault injection.

Three layers of harness from :mod:`repro.serving.testing`:

- ``feed_request`` drives the connection handler over in-memory streams for
  protocol-level tests (malformed requests, oversized bodies) with no ports;
- :class:`InProcessServer` + :class:`ServeClient` exercise the real socket
  path, including thread-pool concurrency;
- :class:`RawConnection` plays the misbehaving client (slow, vanishing).

The load-bearing assertions are the *bit-identity* ones: concurrent,
coalesced, and binary-transported responses must equal the sequential
single-client answer exactly — which in turn equals a direct
``HoloDetect``/``DetectionSession`` computation on a freshly loaded model.
"""

from __future__ import annotations

import json
import shutil
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
from repro.serving.testing import InProcessServer, RawConnection, feed_request

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

    def test_binary_transport_bit_identical_to_json(self, served_world, server):
        dataset = served_world.bundle.dirty
        json_client = ServeClient(server.host, server.port)
        binary_client = ServeClient(server.host, server.port, binary=True)
        a = json_client.detect(served_world.fingerprint, dataset=dataset)
        b = binary_client.detect(served_world.fingerprint, dataset=dataset)
        assert served_probabilities(a) == served_probabilities(b)
        assert a["report"]["cells"] == b["report"]["cells"]

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
                 content_type="application/json") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\nContent-Type: {content_type}\r\n"
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
        from repro.serving.wire import unpack

        server = protocol_server(served_world)
        raw = feed_request(
            server,
            http_request(
                body=b'{"schema": "repro.serve/v1"}',
                content_type="application/x-repro-pack",
            ),
        )
        # The error answer is negotiated to the request's (binary) format.
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b" 400 " in head.split(b"\r\n", 1)[0]
        payload = unpack(body)
        assert payload["error"]["code"] == "bad_request"

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
