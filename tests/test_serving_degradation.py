"""Serving-layer graceful degradation: admission control, per-fingerprint
circuit breakers, and the degraded health report.

Everything runs over in-memory streams (``feed_request``) with injectable
clocks — no sockets, no real sleeps.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.faults import RetryPolicy, inject, use_policy
from repro.serving.registry import DetectorRegistry, RegistryError
from repro.serving.server import DetectionServer, ServeConfig
from repro.serving.testing import feed_request


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture(autouse=True)
def fast_policy():
    sleeps: list[float] = []
    with use_policy(RetryPolicy(max_attempts=3, base_delay=0.01, sleep=sleeps.append)):
        yield


@pytest.fixture()
def corrupt_root(served_world, tmp_path):
    """A model root whose single save has a truncated state.json."""
    root = tmp_path / "models"
    shutil.copytree(served_world.model_root / "alpha", root / "alpha")
    state = root / "alpha" / "state.json"
    state.write_text(state.read_text(encoding="utf-8")[:200], encoding="utf-8")
    return root


def repair(served_world, corrupt_root) -> None:
    shutil.copyfile(
        served_world.model_root / "alpha" / "state.json",
        corrupt_root / "alpha" / "state.json",
    )


def http_request(path="/v1/detect", body=b"", method="POST") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def parse_response(raw: bytes) -> tuple[int, dict, dict]:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, json.loads(body.decode("utf-8")), headers


def detect_body(served_world) -> bytes:
    dataset = served_world.bundle.dirty
    return json.dumps(
        {
            "schema": "repro.serve/v1",
            "fingerprint": served_world.fingerprint,
            "columns": list(dataset.attributes),
            "rows": [
                [dataset.column(a)[r] for a in dataset.attributes]
                for r in range(3)
            ],
        }
    ).encode("utf-8")


# --------------------------------------------------------------------------- #
# Registry-level circuit breaker
# --------------------------------------------------------------------------- #


class TestLoadCircuitBreaker:
    def make_registry(self, corrupt_root, threshold=2):
        clock = FakeClock()
        registry = DetectorRegistry(
            corrupt_root,
            capacity=4,
            breaker_threshold=threshold,
            breaker_cooldown=30.0,
            clock=clock,
        )
        return registry, clock

    def test_repeated_failures_trip_the_circuit(self, served_world, corrupt_root):
        registry, _ = self.make_registry(corrupt_root)
        for _ in range(2):
            with pytest.raises(RegistryError) as excinfo:
                registry.acquire(served_world.fingerprint, served_world.bundle.dirty)
            assert excinfo.value.code == "corrupt_model"
        # Third request fails fast without touching the disk.
        failures_before = registry.stats.load_failures
        with pytest.raises(RegistryError) as excinfo:
            registry.acquire(served_world.fingerprint, served_world.bundle.dirty)
        assert excinfo.value.code == "circuit_open"
        assert excinfo.value.retry_after == pytest.approx(30.0)
        assert registry.stats.load_failures == failures_before
        assert registry.stats.fast_failures == 1
        assert registry.hot_fingerprints == []  # failures are never cached
        states = registry.breaker_states()
        assert list(states) == [served_world.fingerprint]
        assert states[served_world.fingerprint]["state"] == "open"

    def test_half_open_probe_heals_without_restart(self, served_world, corrupt_root):
        registry, clock = self.make_registry(corrupt_root)
        for _ in range(2):
            with pytest.raises(RegistryError):
                registry.acquire(served_world.fingerprint, served_world.bundle.dirty)
        repair(served_world, corrupt_root)
        # Before the cooldown lapses, still fast-failing despite the repair.
        with pytest.raises(RegistryError) as excinfo:
            registry.acquire(served_world.fingerprint, served_world.bundle.dirty)
        assert excinfo.value.code == "circuit_open"
        clock.now += 31.0
        detector = registry.acquire(served_world.fingerprint, served_world.bundle.dirty)
        assert detector is not None
        assert registry.breaker_states() == {}  # closed and clean again
        # And the healed entry serves from the hot pool now.
        assert registry.hot_fingerprints == [served_world.fingerprint]

    def test_failed_probe_reopens(self, served_world, corrupt_root):
        registry, clock = self.make_registry(corrupt_root)
        for _ in range(2):
            with pytest.raises(RegistryError):
                registry.acquire(served_world.fingerprint, served_world.bundle.dirty)
        clock.now += 31.0
        with pytest.raises(RegistryError) as excinfo:
            registry.acquire(served_world.fingerprint, served_world.bundle.dirty)
        assert excinfo.value.code == "corrupt_model"  # the probe ran, failed
        with pytest.raises(RegistryError) as excinfo:
            registry.acquire(served_world.fingerprint, served_world.bundle.dirty)
        assert excinfo.value.code == "circuit_open"  # fresh cooldown

    def test_transient_load_fault_is_retried_not_counted(
        self, served_world, tmp_path
    ):
        root = tmp_path / "models"
        shutil.copytree(served_world.model_root / "alpha", root / "alpha")
        registry = DetectorRegistry(root, capacity=4)
        with inject("serve.load=first:2:EIO"):
            detector = registry.acquire(
                served_world.fingerprint, served_world.bundle.dirty
            )
        assert detector is not None
        assert registry.stats.load_failures == 0
        assert registry.breaker_states() == {}


# --------------------------------------------------------------------------- #
# Server-level degradation
# --------------------------------------------------------------------------- #


class TestAdmissionControl:
    def test_overload_sheds_with_structured_503(self, served_world):
        server = DetectionServer(
            ServeConfig(
                model_root=served_world.model_root, max_inflight=1, retry_after=2.5
            )
        )
        server._inflight = 1  # the cap is reached: one request mid-flight
        status, payload, headers = parse_response(
            feed_request(server, http_request("/v1/health", method="GET"))
        )
        assert status == 503
        assert payload["kind"] == "error"
        assert payload["error"]["code"] == "overloaded"
        assert payload["error"]["retry_after"] == 2.5
        assert headers["retry-after"] == "2"  # integer delta-seconds
        assert server.requests_shed == 1
        server._inflight = 0
        status, payload, _ = parse_response(
            feed_request(server, http_request("/v1/health", method="GET"))
        )
        assert status == 200
        assert payload["shed"] == 1

    def test_inflight_gauge_returns_to_zero(self, served_world):
        server = DetectionServer(ServeConfig(model_root=served_world.model_root))
        feed_request(server, http_request("/v1/health", method="GET"))
        assert server._inflight == 0

    def test_config_validation(self, served_world):
        for bad in (
            dict(max_inflight=0),
            dict(retry_after=0),
            dict(breaker_threshold=0),
            dict(breaker_cooldown=0),
            dict(read_timeout=float("nan")),
            dict(read_timeout=float("inf")),
            dict(batch_window=float("nan")),
            dict(batch_window=float("inf")),
            dict(retry_after=float("inf")),
            dict(breaker_cooldown=float("nan")),
        ):
            with pytest.raises(ValueError):
                ServeConfig(model_root=served_world.model_root, **bad)


class TestServerCircuitMapping:
    def make_server(self, corrupt_root) -> DetectionServer:
        return DetectionServer(
            ServeConfig(
                model_root=corrupt_root,
                breaker_threshold=1,
                breaker_cooldown=60.0,
            )
        )

    def test_open_circuit_maps_to_503_with_retry_after(
        self, served_world, corrupt_root
    ):
        server = self.make_server(corrupt_root)
        body = detect_body(served_world)
        status, payload, _ = parse_response(
            feed_request(server, http_request(body=body))
        )
        assert status == 500
        assert payload["error"]["code"] == "corrupt_model"
        status, payload, headers = parse_response(
            feed_request(server, http_request(body=body))
        )
        assert status == 503
        assert payload["error"]["code"] == "circuit_open"
        assert payload["error"]["retry_after"] == pytest.approx(60.0, abs=1.0)
        assert headers["retry-after"] == "60"

    def test_health_reports_degraded_components(self, served_world, corrupt_root):
        server = self.make_server(corrupt_root)
        status, payload, _ = parse_response(
            feed_request(server, http_request("/v1/health", method="GET"))
        )
        assert status == 200 and payload["status"] == "ok"
        assert payload["components"] == {}
        feed_request(server, http_request(body=detect_body(served_world)))
        status, payload, _ = parse_response(
            feed_request(server, http_request("/v1/health", method="GET"))
        )
        assert status == 200  # health itself always answers
        assert payload["status"] == "degraded"
        circuits = payload["components"]["circuits"]
        assert list(circuits) == [served_world.fingerprint]
        assert circuits[served_world.fingerprint]["state"] == "open"

    def test_health_recovers_after_repair(self, served_world, corrupt_root):
        clock = FakeClock()
        server = self.make_server(corrupt_root)
        server.registry.clock = clock
        body = detect_body(served_world)
        feed_request(server, http_request(body=body))  # trips the breaker
        repair(served_world, corrupt_root)
        clock.now += 61.0
        status, payload, _ = parse_response(
            feed_request(server, http_request(body=body))
        )
        assert status == 200
        status, payload, _ = parse_response(
            feed_request(server, http_request("/v1/health", method="GET"))
        )
        assert payload["status"] == "ok"
        assert payload["components"] == {}
