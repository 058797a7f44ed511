"""Serving-path performance: concurrent clients vs one client, coalescing on.

Companion to ``bench_incremental.py`` (the in-process rescore path): ISSUE 6
turns the detector into a long-lived service, and this benchmark gates the
property that makes the service worth having — **concurrency is close to
free**.  Four clients hammering one server coalesce into shared scoring
passes, so their p95 latency must stay within 2× of a lone client's p95
(the acceptance gate), while every response stays bit-identical to a direct
``HoloDetect`` computation on a freshly loaded model.

One fit and one server serve ``ROUNDS`` timed rounds, each a single-client
phase then a 4-client phase.  The gate reads the median of the rounds' p95
ratios: one round's p95 is one of its worst few requests, and a single
host-load burst moves a one-round ratio by 0.5–1.3×.  Every round must
coalesce and answer bit-identically.

Reported (and archived as JSON to ``bench_serving.json`` in the working
directory):

- single-client sequential p50/p95 latency and requests/sec (all rounds);
- 4-client concurrent p50/p95 latency and aggregate requests/sec (all rounds);
- each round's p95 ratio, their median against the 2× gate, and batcher
  coalescing counters;
- tenant rescore (O(edit) session) round-trip latency.

Run with ``pytest benchmarks/bench_serving.py -s`` to see the tables.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from conftest import BENCH_EPOCHS, print_table, write_results

from repro import DetectorSpec, HoloDetect, load_dataset, make_split
from repro.persistence import load_detector, save_detector
from repro.serving import ServeClient, ServeConfig, probabilities_of
from repro.serving.testing import InProcessServer

_RESULTS_PATH = Path("bench_serving.json")

CLIENTS = 4
REQUESTS_PER_CLIENT = 25
CELLS_PER_REQUEST = 30
ROUNDS = 5
P95_GATE = 2.0


def _p95(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def _queries(dataset) -> list[list[tuple[int, str]]]:
    """A deterministic rotation of small cell subsets over the relation."""
    attributes = dataset.attributes
    return [
        [
            (
                (index * 7 + k) % dataset.num_rows,
                attributes[(index + k) % len(attributes)],
            )
            for k in range(CELLS_PER_REQUEST)
        ]
        for index in range(REQUESTS_PER_CLIENT)
    ]


def _timed_round(harness, client, queries) -> dict:
    """One single-client phase, then one ``CLIENTS``-client phase, against
    the registered ``bench`` tenant."""
    coalesced_before = client.registry()["batcher"]["coalesced_requests"]

    def stream(stream_client) -> tuple[list[float], list[dict]]:
        latencies, answers = [], []
        for query in queries:
            started = time.perf_counter()
            response = stream_client.detect(tenant="bench", cells=query)
            latencies.append(time.perf_counter() - started)
            answers.append(probabilities_of(response))
        return latencies, answers

    t0 = time.perf_counter()
    single_latencies, single_answers = stream(client)
    single_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        outcomes = list(
            pool.map(lambda _: stream(ServeClient(harness.host, harness.port)), range(CLIENTS))
        )
    concurrent_wall = time.perf_counter() - t0
    concurrent_latencies = [t for lats, _ in outcomes for t in lats]
    return {
        "single_latencies": single_latencies,
        "single_wall": single_wall,
        "single_answers": single_answers,
        "concurrent_latencies": concurrent_latencies,
        "concurrent_wall": concurrent_wall,
        "concurrent_answers": [answers for _, answers in outcomes],
        "coalesced": client.registry()["batcher"]["coalesced_requests"] - coalesced_before,
        "p95_ratio": _p95(concurrent_latencies) / max(_p95(single_latencies), 1e-9),
    }


def test_concurrent_serving_latency(benchmark, tmp_path):
    bundle = load_dataset("hospital", num_rows=100, seed=5)
    split = make_split(bundle, 0.1, rng=0)
    spec = DetectorSpec.default(
        epochs=BENCH_EPOCHS, embedding_dim=8, lr=3e-3,
        min_training_steps=150, seed=0,
    )
    detector = HoloDetect.from_spec(spec)
    detector.fit(bundle.dirty, split.training, bundle.constraints)
    model_root = tmp_path / "models"
    save_detector(detector, model_root / "hospital")
    fingerprint = spec.fingerprint()
    queries = _queries(bundle.dirty)

    def run():
        # A 10ms coalescing window: the single client's lone detects wait
        # it out on every request (it is part of the measured baseline),
        # while a batch of concurrent clients' detects closes as soon as
        # no other request is still being read.
        config = ServeConfig(
            model_root=model_root,
            artifact_root=tmp_path / "artifacts",
            batch_window=0.01,
        )
        with InProcessServer(config) as harness:
            client = ServeClient(harness.host, harness.port)
            # Register the tenant (loads the model, scores the relation).
            client.detect(fingerprint, dataset=bundle.dirty, tenant="bench")
            rounds = [_timed_round(harness, client, queries) for _ in range(ROUNDS)]

            # -- one rescore round-trip (the O(edit) session path), after
            # every round, since it edits the tenant's relation ---------- #
            attr = bundle.dirty.attributes[0]
            started = time.perf_counter()
            rescore = client.rescore(
                "bench", [{"row": 0, "attribute": attr, "value": "edited"}],
                include_cells=False,
            )
            rescore_latency = time.perf_counter() - started
            batcher_stats = client.registry()["batcher"]
        return rounds, rescore, rescore_latency, batcher_stats

    rounds, rescore, rescore_latency, batcher_stats = benchmark.pedantic(
        run, iterations=1, rounds=1
    )

    single_latencies = [t for r in rounds for t in r["single_latencies"]]
    concurrent_latencies = [t for r in rounds for t in r["concurrent_latencies"]]
    ratios = [r["p95_ratio"] for r in rounds]
    ratio = statistics.median(ratios)
    single_rps = len(single_latencies) / max(sum(r["single_wall"] for r in rounds), 1e-9)
    concurrent_rps = len(concurrent_latencies) / max(
        sum(r["concurrent_wall"] for r in rounds), 1e-9
    )

    print_table(
        f"Serving under concurrency — hospital (100 rows, {ROUNDS} rounds of "
        f"{CLIENTS} clients × {REQUESTS_PER_CLIENT} requests × "
        f"{CELLS_PER_REQUEST} cells)",
        ["configuration", "p50 (ms)", "p95 (ms)", "req/s"],
        [
            [
                "1 client, sequential",
                f"{1e3 * statistics.median(single_latencies):.1f}",
                f"{1e3 * _p95(single_latencies):.1f}",
                f"{single_rps:.1f}",
            ],
            [
                f"{CLIENTS} clients, concurrent",
                f"{1e3 * statistics.median(concurrent_latencies):.1f}",
                f"{1e3 * _p95(concurrent_latencies):.1f}",
                f"{concurrent_rps:.1f}",
            ],
            ["p95 ratio per round", "", " ".join(f"{r:.2f}x" for r in ratios), ""],
            ["median p95 ratio (gate <= 2.0x)", "", f"{ratio:.2f}x", ""],
            [
                "coalescing",
                "",
                f"{batcher_stats['coalesced_requests']} merged",
                f"{batcher_stats['batches']} batches",
            ],
            ["rescore round-trip", "", f"{1e3 * rescore_latency:.1f}", ""],
        ],
    )
    write_results(
        _RESULTS_PATH,
        "concurrent_serving",
        {
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "cells_per_request": CELLS_PER_REQUEST,
            "rounds": ROUNDS,
            "single_p50_s": statistics.median(single_latencies),
            "single_p95_s": _p95(single_latencies),
            "single_requests_per_s": single_rps,
            "concurrent_p50_s": statistics.median(concurrent_latencies),
            "concurrent_p95_s": _p95(concurrent_latencies),
            "concurrent_requests_per_s": concurrent_rps,
            "p95_ratios": ratios,
            "p95_ratio": ratio,
            "p95_gate": P95_GATE,
            "rescore_latency_s": rescore_latency,
            "rescored_cells": rescore["rescored_cells"],
            "batcher": batcher_stats,
        },
    )

    # Acceptance, on every round: every served answer is
    # bit-identical to a direct computation on a freshly loaded detector...
    baseline = load_detector(model_root / "hospital", bundle.dirty)
    baseline._train_cells = set()
    from repro.dataset.table import Cell

    expected = []
    for query in queries:
        predictions = baseline.predict([Cell(r, a) for r, a in query])
        expected.append({
            (cell.row, cell.attr): round(float(p), 6)
            for cell, p in zip(predictions.cells, predictions.probabilities)
        })
    for index, timed in enumerate(rounds):
        assert timed["single_answers"] == expected, (
            f"round {index}: served answer drifted from direct predict"
        )
        # ...concurrent clients see exactly the sequential answers...
        for answers in timed["concurrent_answers"]:
            assert answers == expected, (
                f"round {index}: concurrent responses diverged from the "
                "sequential baseline"
            )
        # ...requests actually coalesced...
        assert timed["coalesced"] > 0, f"round {index}: no coalescing happened"
    # ...and concurrency is close to free: the median round's p95 ratio is
    # within the 2x gate.
    assert ratio <= P95_GATE, (
        f"{CLIENTS}-client p95 is {ratio:.2f}x the single-client p95 in the "
        f"median of {ROUNDS} rounds (gate {P95_GATE}x); rounds: "
        + ", ".join(f"{r:.2f}x" for r in ratios)
    )
