"""Unit tests for the scenario matrix, scoped seeds, and sweep execution."""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

from repro.artifacts import get_default_store
from repro.coordination import coordination_dir, iter_leases, read_audit
from repro.evaluation.matrix import (
    CoordinateOptions,
    MatrixSpecError,
    ScenarioMatrix,
    ScenarioSpec,
    _drain,
    _LocalClaims,
    _run_with_artifact_stats,
    _Sweep,
    clamp_workers,
    run_matrix,
    run_scenario,
)
from repro.evaluation.store import ResultStore

SMALL_MATRIX = {
    "datasets": [{"name": "hospital", "rows": 80}, {"name": "food", "rows": 80}],
    "error_profiles": ["native", "bart-mix"],
    "label_budgets": [0.1],
    "methods": ["cv", "od"],
    "trials": 2,
    "seed": 3,
}


_COORDINATE = CoordinateOptions(worker_id="w1", ttl=30.0, poll_interval=0.05)

#: {plain, coordinated} x {inline, 2-worker process pool}: both claim
#: sources under both pools.  Runners handed to a process pool live at
#: module level, so they pickle.
SOURCES_X_EXECUTORS = [
    dict(),
    dict(workers=2),
    dict(coordinate=_COORDINATE),
    dict(workers=2, coordinate=_COORDINATE),
]


def spec(**overrides) -> ScenarioSpec:
    base = dict(
        dataset="hospital", error_profile="native", label_budget=0.1, method="cv",
        rows=80, trials=2, seed=3,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def fake_runner(s: ScenarioSpec) -> dict:
    return {
        "fingerprint": s.fingerprint(),
        "spec": s.to_dict(),
        "metrics": {"precision": 1.0, "recall": 1.0, "f1": 1.0},
        "mean_f1": 1.0,
        "std_f1": 0.0,
        "trials": [],
        "runtimes": [],
        "median_runtime": 0.0,
        "elapsed": 0.0,
    }


def flaky_runner(s: ScenarioSpec) -> dict:
    """``fake_runner``, except that the third grid point of SMALL_MATRIX
    (hospital/bart-mix/0.1/cv) fails."""
    if (s.dataset, s.error_profile, s.method) == ("hospital", "bart-mix", "cv"):
        raise RuntimeError("degenerate split")
    return fake_runner(s)


def store_dir_runner(s: ScenarioSpec) -> dict:
    """``fake_runner`` noting the ambient artifact store it ran under."""
    store = get_default_store()
    return {**fake_runner(s), "store_dir": None if store is None else str(store.directory)}


def slow_store_dir_runner(s: ScenarioSpec) -> dict:
    """``store_dir_runner`` after 50 ms of work."""
    time.sleep(0.05)
    return store_dir_runner(s)


class TestFingerprint:
    def test_stable_across_param_dict_ordering(self):
        a = spec(method_params={"epochs": 3, "embedding_dim": 8})
        b = spec(method_params={"embedding_dim": 8, "epochs": 3})
        assert a.fingerprint() == b.fingerprint()

    def test_changes_with_every_field(self):
        base = spec().fingerprint()
        for change in (
            dict(dataset="food"),
            dict(rows=81),
            dict(error_profile="typos"),
            dict(error_params={"error_rate": 0.1}),
            dict(label_budget=0.2),
            dict(method="od"),
            dict(method_params={"epochs": 1}),
            dict(trials=3),
            dict(sampling_fraction=0.3),
            dict(seed=4),
        ):
            assert spec(**change).fingerprint() != base, change

    def test_directly_built_spec_resolves_default_rows(self):
        from repro.data.registry import DEFAULT_ROWS

        bare = ScenarioSpec(
            dataset="hospital", error_profile="native", label_budget=0.1, method="cv"
        )
        assert bare.rows == DEFAULT_ROWS["hospital"]
        explicit = spec(rows=DEFAULT_ROWS["hospital"], trials=3, seed=0, label_budget=0.1)
        assert bare.fingerprint() == explicit.fingerprint()

    def test_json_roundtrip_preserves_fingerprint(self):
        original = spec(method_params={"epochs": 3})
        revived = ScenarioSpec(**json.loads(json.dumps(original.to_dict())))
        assert revived.fingerprint() == original.fingerprint()


class TestScopedSeeds:
    def test_dataset_seed_shared_across_other_axes(self):
        base = spec()
        for other in (spec(method="od"), spec(label_budget=0.2), spec(error_profile="typos")):
            assert other.dataset_seed == base.dataset_seed
        assert spec(dataset="food").dataset_seed != base.dataset_seed
        assert spec(rows=100).dataset_seed != base.dataset_seed

    def test_errors_seed_scoping(self):
        base = spec()
        assert spec(method="od").errors_seed == base.errors_seed
        assert spec(label_budget=0.2).errors_seed == base.errors_seed
        assert spec(error_profile="typos").errors_seed != base.errors_seed
        assert spec(error_params={"error_rate": 0.2}).errors_seed != base.errors_seed

    def test_trials_seed_shared_across_methods_only(self):
        base = spec()
        assert spec(method="od").trials_seed == base.trials_seed
        assert spec(label_budget=0.2).trials_seed != base.trials_seed

    def test_methods_see_identical_splits(self):
        """Two methods at one grid point are evaluated on identical splits."""
        from repro.data import load_dataset
        from repro.evaluation import run_trials

        seen = []

        def recorder(bundle, split, rng):
            seen.append((tuple(split.training_cells), tuple(split.test_cells)))
            return set()

        for s in (spec(method="cv"), spec(method="od")):
            bundle = load_dataset(s.dataset, num_rows=s.rows, seed=s.dataset_seed)
            run_trials(recorder, bundle, s.label_budget, num_trials=2, seed=s.trials_seed)
        assert seen[0] == seen[2] and seen[1] == seen[3]


class TestMatrixValidation:
    def test_happy_path_expansion(self):
        matrix = ScenarioMatrix.from_dict(SMALL_MATRIX)
        specs = matrix.expand()
        assert len(specs) == 2 * 2 * 1 * 2
        # Declared nesting order: datasets > profiles > budgets > methods.
        assert [s.method for s in specs[:2]] == ["cv", "od"]
        assert specs[0].dataset == "hospital" and specs[-1].dataset == "food"
        assert all(s.trials == 2 and s.seed == 3 for s in specs)

    def test_matrix_wrapper_key(self):
        assert ScenarioMatrix.from_dict({"matrix": SMALL_MATRIX}).expand()

    def test_rejects_keys_outside_the_matrix_table(self):
        with pytest.raises(MatrixSpecError, match="outside the \\[matrix\\] table"):
            ScenarioMatrix.from_dict({"matrix": SMALL_MATRIX, "seed": 7})

    @pytest.mark.parametrize("key", ["datasets", "error_profiles", "label_budgets", "methods"])
    def test_rejects_bare_string_axes(self, key):
        payload = dict(SMALL_MATRIX)
        payload[key] = "hospital"
        with pytest.raises(MatrixSpecError, match=f"non-empty {key!r} list"):
            ScenarioMatrix.from_dict(payload)

    def test_omitted_rows_resolve_to_registry_default(self):
        from repro.data.registry import DEFAULT_ROWS

        payload = dict(SMALL_MATRIX, datasets=["hospital"])
        specs = ScenarioMatrix.from_dict(payload).expand()
        assert all(s.rows == DEFAULT_ROWS["hospital"] for s in specs)
        # The resolved size is pinned in the fingerprint: an explicit
        # rows=default and an omitted rows are the same scenario.
        explicit = dict(SMALL_MATRIX, datasets=[{"name": "hospital", "rows": DEFAULT_ROWS["hospital"]}])
        assert [s.fingerprint() for s in ScenarioMatrix.from_dict(explicit).expand()] == [
            s.fingerprint() for s in specs
        ]

    def test_duplicate_entries_dedupe(self):
        payload = dict(SMALL_MATRIX, methods=["cv", "cv"])
        specs = ScenarioMatrix.from_dict(payload).expand()
        assert len(specs) == 2 * 2 * 1 * 1

    @pytest.mark.parametrize(
        "mutation,match",
        [
            (dict(datasets=[]), "non-empty"),
            (dict(datasets=["atlantis"]), "unknown dataset"),
            (dict(datasets=[{"name": "hospital", "rows": -1}]), "positive integer"),
            (dict(datasets=[{"name": "hospital", "cols": 3}]), "unknown keys"),
            (dict(datasets=[3]), "string or a table"),
            (dict(methods=["quantum"]), "unknown method"),
            (dict(methods=[{"name": "cv", "epochs": 2}]), "takes no parameters"),
            (dict(methods=[{"name": "holodetect", "epoochs": 2}]), "unknown detector parameters"),
            (dict(error_profiles=[]), "non-empty"),
            (dict(error_profiles=["martian"]), "unknown profile"),
            (dict(error_profiles=[{"name": "native", "error_rate": 0.5}]), "takes no parameters"),
            (dict(error_profiles=[{"name": "typos", "error_rte": 0.1}]), "unexpected keyword"),
            (dict(label_budgets=[0.0]), "must be in"),
            (dict(label_budgets=[1.5]), "must be in"),
            (dict(trials=0), "positive integer"),
            (dict(sampling_fraction=1.0), "sampling_fraction"),
            (dict(seed="abc"), "seed must be"),
            (dict(universe=42), "unknown spec keys"),
        ],
    )
    def test_rejects_malformed_specs(self, mutation, match):
        payload = dict(SMALL_MATRIX)
        payload.update(mutation)
        with pytest.raises(MatrixSpecError, match=match):
            ScenarioMatrix.from_dict(payload)

    def test_from_file_toml_and_json(self, tmp_path):
        toml_path = tmp_path / "m.toml"
        toml_path.write_text(
            '[matrix]\ndatasets = ["hospital"]\nlabel_budgets = [0.1]\nmethods = ["cv"]\n'
        )
        json_path = tmp_path / "m.json"
        json_path.write_text(json.dumps(SMALL_MATRIX))
        assert len(ScenarioMatrix.from_file(toml_path).expand()) == 1
        assert len(ScenarioMatrix.from_file(json_path).expand()) == 8

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(MatrixSpecError, match="not found"):
            ScenarioMatrix.from_file(tmp_path / "missing.toml")
        bad_toml = tmp_path / "bad.toml"
        bad_toml.write_text("datasets = [unclosed")
        with pytest.raises(MatrixSpecError, match="invalid TOML"):
            ScenarioMatrix.from_file(bad_toml)
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{")
        with pytest.raises(MatrixSpecError, match="invalid JSON"):
            ScenarioMatrix.from_file(bad_json)
        odd = tmp_path / "spec.yaml"
        odd.write_text("x")
        with pytest.raises(MatrixSpecError, match="unsupported spec format"):
            ScenarioMatrix.from_file(odd)

    def test_to_dict_roundtrip(self):
        matrix = ScenarioMatrix.from_dict(SMALL_MATRIX)
        again = ScenarioMatrix.from_dict(matrix.to_dict())
        assert [s.fingerprint() for s in again.expand()] == [
            s.fingerprint() for s in matrix.expand()
        ]


class TestRunScenario:
    def test_record_shape(self):
        record = run_scenario(spec(trials=2))
        assert record["fingerprint"] == spec(trials=2).fingerprint()
        assert set(record["metrics"]) == {"precision", "recall", "f1"}
        assert len(record["trials"]) == 2
        assert len(record["runtimes"]) == 2
        assert record["elapsed"] >= 0.0

    def test_deterministic(self):
        a, b = run_scenario(spec(trials=2)), run_scenario(spec(trials=2))
        assert a["metrics"] == b["metrics"]
        assert a["trials"] == b["trials"]

    def test_error_profile_changes_the_bundle(self):
        native = run_scenario(spec(trials=2))
        swapped = run_scenario(spec(trials=2, error_profile="swaps"))
        assert native["metrics"] != swapped["metrics"]


class TestClampWorkers:
    @pytest.mark.parametrize(
        "requested,pending,expected",
        [(0, 5, 1), (-3, 5, 1), (1, 5, 1), (4, 2, 2), (4, 0, 1), (1000, 1000, 64)],
    )
    def test_clamp(self, requested, pending, expected):
        assert clamp_workers(requested, pending) == expected


class TestRunMatrix:
    def test_process_pool_matches_serial(self):
        matrix = ScenarioMatrix.from_dict(SMALL_MATRIX)
        serial = run_matrix(matrix, workers=1)
        pooled = run_matrix(matrix, workers=2)
        assert (serial.workers, pooled.workers) == (1, 2)
        for a, b in zip(serial.records, pooled.records):
            assert a["metrics"] == b["metrics"]
            assert a["trials"] == b["trials"]
            assert a["fingerprint"] == b["fingerprint"]

    def test_records_in_expansion_order(self):
        matrix = ScenarioMatrix.from_dict(SMALL_MATRIX)
        report = run_matrix(matrix, workers=2, scenario_runner=fake_runner)
        assert report.workers == 2
        assert [r["fingerprint"] for r in report.records] == [
            s.fingerprint() for s in matrix.expand()
        ]

    def test_store_resume_runs_only_missing(self, tmp_path):
        matrix = ScenarioMatrix.from_dict(SMALL_MATRIX)
        store_path = tmp_path / "store.jsonl"
        calls: list[str] = []

        def counting_runner(s):
            calls.append(s.fingerprint())
            return fake_runner(s)

        first = run_matrix(
            matrix, store=ResultStore(store_path), resume=True, scenario_runner=counting_runner
        )
        assert first.executed == 8 and first.cached == 0
        assert len(calls) == 8

        # Drop half the store: only those scenarios re-execute.
        lines = store_path.read_text().splitlines()
        store_path.write_text("\n".join(lines[:4]) + "\n")
        calls.clear()
        second = run_matrix(
            matrix, store=ResultStore(store_path), resume=True, scenario_runner=counting_runner
        )
        assert second.executed == 4 and second.cached == 4
        assert len(calls) == 4
        assert sorted(r["fingerprint"] for r in second.records) == sorted(
            r["fingerprint"] for r in first.records
        )
        assert sum(r["cached"] for r in second.records) == 4

        # Third run: everything served from disk, nothing executes.
        calls.clear()
        third = run_matrix(
            matrix, store=ResultStore(store_path), resume=True, scenario_runner=counting_runner
        )
        assert third.executed == 0 and third.cached == 8
        assert calls == []

    def test_without_resume_reexecutes_everything(self, tmp_path):
        matrix = ScenarioMatrix.from_dict(SMALL_MATRIX)
        store = ResultStore(tmp_path / "store.jsonl")
        run_matrix(matrix, store=store, resume=True, scenario_runner=fake_runner)
        calls = []

        def counting_runner(s):
            calls.append(s)
            return fake_runner(s)

        report = run_matrix(matrix, store=store, resume=False, scenario_runner=counting_runner)
        assert report.executed == 8 and len(calls) == 8

    def test_on_result_sees_every_record(self):
        matrix = ScenarioMatrix.from_dict(SMALL_MATRIX)
        seen = []
        run_matrix(matrix, scenario_runner=fake_runner, on_result=seen.append)
        assert len(seen) == 8

    def test_unknown_executor(self):
        matrix = ScenarioMatrix.from_dict(SMALL_MATRIX)
        # Only the inline and the process pool exist: "thread" is unknown.
        for executor in ("carrier-pigeon", "thread"):
            with pytest.raises(ValueError, match="unknown executor"):
                run_matrix(matrix, executor=executor)

    @pytest.mark.parametrize("kwargs", SOURCES_X_EXECUTORS)
    def test_failing_scenario_names_the_grid_point(self, tmp_path, kwargs):
        matrix = ScenarioMatrix.from_dict(SMALL_MATRIX)
        boom = matrix.expand()[2].fingerprint()
        # At most two scenarios are in flight, claimed in expansion order,
        # so the failing third one starts only after a sibling has landed.
        store = ResultStore(tmp_path / "store.jsonl")
        with pytest.raises(RuntimeError, match="hospital/bart-mix/0.1/cv .*failed"):
            run_matrix(matrix, store=store, scenario_runner=flaky_runner, **kwargs)
        # Scenarios completed before the failure are already flushed, so a
        # --resume rerun (with the bug fixed) picks up from the store.
        assert 0 < len(store) < 8
        assert boom not in store.fingerprints
        if "coordinate" in kwargs:
            # The failed claim went back to the pool; no lease is stranded.
            coord = coordination_dir(store.path)
            failed = [e["fingerprint"] for e in read_audit(coord) if e["event"] == "failed"]
            assert failed == [boom]
            assert list(iter_leases(coord)) == []

    def test_failure_lands_in_flight_siblings(self, tmp_path):
        """The claim loop on a test-side thread pool, four scenarios in
        flight: the third fails while its siblings still run, and every
        sibling lands in the store before the sweep raises."""
        specs = ScenarioMatrix.from_dict(SMALL_MATRIX).expand()
        boom = specs[2].fingerprint()
        started = threading.Barrier(4, timeout=10)

        def runner(s):
            started.wait()
            if s.fingerprint() == boom:
                raise RuntimeError("degenerate split")
            time.sleep(0.2)  # still running when the failure is seen
            return fake_runner(s)

        store = ResultStore(tmp_path / "store.jsonl")
        sweep = _Sweep(specs, store, on_result=None)
        with ThreadPoolExecutor(max_workers=4) as pool:
            with pytest.raises(RuntimeError, match="hospital/bart-mix/0.1/cv .*failed"):
                _drain(
                    sweep, _LocalClaims(sweep, list(sweep.specs)), pool,
                    partial(_run_with_artifact_stats, runner), 4,
                )
        siblings = {s.fingerprint() for s in specs[:4]} - {boom}
        assert store.fingerprints == siblings

    @pytest.mark.parametrize(
        "kwargs", SOURCES_X_EXECUTORS,
        ids=["plain-serial", "plain-process", "coordinated-serial", "coordinated-process"],
    )
    def test_artifact_store_reaches_every_scenario(self, tmp_path, kwargs):
        """Every scenario runs under the sweep's artifact store: installed
        around the inline drain, or by each process worker's initializer."""
        matrix = ScenarioMatrix.from_dict(SMALL_MATRIX)
        report = run_matrix(
            matrix, store=ResultStore(tmp_path / "store.jsonl"),
            artifact_dir=tmp_path / "artifacts",
            scenario_runner=store_dir_runner, **kwargs,
        )
        assert [r["store_dir"] for r in report.records] == [str(tmp_path / "artifacts")] * 8
        assert get_default_store() is None  # restored afterwards

    def test_concurrent_inline_sweeps_keep_their_own_stores(self, tmp_path):
        """Two inline sweeps on two threads of one process, the second
        started 0.1 s into the first: every scenario runs under its own
        sweep's store, and neither thread is left with one installed."""
        matrix = ScenarioMatrix.from_dict({
            **SMALL_MATRIX,
            "datasets": [{"name": "hospital", "rows": 80}],
            "error_profiles": ["native"],
            "label_budgets": [0.1, 0.2, 0.3],
        })
        store_dirs, left_installed = {}, {}

        def sweep(name: str, delay: float) -> None:
            time.sleep(delay)
            report = run_matrix(
                matrix, workers=1, artifact_dir=tmp_path / name,
                scenario_runner=slow_store_dir_runner,
            )
            store_dirs[name] = [r["store_dir"] for r in report.records]
            left_installed[name] = get_default_store()

        threads = [
            threading.Thread(target=sweep, args=(name, delay))
            for name, delay in (("a", 0.0), ("b", 0.1))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert store_dirs == {name: [str(tmp_path / name)] * 6 for name in "ab"}
        assert left_installed == {"a": None, "b": None}

    def test_report_table_and_json(self):
        matrix = ScenarioMatrix.from_dict(SMALL_MATRIX)
        report = run_matrix(matrix, scenario_runner=fake_runner)
        table = report.table()
        assert table.count("\n") == 8 + 1  # header + separator + 8 rows
        payload = report.to_json()
        assert payload["schema"] == "repro.sweep/v1"
        assert payload["total"] == 8
        assert payload["executed"] == 8 and payload["cached"] == 0
        assert len(payload["scenarios"]) == 8
        json.dumps(payload)  # must be JSON-serialisable
