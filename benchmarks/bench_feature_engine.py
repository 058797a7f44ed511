"""Feature-engine runtime: memo-cold vs memo-warm full-dataset prediction.

Companion to the Table 5 runtime benchmark (§6.7).  Table 5 times whole
methods end-to-end; this harness isolates the featurizers' transform memos
(:class:`~repro.features.cache.FeatureCache`): a saved AUG detector is
loaded with empty memos and predicts over every cell of the dataset, then
predicts the same cells again from warm memos.  The speedup is *measured*,
and both passes are asserted bit-identical to the fitted detector's own
prediction — the memos must never change a prediction.

Run with ``pytest benchmarks/bench_feature_engine.py -s`` to see the table.
"""

from __future__ import annotations

import pytest

from conftest import bench_config, print_table

from repro.core import HoloDetect
from repro.evaluation.splits import make_split
from repro.features.base import CellBatch
from repro.persistence import load_detector, save_detector
from repro.utils.timing import Timer


def memo_counts(detector: HoloDetect) -> tuple[int, int]:
    """(hits, lookups) summed over every transform memo of the detector."""
    memos = [
        memo
        for featurizer in detector.pipeline.featurizers
        for _, memo in getattr(featurizer, "_memos", {}).values()
    ]
    return sum(m.stats.hits for m in memos), sum(m.stats.lookups for m in memos)


@pytest.mark.parametrize("dataset_name", ["hospital"])
def test_feature_engine_speedup(benchmark, core_bundles, dataset_name, tmp_path):
    bundle = core_bundles[dataset_name]
    split = make_split(bundle, 0.05, rng=7)
    detector = HoloDetect(bench_config())
    detector.fit(bundle.dirty, split.training, bundle.constraints)
    cells = list(bundle.dirty.cells())
    expected = detector.predict(cells).probabilities
    save_detector(detector, tmp_path / "detector")

    def run():
        loaded = load_detector(tmp_path / "detector", bundle.dirty.copy())
        with Timer() as cold:
            cold_pass = loaded.predict(cells)
        hits, lookups = memo_counts(loaded)
        with Timer() as warm:
            warm_pass = loaded.predict(cells)
        warm_hits, warm_lookups = memo_counts(loaded)
        counts = (warm_hits - hits, warm_lookups - lookups)
        return loaded, cold_pass, warm_pass, counts, cold.elapsed, warm.elapsed

    loaded, cold_pass, warm_pass, (hits, lookups), t_cold, t_warm = benchmark.pedantic(
        run, iterations=1, rounds=1
    )
    speedup = t_cold / max(t_warm, 1e-9)
    print_table(
        f"Feature engine — full-dataset prediction on {dataset_name} "
        f"({len(cells)} cells)",
        ["pass", "seconds"],
        [
            ["memos cold (fresh load)", f"{t_cold:.3f}"],
            ["memos warm", f"{t_warm:.3f}"],
            ["speedup (cold/warm)", f"{speedup:.1f}x"],
            ["warm-pass memo hits", f"{hits} / {lookups} lookups"],
        ],
    )

    # The memos must be invisible in the output...
    assert cold_pass.probabilities.tobytes() == expected.tobytes()
    assert warm_pass.probabilities.tobytes() == expected.tobytes()
    # ...and each warm featurizer's block byte-identical to a cold one's.
    fresh = load_detector(tmp_path / "detector", bundle.dirty.copy())
    probe = CellBatch(cells[: min(512, len(cells))], bundle.dirty)
    for warm_featurizer, cold_featurizer in zip(
        loaded.pipeline.featurizers, fresh.pipeline.featurizers
    ):
        assert (
            warm_featurizer.transform_batch(probe).tobytes()
            == cold_featurizer.transform_batch(probe).tobytes()
        ), warm_featurizer.name
    assert speedup >= 2.0, f"expected >=2x speedup, got {speedup:.2f}x"
    assert hits > 0
