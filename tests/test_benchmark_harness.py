"""The repository benchmark's hold on the program (``perfbench/``).

``perfbench/run.py`` imports the program and ``perfbench/tracer.py`` wraps
a fixed list of its functions by name.  A rename in the program would
otherwise surface only when the benchmark runs; these tests load both
files by path and exercise that contract in the regular test suite.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    """Import ``perfbench/<name>.py`` for the duration of one test."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses resolve it
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def instrumentation(monkeypatch):
    """The tracer's instrumentation, installed over the imported program."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_program prepends src/
    _load("run", monkeypatch).import_program()
    tracer_mod = _load("tracer", monkeypatch)
    instrumentation = tracer_mod.Instrumentation(tracer_mod.Tracer())
    instrumentation.install()
    try:
        yield instrumentation
    finally:
        instrumentation.restore()


@pytest.fixture
def instrumented(instrumentation):
    """The installed instrumentation's tracer."""
    return instrumentation.tracer


def test_instrumentation_installs_and_restores(instrumented):
    from repro.core import detector
    from repro.nn.backends.numpy_backend import NumpyBackend

    assert hasattr(detector.train_model, "__wrapped__")
    assert hasattr(NumpyBackend.sgns_step, "__wrapped__")


def test_every_sgns_batch_is_traced(instrumented):
    """``nn.sgns_step`` spans: FastText runs each batch through the kernel."""
    from repro.embeddings import FastTextEmbedding

    instrumented.start_window()
    try:
        FastTextEmbedding(dim=4, epochs=2, rng=0).fit([["a", "b", "c"]] * 4)
    finally:
        instrumented.stop_window()
    names = [span.name for span in instrumented.spans]
    assert names.count("nn.sgns_step") >= 2
    assert names.count("embeddings.fit") == 1


def test_every_memo_reports_its_hits(instrumentation):
    """``features.cache_hit_ratio`` reads the ``stats`` of every
    ``FeatureCache`` built while the tracer is installed: the memos."""
    from repro.dataset import Dataset
    from repro.features import FormatNGramFeaturizer

    relation = Dataset.from_rows(["code"], [["a1"], ["b2"], ["a1"]])
    featurizer = FormatNGramFeaturizer().fit(relation)
    for _ in range(2):
        featurizer.transform(list(relation.cells()), relation)
    [stats] = instrumentation.cache_stats
    assert (stats.hits, stats.lookups) == (2, 4)
