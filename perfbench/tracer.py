"""In-memory span tracer and the instrumentation that feeds it.

Spans are recorded from the benchmark's own code:
:meth:`Instrumentation.install` replaces a fixed list of public functions of
each layer (module attributes and class attributes) with thin wrappers that
open a span around the call, and :meth:`Instrumentation.restore` puts the
originals back when the benchmark ends.  The program itself is not modified.

A span is ``(id, parent, name, layer, start, end, thread, trace)``.  The
parent is the innermost open span on the same thread; ``trace`` is the id of
the benchmark operation (one fit, one sweep, one client request) the span
belongs to, inherited from the parent.  Spans stay in memory and are written
out once, by :meth:`Tracer.dump`, when the benchmark ends.

While the tracer is disabled a wrapper costs one attribute check.  The
``tracing.overhead`` of a traced run is the measured cost of one wrapped,
traced call (:func:`span_cost`) times the number of spans, as a share of the
traced wall time.  Comparing a traced run with an untraced one of the same
workload measures it from outside, to within the run-to-run noise.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

#: Layers in the order the per-layer report lists them (repository modules),
#: then ``op``: the root span of each benchmark operation, whose self time
#: is the operation's time outside every instrumented layer.
LAYERS = (
    "embeddings", "nn", "features", "augmentation", "artifacts",
    "dataset", "core", "serving", "evaluation", "op",
)

#: The ten representation models of the default pipeline.
MODEL_NAMES = (
    "char_embedding", "word_embedding", "format_3gram", "symbolic_3gram",
    "empirical_dist", "column_id", "cooccurrence", "tuple_embedding",
    "neighborhood", "constraint_violations",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    thread: int
    trace: int | None


@dataclass
class Tracer:
    """Collects spans and counters while :attr:`enabled` is set."""

    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: ``[start, end)`` of every window the tracer was enabled in.
    windows: list[tuple[float, float]] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _window_start: float | None = None

    # -- windows ---------------------------------------------------------- #

    def start_window(self) -> None:
        self._window_start = time.perf_counter()
        self.enabled = True

    def stop_window(self) -> None:
        self.enabled = False
        self.windows.append((self._window_start, time.perf_counter()))
        self._window_start = None

    # -- spans ------------------------------------------------------------ #

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, trace: int | None = None):
        """Open a span; returns a token for :meth:`close` (``None`` if off)."""
        if not self.enabled:
            return None
        stack = self._stack()
        parent, parent_trace = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        stack.append((span_id, trace if trace is not None else parent_trace))
        return (span_id, parent, name, layer, time.perf_counter())

    def close(self, token) -> None:
        if token is None:
            return
        end = time.perf_counter()
        span_id, parent, name, layer, start = token
        stack = self._stack()
        trace = None
        if stack and stack[-1][0] == span_id:
            trace = stack.pop()[1]
        span = Span(span_id, parent, name, layer, start, end,
                    threading.get_ident(), trace)
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, layer: str, trace: int | None = None):
        return _SpanContext(self, name, layer, trace)

    def new_trace(self) -> int:
        return next(self._ids)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- output ----------------------------------------------------------- #

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "layer": s.layer, "start": s.start, "end": s.end,
                    "thread": s.thread, "trace": s.trace,
                }) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "args", "token")

    def __init__(self, tracer: Tracer, name: str, layer: str, trace: int | None):
        self.tracer = tracer
        self.args = (name, layer, trace)
        self.token = None

    def __enter__(self):
        self.token = self.tracer.open(*self.args)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.token)
        return False


# --------------------------------------------------------------------------- #
# Instrumentation
# --------------------------------------------------------------------------- #


class Instrumentation:
    """Installs span wrappers on the program's public functions."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        #: Stats objects of every FeatureCache built while installed.
        self.cache_stats: list = []
        #: Scoring intervals per batch key (``serving.batch_wait_ms``).
        self._score_intervals: dict[object, tuple[float, float]] = {}

    # -- generic wrappers --------------------------------------------------- #

    def wrap(self, owner, attr: str, name: str | Callable, layer: str,
             after: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a function of the call's first
        argument that returns it.  ``after(args, result)`` runs after each
        traced call, for counters measured at the same boundary.
        """
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        original = static.__func__ if is_classmethod else getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            token = tracer.open(name(args[0]) if callable(name) else name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(token)
            if after is not None:
                after(args, result)
            return result

        self._saved.append((owner, attr, static))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def restore(self) -> None:
        for owner, attr, static in reversed(self._saved):
            setattr(owner, attr, static)
        self._saved.clear()

    # -- the instrumented boundaries ------------------------------------------ #

    def install(self) -> None:
        import repro.core.detector as detector_mod
        import repro.evaluation.matrix as matrix_mod
        import repro.serving.client as client_mod
        import repro.serving.server as server_mod
        from repro.artifacts.store import ArtifactStore
        from repro.augmentation.naive_bayes import NaiveBayesRepairModel
        from repro.augmentation.policy import Policy
        from repro.core.detector import DetectionSession, HoloDetect
        from repro.core.model import JointModel
        from repro.dataset.table import Dataset
        from repro.embeddings.fasttext import FastTextEmbedding
        from repro.evaluation.store import ResultStore
        from repro.features.base import Featurizer
        from repro.features.cache import FeatureCache
        from repro.features.pipeline import FeaturePipeline, default_pipeline
        from repro.nn.backends.numpy_backend import NumpyBackend
        from repro.serving.batching import ScoreBatcher

        tracer = self.tracer
        wrap = self.wrap

        # embeddings / nn
        wrap(FastTextEmbedding, "fit", "embeddings.fit", "embeddings")
        wrap(NumpyBackend, "sgns_step", "nn.sgns_step", "nn")
        wrap(detector_mod, "train_model", "nn.train", "nn")
        wrap(JointModel, "error_scores", "nn.score", "nn")

        # features: one span per model fit and per computed block, named
        # after the model
        wrap(Featurizer, "fit_through_store",
             lambda f: f"features.fit_through_store.{f.name}", "features")
        from repro.features.dataset_level import ConstraintViolationFeaturizer

        models = {type(f) for f in default_pipeline(constraints=None).featurizers}
        models.add(ConstraintViolationFeaturizer)
        # Wrap each class that defines the transform a default model uses.
        owners = {
            next(k for k in cls.__mro__ if "transform_batch" in k.__dict__)
            for cls in models
        }
        for cls in sorted(owners, key=lambda c: c.__name__):
            wrap(cls, "transform_batch",
                 lambda f: f"features.transform_batch.{f.name}", "features")
        wrap(FeaturePipeline, "fit", "features.pipeline_fit", "features")
        wrap(FeaturePipeline, "transform_batch", "features.pipeline_transform", "features")

        original_cache_init = FeatureCache.__init__

        @functools.wraps(original_cache_init)
        def cache_init(cache, *args, **kwargs):
            original_cache_init(cache, *args, **kwargs)
            self.cache_stats.append(cache.stats)

        self._saved.append((FeatureCache, "__init__", original_cache_init))
        FeatureCache.__init__ = cache_init

        # augmentation
        wrap(Policy, "learn", "augmentation.learn_policy", "augmentation")
        wrap(NaiveBayesRepairModel, "fit", "augmentation.learn_policy", "augmentation")
        wrap(NaiveBayesRepairModel, "example_pairs", "augmentation.learn_policy",
             "augmentation")

        def augmented(args, result):
            tracer.count("augmentation.examples", len(result.examples))
            tracer.count("augmentation.rejected_alpha", result.rejected_alpha)
            tracer.count("augmentation.identity_draws", result.identity_draws)

        wrap(detector_mod, "augment_training_set", "augmentation.augment",
             "augmentation", after=augmented)

        # artifacts
        def got(args, result):
            tracer.count("artifacts.get_hits", result is not None)

        def stored(args, result):
            store, key = args[0], args[1]
            path = store.object_path(key)
            if path is not None and path.exists():
                tracer.count("artifacts.bytes_written", path.stat().st_size)

        wrap(ArtifactStore, "get", "artifacts.get", "artifacts", after=got)
        wrap(ArtifactStore, "put", "artifacts.put", "artifacts", after=stored)

        # dataset / core
        wrap(Dataset, "apply_edits", "dataset.apply_edits", "dataset")
        for method in ("fingerprint", "column_fingerprint", "rows_fingerprint"):
            wrap(Dataset, method, "dataset.fingerprint", "dataset")
        wrap(HoloDetect, "fit", "core.fit", "core")
        wrap(HoloDetect, "predict", "core.predict", "core")

        wrap(DetectionSession, "apply", "core.rescore", "core")

        # serving: the server's and the client's wire codec, report assembly
        for module in (server_mod, client_mod):
            wrap(module, "decode_payload", "serving.decode", "serving")
            wrap(module, "encode_payload", "serving.encode", "serving")
        wrap(server_mod, "build_detect_report", "serving.report", "serving")
        self._wrap_batcher(ScoreBatcher)

        # evaluation (run_matrix binds its default scenario runner when it
        # is defined, so the sweep passes matrix_mod.run_scenario explicitly)
        wrap(matrix_mod, "run_scenario", "evaluation.scenario", "evaluation")
        wrap(matrix_mod, "load_dataset", "evaluation.data_gen", "evaluation")
        wrap(matrix_mod, "apply_profile", "evaluation.data_gen", "evaluation")
        wrap(ResultStore, "put", "evaluation.store_put", "evaluation")

    def _timed_score_fn(self, key, score_fn):
        intervals = self._score_intervals

        def timed(cells):
            start = time.perf_counter()
            try:
                return score_fn(cells)
            finally:
                intervals[key] = (start, time.perf_counter())

        return timed

    def _wrap_batcher(self, batcher_cls) -> None:
        """``serving.batch_wait_ms``: time in ``ScoreBatcher.score`` minus
        the scoring pass that served the request."""
        tracer = self.tracer
        original_score = batcher_cls.score
        original_flush = batcher_cls.flush_key

        # No span here: the coroutine suspends while other requests run on
        # the same loop thread, so it cannot be their parent.
        @functools.wraps(original_score)
        async def score(batcher, key, score_fn, cells):
            if not tracer.enabled:
                return await original_score(batcher, key, score_fn, cells)
            start = time.perf_counter()
            try:
                return await original_score(
                    batcher, key, self._timed_score_fn(key, score_fn), cells
                )
            finally:
                end = time.perf_counter()
                served = self._score_intervals.get(key)
                scoring = 0.0
                if served is not None and served[0] >= start and served[1] <= end:
                    scoring = served[1] - served[0]
                tracer.count("serving.batch_wait_s", (end - start) - scoring)
                tracer.count("serving.batched_requests")

        @functools.wraps(original_flush)
        def flush_key(batcher, key, score_fn):
            if not tracer.enabled:
                return original_flush(batcher, key, score_fn)
            return original_flush(batcher, key, self._timed_score_fn(key, score_fn))

        self._saved.append((batcher_cls, "score", original_score))
        self._saved.append((batcher_cls, "flush_key", original_flush))
        batcher_cls.score = score
        batcher_cls.flush_key = flush_key


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #


class _Probe:
    def call(self):
        return None


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call through an instrumentation wrapper adds over
    the bare call (median of five rounds)."""
    tracer = Tracer(enabled=True)
    instrumentation = Instrumentation(tracer)
    probe = _Probe()
    rounds = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            probe.call()
        bare = time.perf_counter() - start
        instrumentation.wrap(_Probe, "call", "probe", "op")
        try:
            start = time.perf_counter()
            for _ in range(calls):
                probe.call()
            wrapped = time.perf_counter() - start
        finally:
            instrumentation.restore()
        tracer.spans.clear()
        rounds.append((wrapped - bare) / calls)
    return sorted(rounds)[2]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def span_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """``name -> (seconds, calls)``, counting a span only when no ancestor
    carries the same name (recursive or re-entrant calls count once)."""
    by_id = {s.id: s for s in spans}
    totals: dict[str, list] = {}
    for s in spans:
        ancestor = by_id.get(s.parent) if s.parent is not None else None
        nested = False
        while ancestor is not None:
            if ancestor.name == s.name:
                nested = True
                break
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if nested:
            continue
        entry = totals.setdefault(s.name, [0.0, 0])
        entry[0] += s.end - s.start
        entry[1] += 1
    return {name: (seconds, calls) for name, (seconds, calls) in totals.items()}


def layer_breakdown(spans: list[Span], wall_s: float) -> dict[str, dict[str, float]]:
    """Per layer: self time (span time not covered by child spans) and the
    share of ``wall_s`` covered by the union of the layer's spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    self_s: dict[str, float] = {}
    intervals: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        covered = _union_length(
            [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())
             if min(b, s.end) > max(a, s.start)]
        )
        self_s[s.layer] = self_s.get(s.layer, 0.0) + (s.end - s.start) - covered
        intervals.setdefault(s.layer, []).append((s.start, s.end))
    return {
        layer: {
            "self_s": self_s.get(layer, 0.0),
            "coverage": (_union_length(intervals.get(layer, [])) / wall_s)
            if wall_s > 0 else 0.0,
        }
        for layer in LAYERS
    }
