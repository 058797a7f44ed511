"""Ambient default artifact store.

Sweep workers (and anything else that builds many detectors) attach one
store per process; every :class:`~repro.core.detector.HoloDetect` whose
config does not name its own store falls back to the ambient one, so an
entire worker shares a single LRU + object directory with zero per-method
plumbing.  ``repro.evaluation.matrix.run_matrix`` installs it via the pool
initializer in each process worker, or around the drain when the sweep
runs inline.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.artifacts.store import ArtifactStore

_default_store: ArtifactStore | None = None


def get_default_store() -> ArtifactStore | None:
    """The process-wide ambient store, or ``None`` when unset."""
    return _default_store


def set_default_store(store: ArtifactStore | None) -> ArtifactStore | None:
    """Install ``store`` as the ambient default; returns the previous one."""
    global _default_store
    previous = _default_store
    _default_store = store
    return previous


@contextmanager
def use_store(store: ArtifactStore | None) -> Iterator[ArtifactStore | None]:
    """Scoped ambient-store installation (restores the previous on exit)."""
    previous = set_default_store(store)
    try:
        yield store
    finally:
        set_default_store(previous)
