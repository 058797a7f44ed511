"""Ambient artifact store: the one route from a store to a fit.

Every store-backed fit in :mod:`repro.features.base` reads the store it
consults from here.  A :class:`~repro.core.detector.HoloDetect` installs
its own store (``use_artifacts``, ``artifact_dir``) around its pipeline fit
and refresh, and otherwise leaves in place whatever the caller installed —
``repro.evaluation.matrix.run_matrix`` installs one around the drain when
the sweep runs inline, and in each process worker's pool initializer.

The store is a :class:`contextvars.ContextVar`, so it is per thread and
per asyncio task: two sweeps inline on two threads of one process each
see only their own store.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.artifacts.store import ArtifactStore

_default_store: ContextVar[ArtifactStore | None] = ContextVar(
    "repro_artifact_store", default=None
)


def get_default_store() -> ArtifactStore | None:
    """This thread's (or task's) ambient store, or ``None`` when unset."""
    return _default_store.get()


def set_default_store(store: ArtifactStore | None) -> ArtifactStore | None:
    """Install ``store`` as the ambient default; returns the previous one."""
    previous = _default_store.get()
    _default_store.set(store)
    return previous


@contextmanager
def use_store(store: ArtifactStore | None) -> Iterator[ArtifactStore | None]:
    """Scoped ambient-store installation (restores the previous on exit)."""
    previous = set_default_store(store)
    try:
        yield store
    finally:
        set_default_store(previous)
