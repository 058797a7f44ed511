"""Reading numpy's ``.npy`` and ``.npz`` files from more than one thread.

numpy parses an array file's header with ``ast.literal_eval``.  CPython
3.11 keeps the ``ast`` module's recursion depth in state that every thread
shares: when a garbage-collection finaliser lets another thread run in the
middle of one parse and that thread parses a header too, either parse can
raise ``SystemError: AST constructor recursion depth mismatch``.  So every
numpy file read of the package goes through this module and holds
:data:`READ_LOCK`, one lock for the whole process: shard chunks
(:class:`~repro.dataset.sharded.ShardedDataset`), artifact objects
(:class:`~repro.artifacts.store.ArtifactStore`) and saved detectors never
parse a header at once, whichever threads read them.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np

#: Held across every numpy file read of the process.
READ_LOCK = threading.Lock()


def load_npy(path: str | Path, mmap_mode: str | None = None) -> np.ndarray:
    """``np.load(path, mmap_mode=mmap_mode)`` under :data:`READ_LOCK`."""
    with READ_LOCK:
        return np.load(path, mmap_mode=mmap_mode)


def load_npz(path: str | Path) -> dict[str, np.ndarray]:
    """Every member of the ``.npz`` archive at ``path`` (pickles refused),
    read under :data:`READ_LOCK`."""
    with READ_LOCK, np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}
