"""Persistence: save and load fitted detectors without pickle.

A fitted :class:`~repro.core.detector.HoloDetect` bundles a lot of learned
state — embedding tables, n-gram counts, co-occurrence statistics, network
weights, the noisy-channel policy, and calibration parameters.  This package
serialises all of it to an explicit, inspectable on-disk format:

- ``state.json`` — every structured component (configs, counts, vocab,
  policies, the detector's spec) with numpy arrays replaced by references;
- ``arrays.npz`` — the referenced arrays;
- ``spec.json`` — the spec and its fingerprint, by which ``repro serve``
  finds the save.  Every detector has a spec (a config-built one derives
  it), so every save is servable.

Each featurizer owns its saved state (``to_state``/``from_state``); this
package records one ``{"type": <class name>, **to_state()}`` entry per
model and splits the arrays out through
:func:`repro.artifacts.store.flatten_arrays`, the array layer artifact
objects share.  No pickle is involved, so saved models are safe to share
and load.
"""

from repro.persistence.detector_io import (
    detector_fingerprint,
    detector_index,
    load_detector,
    load_detector_by_fingerprint,
    save_detector,
)

__all__ = [
    "save_detector",
    "load_detector",
    "detector_fingerprint",
    "detector_index",
    "load_detector_by_fingerprint",
]
