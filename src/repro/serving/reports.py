"""Shared detection-report assembly — the one source of ``repro.detect/v1``.

``repro detect --json`` and the serving layer's ``POST /v1/detect`` used to
assemble the same counter/triage payload in two places, which is exactly how
two outputs drift apart.  Both now call :func:`build_detect_report`; the CLI
adds its file-path context on top, the server wraps the report in its
``repro.serve/v1`` envelope, and the cell ranking, flagged counting, and
engine-counter blocks cannot disagree.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.detector import ErrorPredictions, HoloDetect
    from repro.dataset.table import Cell, Dataset

#: Schema identifier of the detection report (shared with the CLI).
DETECT_SCHEMA = "repro.detect/v1"


def ranked_predictions(
    dataset: "Dataset", predictions: "ErrorPredictions"
) -> list[tuple["Cell", str, float]]:
    """``(cell, observed value, probability)`` triples, most suspicious first.

    Ties break deterministically on (row, attribute) so triage CSVs and JSON
    reports are stable across runs and transports.
    """
    return [
        (cell, dataset.value(cell), float(probability))
        for cell, probability in sorted(
            zip(predictions.cells, predictions.probabilities),
            key=lambda t: (-t[1], t[0].row, t[0].attr),
        )
    ]


def count_flagged(predictions: "ErrorPredictions", threshold: float) -> int:
    """Cells at or above the flagging threshold."""
    return int(sum(1 for p in predictions.probabilities if p >= threshold))


def build_detect_report(
    dataset: "Dataset",
    predictions: "ErrorPredictions",
    threshold: float,
    *,
    detector: "HoloDetect | None" = None,
    include_cells: bool = True,
) -> dict:
    """The ``repro.detect/v1`` payload for one scored relation.

    ``detector`` contributes its spec fingerprint, and the artifact-store
    counter block when a store is in effect (each is ``None`` without —
    the additive-fields contract of the schema).  ``feature_cache`` is always
    ``None``: the field stays for readers of the schema, though no block
    cache exists to report on.
    ``include_cells=False`` leaves out the ranked ``cells`` list (the
    serving wire field of the same name) without building it;
    ``flagged_cells`` still counts every prediction.
    """
    from repro import __version__

    spec_fingerprint = None
    artifact_store = None
    timings = None
    if detector is not None:
        spec_fingerprint = detector.spec.fingerprint()
        if detector.artifact_stats is not None:
            artifact_store = detector.artifact_stats.as_dict()
        if getattr(detector, "timings", None):
            # Wall-clock seconds of the fit/featurize/train/predict stages
            # (additive field; absent for detectors without timing data).
            timings = {k: round(v, 6) for k, v in detector.timings.items()}
    report = {
        "schema": DETECT_SCHEMA,
        "version": __version__,
        "rows": dataset.num_rows,
        "attributes": list(dataset.attributes),
        "threshold": threshold,
        "scored_cells": len(predictions.cells),
        "flagged_cells": count_flagged(predictions, threshold),
        "spec_fingerprint": spec_fingerprint,
        "feature_cache": None,
        "artifact_store": artifact_store,
        "timings": timings,
    }
    if include_cells:
        report["cells"] = [
            {
                "row": cell.row,
                "attribute": cell.attr,
                "value": value,
                "error_probability": round(probability, 6),
                "flagged": bool(probability >= threshold),
            }
            for cell, value, probability in ranked_predictions(dataset, predictions)
        ]
    return report


def triage_rows(
    dataset: "Dataset", predictions: "ErrorPredictions", threshold: float
) -> Iterator[tuple[int, str, str, float, bool]]:
    """Triage rows of locally scored predictions, most suspicious first."""
    for cell, value, probability in ranked_predictions(dataset, predictions):
        yield cell.row, cell.attr, value, probability, probability >= threshold


def report_triage_rows(report: dict) -> Iterator[tuple[int, str, str, float, bool]]:
    """Triage rows of a (served) ``repro.detect/v1`` report, in its order."""
    cells = report.get("cells")
    for entry in cells if isinstance(cells, list) else ():
        yield (
            entry["row"], entry["attribute"], entry["value"],
            entry["error_probability"], entry["flagged"],
        )


def write_triage_csv(
    path: str | Path, rows: Iterable[tuple[int, str, str, float, bool]]
) -> int:
    """Write the ranked per-cell triage CSV; returns the flagged-cell count.

    ``rows`` are ``(row, attribute, value, error_probability, flagged)``
    tuples in rank order — :func:`triage_rows` for a local detection run,
    :func:`report_triage_rows` for a served report — so ``repro detect``
    and ``repro client detect`` write one format.
    """
    flagged = 0
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["row", "attribute", "value", "error_probability", "flagged"])
        for row, attr, value, probability, is_flagged in rows:
            flagged += is_flagged
            writer.writerow([row, attr, value, f"{probability:.4f}", int(is_flagged)])
    return flagged
