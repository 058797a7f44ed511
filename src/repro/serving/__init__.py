"""Detection-as-a-service: a long-lived, multi-tenant serving layer.

The paper's detector becomes useful at scale when it runs as a service
rather than a one-shot CLI, and every prerequisite already exists in the
codebase: :class:`~repro.spec.DetectorSpec` fingerprints are the routing
and cache keys, :class:`~repro.core.detector.DetectionSession` makes
per-client rescoring O(edit), and the artifact store makes cold detector
loads cheap.  This package wires them into a server:

- :mod:`repro.serving.wire` — the ``repro.serve/v1`` wire codec: JSON with
  ``repr``-exact floats, so served probabilities arrive bit for bit;
- :mod:`repro.serving.registry` — the hot LRU pool of (spec fingerprint →
  loaded detector) over a model-root directory;
- :mod:`repro.serving.batching` — coalescing of concurrent small detect
  requests into single chunked predicts (bit-identical to sequential);
- :mod:`repro.serving.server` — the asyncio HTTP server with per-tenant
  sessions and per-tenant artifact-store isolation;
- :mod:`repro.serving.client` — the blocking client (``repro client`` CLI,
  tests, and the load benchmark all use it);
- :mod:`repro.serving.reports` — the shared ``repro.detect/v1`` report
  builder (one source for the CLI's ``--json`` and the serve responses);
- :mod:`repro.serving.testing` — the deterministic test harness
  (in-process server, fault-injecting transports).

Quickstart::

    repro detect ... --spec detector.toml --save-model models/hospital
    repro serve --models models --port 8765
    repro client detect --fingerprint <prefix> --input data.csv --tenant acme
    repro client rescore --tenant acme --edits edits.csv
"""

from repro.serving.batching import BatcherStats, ScoreBatcher
from repro.serving.client import ServeClient, ServeClientError, probabilities_of
from repro.serving.registry import DetectorRegistry, RegistryError, RegistryStats
from repro.serving.reports import (
    DETECT_SCHEMA,
    build_detect_report,
    count_flagged,
    ranked_predictions,
    triage_rows,
    write_triage_csv,
)
from repro.serving.server import DetectionServer, ServeConfig, Tenant
from repro.serving.wire import (
    JSON_CONTENT_TYPE,
    SERVE_SCHEMA,
    WireError,
    decode_payload,
    encode_payload,
)

__all__ = [
    "SERVE_SCHEMA",
    "DETECT_SCHEMA",
    "JSON_CONTENT_TYPE",
    "DetectionServer",
    "ServeConfig",
    "Tenant",
    "DetectorRegistry",
    "RegistryError",
    "RegistryStats",
    "ScoreBatcher",
    "BatcherStats",
    "ServeClient",
    "ServeClientError",
    "probabilities_of",
    "build_detect_report",
    "write_triage_csv",
    "triage_rows",
    "ranked_predictions",
    "count_flagged",
    "WireError",
    "encode_payload",
    "decode_payload",
]
