"""Denial-constraint substrate.

Denial constraints (§2.1) are the optional integrity-constraint input Σ of
HoloDetect.  This package provides the constraint representation and parser
(:mod:`repro.constraints.dc`), an efficient violation engine used both by the
dataset-level representation features and by the CV/HC baselines
(:mod:`repro.constraints.violations`), and the α-noisy constraint discovery
used by the Appendix A.2.2 robustness study (:mod:`repro.constraints.discovery`).
"""

from repro.constraints.dc import (
    DenialConstraint,
    Predicate,
    functional_dependency,
    parse_denial_constraint,
    read_constraints,
)
from repro.constraints.violations import ViolationEngine
from repro.constraints.discovery import discover_constraints, discover_noisy_constraints

__all__ = [
    "DenialConstraint",
    "Predicate",
    "functional_dependency",
    "parse_denial_constraint",
    "read_constraints",
    "ViolationEngine",
    "discover_constraints",
    "discover_noisy_constraints",
]
