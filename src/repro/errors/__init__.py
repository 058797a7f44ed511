"""Error injection: a BART-equivalent [4] noise generator.

The paper's Soccer and Adult datasets got their errors from BART with a
typo/value-swap mix; Hospital uses 'x'-injection typos.  This package
reproduces those channels with controllable per-dataset rates so every
benchmark dataset carries exact cell-level ground truth.
"""

from repro.errors.typos import (
    delete_char,
    inject_x,
    insert_char,
    random_typo,
    substitute_char,
    transpose_chars,
)
from repro.errors.bart import ErrorProfile, inject_errors
from repro.errors.profiles import (
    apply_profile,
    profile_names,
    resolve_profile,
)

__all__ = [
    "inject_x",
    "substitute_char",
    "insert_char",
    "delete_char",
    "transpose_chars",
    "random_typo",
    "ErrorProfile",
    "inject_errors",
    "apply_profile",
    "profile_names",
    "resolve_profile",
]
