"""Mergeable per-shard partials of relation-scoped featurizer fits.

Out-of-core relations (:mod:`repro.dataset.sharded`) are fitted shard by
shard: each shard yields a *partial* — a summary whose merge is associative
and commutative-up-to-order — and merging all partials reproduces exactly
the state a whole-relation fit would have produced.  Two families live here:

- **co-occurrence partials** — the nested joint-count tables of
  :class:`~repro.features.tuple_level.CooccurrenceFeaturizer`; merging sums
  counts, and because each shard scans its rows in order, the merged tables
  are equal (as mappings) to a single whole-relation scan;
- **FD group partials** — the ``{join_key -> {residual_value -> count}}``
  group tables of FD-shaped denial constraints
  (:class:`~repro.features.dataset_level.ConstraintViolationFeaturizer`);
  merging sums group counts, and each tuple's violation count follows in a
  second streaming pass as ``group_total - count(own residual value)``,
  which equals the pairwise hash-join count exactly.

Partials live only in memory, for the length of one fit: the merges
consume a generator over :meth:`~repro.dataset.relation.Relation.shard_spans`,
so one shard's partial is alive beside the accumulator.  The artifact
store holds the merged, whole-state fit under the relation fingerprint,
which both backings share; it stores no partial.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.dataset.relation import Relation, ShardSpan

#: Joint-count partial runtime form (also the featurizer's fitted state):
#: ``joint[(attr_a, value_a)][attr_b][value_b] -> count`` plus
#: ``counts[(attr_a, value_a)] -> count``.
CooccurrencePartial = tuple[
    dict[tuple[str, str], dict[str, dict[str, int]]],
    dict[tuple[str, str], int],
]

#: FD group partial runtime form: ``{join_key_tuple: {residual_value: count}}``.
FDGroups = dict[tuple[str, ...], dict[str, int]]


# --------------------------------------------------------------------- #
# Co-occurrence
# --------------------------------------------------------------------- #


def cooccurrence_partial(relation: Relation, span: ShardSpan) -> CooccurrencePartial:
    """Joint-count tables of one shard's rows (same scan order as a full fit)."""
    attrs = relation.attributes
    chunks = [relation.column_chunk(a, span.start, span.stop) for a in attrs]
    joint: dict[tuple[str, str], dict[str, dict[str, int]]] = {}
    counts: dict[tuple[str, str], int] = {}
    for i in range(span.rows):
        values = [chunk[i] for chunk in chunks]
        for a, (attr_a, value_a) in enumerate(zip(attrs, values)):
            key = (attr_a, value_a)
            counts[key] = counts.get(key, 0) + 1
            bucket = joint.setdefault(key, {})
            for attr_b, value_b in zip(attrs, values):
                if attr_b != attr_a:
                    by_value = bucket.setdefault(attr_b, {})
                    by_value[value_b] = by_value.get(value_b, 0) + 1
    return joint, counts


def merge_cooccurrence_partials(
    partials: Iterable[CooccurrencePartial],
) -> CooccurrencePartial:
    """Sum joint-count partials; associative, and (in row-shard order)
    equal to a single whole-relation scan.

    Consumes ``partials`` lazily — pass a generator so only one shard's
    partial is alive alongside the accumulating merge (the fit-path peak
    RSS is then bounded by two partials, not the shard count)."""
    joint: dict[tuple[str, str], dict[str, dict[str, int]]] = {}
    counts: dict[tuple[str, str], int] = {}
    for part_joint, part_counts in partials:
        for key, n in part_counts.items():
            counts[key] = counts.get(key, 0) + n
        for key, buckets in part_joint.items():
            merged = joint.setdefault(key, {})
            for attr_b, by_value in buckets.items():
                merged_by_value = merged.setdefault(attr_b, {})
                for value_b, n in by_value.items():
                    merged_by_value[value_b] = merged_by_value.get(value_b, 0) + n
    return joint, counts


# --------------------------------------------------------------------- #
# FD group tables (constraint violations)
# --------------------------------------------------------------------- #


def fd_group_partial(
    relation: Relation,
    span: ShardSpan,
    join_attrs: Sequence[str],
    residual_attr: str,
) -> FDGroups:
    """Group-by table of one shard's rows for one FD-shaped constraint."""
    join_chunks = [relation.column_chunk(a, span.start, span.stop) for a in join_attrs]
    residual_chunk = relation.column_chunk(residual_attr, span.start, span.stop)
    groups: FDGroups = {}
    for i in range(span.rows):
        key = tuple(chunk[i] for chunk in join_chunks)
        by_value = groups.setdefault(key, {})
        value = residual_chunk[i]
        by_value[value] = by_value.get(value, 0) + 1
    return groups


def merge_fd_group_partials(partials: Iterable[FDGroups]) -> FDGroups:
    """Sum group tables; associative and order-insensitive as a mapping.

    Like :func:`merge_cooccurrence_partials`, consumes lazily."""
    groups: FDGroups = {}
    for partial in partials:
        for key, by_value in partial.items():
            merged = groups.setdefault(key, {})
            for value, n in by_value.items():
                merged[value] = merged.get(value, 0) + n
    return groups
