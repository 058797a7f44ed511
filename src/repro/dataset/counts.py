"""The two relation statistics every count-based reader shares.

- :func:`cooccurrence`: ``joint[(A, v)][B][w]`` and ``counts[(A, v)]``,
  read by the co-occurrence featurizer (§4.1), the Naive Bayes weak
  supervision (§5.4) and the OD and FBI baselines (§6.1);
- :func:`fd_groups`: an FD's ``{join_key -> {residual_value -> count}}``
  table, read by :class:`~repro.constraints.violations.ViolationEngine`
  (every FD-shaped violation count: the constraint featurizer's, CV's,
  HC's and α-noisy discovery's) and by the constraint featurizer's
  value-override transform.

Both are counted one row shard at a time: each shard yields a *partial*
whose merge is associative and, in row-shard order, equal (as a mapping)
to a single whole-relation scan.  The merges consume a generator over
:meth:`~repro.dataset.relation.Relation.shard_spans`, so one shard's
partial is alive beside the accumulator.  Partials live only in memory;
the artifact store holds a fitted reader's whole state under the relation
fingerprint, which both backings share.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.dataset.relation import Relation, ShardSpan

#: Joint-count table (also the co-occurrence featurizer's fitted state):
#: ``joint[(attr_a, value_a)][attr_b][value_b] -> count`` plus
#: ``counts[(attr_a, value_a)] -> count``.
CooccurrencePartial = tuple[
    dict[tuple[str, str], dict[str, dict[str, int]]],
    dict[tuple[str, str], int],
]

#: FD group table: ``{join_key_tuple: {residual_value: count}}``.
FDGroups = dict[tuple[str, ...], dict[str, int]]


def _merged(partial, merge, relation: Relation, *args):
    """``merge`` of ``partial`` over the relation's shards; a single
    shard's partial is the table itself."""
    spans = relation.shard_spans()
    if len(spans) == 1:
        return partial(relation, spans[0], *args)
    return merge(partial(relation, span, *args) for span in spans)


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


def cooccurrence(relation: Relation) -> CooccurrencePartial:
    """``(joint, counts)`` of the whole relation: ``joint[(A, v)][B][w]``
    rows carry ``v`` in ``A`` and ``w`` in ``B`` (every ordered pair of
    distinct attributes), ``counts[(A, v)]`` rows carry ``v`` in ``A``."""
    return _merged(cooccurrence_partial, merge_cooccurrence_partials, relation)


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


def fd_groups(
    relation: Relation, join_attrs: Sequence[str], residual_attr: str
) -> FDGroups:
    """The group table of the FD ``join_attrs -> residual_attr``:
    ``{join key -> {residual value -> count}}`` over the whole relation."""
    return _merged(
        fd_group_partial, merge_fd_group_partials, relation, join_attrs, residual_attr
    )
