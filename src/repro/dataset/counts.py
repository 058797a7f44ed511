"""The two relation statistics every count-based reader shares.

- :func:`cooccurrence`: ``joint[(A, v)][B][w]`` and ``counts[(A, v)]``,
  read by the co-occurrence featurizer (§4.1), the Naive Bayes weak
  supervision (§5.4) and the OD and FBI baselines (§6.1);
- :func:`fd_groups`: an FD's ``{join_key -> {residual_value -> count}}``
  table, read by :class:`~repro.constraints.violations.ViolationEngine`
  (every FD-shaped violation count: the constraint featurizer's, CV's,
  HC's and α-noisy discovery's) and by the constraint featurizer's
  value-override transform.

Each is counted in one pass into one table, reading the relation one row
shard at a time (:meth:`~repro.dataset.relation.Relation.shard_spans`), so
only one shard's column chunks are alive beside the table.  Rows are
visited in order whatever the shard size, so the table, its iteration
order included, is the one a single whole-relation scan builds.  The
artifact store holds a fitted reader's whole state under the relation
fingerprint, which both backings share.
"""

from __future__ import annotations

from typing import Sequence

from repro.dataset.relation import Relation

#: Joint-count table (also the co-occurrence featurizer's fitted state):
#: ``joint[(attr_a, value_a)][attr_b][value_b] -> count`` plus
#: ``counts[(attr_a, value_a)] -> count``.
Cooccurrence = tuple[
    dict[tuple[str, str], dict[str, dict[str, int]]],
    dict[tuple[str, str], int],
]

#: FD group table: ``{join_key_tuple: {residual_value: count}}``.
FDGroups = dict[tuple[str, ...], dict[str, int]]


def cooccurrence(relation: Relation) -> Cooccurrence:
    """``(joint, counts)`` of the whole relation: ``joint[(A, v)][B][w]``
    rows carry ``v`` in ``A`` and ``w`` in ``B`` (every ordered pair of
    distinct attributes), ``counts[(A, v)]`` rows carry ``v`` in ``A``."""
    attrs = relation.attributes
    joint: dict[tuple[str, str], dict[str, dict[str, int]]] = {}
    counts: dict[tuple[str, str], int] = {}
    for span in relation.shard_spans():
        chunks = [relation.column_chunk(a, span.start, span.stop) for a in attrs]
        for i in range(span.rows):
            values = [chunk[i] for chunk in chunks]
            for attr_a, value_a in zip(attrs, values):
                key = (attr_a, value_a)
                counts[key] = counts.get(key, 0) + 1
                bucket = joint.setdefault(key, {})
                for attr_b, value_b in zip(attrs, values):
                    if attr_b != attr_a:
                        by_value = bucket.setdefault(attr_b, {})
                        by_value[value_b] = by_value.get(value_b, 0) + 1
    return joint, counts


def fd_groups(
    relation: Relation, join_attrs: Sequence[str], residual_attr: str
) -> FDGroups:
    """The group table of the FD ``join_attrs -> residual_attr``:
    ``{join key -> {residual value -> count}}`` over the whole relation."""
    groups: FDGroups = {}
    for span in relation.shard_spans():
        join_chunks = [
            relation.column_chunk(a, span.start, span.stop) for a in join_attrs
        ]
        residual_chunk = relation.column_chunk(residual_attr, span.start, span.stop)
        for i in range(span.rows):
            key = tuple(chunk[i] for chunk in join_chunks)
            by_value = groups.setdefault(key, {})
            value = residual_chunk[i]
            by_value[value] = by_value.get(value, 0) + 1
    return groups
