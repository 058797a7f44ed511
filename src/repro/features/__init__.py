"""Representation model Q (§4, Fig. 2A, Table 7).

Q concatenates representation models from three contexts:

- **attribute-level** — character/word embeddings of the cell value (fed to
  learnable layers), character and symbolic format 3-gram models, the
  empirical value distribution, and a column-id one-hot;
- **tuple-level** — attribute-pair co-occurrence statistics and a learnable
  tuple embedding;
- **dataset-level** — per-constraint violation counts and the
  nearest-neighbour distance in a tuple-value embedding space.

Each model is a :class:`~repro.features.base.Featurizer`.  The
:class:`~repro.features.pipeline.FeaturePipeline` fits them on the noisy
dataset D, transforms cells into a fixed ``numeric`` block plus named
embedding branches.  The Fig. 3 ablation drops a model by leaving it out
of a detector spec's ``featurizers`` list.

Transforms are batched through :class:`~repro.features.base.CellBatch`, and
each model memoises what it computes across calls in per-model
:class:`~repro.features.cache.FeatureCache` memos, which count their hits —
see ``docs/architecture.md`` for what each memo keeps.
"""

from repro.features.base import CellBatch, Featurizer, FeatureContext
from repro.features.cache import CacheStats, FeatureCache
from repro.features.attribute import (
    CharEmbeddingFeaturizer,
    ColumnIdFeaturizer,
    EmpiricalDistributionFeaturizer,
    FormatNGramFeaturizer,
    SymbolicNGramFeaturizer,
    WordEmbeddingFeaturizer,
)
from repro.features.tuple_level import CooccurrenceFeaturizer, TupleEmbeddingFeaturizer
from repro.features.dataset_level import (
    ConstraintViolationFeaturizer,
    NeighborhoodFeaturizer,
)
from repro.features.extra import TokenFrequencyFeaturizer, ValueLengthFeaturizer
from repro.features.pipeline import CellFeatures, FeaturePipeline, default_pipeline

__all__ = [
    "Featurizer",
    "FeatureContext",
    "CellBatch",
    "FeatureCache",
    "CacheStats",
    "CharEmbeddingFeaturizer",
    "WordEmbeddingFeaturizer",
    "FormatNGramFeaturizer",
    "SymbolicNGramFeaturizer",
    "EmpiricalDistributionFeaturizer",
    "ColumnIdFeaturizer",
    "CooccurrenceFeaturizer",
    "TupleEmbeddingFeaturizer",
    "ConstraintViolationFeaturizer",
    "NeighborhoodFeaturizer",
    "ValueLengthFeaturizer",
    "TokenFrequencyFeaturizer",
    "CellFeatures",
    "FeaturePipeline",
    "default_pipeline",
]
