"""Dataset registry: load any benchmark bundle by name.

Every generator is a registered ``dataset`` component in
:mod:`repro.registry`, so sweep specs and detector tooling resolve datasets
through the same mechanism as methods, profiles, and featurizers — and a
``"module:attr"`` reference loads a user-defined bundle generator (called
as ``attr(num_rows=..., seed=...)`` and returning a
:class:`~repro.data.bundle.DatasetBundle`) with zero repo edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePath

from repro.data.adult import generate_adult
from repro.data.animal import generate_animal
from repro.data.bundle import DatasetBundle
from repro.data.food import generate_food
from repro.data.hospital import generate_hospital
from repro.data.soccer import generate_soccer
from repro.dataset.ground_truth import GroundTruth
from repro.registry import REGISTRY, ComponentError
from repro.utils.specfile import require_int


@dataclass(frozen=True)
class DatasetParams:
    """Typed config of the benchmark generators."""

    num_rows: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_rows is not None:
            require_int("num_rows", self.num_rows, 1)
        require_int("seed", self.seed)


#: Default scaled-down row counts for offline CPU runs.  The paper's sizes
#: (Table 1) are valid values of ``num_rows``.
DEFAULT_ROWS = {
    "hospital": 1000,
    "food": 2000,
    "soccer": 2000,
    "adult": 2000,
    "animal": 1500,
}

_BENCHMARKS = {
    "hospital": (generate_hospital, "zip/city FDs with 'x'-injection typos"),
    "food": (generate_food, "Chicago food inspections shape, mixed channel"),
    "soccer": (generate_soccer, "player/team FDs with a BART typo/swap mix"),
    "adult": (generate_adult, "census shape with a BART typo/swap mix"),
    "animal": (generate_animal, "sensor-reading shape with numeric outliers"),
}


def _generator_factory(name: str, generate):
    def factory(cfg: DatasetParams) -> DatasetBundle:
        rows = cfg.num_rows if cfg.num_rows is not None else DEFAULT_ROWS[name]
        return generate(num_rows=rows, seed=cfg.seed)

    return factory


for _name, (_generate, _doc) in _BENCHMARKS.items():
    REGISTRY.add(
        "dataset", _name, _generator_factory(_name, _generate),
        config=DatasetParams, description=_doc,
    )

#: Names of the five benchmark datasets (Table 1).
DATASET_NAMES = tuple(_BENCHMARKS)


@dataclass(frozen=True)
class ShardedDatasetParams:
    """Typed config of the ``sharded`` dataset kind.

    Unlike the synthetic generators, a sharded bundle is backed by an
    on-disk shard directory (``repro shard convert`` /
    :class:`~repro.dataset.sharded.ShardWriter`): ``num_rows`` cannot
    resize it and ``seed`` has nothing to randomise, but both fields are
    accepted (``None``/``0`` only) so generic callers like
    :func:`load_dataset` can pass their usual arguments.
    """

    dir: str = ""
    name: str | None = None
    num_rows: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.dir:
            raise ValueError(
                "sharded dataset requires a 'dir' pointing at a shard "
                "directory (see `repro shard convert`)"
            )
        if self.num_rows is not None:
            raise ValueError(
                "sharded datasets are fixed-size; num_rows must be None, "
                f"got {self.num_rows!r}"
            )
        if self.seed != 0:
            raise ValueError(
                f"sharded datasets take no seed; got {self.seed!r}"
            )


def _sharded_factory(cfg: ShardedDatasetParams) -> DatasetBundle:
    from repro.dataset.sharded import ShardedDataset

    relation = ShardedDataset(cfg.dir)
    # No clean twin and no truth on an ingested relation: detection-only.
    return DatasetBundle(
        name=cfg.name or PurePath(cfg.dir).name,
        clean=relation,
        dirty=relation,
        truth=GroundTruth({}),
    )


REGISTRY.add(
    "dataset", "sharded", _sharded_factory,
    config=ShardedDatasetParams,
    description="out-of-core shard directory (memory-mapped, detection-only)",
)


def load_dataset(name: str, num_rows: int | None = None, seed: int = 0) -> DatasetBundle:
    """Generate benchmark bundle ``name`` (see :data:`DATASET_NAMES`).

    ``name`` may also be a ``"module:attr"`` reference to a user-defined
    generator, which is called as ``attr(num_rows=..., seed=...)``.
    """
    try:
        bundle = REGISTRY.create(
            "dataset", name, {"num_rows": num_rows, "seed": seed}
        )
    except ComponentError as exc:
        raise ValueError(str(exc)) from exc
    if not isinstance(bundle, DatasetBundle):
        raise ValueError(
            f"dataset {name!r} built {type(bundle).__name__}, expected DatasetBundle"
        )
    return bundle
