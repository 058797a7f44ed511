"""FastText-style subword embeddings: skip-gram with negative sampling.

Reimplements the training objective of Bojanowski et al. [7] in numpy: each
word is represented as the mean of hashed character-n-gram vectors plus a
whole-word vector, trained so that words predict their context words against
negative samples drawn from the unigram^0.75 distribution.

Subword representations matter for error detection specifically because they
give *out-of-vocabulary* strings — which typos overwhelmingly are — vectors
that land near their clean neighbours, letting the learnable layers above
separate "slightly off" from "structurally different".
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.backends.numpy_backend import KERNELS
from repro.utils.rng import as_generator

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a(text: str) -> int:
    """64-bit FNV-1a hash (FastText's bucket hash)."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def subword_ngrams(word: str, n_min: int = 3, n_max: int = 5) -> list[str]:
    """Character n-grams of ``<word>`` with boundary markers, as in FastText."""
    wrapped = f"<{word}>"
    grams = []
    for n in range(n_min, n_max + 1):
        if n > len(wrapped):
            break
        grams.extend(wrapped[i : i + n] for i in range(len(wrapped) - n + 1))
    return grams


class FastTextEmbedding:
    """Subword skip-gram embedding trained with negative sampling.

    Parameters mirror the knobs that matter for this reproduction: embedding
    ``dim`` (the paper used 50; we default lower for CPU runtime), context
    ``window``, ``negatives`` per positive pair, subword n-gram range, bucket
    count for the hashing trick, ``epochs`` and learning rate.
    """

    def __init__(
        self,
        dim: int = 24,
        window: int = 3,
        negatives: int = 4,
        n_min: int = 3,
        n_max: int = 5,
        buckets: int = 4096,
        epochs: int = 3,
        lr: float = 0.05,
        max_pairs_per_epoch: int = 200_000,
        rng=None,
    ):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.window = window
        self.negatives = negatives
        self.n_min = n_min
        self.n_max = n_max
        self.buckets = buckets
        self.epochs = epochs
        self.lr = lr
        self.max_pairs_per_epoch = max_pairs_per_epoch
        self._rng = as_generator(rng)
        self._vocab: dict[str, int] = {}
        self._index_to_word: list[str] = []
        self._in: np.ndarray | None = None  # [buckets + vocab, dim]
        self._out: np.ndarray | None = None  # [vocab, dim]
        self._sub_ids: np.ndarray | None = None  # [vocab, max_subwords] padded
        self._sub_counts: np.ndarray | None = None  # [vocab] real ids per row
        self._word_vectors_cache: np.ndarray | None = None
        self._word_norms_cache: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Vocabulary and subword plumbing
    # ------------------------------------------------------------------ #

    @property
    def vocabulary(self) -> list[str]:
        return list(self._index_to_word)

    def _word_subword_ids(self, word: str, word_index: int | None) -> list[int]:
        """Hashed subword ids; in-vocab words also get a dedicated id."""
        ids = [
            _fnv1a(gram) % self.buckets for gram in subword_ngrams(word, self.n_min, self.n_max)
        ]
        if word_index is not None:
            ids.append(self.buckets + word_index)
        if not ids:
            # Words shorter than n_min still need at least one id.
            ids = [_fnv1a(f"<{word}>") % self.buckets]
        return ids

    def _build_vocab(self, sentences: Sequence[Sequence[str]]) -> np.ndarray:
        counts: dict[str, int] = {}
        for sentence in sentences:
            for token in sentence:
                counts[token] = counts.get(token, 0) + 1
        self._index_to_word = sorted(counts, key=lambda w: (-counts[w], w))
        self._vocab = {w: i for i, w in enumerate(self._index_to_word)}
        freq = np.array([counts[w] for w in self._index_to_word], dtype=np.float64)
        return freq

    def _build_subword_table(self) -> None:
        vocab_size = len(self._index_to_word)
        id_lists = [
            self._word_subword_ids(w, i) for i, w in enumerate(self._index_to_word)
        ]
        max_len = max(len(ids) for ids in id_lists)
        self._sub_ids = np.zeros((vocab_size, max_len), dtype=np.int64)
        self._sub_counts = np.array([len(ids) for ids in id_lists], dtype=np.int64)
        for i, ids in enumerate(id_lists):
            self._sub_ids[i, : len(ids)] = ids

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def fit(self, sentences: Iterable[Sequence[str]]) -> "FastTextEmbedding":
        """Train on a corpus of token-list sentences."""
        sentences = [list(s) for s in sentences if s]
        if not sentences:
            raise ValueError("cannot fit embeddings on an empty corpus")
        freq = self._build_vocab(sentences)
        self._build_subword_table()
        vocab_size = len(self._index_to_word)
        table_size = self.buckets + vocab_size
        scale = 1.0 / self.dim
        self._in = self._rng.uniform(-scale, scale, size=(table_size, self.dim))
        self._out = np.zeros((vocab_size, self.dim))

        centers, contexts = self._collect_pairs(sentences)
        if centers.size == 0:
            self._word_vectors_cache = self._word_norms_cache = None
            return self

        noise = freq**0.75
        noise /= noise.sum()

        for _ in range(self.epochs):
            order = self._rng.permutation(centers.size)
            if centers.size > self.max_pairs_per_epoch:
                order = order[: self.max_pairs_per_epoch]
            self._train_epoch(centers[order], contexts[order], noise)
            self._clip_norms()
        self._word_vectors_cache = self._word_norms_cache = None
        return self

    def _collect_pairs(
        self, sentences: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """All (center, context) pairs within the window, vectorised.

        One flat id array plus a parallel sentence-id array turn the
        per-token window scan into sliding-window index arithmetic: for
        each offset ``d`` the aligned slices ``flat[:-d]``/``flat[d:]``
        are pair candidates, valid exactly where both sides fall in the
        same sentence.  Each unordered co-occurrence is emitted in both
        directions, matching the original per-position triple loop's pair
        multiset (the emission *order* differs; training shuffles pairs
        per epoch anyway).
        """
        vocab = self._vocab
        lengths = np.fromiter((len(s) for s in sentences), dtype=np.int64,
                              count=len(sentences))
        total = int(lengths.sum())
        flat = np.fromiter(
            (vocab[t] for sentence in sentences for t in sentence),
            dtype=np.int64, count=total,
        )
        sentence_ids = np.repeat(np.arange(lengths.size), lengths)
        centers: list[np.ndarray] = []
        contexts: list[np.ndarray] = []
        for d in range(1, self.window + 1):
            if d >= total:
                break
            same = sentence_ids[:-d] == sentence_ids[d:]
            left, right = flat[:-d][same], flat[d:][same]
            centers += [left, right]
            contexts += [right, left]
        if not centers:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(centers), np.concatenate(contexts)

    def _train_epoch(
        self, centers: np.ndarray, contexts: np.ndarray, noise: np.ndarray
    ) -> None:
        """One SGNS pass; the batch update runs on the training core.

        Positive and negative targets share the same update form (grad on
        score = sigmoid(score) - label); the per-batch math lives in
        :meth:`repro.nn.backends.numpy_backend.NumpyBackend.sgns_step`.
        Negative sampling stays here, on the embedding's own RNG stream.
        """
        batch = 512
        vocab_size = noise.size
        for start in range(0, centers.size, batch):
            c = centers[start : start + batch]
            o = contexts[start : start + batch]
            n = c.size
            negs = self._rng.choice(vocab_size, size=(n, self.negatives), p=noise)
            KERNELS.sgns_step(
                self._in, self._out, self._sub_ids[c], self._sub_counts[c],
                o, negs, self.lr,
            )

    def _clip_norms(self, max_norm: float = 10.0) -> None:
        """Renormalise rows whose norm exceeds ``max_norm``.

        Batched scatter-add updates can let frequently shared buckets grow
        without bound on degenerate corpora; clipping keeps the geometry
        (directions) while bounding magnitudes.
        """
        for table in (self._in, self._out):
            norms = np.linalg.norm(table, axis=1, keepdims=True)
            np.divide(table, norms / max_norm, out=table, where=norms > max_norm)

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #

    def vector(self, word: str) -> np.ndarray:
        """Embedding of ``word``; OOV words fall back to subword vectors only."""
        if self._in is None:
            raise RuntimeError("embedding not fitted")
        ids = self._word_subword_ids(word, self._vocab.get(word))
        return self._in[ids].mean(axis=0)

    def token_rows(self, tokens: Sequence[str]) -> np.ndarray:
        """The ``[len(tokens), dim]`` stack of token vectors, in token order.

        In-vocabulary tokens are served as rows of the precomputed
        vocabulary matrix (one gather instead of per-token subword hashing);
        only out-of-vocabulary tokens fall back to :meth:`vector`.  Each row
        equals :meth:`vector` of its token bit-for-bit, so the stacks of
        consecutive pieces of a token list, concatenated, are the stack of
        the whole list: callers may memoise the rows per piece.
        """
        if self._in is None:
            raise RuntimeError("embedding not fitted")
        vocab = self._vocab
        indices = np.array([vocab.get(t, -1) for t in tokens], dtype=np.int64)
        if np.all(indices >= 0):
            return self._word_vectors()[indices]
        rows = np.empty((len(tokens), self.dim))
        known = indices >= 0
        if known.any():
            rows[known] = self._word_vectors()[indices[known]]
        for i in np.flatnonzero(~known):
            rows[i] = self.vector(tokens[i])
        return rows

    def sentence_vector(self, tokens: Sequence[str]) -> np.ndarray:
        """Mean of token vectors; zero vector for an empty token list.

        The mean of :meth:`token_rows`: a caller that averages the same
        rows in the same order, however it assembled them, gets the same
        bits.
        """
        if not tokens:
            return np.zeros(self.dim)
        return np.mean(self.token_rows(tokens), axis=0)

    def _word_vectors(self) -> np.ndarray:
        """The ``[vocab, dim]`` matrix of in-vocabulary word vectors.

        Built as grouped gathers over the padded subword id table: words
        with the same subword count form one ``[m, L, dim]`` gather and a
        single ``mean(axis=1)``.  Reducing over a strided axis accumulates
        in index order exactly like the per-word ``_in[ids].mean(axis=0)``,
        so each row is bit-identical to :meth:`vector`.
        """
        if self._word_vectors_cache is None:
            counts = self._sub_counts
            vectors = np.empty((len(self._index_to_word), self.dim))
            for length in np.unique(counts):
                members = np.flatnonzero(counts == length)
                gathered = self._in[self._sub_ids[members, :length]]
                vectors[members] = gathered.mean(axis=1)
            self._word_vectors_cache = vectors
        return self._word_vectors_cache

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_state(self) -> dict:
        """Serialisable state: config + vocabulary + weight tables.

        Arrays stay inline; saved detectors and artifact objects place them
        through :func:`repro.artifacts.store.flatten_arrays`.  The subword
        table is rebuilt from the vocabulary on load (it is a pure function
        of vocab + hashing config).
        """
        if self._in is None or self._out is None:
            raise RuntimeError("cannot serialise an unfitted embedding")
        return {
            "config": self.config_dict(),
            "vocabulary": list(self._index_to_word),
            "in_table": self._in,
            "out_table": self._out,
        }

    def config_dict(self) -> dict:
        """Every constructor knob that shapes training, as a JSON-able dict.

        Two uses: the ``config`` entry of :meth:`to_state` (rebuildable via
        ``FastTextEmbedding(**config)``), and the component-config half of
        embedding artifact keys (:mod:`repro.artifacts.keys`) — the full
        enumeration is what guarantees that changing *any* training default
        changes the key instead of silently serving stale weights.
        """
        return {
            "dim": self.dim,
            "window": self.window,
            "negatives": self.negatives,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "buckets": self.buckets,
            "epochs": self.epochs,
            "lr": self.lr,
            "max_pairs_per_epoch": self.max_pairs_per_epoch,
        }

    @classmethod
    def from_state(cls, state: dict) -> "FastTextEmbedding":
        """Rebuild a fitted embedding from :meth:`to_state` output.

        A ``config`` the constructor refuses, an ``in_table`` that is not
        ``[buckets + len(vocabulary), dim]`` and an ``out_table`` that is
        not ``[len(vocabulary), dim]`` are each a ``ValueError``, raised
        here rather than from the first lookup that reads past a table or
        returns a vector of the wrong width.
        """
        try:
            model = cls(**state["config"])
        except TypeError as exc:  # an unknown knob, or one of the wrong type
            raise ValueError(f"embedding state config: {exc}") from exc
        model._index_to_word = list(state["vocabulary"])
        model._vocab = {w: i for i, w in enumerate(model._index_to_word)}
        model._in = np.asarray(state["in_table"], dtype=np.float64)
        model._out = np.asarray(state["out_table"], dtype=np.float64)
        vocab_size = len(model._index_to_word)
        for name, table, rows in (
            ("in_table", model._in, model.buckets + vocab_size),
            ("out_table", model._out, vocab_size),
        ):
            if table.shape != (rows, model.dim):
                raise ValueError(
                    f"embedding state {name} has shape {table.shape}, "
                    f"expected {(rows, model.dim)}"
                )
        model._build_subword_table()
        return model

    def _word_norms(self) -> np.ndarray:
        """Row norms of :meth:`_word_vectors`, computed once per matrix."""
        if self._word_norms_cache is None:
            self._word_norms_cache = np.linalg.norm(self._word_vectors(), axis=1)
        return self._word_norms_cache

    def nearest_neighbor_distance(self, word: str) -> float:
        """Cosine distance to the closest *other* vocabulary word.

        This is the dataset-level neighbourhood feature (Appendix A.1): for a
        correct-but-rare value there is usually a close neighbour; a garbled
        value sits far from everything.  Returns 1.0 when the vocabulary has
        no other word to compare against.  An in-vocabulary query is its row
        of :meth:`_word_vectors`, bit-identical to :meth:`vector`.
        """
        vectors = self._word_vectors()
        own = self._vocab.get(word)
        if len(self._index_to_word) < 2 and own is not None:
            return 1.0
        query = self.vector(word) if own is None else vectors[own]
        q_norm = np.linalg.norm(query)
        if q_norm == 0:
            return 1.0
        norms = self._word_norms()
        safe = np.where(norms == 0, 1.0, norms)
        sims = vectors @ query / (safe * q_norm)
        sims = np.where(norms == 0, -1.0, sims)
        if own is not None:
            sims[own] = -np.inf
        best = float(np.max(sims))
        if best == -np.inf:
            return 1.0
        return float(np.clip(1.0 - best, 0.0, 2.0))
