"""Unit tests for the FastText-style embedding substrate."""

import numpy as np
import pytest

from repro.data import load_dataset
from repro.dataset import Dataset
from repro.embeddings import (
    FastTextEmbedding,
    char_corpus,
    tuple_corpus,
    tuple_value_corpus,
    word_corpus,
)
from repro.embeddings.corpus import EMPTY_TOKEN
from repro.embeddings.fasttext import subword_ngrams


def reference_nearest_neighbor_distance(model: FastTextEmbedding, word: str) -> float:
    """``FastTextEmbedding.nearest_neighbor_distance`` as it was: every
    query through :meth:`~FastTextEmbedding.vector`, the vocabulary's norms
    recomputed per call.  Kept as the reference of the cached version."""
    vectors = model._word_vectors()
    if len(model._index_to_word) < 2 and word in model._vocab:
        return 1.0
    query = model.vector(word)
    q_norm = np.linalg.norm(query)
    if q_norm == 0:
        return 1.0
    norms = np.linalg.norm(vectors, axis=1)
    safe = np.where(norms == 0, 1.0, norms)
    sims = vectors @ query / (safe * q_norm)
    sims = np.where(norms == 0, -1.0, sims)
    own = model._vocab.get(word)
    if own is not None:
        sims[own] = -np.inf
    best = float(np.max(sims))
    if best == -np.inf:
        return 1.0
    return float(np.clip(1.0 - best, 0.0, 2.0))


class TestSubwordNgrams:
    def test_boundary_markers(self):
        grams = subword_ngrams("ab", 3, 5)
        assert "<ab" in grams and "ab>" in grams and "<ab>" in grams

    def test_single_char(self):
        assert subword_ngrams("a", 3, 5) == ["<a>"]

    def test_empty_word(self):
        assert subword_ngrams("", 3, 5) == ["<>"][:1] or subword_ngrams("", 3, 5) == []

    def test_range_respected(self):
        grams = subword_ngrams("abcdef", 3, 4)
        assert all(3 <= len(g) <= 4 for g in grams)


class TestCorpusBuilders:
    def test_char_corpus(self, zip_dataset):
        sentences = char_corpus(zip_dataset, "zip")
        assert sentences[0] == ["6", "0", "6", "1", "2"]

    def test_word_corpus(self, zip_dataset):
        sentences = word_corpus(zip_dataset, "city")
        assert sentences[0] == ["chicago"]

    def test_tuple_corpus_pools_attributes(self, zip_dataset):
        sentences = tuple_corpus(zip_dataset)
        assert len(sentences) == zip_dataset.num_rows
        assert "chicago" in sentences[0] and "il" in sentences[0]

    def test_tuple_value_corpus_keeps_raw_values(self, zip_dataset):
        sentences = tuple_value_corpus(zip_dataset)
        assert "60612" in sentences[0]
        assert "Chicago" in sentences[0]

    def test_empty_cells_get_token(self):
        d = Dataset.from_rows(["a"], [[""]])
        assert word_corpus(d, "a") == [[EMPTY_TOKEN]]


class TestFastTextEmbedding:
    @pytest.fixture(scope="class")
    def fitted(self):
        sentences = [
            ["chicago", "illinois"],
            ["chicago", "illinois"],
            ["chicago", "illinois"],
            ["boston", "massachusetts"],
            ["boston", "massachusetts"],
        ] * 10
        return FastTextEmbedding(dim=12, epochs=4, rng=0).fit(sentences)

    def test_vector_shape(self, fitted):
        assert fitted.vector("chicago").shape == (12,)

    def test_oov_has_vector(self, fitted):
        assert np.linalg.norm(fitted.vector("neverseen")) > 0

    def test_typo_closer_than_unrelated(self, fitted):
        """Subwords put 'chicagx' nearer 'chicago' than 'massachusetts'."""

        def cos(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        typo = fitted.vector("chicagx")
        assert cos(typo, fitted.vector("chicago")) > cos(
            typo, fitted.vector("massachusetts")
        )

    def test_cooccurring_words_similar(self, fitted):
        def cos(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        # 'chicago' should be closer to its constant companion 'illinois'
        # than to 'massachusetts'.
        chicago = fitted.vector("chicago")
        assert cos(chicago, fitted.vector("illinois")) > cos(
            chicago, fitted.vector("massachusetts")
        )

    def test_sentence_vector_mean(self, fitted):
        v = fitted.sentence_vector(["chicago", "boston"])
        expected = (fitted.vector("chicago") + fitted.vector("boston")) / 2
        np.testing.assert_allclose(v, expected)

    def test_sentence_vector_empty(self, fitted):
        np.testing.assert_allclose(fitted.sentence_vector([]), np.zeros(12))

    def test_nearest_neighbor_distance_bounds(self, fitted):
        d = fitted.nearest_neighbor_distance("chicago")
        assert 0.0 <= d <= 2.0

    def test_nearest_neighbor_excludes_self(self, fitted):
        # Distance to nearest *other* word must be > 0 for a trained model.
        assert fitted.nearest_neighbor_distance("chicago") > 0.0

    def test_nearest_neighbor_distance_matches_reference(self):
        """Bit for bit the formula that re-hashed every query through
        :meth:`vector` and recomputed the vocabulary norms per call, on
        every vocabulary word and on out-of-vocabulary queries; the cached
        norms follow a refit."""
        corpus = tuple_value_corpus(load_dataset("hospital", num_rows=60, seed=1).dirty)
        model = FastTextEmbedding(dim=16, epochs=1, rng=3).fit(corpus)
        queries = model.vocabulary + ["neverseen", "", EMPTY_TOKEN, "60612x"]
        assert len(model.vocabulary) > 200
        for word in queries:
            assert model.nearest_neighbor_distance(word) == (
                reference_nearest_neighbor_distance(model, word)
            ), word
        model.fit(corpus[:20])
        for word in model.vocabulary[:20] + ["neverseen"]:
            assert model.nearest_neighbor_distance(word) == (
                reference_nearest_neighbor_distance(model, word)
            ), word

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            FastTextEmbedding().vector("x")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            FastTextEmbedding().fit([])

    def test_deterministic_given_seed(self):
        sentences = [["a", "b"], ["b", "c"]] * 5
        v1 = FastTextEmbedding(dim=4, epochs=1, rng=42).fit(sentences).vector("b")
        v2 = FastTextEmbedding(dim=4, epochs=1, rng=42).fit(sentences).vector("b")
        np.testing.assert_allclose(v1, v2)

    def test_vocabulary_sorted_by_frequency(self):
        sentences = [["common"]] * 5 + [["rare", "common"]]
        model = FastTextEmbedding(dim=4, epochs=1, rng=0).fit(sentences)
        assert model.vocabulary[0] == "common"

    def test_norms_bounded_after_training(self, fitted):
        norms = np.linalg.norm(fitted._in, axis=1)
        assert norms.max() <= 10.0 + 1e-9

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            FastTextEmbedding(dim=0)

    @pytest.mark.parametrize(
        "table, cut, expected",
        [
            ("in_table", lambda t: t[:10], "in_table has shape (10, 12), expected (4100, 12)"),
            ("in_table", lambda t: t[:, :2], "in_table has shape (4100, 2), expected (4100, 12)"),
            ("in_table", lambda t: t.ravel(), "in_table has shape (49200,), expected (4100, 12)"),
            ("out_table", lambda t: t[:3], "out_table has shape (3, 12), expected (4, 12)"),
            ("out_table", lambda t: t[:, 1:], "out_table has shape (4, 11), expected (4, 12)"),
        ],
        ids=["in-rows", "in-columns", "in-flat", "out-rows", "out-columns"],
    )
    def test_state_with_a_misshapen_table_is_refused(self, fitted, table, cut, expected):
        """buckets (4096) + 4 vocabulary words rows in, 4 out, 12 wide."""
        state = fitted.to_state()
        state[table] = cut(state[table])
        with pytest.raises(ValueError) as excinfo:
            FastTextEmbedding.from_state(state)
        assert expected in str(excinfo.value)

    def test_state_with_an_unknown_config_key_is_refused(self, fitted):
        state = fitted.to_state()
        state["config"] = {**state["config"], "colour": "red"}
        with pytest.raises(ValueError, match="embedding state config: .*'colour'"):
            FastTextEmbedding.from_state(state)
