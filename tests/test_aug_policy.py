"""Unit tests for the policy Π̂ (Algorithm 3) and its variants."""

import numpy as np
import pytest

from repro.augmentation import Policy, Transformation
from repro.augmentation.policy import UniformPolicy


@pytest.fixture
def learned_policy():
    """Policy learned from Hospital-style 'x' typos plus one value swap."""
    pairs = [
        ("60612", "6x612"),
        ("60614", "606x4"),
        ("Chicago", "Chixago"),
        ("Female", "Male"),
    ]
    return Policy.learn(pairs)


class TestConditional:
    def test_renormalises_over_applicable(self, learned_policy):
        conditional = learned_policy.conditional("60612")
        assert conditional
        assert sum(conditional.values()) == pytest.approx(1.0)
        for t in conditional:
            assert t.applicable("60612")

    def test_inapplicable_excluded(self, learned_policy):
        conditional = learned_policy.conditional("zzz")
        # Only ADD transformations can apply to a disjoint string.
        for t in conditional:
            assert t.src == "" or t.src in "zzz"

    def test_empty_policy(self):
        assert Policy({}).conditional("abc") == {}

    def test_top_k_ordering(self, learned_policy):
        top = learned_policy.top_k("60612", 3)
        probs = [p for _, p in top]
        assert probs == sorted(probs, reverse=True)
        assert len(top) <= 3

    @pytest.mark.parametrize("k", [0, -1])
    def test_top_k_rejects_k_below_one(self, learned_policy, k):
        with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
            learned_policy.top_k("60612", k)


class TestSampling:
    def test_sample_respects_applicability(self, learned_policy):
        rng = np.random.default_rng(0)
        for _ in range(20):
            phi = learned_policy.sample("60612", rng)
            assert phi is not None
            assert phi.applicable("60612")

    def test_transform_produces_changed_value(self, learned_policy):
        rng = np.random.default_rng(1)
        seen_changed = False
        for _ in range(20):
            out = learned_policy.transform("60612", rng)
            if out is not None:
                assert out != "60612" or True
                seen_changed = seen_changed or out != "60612"
        assert seen_changed

    def test_sample_none_when_nothing_applies(self):
        policy = Policy({Transformation("qq", "r"): 1.0})
        assert policy.sample("abc", rng=0) is None
        assert policy.transform("abc", rng=0) is None

    def test_x_exchange_dominates_learned_distribution(self, learned_policy):
        """Three of four training errors substitute 'x' for a character —
        the learned distribution must weight x-exchanges above the one-off
        value swap."""
        x_exchange_mass = sum(
            learned_policy.probability(t)
            for t in learned_policy.transformations
            if t.dst == "x"
        )
        swap = Transformation("Female", "Male")
        assert x_exchange_mass > learned_policy.probability(swap)


class TestNormalisation:
    def test_defensive_normalisation(self):
        policy = Policy({Transformation("a", "b"): 2.0, Transformation("c", "d"): 2.0})
        assert policy.probability(Transformation("a", "b")) == pytest.approx(0.5)

    def test_len(self, learned_policy):
        assert len(learned_policy) == len(learned_policy.transformations)


class TestUniformPolicy:
    def test_uniform_over_applicable(self):
        ts = [Transformation("", "x"), Transformation("6", "9"), Transformation("zz", "y")]
        policy = UniformPolicy(ts)
        conditional = policy.conditional("60612")
        # "zz" not applicable; the two applicable get 1/2 each.
        assert len(conditional) == 2
        assert all(p == pytest.approx(0.5) for p in conditional.values())

    def test_deduplicates(self):
        t = Transformation("a", "b")
        policy = UniformPolicy([t, t, t])
        assert len(policy) == 1

    def test_empty(self):
        assert UniformPolicy([]).conditional("abc") == {}
