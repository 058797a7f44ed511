"""Unit tests for denial-constraint representation and parsing."""

import pytest

from repro.constraints import (
    DenialConstraint,
    Predicate,
    functional_dependency,
    parse_denial_constraint,
)


class TestPredicate:
    def test_attribute_comparison(self):
        p = Predicate("zip", "==", right_attr="zip")
        assert p.holds({"zip": "1"}, {"zip": "1"})
        assert not p.holds({"zip": "1"}, {"zip": "2"})

    def test_constant_comparison(self):
        p = Predicate("state", "!=", constant="IL")
        assert p.holds({"state": "MA"}, {})
        assert not p.holds({"state": "IL"}, {})

    def test_ordering_operators(self):
        p = Predicate("score", "<", right_attr="score")
        assert p.holds({"score": "10"}, {"score": "20"})

    def test_requires_exactly_one_rhs(self):
        with pytest.raises(ValueError):
            Predicate("a", "==")
        with pytest.raises(ValueError):
            Predicate("a", "==", right_attr="b", constant="c")

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            Predicate("a", "~=", right_attr="b")

    def test_is_equality_join(self):
        assert Predicate("a", "==", right_attr="a").is_equality_join
        assert not Predicate("a", "==", constant="x").is_equality_join
        assert not Predicate("a", "!=", right_attr="a").is_equality_join

    def test_attributes(self):
        assert Predicate("a", "<", right_attr="b").attributes() == {"a", "b"}
        assert Predicate("a", "==", constant="x").attributes() == {"a"}


class TestDenialConstraint:
    def test_fd_violation(self, zip_fd):
        t1 = {"zip": "60612", "city": "Chicago"}
        t2 = {"zip": "60612", "city": "Cicago"}
        t3 = {"zip": "60614", "city": "Chicago"}
        assert zip_fd.violated_by(t1, t2)
        assert not zip_fd.violated_by(t1, t3)
        assert not zip_fd.violated_by(t1, t1)

    def test_needs_predicates(self):
        with pytest.raises(ValueError):
            DenialConstraint(())

    def test_attributes(self, zip_fd):
        assert zip_fd.attributes() == {"zip", "city"}

    def test_equality_join_attrs(self, zip_fd):
        assert zip_fd.equality_join_attrs() == ["zip"]

    def test_residual_predicates(self, zip_fd):
        residual = zip_fd.residual_predicates()
        assert len(residual) == 1
        assert residual[0].op == "!="

    def test_str(self, zip_fd):
        assert "zip" in str(zip_fd)


class TestFunctionalDependency:
    def test_multi_attribute_lhs(self):
        fd = functional_dependency(["name", "surname"], "birth")
        assert fd.equality_join_attrs() == ["name", "surname"]

    def test_rhs_in_lhs_rejected(self):
        with pytest.raises(ValueError):
            functional_dependency(["a", "b"], "a")

    def test_default_name(self):
        assert functional_dependency("zip", "city").name == "zip->city"


class TestParser:
    def test_parse_fd_shape(self):
        dc = parse_denial_constraint("t1.Zip == t2.Zip & t1.City != t2.City")
        assert dc.violated_by(
            {"Zip": "1", "City": "A"}, {"Zip": "1", "City": "B"}
        )

    @pytest.mark.parametrize(
        "text, shape",
        [
            ("t1.Zip == t2.Zip & t1.City != t2.City", (["Zip"], "City")),
            ("t1.A == t2.A & t1.B == t2.B & t1.C != t2.C", (["A", "B"], "C")),
            ("t1.C != t2.C & t1.A == t2.A", (["A"], "C")),
            ("t1.k == t2.k & t1.v < t2.v", None),
            ("t1.A == t2.A & t1.B != t2.C", None),
            ("t1.A == t2.A & t1.B != t2.B & t1.C != t2.C", None),
            ("t1.A == t2.A & t1.B != 'x'", None),
            ("t1.A == t2.B & t1.C != t2.C", None),
            ("t1.A != t2.A", None),
            ("t1.State == 'XX'", None),
        ],
        ids=["fd", "two-attribute-key", "residual-first", "non-fd-join",
             "cross-attribute-residual", "two-residuals", "constant-residual",
             "cross-attribute-join", "join-free", "constant-only"],
    )
    def test_fd_shape(self, text, shape):
        assert parse_denial_constraint(text).fd_shape() == shape

    def test_fd_sugar_is_fd_shaped(self):
        assert functional_dependency(["a", "b"], "c").fd_shape() == (["a", "b"], "c")

    def test_parse_constant(self):
        dc = parse_denial_constraint("t1.State == 'XX'")
        assert dc.violated_by({"State": "XX"}, {})

    def test_parse_double_quotes(self):
        dc = parse_denial_constraint('t1.State == "IL" & t1.Zip != t2.Zip')
        assert len(dc.predicates) == 2

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_denial_constraint("zip equals city")

    def test_roundtrip_name(self):
        text = "t1.A == t2.A & t1.B != t2.B"
        assert parse_denial_constraint(text).name == text
