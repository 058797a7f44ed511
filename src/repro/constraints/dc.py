"""Denial constraints: representation, FD sugar, and a small parser.

A denial constraint (DC, §2.1) forbids tuple pairs that jointly satisfy every
predicate: ``∀ t1, t2: ¬(P1 ∧ … ∧ PK)`` with predicates of the form
``t1.A op t2.B`` or ``t1.A op const`` and ``op ∈ {==, !=, <, <=, >, >=}``.
Comparisons are lexicographic over the string values — numeric attributes in
the benchmark datasets are zero-padded by their generators, the same
convention the original benchmarks use.

The ubiquitous special case is a functional dependency ``X → Y``:
``¬(t1.X == t2.X ∧ t1.Y != t2.Y)``; :func:`functional_dependency` builds it.
:func:`read_constraints` reads a constraints file, one DC per line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

_OPS: dict[str, Callable[[str, str], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_NEGATION = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


@dataclass(frozen=True)
class Predicate:
    """One predicate ``t1.left op (t2.right | const)``.

    ``right_attr`` references the second tuple; ``constant`` pins a literal.
    Exactly one of the two must be set.
    """

    left_attr: str
    op: str
    right_attr: str | None = None
    constant: str | None = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unsupported operator {self.op!r}")
        if (self.right_attr is None) == (self.constant is None):
            raise ValueError("exactly one of right_attr or constant must be given")

    @property
    def is_equality_join(self) -> bool:
        """``t1.A == t2.A`` predicates enable hash-join evaluation."""
        return self.op == "==" and self.right_attr is not None

    def holds(self, t1: Mapping[str, str], t2: Mapping[str, str]) -> bool:
        """Evaluate against a pair of tuples (dicts attr → value)."""
        left = t1[self.left_attr]
        right = self.constant if self.constant is not None else t2[self.right_attr]
        return _OPS[self.op](left, right)

    def attributes(self) -> set[str]:
        attrs = {self.left_attr}
        if self.right_attr is not None:
            attrs.add(self.right_attr)
        return attrs

    def __str__(self) -> str:
        rhs = f"t2.{self.right_attr}" if self.right_attr is not None else repr(self.constant)
        return f"t1.{self.left_attr} {self.op} {rhs}"


@dataclass(frozen=True)
class DenialConstraint:
    """A conjunction of predicates that no tuple pair may satisfy."""

    predicates: tuple[Predicate, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("a denial constraint needs at least one predicate")

    def violated_by(self, t1: Mapping[str, str], t2: Mapping[str, str]) -> bool:
        """Whether the ordered pair ``(t1, t2)`` violates this constraint."""
        return all(p.holds(t1, t2) for p in self.predicates)

    def attributes(self) -> set[str]:
        """All attributes mentioned by any predicate."""
        out: set[str] = set()
        for p in self.predicates:
            out |= p.attributes()
        return out

    def equality_join_attrs(self) -> list[str]:
        """Attributes usable as hash-join keys (``t1.A == t2.A``)."""
        return [
            p.left_attr
            for p in self.predicates
            if p.is_equality_join and p.left_attr == p.right_attr
        ]

    def residual_predicates(self) -> list[Predicate]:
        """Predicates that are not same-attribute equality joins."""
        keys = set(self.equality_join_attrs())
        return [
            p
            for p in self.predicates
            if not (p.is_equality_join and p.left_attr == p.right_attr and p.left_attr in keys)
        ]

    def fd_shape(self) -> tuple[list[str], str] | None:
        """``(join_attrs, residual_attr)`` when this DC is the FD
        ``join_attrs → residual_attr`` (``t1.X == t2.X & … & t1.Y != t2.Y``);
        ``None`` for every other shape."""
        join_attrs = self.equality_join_attrs()
        residual = self.residual_predicates()
        if (
            join_attrs
            and len(residual) == 1
            and residual[0].op == "!="
            and residual[0].right_attr == residual[0].left_attr
        ):
            return join_attrs, residual[0].left_attr
        return None

    def __str__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return label + " & ".join(str(p) for p in self.predicates)


def encode_constraint(dc: DenialConstraint) -> dict:
    """JSON-able form of ``dc`` (the saved-detector format)."""
    return {
        "name": dc.name,
        "predicates": [
            {
                "left": p.left_attr,
                "op": p.op,
                "right": p.right_attr,
                "const": p.constant,
            }
            for p in dc.predicates
        ],
    }


def decode_constraint(state: Mapping[str, object]) -> DenialConstraint:
    """Inverse of :func:`encode_constraint`."""
    predicates = tuple(
        Predicate(p["left"], p["op"], right_attr=p["right"], constant=p["const"])
        for p in state["predicates"]
    )
    return DenialConstraint(predicates, name=state["name"])


def functional_dependency(lhs: str | Sequence[str], rhs: str, name: str = "") -> DenialConstraint:
    """Build the DC encoding of the FD ``lhs → rhs``.

    ``¬(t1.X == t2.X ∧ … ∧ t1.rhs != t2.rhs)``.
    """
    lhs_attrs = [lhs] if isinstance(lhs, str) else list(lhs)
    if rhs in lhs_attrs:
        raise ValueError("FD right-hand side must not appear on the left")
    predicates = [Predicate(a, "==", right_attr=a) for a in lhs_attrs]
    predicates.append(Predicate(rhs, "!=", right_attr=rhs))
    label = name or f"{'&'.join(lhs_attrs)}->{rhs}"
    return DenialConstraint(tuple(predicates), name=label)


_PRED_RE = re.compile(
    r"^t1\.(?P<left>\w+)\s*(?P<op>==|!=|<=|>=|<|>)\s*"
    r"(?:t2\.(?P<right>\w+)|(?P<quote>['\"])(?P<const>.*?)(?P=quote))$"
)


def parse_denial_constraint(text: str, name: str = "") -> DenialConstraint:
    """Parse ``"t1.Zip == t2.Zip & t1.City != t2.City"`` into a DC.

    Predicates are ``&``-separated; constants are quoted.  This covers the
    two-tuple DC fragment the paper's experiments use.
    """
    predicates = []
    for part in text.split("&"):
        part = part.strip()
        match = _PRED_RE.match(part)
        if match is None:
            raise ValueError(f"cannot parse predicate {part!r}")
        if match.group("right") is not None:
            predicates.append(
                Predicate(match.group("left"), match.group("op"), right_attr=match.group("right"))
            )
        else:
            predicates.append(
                Predicate(match.group("left"), match.group("op"), constant=match.group("const"))
            )
    return DenialConstraint(tuple(predicates), name=name or text)


def read_constraints(path: str | Path) -> list[DenialConstraint]:
    """Parse a constraints file: one DC per line in :func:`parse_denial_constraint`
    syntax; blank lines and ``#`` comments are skipped.  A line that does
    not parse raises ``ValueError`` naming ``path:line``."""
    constraints = []
    for line_number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            constraints.append(parse_denial_constraint(stripped))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_number}: {exc}") from None
    return constraints
