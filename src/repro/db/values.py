"""Concrete values of the object sorts: atoms, tuples, sets, identifiers.

The paper's atom sort is the natural numbers; per the DESIGN.md substitution
table we also admit interned strings (the paper's own examples use symbolic
atoms such as the marital status ``S`` and employee names).

Tuples carry an *identifier* (the paper's ``id`` function): ``modify_n``
changes an attribute of a tuple while preserving its identifier — this is
exactly what the modify-frame axiom is about, and what lets constraints track
"the same employee" across states (``s:e`` vs ``s;t:e``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import EvaluationError, SortError

Atom = Union[int, str]

TupleId = int


def check_atom(value: object) -> Atom:
    """Validate and return an atom value."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SortError(f"not an atom: {value!r}")
    if isinstance(value, int) and value < 0:
        raise SortError(f"atoms are natural numbers, got {value}")
    return value


@dataclass(frozen=True)
class DBTuple:
    """An n-ary tuple value, optionally carrying an identifier.

    Freshly constructed tuples (the paper's ``tuple_n(v1, ..., vn)``) have
    ``tid is None``; insertion into a relation assigns a fresh identifier.
    Tuples read back from a state always carry their identifier.
    """

    tid: TupleId | None
    values: tuple[Atom, ...]

    def __post_init__(self) -> None:
        for v in self.values:
            check_atom(v)

    @property
    def arity(self) -> int:
        return len(self.values)

    def select(self, index: int) -> Atom:
        """1-based attribute selection (the paper's ``select_n(t, i)``)."""
        if not 1 <= index <= self.arity:
            raise EvaluationError(
                f"select{self.arity}: index {index} out of range 1..{self.arity}"
            )
        return self.values[index - 1]

    def with_value(self, index: int, value: Atom) -> "DBTuple":
        """The tuple with its i-th attribute replaced (identifier kept)."""
        if not 1 <= index <= self.arity:
            raise EvaluationError(
                f"modify{self.arity}: index {index} out of range 1..{self.arity}"
            )
        new_values = self.values[:index - 1] + (check_atom(value),) + self.values[index:]
        return DBTuple(self.tid, new_values)

    def with_tid(self, tid: TupleId) -> "DBTuple":
        # The values were checked when this tuple was built.
        new = object.__new__(DBTuple)
        object.__setattr__(new, "tid", tid)
        object.__setattr__(new, "values", self.values)
        return new

    def identifier(self) -> TupleId:
        """The paper's ``id(t)``; raises for unidentified fresh tuples."""
        if self.tid is None:
            raise EvaluationError("id of a tuple that is not in any relation")
        return self.tid

    def __str__(self) -> str:
        inner = ", ".join(repr(v) if isinstance(v, str) else str(v) for v in self.values)
        tag = f"#{self.tid}" if self.tid is not None else ""
        return f"⟨{inner}⟩{tag}"


def make_tuple(*values: Atom) -> DBTuple:
    """Construct a fresh (unidentified) tuple value."""
    return DBTuple(None, tuple(check_atom(v) for v in values))


@dataclass(frozen=True)
class TupleSet:
    """A finite set of n-ary tuples — the value of a set-sorted expression.

    Set semantics are by *value*: two tuples with equal attribute values are
    one element (the paper's sets of n-ary tuples).  The carrier keeps the
    full :class:`DBTuple` objects so identifiers survive set operations where
    possible; value-duplicates collapse, keeping the first representative.
    """

    arity: int
    elements: frozenset[tuple[Atom, ...]]
    representatives: tuple[DBTuple, ...] = ()

    @staticmethod
    def of(arity: int, tuples: "list[DBTuple] | tuple[DBTuple, ...]") -> "TupleSet":
        seen: dict[tuple[Atom, ...], DBTuple] = {}
        for t in tuples:
            if t.arity != arity:
                raise SortError(f"tuple of arity {t.arity} in a {arity}-set")
            seen.setdefault(t.values, t)
        return TupleSet(arity, frozenset(seen), tuple(seen.values()))

    @staticmethod
    def empty(arity: int) -> "TupleSet":
        return TupleSet(arity, frozenset(), ())

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.representatives)

    def contains_value(self, values: tuple[Atom, ...]) -> bool:
        return values in self.elements

    def contains(self, t: DBTuple) -> bool:
        return t.values in self.elements

    def union(self, other: "TupleSet") -> "TupleSet":
        self._check_arity(other)
        return TupleSet.of(self.arity, self.representatives + other.representatives)

    def intersect(self, other: "TupleSet") -> "TupleSet":
        self._check_arity(other)
        return TupleSet.of(
            self.arity, [t for t in self.representatives if other.contains(t)]
        )

    def difference(self, other: "TupleSet") -> "TupleSet":
        self._check_arity(other)
        return TupleSet.of(
            self.arity, [t for t in self.representatives if not other.contains(t)]
        )

    def product(self, other: "TupleSet") -> "TupleSet":
        combined = [
            DBTuple(None, a.values + b.values)
            for a in self.representatives
            for b in other.representatives
        ]
        return TupleSet.of(self.arity + other.arity, combined)

    def is_subset(self, other: "TupleSet") -> bool:
        self._check_arity(other)
        return self.elements <= other.elements

    def first_column(self) -> list[Atom]:
        """The first attribute of every element (for ``sum``/``max``/``min``)."""
        return [t.values[0] for t in self.representatives]

    def _check_arity(self, other: "TupleSet") -> None:
        if self.arity != other.arity:
            raise SortError(
                f"set operation between arities {self.arity} and {other.arity}"
            )

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in sorted(self.representatives, key=lambda t: t.values))
        return "{" + inner + "}"


@dataclass(frozen=True)
class RelationId:
    """The identifier of a relation (rigid across states)."""

    name: str
    arity: int

    def __str__(self) -> str:
        return self.name


Value = Union[Atom, DBTuple, TupleSet, TupleId, RelationId]
