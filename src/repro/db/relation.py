"""Immutable relations: finite sets of identified tuples.

A relation is keyed by tuple identifier — the database-facing view of the
paper's "finite n-ary set" sort, enriched with the identifier function
``id``.  All update operations return new relations; unchanged relations are
shared between states, and an updated relation shares every untouched
node of its persistent maps with the version it came from (see DESIGN.md
decision 1).

Three things ride along with the tuples, each kept up to date per update
instead of recomputed:

* the **value index** (values → identifier), which answers membership by
  value, set-semantics duplicate checks and delete-by-value without a scan;
* the **content hash**, a commutative sum of per-``(tid, values)`` hashes,
  so equal contents hash equal whatever the order they were built in;
* validation: identifier keys and arities are checked where tuples enter —
  :meth:`Relation.with_tuple` and construction from a plain mapping — and
  never again on persistent updates.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.db.pmap import PMap
from repro.db.values import Atom, DBTuple, TupleId, TupleSet
from repro.errors import EvaluationError, SchemaError

_HASH_MASK = (1 << 64) - 1


def _tids(held: TupleId | tuple) -> tuple:
    return held if type(held) is tuple else (held,)


def _index_add(index: PMap, values: tuple, tid: TupleId) -> PMap:
    # The index maps values to the one identifier holding them, or to a
    # sorted tuple of identifiers when ``modify`` made duplicates.
    held = index.get(values)
    if held is None:
        return index.set(values, tid)
    return index.set(values, tuple(sorted(_tids(held) + (tid,))))


def _index_remove(index: PMap, values: tuple, tid: TupleId) -> PMap:
    held = index.get(values)
    if type(held) is not tuple:
        return index.discard(values)
    rest = tuple(x for x in held if x != tid)
    return index.set(values, rest[0] if len(rest) == 1 else rest)


class Relation:
    """An immutable named relation.

    ``tuples`` maps tuple identifier to the tuple's current value and
    iterates in identifier order.  ``Relation(name, arity, mapping)``
    validates every entry; updates go through :meth:`with_tuple` and
    :meth:`without_tuple`.
    """

    __slots__ = ("name", "arity", "tuples", "_index", "_hsum", "_hash")

    def __init__(
        self,
        name: str,
        arity: int,
        tuples: Mapping[TupleId, DBTuple] | None = None,
    ) -> None:
        entries = list(tuples.items()) if tuples else []
        by_value: dict = {}
        hsum = 0
        for tid, t in entries:
            if type(tid) is not int or tid < 0 or t.tid != tid:
                raise SchemaError(
                    f"relation {name}: tuple keyed {tid!r} carries id {t.tid}"
                )
            if t.arity != arity:
                raise SchemaError(
                    f"relation {name} (arity {arity}) contains a "
                    f"tuple of arity {t.arity}"
                )
            held = by_value.get(t.values)
            by_value[t.values] = (
                tid if held is None else tuple(sorted(_tids(held) + (tid,)))
            )
            hsum += hash((tid, t.values))
        _init(self, name, arity, PMap(entries), PMap(by_value), hsum)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Relation is immutable (set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Relation is immutable (delete {name!r})")

    def _derive(self, tuples: PMap, index: PMap, hsum: int) -> "Relation":
        new = object.__new__(Relation)
        _init(new, self.name, self.arity, tuples, index, hsum)
        return new

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[DBTuple]:
        return iter(self.tuples.values())

    def __contains__(self, t: DBTuple) -> bool:
        """Membership: by identifier when the tuple has one, by value
        otherwise (freshly constructed tuples)."""
        if t.tid is not None:
            return t.tid in self.tuples
        return t.values in self._index

    def get(self, tid: TupleId) -> DBTuple | None:
        return self.tuples.get(tid)

    def has_value(self, values: tuple[Atom, ...]) -> bool:
        return values in self._index

    def find(self, values: tuple[Atom, ...]) -> DBTuple | None:
        """The tuple holding ``values`` (the lowest identifier when
        several do), or ``None``."""
        held = self._index.get(values)
        if held is None:
            return None
        return self.tuples.get(_tids(held)[0])

    def to_tuple_set(self) -> TupleSet:
        """The relation's value as an n-set (the fluent RelConst's value)."""
        return TupleSet.of(self.arity, tuple(self.tuples.values()))

    # -- updates (persistent) ----------------------------------------------------

    def with_tuple(self, t: DBTuple) -> "Relation":
        """Insert or replace the identified tuple ``t``."""
        tid = t.tid
        if tid is None:
            raise EvaluationError(
                f"relation {self.name}: cannot store an unidentified tuple"
            )
        if type(tid) is not int or tid < 0:
            raise SchemaError(f"relation {self.name}: bad tuple id {tid!r}")
        if t.arity != self.arity:
            raise SchemaError(
                f"relation {self.name} (arity {self.arity}) contains a "
                f"tuple of arity {t.arity}"
            )
        old = self.tuples.get(tid)
        if old is t:
            return self
        index = self._index
        hsum = self._hsum + hash((tid, t.values))
        if old is None:
            index = _index_add(index, t.values, tid)
        else:
            hsum -= hash((tid, old.values))
            if old.values != t.values:
                index = _index_add(
                    _index_remove(index, old.values, tid), t.values, tid
                )
        return self._derive(self.tuples.set(tid, t), index, hsum)

    def without_tuple(self, tid: TupleId) -> "Relation":
        """Remove the tuple with identifier ``tid`` (no-op when absent)."""
        old = self.tuples.get(tid)
        if old is None:
            return self
        return self._derive(
            self.tuples.discard(tid),
            _index_remove(self._index, old.values, tid),
            self._hsum - hash((tid, old.values)),
        )

    # -- structural equality -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and self.name == other.name
            and self.arity == other.arity
            and self.tuples == other.tuples
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rows = dict(self.tuples.items())
        return f"Relation({self.name!r}, {self.arity}, {rows!r})"

    def __str__(self) -> str:
        rows = ", ".join(str(t) for t in self)
        return f"{self.name}{{{rows}}}"


def _init(
    rel: Relation, name: str, arity: int, tuples: PMap, index: PMap, hsum: int
) -> None:
    hsum &= _HASH_MASK
    setattr_ = object.__setattr__
    setattr_(rel, "name", name)
    setattr_(rel, "arity", arity)
    setattr_(rel, "tuples", tuples)
    setattr_(rel, "_index", index)
    setattr_(rel, "_hsum", hsum)
    setattr_(rel, "_hash", hash((name, arity, hsum)))


def empty_relation(name: str, arity: int) -> Relation:
    return Relation(name, arity)
