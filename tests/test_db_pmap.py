"""The persistent map under states, checked against plain-dict models.

Two layers:

* :class:`PMap` itself — random ``set``/``discard`` sequences over dense,
  sparse and hashed (colliding) keys against a ``dict``, including
  ``diff`` and ``union`` between versions;
* :class:`State` — random insert / delete-by-id / delete-by-value /
  modify / assign sequences against a model of ``{relation: {tid:
  values}}``: contents, the value index, the owner map, content hashes
  across build paths, the physical delta round trip, and identifier-order
  iteration.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import DBTuple, Schema, State, initial_state
from repro.db.pmap import PMap
from repro.db.relation import Relation
from repro.db.values import TupleSet
from repro.storage.serialize import apply_delta, state_delta

# ---------------------------------------------------------------------------
# PMap against dict
# ---------------------------------------------------------------------------

# CPython hashes -1 and -2 alike, so these keys share a trie position.
COLLIDING = [(-1,), (-2,), (-1, 0), (-2, 0)]


class Small:
    """A key with a tiny hash: collisions on the trie's bottom level."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __hash__(self) -> int:
        return self.n % 3

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Small) and other.n == self.n

    def __repr__(self) -> str:
        return f"Small({self.n})"


int_keys = st.one_of(
    st.integers(0, 70),  # dense: one or two levels
    st.integers(0, 2**20),  # sparse: deep, mostly empty
)
hashed_keys = st.one_of(
    st.sampled_from(COLLIDING),
    st.tuples(st.integers(0, 40), st.sampled_from("ab")),
)
small_keys = st.builds(Small, st.integers(0, 7))
map_ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, 3)), min_size=1, max_size=60
)


def _apply(keys, ops):
    """Replay ``ops`` over ``keys``: every version, with its model."""
    pm, model = PMap(), {}
    versions = [(pm, dict(model))]
    for (is_set, value), key in zip(ops, keys):
        if is_set:
            pm, model[key] = pm.set(key, value), value
        else:
            pm = pm.discard(key)
            model.pop(key, None)
        versions.append((pm, dict(model)))
    return versions


def _check_map(pm: PMap, model: dict, ordered: bool) -> None:
    assert len(pm) == len(model)
    assert dict(pm.items()) == model
    for key, value in model.items():
        assert pm[key] == value and key in pm
    if ordered:
        assert list(pm) == sorted(model)
    assert pm == PMap(model) and PMap(model) == pm


def _check_diff(a: PMap, ma: dict, b: PMap, mb: dict) -> None:
    changed = {k for k in ma.keys() | mb.keys() if ma.get(k) != mb.get(k)}
    reported = {k for k, old, new in a.diff(b) if old != new}
    assert reported == changed
    for key, old, new in a.diff(b):
        assert old == ma.get(key) and new == mb.get(key)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    ops=map_ops,
    kind=st.sampled_from(["int", "hashed", "small"]),
)
def test_pmap_matches_a_dict(data, ops, kind):
    keys = data.draw(
        st.lists(
            {"int": int_keys, "hashed": hashed_keys, "small": small_keys}[kind],
            min_size=len(ops),
            max_size=len(ops),
        )
    )
    hashed = kind != "int"
    versions = _apply(keys, ops)
    for pm, model in versions:
        _check_map(pm, model, ordered=not hashed)
    first, last = versions[0], versions[-1]
    middle = versions[len(versions) // 2]
    for (a, ma), (b, mb) in ((first, last), (middle, last), (last, middle)):
        _check_diff(a, ma, b, mb)
        merged = a.union(b)
        _check_map(merged, {**ma, **mb}, ordered=not hashed)


def test_diff_skips_shared_nodes():
    base = PMap((i, i) for i in range(1, 5000))
    changed = base.set(77, -1).discard(4000).set(9000, 1)
    assert base.diff(changed) == [
        (77, 77, -1),
        (4000, 4000, None),
        (9000, None, 1),
    ]


def test_union_of_disjoint_blocks_shares_subtrees():
    low = PMap((i, "a") for i in range(0, 1024))
    high = PMap((i, "b") for i in range(4096, 5120))
    merged = low.union(high)
    assert len(merged) == 2048
    assert list(merged) == list(range(0, 1024)) + list(range(4096, 5120))
    # Each block's subtree is reused, not copied.
    assert merged._root[0] is low._root and merged._root[4] is high._root[4]


# ---------------------------------------------------------------------------
# State against {relation: {tid: values}}
# ---------------------------------------------------------------------------

ARITY = {"R": 2, "S": 1}
atoms = st.integers(0, 3)


def _values(name: str):
    return st.tuples(*[atoms] * ARITY[name])


relation_names = st.sampled_from(sorted(ARITY))


@st.composite
def state_op(draw):
    name = draw(relation_names)
    kind = draw(
        st.sampled_from(["ins", "ins", "del_id", "del_val", "mod", "assign"])
    )
    if kind in ("ins", "del_val"):
        return (kind, name, draw(_values(name)))
    if kind == "del_id":
        return (kind, name, draw(st.integers(0, 10)))
    if kind == "mod":
        return (
            kind,
            name,
            draw(st.integers(0, 10)),
            draw(st.integers(1, ARITY[name])),
            draw(atoms),
        )
    keep = draw(st.lists(st.booleans(), max_size=8))
    fresh = draw(st.lists(_values(name), max_size=4))
    return (kind, name, keep, fresh)


class Model:
    """The state semantics over plain dicts."""

    def __init__(self) -> None:
        self.rels: dict[str, dict[int, tuple]] = {n: {} for n in ARITY}
        self.next_tid = 1

    def lowest(self, name: str, values: tuple):
        tids = [t for t, v in self.rels[name].items() if v == values]
        return min(tids) if tids else None

    def apply(self, state: State, op) -> State:
        kind, name = op[0], op[1]
        rel = self.rels[name]
        tids = sorted(rel)
        if kind == "ins":
            values = op[2]
            state, t = state.insert_tuple(name, DBTuple(None, values))
            if self.lowest(name, values) is None:
                rel[self.next_tid] = values
                self.next_tid += 1
            assert t.tid == self.lowest(name, values)
        elif kind == "del_val":
            state = state.delete_tuple(name, DBTuple(None, op[2]))
            tid = self.lowest(name, op[2])
            if tid is not None:
                del rel[tid]
        elif kind == "del_id" and tids:
            tid = tids[op[2] % len(tids)]
            state = state.delete_tuple(name, DBTuple(tid, rel[tid]))
            del rel[tid]
        elif kind == "mod" and tids:
            tid, index, value = tids[op[2] % len(tids)], op[3], op[4]
            state = state.modify_tuple(DBTuple(tid, rel[tid]), index, value)
            values = list(rel[tid])
            values[index - 1] = value
            rel[tid] = tuple(values)
        elif kind == "assign":
            keep, fresh = op[2], op[3]
            kept = [
                DBTuple(tid, rel[tid])
                for tid, flag in zip(tids, keep)
                if flag
            ]
            value = TupleSet.of(
                ARITY[name], kept + [DBTuple(None, v) for v in fresh]
            )
            state = state.assign_relation(name, ARITY[name], value)
            new: dict[int, tuple] = {}
            seen: set = set()
            for t in kept:  # first representative of a value wins
                if t.values not in seen:
                    seen.add(t.values)
                    new[t.tid] = t.values
            for v in sorted(set(fresh) - seen):
                new[self.next_tid] = v
                self.next_tid += 1
            self.rels[name] = new
        return state


def _schema() -> Schema:
    schema = Schema()
    schema.add_relation("R", ("a", "b"))
    schema.add_relation("S", ("x",))
    return schema


def _check_state(state: State, model: Model) -> None:
    owner: dict[int, str] = {}
    for name, rows in model.rels.items():
        rel = state.relation(name)
        # Contents, in identifier order.
        assert [(t.tid, t.values) for t in rel] == sorted(rows.items())
        assert list(rel.tuples) == sorted(rows)
        # The value index.
        for values in set(rows.values()):
            assert rel.has_value(values)
            assert DBTuple(None, values) in rel
            assert rel.find(values).tid == model.lowest(name, values)
        for values in [(9,) * ARITY[name]]:
            assert not rel.has_value(values) and rel.find(values) is None
        owner.update({tid: name for tid in rows})
    # The owner map is the inverse of the relations.
    assert dict(state.owner.items()) == owner
    assert list(state.owner) == sorted(owner)
    # Equal contents hash equal whatever the build path.
    rebuilt = State(
        {
            name: Relation(
                name,
                ARITY[name],
                {tid: DBTuple(tid, v) for tid, v in rows.items()},
            )
            for name, rows in model.rels.items()
        },
        owner,
        model.next_tid,
    )
    assert rebuilt == state and hash(rebuilt) == hash(state)
    for name in ARITY:
        assert hash(rebuilt.relation(name)) == hash(state.relation(name))
    assert rebuilt.digest() == state.digest()


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(state_op(), min_size=1, max_size=30))
def test_state_matches_the_model(ops):
    model = Model()
    state = initial_state(_schema())
    versions = [state]
    for op in ops:
        before = state
        state = model.apply(state, op)
        assert state.next_tid == model.next_tid
        _check_state(state, model)
        replayed = apply_delta(before, state_delta(before, state))
        assert replayed == state and replayed.digest() == state.digest()
        versions.append(state)
    # Deltas between versions far apart replay too.
    first = versions[0]
    replayed = apply_delta(first, state_delta(first, state))
    assert replayed == state and replayed.digest() == state.digest()
