"""Evolution graphs and histories: the paper's Section 1 properties."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.errors import CheckabilityError
from repro.db import Schema, History, EvolutionGraph, chain_graph, state_from_rows
from repro.db.evolution import Transition


def _make_states(sizes):
    schema = Schema()
    schema.add_relation("R", ("a",))
    return [state_from_rows(schema, {"R": [(i,) for i in range(n)]}) for n in sizes]


@pytest.fixture()
def states():
    return _make_states((1, 2, 3, 4))


class TestTransition:
    def test_null_transition_applies_anywhere(self, states):
        null = Transition(())
        assert null.apply(states[0]) == states[0]
        assert null.apply(states[2]) == states[2]
        assert null.is_null and null.label == "Λ"

    def test_transition_partial(self, states):
        tr = Transition((("t", states[0], states[1]),))
        assert tr.apply(states[0]) == states[1]
        assert tr.apply(states[2]) is None

    def test_composition(self, states):
        t1 = Transition((("t1", states[0], states[1]),))
        t2 = Transition((("t2", states[1], states[2]),))
        composed = t1.then(t2)
        assert composed is not None
        assert composed.apply(states[0]) == states[2]
        assert len(composed) == 2

    def test_composition_endpoint_mismatch(self, states):
        t1 = Transition((("t1", states[0], states[1]),))
        t3 = Transition((("t3", states[2], states[3]),))
        assert t1.then(t3) is None

    def test_null_is_identity_of_composition(self, states):
        t1 = Transition((("t1", states[0], states[1]),))
        null = Transition(())
        assert t1.then(null) == t1
        assert null.then(t1) == t1


class TestEvolutionGraph:
    def test_reflexive(self, states):
        """Property (3): every state reaches itself via Λ."""
        g = chain_graph(states)
        transitions = list(g.transitions_from(states[0]))
        assert any(t.is_null for t in transitions)

    def test_transitive(self, states):
        """Property (3): composite transitions are enumerated."""
        g = chain_graph(states)
        targets = {t.target() for t in g.transitions_from(states[0]) if not t.is_null}
        assert targets == {states[1], states[2], states[3]}

    def test_multigraph(self, states):
        """Property (2): two transactions may connect the same states."""
        g = EvolutionGraph()
        g.add_transition(states[0], states[1], "tx-a")
        g.add_transition(states[0], states[1], "tx-b")
        labels = {t.label for t in g.direct_transitions_from(states[0])}
        assert labels == {"tx-a", "tx-b"}

    def test_not_complete(self, states):
        """Property (1): unrelated states are unreachable."""
        g = EvolutionGraph()
        g.add_state(states[0])
        g.add_state(states[2])
        assert not g.reachable(states[0], states[2])
        assert g.reachable(states[0], states[0])  # reflexively

    def test_max_length_bounds_enumeration(self, states):
        g = chain_graph(states)
        short = [t for t in g.transitions_from(states[0], max_length=1) if not t.is_null]
        assert {t.target() for t in short} == {states[1]}

    def test_cyclic_graph_requires_bound(self, states):
        g = EvolutionGraph()
        g.add_transition(states[0], states[1], "go")
        g.add_transition(states[1], states[0], "back")
        with pytest.raises(CheckabilityError):
            list(g.transitions_from(states[0]))
        bounded = list(g.transitions_from(states[0], max_length=4))
        assert len(bounded) >= 4


class TestUnknownStates:
    """Queries about a state the graph never saw raise a typed error."""

    @pytest.fixture()
    def graph(self, states):
        g = EvolutionGraph()
        g.add_transition(states[0], states[1], "go")
        return g

    @pytest.mark.parametrize(
        "query",
        [
            lambda g, known, unknown: g.successors(unknown),
            lambda g, known, unknown: g.direct_transitions_from(unknown),
            lambda g, known, unknown: list(g.transitions_from(unknown, max_length=2)),
            lambda g, known, unknown: g.reachable(unknown, known),
            lambda g, known, unknown: g.reachable(known, unknown),
        ],
        ids=["successors", "direct", "transitions_from", "reachable-src", "reachable-dst"],
    )
    def test_raises_checkability_error(self, graph, states, query):
        with pytest.raises(CheckabilityError, match="not in the evolution graph"):
            query(graph, states[0], states[3])

    def test_reachable_is_reflexive_for_any_state(self, graph, states):
        assert graph.reachable(states[3], states[3])
        assert EvolutionGraph().reachable(states[0], states[0])


_POOL = _make_states((0, 1, 2, 3))
_LABELS = ("a", "b", "c")

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("state"), st.integers(0, len(_POOL) - 1)),
        st.tuples(
            st.just("arc"),
            st.integers(0, len(_POOL) - 1),
            st.integers(0, len(_POOL) - 1),
            st.sampled_from(_LABELS),
        ),
    ),
    max_size=12,
)


class TestEvolutionGraphModel:
    """The graph against a brute-force reference: an insertion-ordered node
    list, the arc list, and a transitive closure computed to a fixpoint."""

    @given(_ops)
    def test_queries_match_reference(self, ops):
        graph = EvolutionGraph()
        order: list[int] = []
        arcs: list[tuple[int, int, str]] = []
        for op in ops:
            if op[0] == "state":
                graph.add_state(_POOL[op[1]])
                touched = [op[1]]
            else:
                _, src, dst, label = op
                graph.add_transition(_POOL[src], _POOL[dst], label)
                arcs.append((src, dst, label))
                touched = [src, dst]
            order.extend(i for i in touched if i not in order)

        closure = {(u, v) for u, v, _ in arcs}
        while True:
            grown = closure | {(a, d) for a, b in closure for c, d in closure if b == c}
            if grown == closure:
                break
            closure = grown

        assert len(graph) == len(order)
        assert graph.edge_count() == len(arcs)
        assert graph.states() == [_POOL[i] for i in order]
        for i, state in enumerate(_POOL):
            if i not in order:
                with pytest.raises(CheckabilityError):
                    graph.successors(state)
                continue
            succ = graph.successors(state)
            assert len(succ) == len(set(succ))
            assert set(succ) == {_POOL[v] for u, v, _ in arcs if u == i}
            for j in order:
                assert graph.reachable(state, _POOL[j]) == (i == j or (i, j) in closure)
            for k in range(1, 4):
                expected = _paths(arcs, i, k)
                got = Counter(t.label for t in graph.transitions_from(state, max_length=k))
                assert got == expected


def _paths(arcs, start, max_length):
    """Labels of every walk of 0..max_length arcs from ``start``; the walk of
    zero arcs is the null transaction."""
    labels = Counter({"Λ": 1})
    frontier = [(start, ())]
    for _ in range(max_length):
        frontier = [
            (v, walk + (label,)) for node, walk in frontier for u, v, label in arcs if u == node
        ]
        labels.update(" ;; ".join(walk) for _, walk in frontier)
    return labels


class TestHistory:
    def test_window_drops_old_states(self, states):
        h = History(window=2)
        h.start(states[0])
        for s in states[1:]:
            h.advance(s)
        assert h.states == states[-2:]
        assert h.current == states[-1]

    def test_unbounded_keeps_everything(self, states):
        h = History(window=None)
        h.start(states[0])
        for s in states[1:]:
            h.advance(s)
        assert len(h) == 4

    def test_window_must_be_positive(self):
        with pytest.raises(CheckabilityError):
            History(window=0)

    def test_empty_history_has_no_current(self):
        with pytest.raises(CheckabilityError):
            History().current

    def test_double_start_rejected(self, states):
        h = History()
        h.start(states[0])
        with pytest.raises(CheckabilityError):
            h.start(states[1])

    def test_to_graph_is_chain(self, states):
        h = History()
        h.start(states[0])
        h.advance(states[1], "tx1")
        h.advance(states[2], "tx2")
        g = h.to_graph()
        assert len(g) == 3 and g.edge_count() == 2

    def test_transition_between(self, states):
        h = History()
        h.start(states[0])
        h.advance(states[1], "a")
        h.advance(states[2], "b")
        tr = h.transition_between(states[0], states[2])
        assert tr is not None and tr.label == "a ;; b"
        assert h.transition_between(states[2], states[0]) is None

    def test_labels_follow_window(self, states):
        h = History(window=2)
        h.start(states[0])
        h.advance(states[1], "a")
        h.advance(states[2], "b")
        assert h.labels == ["b"]
