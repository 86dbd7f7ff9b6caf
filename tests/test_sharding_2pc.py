"""Two-phase commit under exhaustive fault injection.

Every crash point inside the 2PC window is exercised: the client sees a
typed :class:`~repro.errors.InDoubt`, and recovery resolves the in-doubt
transaction on every shard consistently with the coordinator's durable
decision record — commit after the decision fsync, presumed abort before.
"""

from __future__ import annotations

import os

import pytest

from repro.db.pmap import PMap
from repro.db.schema import Schema
from repro.errors import InDoubt, ShardError
from repro.logic import builder as b
from repro.sharding import (
    Coordinator,
    ShardedDatabase,
    TwoPhaseFaults,
    resolve_in_doubt,
)
from repro.transactions.program import query, transaction

x, y = b.atom_var("x"), b.atom_var("y")


def two_stripe_schema() -> Schema:
    schema = Schema()
    schema.add_relation("USERS", ("uid", "name"))
    schema.add_relation("EVENTS", ("uid", "what"))
    return schema


signup = transaction(
    "signup",
    (x, y),
    b.seq(
        b.insert(b.mktuple(x, y), "USERS"),
        b.insert(b.mktuple(x, b.atom("created")), "EVENTS"),
    ),
)
put_user = transaction(
    "put-user", (x, y), b.insert(b.mktuple(x, y), "USERS")
)
n_users = query("n-users", (), b.size_of(b.rel("USERS", 2)))
n_events = query("n-events", (), b.size_of(b.rel("EVENTS", 2)))

#: Crash points and the fate recovery must assign: before the decision
#: record hits disk the transaction is presumed aborted; after, committed.
CRASH_MATRIX = [
    ("prepare:0", "abort"),
    ("prepare:1", "abort"),
    ("before-decision", "abort"),
    ("after-decision", "commit"),
    ("outcome:0", "commit"),
    ("outcome:1", "commit"),
]


def fresh_db(path, **kwargs):
    sdb = ShardedDatabase(
        two_stripe_schema(),
        shards=2,
        path=str(path),
        placement={"USERS": 0, "EVENTS": 1},
        **kwargs,
    )
    assert sdb.plan.shard_of("USERS") != sdb.plan.shard_of("EVENTS")
    return sdb


class TestCrashMatrix:
    @pytest.mark.parametrize("point,fate", CRASH_MATRIX)
    def test_crash_then_recover_resolves_consistently(
        self, tmp_path, point, fate
    ):
        sdb = fresh_db(tmp_path)
        sdb.execute(put_user, 0, 0)  # a baseline committed row
        sdb.faults = TwoPhaseFaults(crash_at=point)
        with pytest.raises(InDoubt) as excinfo:
            sdb.execute(signup, 1, 1)
        err = excinfo.value
        assert err.point == point
        assert err.decided == (fate == "commit")
        sdb.close()

        sdb2, report = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        if point.startswith("outcome:1") or not report.resolutions:
            # Both outcomes may already be durable — nothing in doubt.
            pass
        else:
            assert all(r.decision == fate for r in report.resolutions)
        if fate == "commit":
            assert sdb2.query(n_users) == 2
            assert sdb2.query(n_events) == 1
        else:
            assert sdb2.query(n_users) == 1
            assert sdb2.query(n_events) == 0
        sdb2.close()

    @pytest.mark.parametrize("point,fate", CRASH_MATRIX)
    def test_recovered_database_accepts_new_work(self, tmp_path, point, fate):
        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(crash_at=point)
        with pytest.raises(InDoubt):
            sdb.execute(signup, 1, 1)
        sdb.close()
        sdb2, _ = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        base = 1 if fate == "commit" else 0
        sdb2.execute(signup, 2, 2)
        assert sdb2.query(n_users) == base + 1
        assert sdb2.query(n_events) == base + 1
        sdb2.close()

    def test_crash_after_crash_refuses_further_work(self, tmp_path):
        """A crashed instance is poisoned: it must refuse new transactions
        rather than run on top of an unresolved 2PC window."""
        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(crash_at="before-decision")
        with pytest.raises(InDoubt):
            sdb.execute(signup, 1, 1)
        with pytest.raises(ShardError):
            sdb.execute(put_user, 2, 2)
        sdb.close()


class TestRecoveryDetails:
    def test_recovery_survives_double_restart(self, tmp_path):
        """Resolving an in-doubt txn must itself be durable: a second
        recovery finds nothing pending and the same state."""
        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(crash_at="after-decision")
        with pytest.raises(InDoubt):
            sdb.execute(signup, 1, 1)
        sdb.close()
        sdb2, rep1 = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        users = sdb2.query(n_users)
        sdb2.close()
        sdb3, rep2 = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        assert rep2.resolutions == ()
        assert rep2.clean
        assert sdb3.query(n_users) == users == 1
        sdb3.close()

    def test_forced_abort_is_typed_and_leaves_no_trace(self, tmp_path):
        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(abort_txn=True)
        with pytest.raises(ShardError):
            sdb.execute(signup, 1, 1)
        sdb.faults = None
        assert sdb.query(n_users) == 0
        assert sdb.query(n_events) == 0
        # The instance is still healthy — the abort was clean, not a crash.
        sdb.execute(signup, 2, 2)
        assert sdb.query(n_users) == 1
        sdb.close()

    def test_torn_decision_record_presumes_abort(self, tmp_path):
        """If the decision journal is torn mid-frame, the decision record
        is gone; with no applied outcome as witness, recovery must presume
        abort on every shard (never a half-commit)."""
        from repro.testing.chaos_sharding import _tear_decision_journal

        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(crash_at="after-decision")
        with pytest.raises(InDoubt):
            sdb.execute(signup, 1, 1)
        sdb.close()
        assert _tear_decision_journal(str(tmp_path))
        sdb2, report = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        assert report.resolutions
        assert all(r.decision == "abort" for r in report.resolutions)
        # The first shard resolved presumes abort and re-records the
        # decision durably; later shards then legitimately cite it.
        assert any("presumed abort" in r.why for r in report.resolutions)
        assert sdb2.query(n_users) == 0
        assert sdb2.query(n_events) == 0
        sdb2.close()

    def test_sibling_outcome_outvotes_torn_decision(self, tmp_path):
        """Crash between the two outcome applies: shard 0's applied outcome
        survives in its journal.  Even with the decision record torn away,
        recovery must commit shard 1 too — the sibling outcome is the
        witness that the decision was durable."""
        from repro.testing.chaos_sharding import _tear_decision_journal

        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(crash_at="outcome:1")
        with pytest.raises(InDoubt):
            sdb.execute(signup, 1, 1)
        sdb.close()
        _tear_decision_journal(str(tmp_path))
        sdb2, report = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        assert sdb2.query(n_users) == 1
        assert sdb2.query(n_events) == 1
        for res in report.resolutions:
            assert res.decision == "commit"
        sdb2.close()


class TestCoordinator:
    def test_decisions_survive_reopen_with_new_epoch(self, tmp_path):
        c1 = Coordinator(str(tmp_path))
        t = c1.next_txid("transfer")
        c1.decide(t, "commit", shards=(0, 1))
        c1.close()
        c2 = Coordinator(str(tmp_path))
        assert c2.decision_for(t) == "commit"
        assert c2.epoch > c1.epoch
        # Fresh txids never collide with the old epoch's.
        assert c2.next_txid("transfer") != t
        c2.close()

    def test_contradictory_redecision_refused(self, tmp_path):
        c = Coordinator(str(tmp_path))
        t = c.next_txid("t")
        c.decide(t, "commit")
        c.decide(t, "commit")  # idempotent re-decide is fine
        with pytest.raises(ShardError):
            c.decide(t, "abort")
        c.close()

    def test_resolution_priority(self):
        assert resolve_in_doubt("t", {"t": "commit"}, {})[0] == "commit"
        assert resolve_in_doubt("t", {"t": "abort"}, {"t": "commit"})[0] == (
            "abort"
        )
        assert resolve_in_doubt("t", {}, {"t": "commit"})[0] == "commit"
        decision, why = resolve_in_doubt("t", {}, {})
        assert decision == "abort"
        assert "presumed" in why


class TestDurableSingleShard:
    def test_single_shard_commits_are_journaled_per_shard(self, tmp_path):
        sdb = fresh_db(tmp_path)
        sdb.execute(put_user, 1, 1)
        sdb.execute(put_user, 2, 2)
        sdb.close()
        sdb2, report = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        assert report.clean
        assert sdb2.query(n_users) == 2
        sdb2.close()

    def test_no_decision_journal_traffic_for_single_shard(self, tmp_path):
        from repro.sharding.twopc import DECISIONS_NAME

        sdb = fresh_db(tmp_path)
        for i in range(5):
            sdb.execute(put_user, i, i)
        sdb.close()
        journal = os.path.join(str(tmp_path), "coordinator", DECISIONS_NAME)
        from repro.storage.journal import read_journal

        scan = read_journal(journal)
        kinds = {r.kind for r in scan.records}
        # Only the epoch marker — zero decisions, zero coordination.
        assert "decision" not in kinds


def _trie_nodes(slot) -> int:
    if type(slot) is not list:
        return 0
    return 1 + sum(_trie_nodes(child) for child in slot)


class TestOwnerMaps:
    def test_single_shard_commit_after_cross_shard_commits(self, tmp_path):
        """Every cross-shard commit evaluates in a fresh id block, so the
        shards' ids spread over a wide range.  The owner map a later
        single-shard commit updates must stay proportional to the shard's
        live tuples — never padded out to the highest id."""
        sdb = fresh_db(tmp_path)
        for k in range(40):
            sdb.execute(signup, k, f"u{k}")
        sdb.execute(put_user, 1000, "solo")
        for shard in sdb.shards:
            state = shard.db.current
            live = {
                t.tid: name
                for name, rel in state.relations.items()
                for t in rel
            }
            owner = state.owner
            assert isinstance(owner, PMap)
            assert dict(owner.items()) == live
            assert max(live) > 40 * 1024 // 2  # ids really are spread out
            levels = owner._shift // 5 + 1
            assert _trie_nodes(owner._root) <= levels * len(live)
        combined = sdb.combined_state()
        assert dict(combined.owner.items()) == {
            t.tid: name
            for name, rel in combined.relations.items()
            for t in rel
        }
        sdb.close()
