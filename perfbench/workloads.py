"""The benchmark's four workloads, each with a seeded generator and a model.

Every workload runs the default configuration: no ``enable_*`` call, the
default ``record_graph=True``, the default ``TransactionServer`` flags and
``sync="commit"`` on every store.  A workload object is built from a seed,
sets its system up once (:meth:`setup`), then serves operations drawn by
:meth:`next_op` to :meth:`execute`.  A pure-Python model, updated as the
operations are drawn, gives the expected verdict or answer of each one;
:meth:`execute` compares and returns one outcome:

``commit``   a committed transaction
``refusal``  an expected refusal (a constraint violation the model predicted)
``query``    a query whose answer equals the model's
``defect``   a request hit the known wire defect (fresh tuples in a result)
``failed``   anything else: an unexpected error, verdict or answer

Operation classes come in shuffled blocks of fixed counts, so every seed
gives the same shares.  ``RSS_OPS`` is the number of operations run before
the timed phase, after which peak RSS is read; ``TRACE_ROUNDS`` is how many
times a traced run repeats its untraced/traced block pattern.
"""

from __future__ import annotations

import collections
import os
import random
import resource
from dataclasses import dataclass
from typing import Optional

from repro import Database, Schema
from repro.constraints.checker import check_state
from repro.db.generators import employee_state
from repro.db.state import state_from_rows
from repro.domains import make_domain
from repro.errors import ConstraintViolation, ProtocolError, ReproError
from repro.logic import builder as b
from repro.server import Client
from repro.sharding import ShardedDatabase
from repro.storage.store import Store
from repro.transactions.program import query, transaction
from served_child import ServerProcess

SYNC = "commit"


@dataclass
class Op:
    """One generated request: its class, the call, and what must happen."""

    cls: str
    program: object  # a DatabaseProgram, or a program name on the wire
    args: tuple
    expect: str  # "commit" | "refusal" | "query"
    answer: object = None  # the model's answer for a query


def block_schedule(rng: random.Random, block: tuple[tuple[str, int], ...]):
    """Endless class names: each block holds fixed counts, shuffled."""
    names = [name for name, count in block for _ in range(count)]
    while True:
        rng.shuffle(names)
        yield from list(names)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def written_bytes() -> int:
    """Bytes this process passed to write(2) so far (``wchar``), or 0 where
    the kernel does not expose it (``disk_bytes_per_commit`` then reads 0)."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def metric_total(metrics, name: str) -> float:
    """Sum of a counter family, or the sample count of a histogram family."""
    total = 0.0
    for _labels, instrument in metrics.families().get(name, ()):
        total += instrument.count if instrument.kind == "histogram" else instrument.value
    return total


def registry_counters(metrics) -> dict:
    """The registry readings the per-layer metrics need."""
    return {
        "fsyncs": metric_total(metrics, "repro_journal_fsync_seconds"),
        "checkpoints": metric_total(metrics, "repro_checkpoints_total"),
        "conflicts": metric_total(metrics, "repro_conflicts_total"),
        "eval_skipped": metric_total(metrics, "repro_eval_constraints_skipped_total"),
        "planner_exec": metric_total(metrics, "repro_planner_exec_total"),
        "bytes_in": metric_total(metrics, "repro_server_bytes_in_total"),
        "bytes_out": metric_total(metrics, "repro_server_bytes_out_total"),
    }


class InProcess:
    """A workload whose database lives in this process, with one caller."""

    callers = 1

    def counters(self) -> dict:
        counters = registry_counters(self.db.metrics)
        counters["wchar"] = written_bytes()
        return counters

    def evolution_states(self) -> int:
        return len(self.db.graph)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


# ---------------------------------------------------------------------------
# ingest: one-tuple commits into a durable employee database
# ---------------------------------------------------------------------------


class Ingest(InProcess):
    """Paper §4 employee schema, no constraints, durable ``window=2``."""

    name = "ingest"
    EMPLOYEES = 3000
    BLOCK = (("hire", 5), ("add_skill", 6), ("allocate", 5), ("delete_skill", 4))
    RSS_OPS = 150
    TRACE_ROUNDS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"ingest-{seed}")
        self.classes = block_schedule(self.rng, self.BLOCK)
        self.db: Optional[Database] = None

    def setup(self, workdir: str) -> None:
        self.domain = make_domain()
        state = employee_state(self.domain, self.EMPLOYEES, seed=self.seed)
        self.db = Database(self.domain.schema, window=2, initial=state)
        self.store_path = os.path.join(workdir, "store")
        self.db.durable(self.store_path, sync=SYNC)
        name, number = b.atom_var("emp_name"), b.atom_var("skill_no")
        self.remove_skill = transaction(
            "remove-skill",
            (name, number),
            b.delete(b.mktuple(name, number), self.domain.skill.rid()),
        )
        # The model: the value sets of the relations the commits touch.
        rel = state.relation
        self.emp_names = [t.values[0] for t in rel("EMP")]
        self.model = {
            "EMP": len(rel("EMP")),
            "ALLOC": {t.values for t in rel("ALLOC")},
            "SKILL": {t.values for t in rel("SKILL")},
        }
        self.initial_skills = sorted(self.model["SKILL"])
        self.added_skills: list[tuple] = []
        self.hired = 0
        self.skill_no = 10
        self.projects = max(1, self.EMPLOYEES // 4)

    def next_op(self, caller: int = 0) -> Op:
        rng, d = self.rng, self.domain
        cls = next(self.classes)
        if cls == "hire":
            self.hired += 1
            name = f"h{self.hired}"
            self.emp_names.append(name)
            self.model["EMP"] += 1
            args = (name, rng.choice(["cs", "ee", "ops", "hr"]), rng.randint(60, 140),
                    rng.randint(22, 62), rng.choice(["S", "M"]))
            return Op(cls, d.hire, args, "commit", ("EMP", self.model["EMP"]))
        if cls == "add_skill":
            self.skill_no += 1
            row = (rng.choice(self.emp_names), self.skill_no)
            self.model["SKILL"].add(row)
            self.added_skills.append(row)
            return Op(cls, d.add_skill, row, "commit", ("SKILL", len(self.model["SKILL"])))
        if cls == "allocate":
            row = (rng.choice(self.emp_names), f"p{rng.randrange(self.projects)}",
                   rng.randint(1, 100))
            self.model["ALLOC"].add(row)
            return Op(cls, d.allocate, row, "commit", ("ALLOC", len(self.model["ALLOC"])))
        pool = self.added_skills or self.initial_skills
        index = rng.randrange(len(pool))
        pool[index], pool[-1] = pool[-1], pool[index]
        row = pool.pop()
        self.model["SKILL"].discard(row)
        return Op(cls, self.remove_skill, row, "commit", ("SKILL", len(self.model["SKILL"])))

    def execute(self, op: Op, caller: int = 0) -> str:
        try:
            state = self.db.execute(op.program, *op.args)
        except ReproError:
            return "failed"
        relation, size = op.answer
        return "commit" if len(state.relation(relation)) == size else "failed"

    def check(self) -> list[str]:
        problems = []
        current = self.db.current
        sizes = {name: len(current.relation(name)) for name in ("EMP", "ALLOC", "SKILL")}
        expected = {
            "EMP": self.model["EMP"],
            "ALLOC": len(self.model["ALLOC"]),
            "SKILL": len(self.model["SKILL"]),
        }
        if sizes != expected:
            problems.append(f"ingest: relation sizes {sizes} != model {expected}")
        if {t.values for t in current.relation("SKILL")} != self.model["SKILL"]:
            problems.append("ingest: SKILL contents differ from the model")
        self.db.close()
        recovered = Store(self.store_path, sync=SYNC).recover()
        if recovered.state.digest() != current.digest():
            problems.append("ingest: Store.recover() differs from the live state")
        return problems

    def digests(self) -> dict:
        return {"state": self.db.current.digest()}

    def close(self) -> None:
        if self.db is not None:
            self.db.close()


# ---------------------------------------------------------------------------
# constrained: Examples 1 and 3 checked at every commit, in memory
# ---------------------------------------------------------------------------


class Constrained(InProcess):
    """20 employees, window 3, Example 1's static constraints + Example 3's
    salary rule; raises, refused cuts, transfers with a cut, birthdays."""

    name = "constrained"
    EMPLOYEES = 20
    WINDOW = 3
    CONSTRAINTS = (
        "every-employee-allocated",
        "alloc-references-project",
        "allocation-within-limit",
        "salary-decrease-needs-dept-change",
    )
    SALARY_RULE = "salary-decrease-needs-dept-change"
    # Constraint cost grows with |ALLOC|, which employee_state draws per
    # seed; one fixed initial database keeps that cost equal across seeds,
    # and the seed draws the operation stream.
    DATA_SEED = 0
    DEPTS = ("cs", "ee", "ops", "hr")
    BLOCK = (("raise", 4), ("cut", 2), ("transfer_cut", 2), ("birthday", 2))
    RSS_OPS = 15
    # A commit takes about 0.1 s: fewer, longer blocks keep several
    # operations in each.
    TRACE_ROUNDS = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"constrained-{seed}")
        self.classes = block_schedule(self.rng, self.BLOCK)
        self.db: Optional[Database] = None

    def setup(self, workdir: str) -> None:
        del workdir  # in memory: no store
        self.domain = make_domain()
        self.domain.install_constraints(*self.CONSTRAINTS)
        state = employee_state(self.domain, self.EMPLOYEES, seed=self.DATA_SEED)
        self.db = Database(self.domain.schema, window=self.WINDOW, initial=state)
        snapshot = {t.values[0]: (t.values[2], t.values[1]) for t in state.relation("EMP")}
        # The model: (salary, dept) per employee at the committed states the
        # window keeps, oldest first.
        self.window = [snapshot]
        self.names = sorted(snapshot)

    def _verdict(self, name: str, salary: int, dept: str) -> str:
        """Example 3's rule over every pair (earlier, candidate) of the
        window: the salary may fall only together with a dept change."""
        for earlier in self.window[-(self.WINDOW - 1):]:
            old_salary, old_dept = earlier[name]
            if salary < old_salary and dept == old_dept:
                return "refusal"
        return "commit"

    def next_op(self, caller: int = 0) -> Op:
        rng, d = self.rng, self.domain
        cls = next(self.classes)
        name = rng.choice(self.names)
        salary, dept = self.window[-1][name]
        if cls == "raise":
            salary += rng.randint(1, 20)
            program, args = d.set_salary, (name, salary)
        elif cls == "cut":
            salary = max(1, salary - rng.randint(1, 20))
            program, args = d.set_salary, (name, salary)
        elif cls == "transfer_cut":
            seen = {snap[name][1] for snap in self.window[-(self.WINDOW - 1):]}
            dept = rng.choice([x for x in self.DEPTS if x not in seen])
            salary = max(1, salary - rng.randint(1, 20))
            program, args = d.transfer, (name, dept, salary)
        else:
            program, args = d.birthday, (name,)
        expect = self._verdict(name, salary, dept)
        if expect == "commit":
            nxt = dict(self.window[-1])
            nxt[name] = (salary, dept)
            self.window = (self.window + [nxt])[-(self.WINDOW - 1):]
        return Op(cls, program, args, expect)

    def execute(self, op: Op, caller: int = 0) -> str:
        try:
            self.db.execute(op.program, *op.args)
        except ConstraintViolation as err:
            if op.expect == "refusal" and err.constraint_name == self.SALARY_RULE:
                return "refusal"
            return "failed"
        except ReproError:
            return "failed"
        return "commit" if op.expect == "commit" else "failed"

    def check(self) -> list[str]:
        problems = []
        current = self.db.current
        for constraint in self.db.schema.constraints:
            if not check_state(constraint, current, self.db.interpreter).ok:
                problems.append(f"constrained: final state violates {constraint.name}")
        live = {t.values[0]: (t.values[2], t.values[1]) for t in current.relation("EMP")}
        if live != self.window[-1]:
            problems.append("constrained: salaries/depts differ from the model")
        return problems

    def digests(self) -> dict:
        return {"state": self.db.current.digest()}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# shared by served and sharded: striped key/value relations R_i(k, v)
# ---------------------------------------------------------------------------


def stripe_rows(seed: int, relations: int, rows: int, tag: str) -> dict[str, list]:
    """Initial rows: keys 0..rows-1 with seeded values, per relation."""
    rng = random.Random(f"{tag}-rows-{seed}")
    return {
        f"R{i}": [(k, rng.randint(0, 999)) for k in range(rows)]
        for i in range(relations)
    }


def stripe_schema(relations: int) -> Schema:
    schema = Schema()
    for i in range(relations):
        schema.add_relation(f"R{i}", ("k", "v"))
    return schema


def rotate_body(schema: Schema, name: str, new_k, new_v, old_k, old_v):
    """Insert the new row and delete the oldest row, by value."""
    rid = schema.relation(name).rid()
    return b.seq(b.insert(b.mktuple(new_k, new_v), rid), b.delete(b.mktuple(old_k, old_v), rid))


def rotate_program(schema: Schema, name: str):
    params = tuple(b.atom_var(v) for v in ("nk", "nv", "ok", "ov"))
    return transaction(f"rotate-{name}", params, rotate_body(schema, name, *params))


class StripeModel:
    """Rows per relation in insertion order, with fresh keys for inserts."""

    def __init__(self, rows: dict[str, list], rng: random.Random) -> None:
        self.rows = {name: collections.deque(r) for name, r in rows.items()}
        self.next_key = {name: len(r) for name, r in rows.items()}
        self.rng = rng

    def rotate(self, name: str) -> tuple:
        new = (self.next_key[name], self.rng.randint(0, 999))
        self.next_key[name] += 1
        old = self.rows[name].popleft()
        self.rows[name].append(new)
        return new + old

    def live(self, name: str) -> tuple:
        return self.rng.choice(self.rows[name])


# ---------------------------------------------------------------------------
# served: the wire protocol, admission and the optimistic scheduler
# ---------------------------------------------------------------------------


class Served:
    """``TransactionServer`` over a durable plain ``Database`` in a child
    process; two connections, 70% reads and 30% writes."""

    name = "served"
    callers = 2
    RELATIONS = 64
    ROWS = 16
    WORKERS = 2
    BLOCK = (("write", 3), ("lookup", 3), ("count", 2), ("project", 2))
    RSS_OPS = 2000
    TRACE_ROUNDS = 4
    PROBES = 4
    PROBE_TIMEOUT = 0.25

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server = None
        self.clients: list = []
        rows = stripe_rows(seed, self.RELATIONS, self.ROWS, "served")
        # Caller c owns the relations R_i with i % callers == c, so each
        # caller's model is exact whatever the interleaving.
        self.models = []
        self.classes = []
        self.owned = []
        for c in range(self.callers):
            rng = random.Random(f"served-{seed}-{c}")
            mine = {n: r for n, r in rows.items() if int(n[1:]) % self.callers == c}
            self.models.append(StripeModel(mine, rng))
            self.classes.append(block_schedule(rng, self.BLOCK))
            self.owned.append(sorted(mine))
        self.probes = {"attempted": 0, "failed": 0, "wrong": 0}

    def setup(self, workdir: str) -> None:
        self.server = ServerProcess(workdir, self.seed, self.WORKERS)
        host, port = self.server.start()
        self.address = (host, port)
        self.clients = [Client(host, port, timeout=30.0) for _ in range(self.callers)]
        for client in self.clients:
            client.connect()

    def next_op(self, caller: int = 0) -> Op:
        model = self.models[caller]
        cls = next(self.classes[caller])
        name = model.rng.choice(self.owned[caller])
        if cls == "write":
            return Op(cls, f"rotate-{name}", model.rotate(name), "commit")
        if cls == "count":
            return Op(cls, f"count-{name}", (), "query", self.ROWS)
        key, value = model.live(name)
        if cls == "lookup":
            return Op(cls, f"lookup-{name}", (key,), "query", {(key, value)})
        return Op(cls, f"project-{name}", (key,), "query", {(value,)})

    def execute(self, op: Op, caller: int = 0) -> str:
        client = self.clients[caller]
        try:
            if op.expect == "commit":
                client.execute(op.program, *op.args)
                return "commit"
            value = client.query(op.program, *op.args)
        except ProtocolError:
            # The known wire defect: a result of fresh tuples cannot cross.
            return "defect" if op.cls == "project" else "failed"
        except (ReproError, TimeoutError, OSError):
            return "failed"
        if op.cls == "count":
            return "query" if value == op.answer else "failed"
        return "query" if {t.values for t in value} == op.answer else "failed"

    def probe(self) -> None:
        """Multi-row projections after the timed phase, on a short timeout:
        today the server never answers them (the defect's second form)."""
        client = Client(*self.address, timeout=self.PROBE_TIMEOUT)
        try:
            for i in range(self.PROBES):
                caller = i % self.callers
                name = self.owned[caller][i % len(self.owned[caller])]
                self.probes["attempted"] += 1
                try:
                    value = client.query(f"values-{name}")
                except (ReproError, TimeoutError, OSError):
                    self.probes["failed"] += 1
                    continue
                expected = {(v,) for _k, v in self.models[caller].rows[name]}
                if {t.values for t in value} != expected:
                    self.probes["wrong"] += 1
        finally:
            client.close()

    def set_tracing(self, on: bool) -> None:
        self.server.call("trace", on)

    def counters(self) -> dict:
        return self.server.call("counters")

    def evolution_states(self) -> int:
        return self.server.call("evolution_states")

    def peak_rss_mb(self) -> float:
        return self.server.call("peak_rss_mb")

    def check(self) -> list[str]:
        for client in self.clients:
            client.close()
        self.clients = []
        expected = {}
        for model in self.models:
            for name, rows in model.rows.items():
                expected[name] = sorted(rows)
        problems = self.server.call("check", expected)
        if self.probes["wrong"]:
            problems.append(f"served: {self.probes['wrong']} probe answers differ from the model")
        return problems

    def trace_summary(self) -> tuple[dict, int]:
        return self.server.call("trace_summary")

    def dump_spans(self, path: str) -> None:
        self.server.call("dump_spans", path)

    def digests(self) -> dict:
        return {"state": self.server.call("digest")}

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None


def served_system(seed: int, workdir: str):
    """The server side of ``served``: schema, programs, durable database."""
    relations, rows = Served.RELATIONS, Served.ROWS
    schema = stripe_schema(relations)
    state = state_from_rows(schema, stripe_rows(seed, relations, rows, "served"))
    db = Database(schema, initial=state)
    db.durable(os.path.join(workdir, "store"), sync=SYNC)
    programs = []
    x = b.atom_var("x")
    for i in range(relations):
        name = f"R{i}"
        rel = schema.relation(name)
        t = rel.var("t")
        keyed = b.land(b.member(t, rel.rel()), b.eq(rel.attr("k", t), x))
        programs += [
            rotate_program(schema, name),
            query(f"lookup-{name}", (x,), b.setformer(t, t, keyed)),
            query(f"count-{name}", (), b.size_of(rel.rel())),
            query(f"project-{name}", (x,), b.setformer(b.mktuple(rel.attr("v", t)), t, keyed)),
            query(f"values-{name}", (), b.setformer(
                b.mktuple(rel.attr("v", t)), t, b.member(t, rel.rel()))),
        ]
    return db, programs


# ---------------------------------------------------------------------------
# sharded: routing, two-phase commit and the coordinator journal
# ---------------------------------------------------------------------------


class Sharded(InProcess):
    """Durable ``ShardedDatabase(shards=2)`` over 8 stripes of 16 rows;
    70% single-stripe rotations, 30% two-stripe rotations across shards."""

    name = "sharded"
    STRIPES = 8
    ROWS = 16
    SHARDS = 2
    BLOCK = (("single", 7), ("cross", 3))
    RSS_OPS = 150
    TRACE_ROUNDS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"sharded-{seed}")
        self.classes = block_schedule(self.rng, self.BLOCK)
        self.sdb: Optional[ShardedDatabase] = None
        self.expected = {"single": 0, "cross": 0}

    def setup(self, workdir: str) -> None:
        schema = stripe_schema(self.STRIPES)
        rows = stripe_rows(self.seed, self.STRIPES, self.ROWS, "sharded")
        state = state_from_rows(schema, rows)
        placement = {f"R{i}": i % self.SHARDS for i in range(self.STRIPES)}
        self.schema, self.placement = schema, placement
        self.path = os.path.join(workdir, "sharded")
        self.sdb = ShardedDatabase(
            schema, shards=self.SHARDS, initial=state, placement=placement,
            path=self.path, sync=SYNC,
        )
        self.model = StripeModel(rows, self.rng)
        self.single = {name: rotate_program(schema, name) for name in rows}
        self.cross = {}
        for i in range(self.STRIPES):
            for j in range(i + 1, self.STRIPES):
                if placement[f"R{i}"] == placement[f"R{j}"]:
                    continue
                params = tuple(b.atom_var(f"{v}{n}") for n in (1, 2)
                               for v in ("nk", "nv", "ok", "ov"))
                body = b.seq(
                    rotate_body(schema, f"R{i}", *params[:4]),
                    rotate_body(schema, f"R{j}", *params[4:]),
                )
                self.cross[(i, j)] = transaction(f"rotate-R{i}-R{j}", params, body)

    def next_op(self, caller: int = 0) -> Op:
        cls = next(self.classes)
        self.expected[cls] += 1
        if cls == "single":
            name = f"R{self.rng.randrange(self.STRIPES)}"
            return Op(cls, self.single[name], self.model.rotate(name), "commit")
        i, j = self.rng.choice(sorted(self.cross))
        args = self.model.rotate(f"R{i}") + self.model.rotate(f"R{j}")
        return Op(cls, self.cross[(i, j)], args, "commit")

    def execute(self, op: Op, caller: int = 0) -> str:
        try:
            self.sdb.execute(op.program, *op.args)
        except ReproError:
            return "failed"
        return "commit"

    def counters(self) -> dict:
        counters = registry_counters(self.sdb.metrics)
        counters["wchar"] = written_bytes()
        stats = self.sdb.stats()
        counters["single"] = stats["single_shard_commits"]
        counters["cross"] = stats["cross_shard_commits"]
        return counters

    def evolution_states(self) -> int:
        return 0  # shards keep no evolution graph

    def _contents(self, state) -> dict:
        return {name: sorted(t.values for t in state.relation(name)) for name in self.single}

    def check(self) -> list[str]:
        problems = []
        stats = self.sdb.stats()
        got = (stats["single_shard_commits"], stats["cross_shard_commits"])
        want = (self.expected["single"], self.expected["cross"])
        if got != want:
            problems.append(f"sharded: stats() single/cross {got} != generated {want}")
        live = self.sdb.combined_state()
        expected = {name: sorted(rows) for name, rows in self.model.rows.items()}
        if self._contents(live) != expected:
            problems.append("sharded: relation contents differ from the model")
        self.sdb.close()
        recovered, _report = ShardedDatabase.recover(
            self.schema, self.path, placement=self.placement, sync=SYNC
        )
        try:
            if self._contents(recovered.combined_state()) != self._contents(live):
                problems.append("sharded: ShardedDatabase.recover() differs from combined_state()")
        finally:
            recovered.close()
        return problems

    def digests(self) -> dict:
        return {"state": self.sdb.combined_state().digest()}

    def close(self) -> None:
        if self.sdb is not None:
            self.sdb.close()


WORKLOADS = {w.name: w for w in (Ingest, Constrained, Served, Sharded)}
