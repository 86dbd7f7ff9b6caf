"""E20 — commit cost against relation size: O(Δ), not O(|R|).

A default in-memory :class:`~repro.engine.Database` (``record_graph=True``,
no constraints) commits one-tuple inserts into a relation of |R| rows, for
|R| in ``SIZES``.  Every state is a persistent value the evolution graph
keeps, so a commit that copied or rehashed the relation would grow with
|R|; with persistent maps, incremental hashes and the trie diff it costs
the same at 100 rows and at 100k.

Gates:

* the median 100k-row commit costs at most ``GATE_RATIO`` times the median
  100-row commit;
* building a ``STATE_ROWS``-row state with ``state_from_rows`` takes under
  ``GATE_BUILD_SECONDS``.

Also reported, ungated: the durable commit (``sync="os"``) per |R|.  The
journal's per-record integrity check (``touched_digest``) still serializes
every touched relation whole, so that cost does grow with |R|.
"""

from __future__ import annotations

import statistics
import time

from repro import Database
from repro.db.schema import Schema
from repro.db.state import state_from_rows
from repro.logic import builder as b
from repro.transactions.program import transaction

from conftest import print_series, write_bench_json

SIZES = (100, 1_000, 10_000, 100_000)
COMMITS = 300
DURABLE_COMMITS = 20
GATE_RATIO = 2.0
STATE_ROWS = 30_000
GATE_BUILD_SECONDS = 1.0

x, y = b.atom_var("x"), b.atom_var("y")
PUT = transaction("put", (x, y), b.insert(b.mktuple(x, y), "R"))


def build_schema() -> Schema:
    schema = Schema()
    schema.add_relation("R", ("k", "v"))
    return schema


def loaded_database(rows: int) -> Database:
    schema = build_schema()
    state = state_from_rows(schema, {"R": [(i, i % 97) for i in range(rows)]})
    return Database(schema, initial=state)


def commit_ms(db: Database, commits: int, first_key: int) -> float:
    """Median wall time of one single-tuple insert commit, in ms."""
    times = []
    for k in range(first_key, first_key + commits):
        started = time.perf_counter()
        db.execute(PUT, k, 0)
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def test_e20_commit_cost_is_flat_in_relation_size(tmp_path):
    in_memory: dict[int, float] = {}
    durable: dict[int, float] = {}
    for size in SIZES:
        db = loaded_database(size)
        commit_ms(db, 20, first_key=size)  # warm up
        in_memory[size] = commit_ms(db, COMMITS, first_key=size + 20)
        assert len(db.current.relation("R")) == size + 20 + COMMITS
        db.durable(str(tmp_path / f"store-{size}"), sync="os")
        durable[size] = commit_ms(
            db, DURABLE_COMMITS, first_key=size + 20 + COMMITS
        )
        db.close()

    schema = build_schema()
    rows = {"R": [(i, i % 97) for i in range(STATE_ROWS)]}
    started = time.perf_counter()
    state = state_from_rows(schema, rows)
    build_s = time.perf_counter() - started
    assert len(state.relation("R")) == STATE_ROWS

    ratio = in_memory[SIZES[-1]] / in_memory[SIZES[0]]
    print_series(
        "E20: one-tuple commit cost vs |R| (median ms)",
        [
            (size, f"{in_memory[size]:.3f}", f"{durable[size]:.2f}")
            for size in SIZES
        ],
        ("|R|", "in_memory_ms", "durable_ms"),
    )
    print(f"  state_from_rows({STATE_ROWS}): {build_s:.3f}s")
    write_bench_json(
        "commit",
        {
            "experiments": {
                "E20-commit-scaling": {
                    "sizes": list(SIZES),
                    "commits_per_size": COMMITS,
                    "in_memory_commit_median_ms": {
                        str(size): round(in_memory[size], 4) for size in SIZES
                    },
                    "ratio_largest_to_smallest": round(ratio, 3),
                    "gate": f"100k-row commit <= {GATE_RATIO}x 100-row commit",
                    "gate_passed": ratio <= GATE_RATIO,
                    "durable_commits_per_size": DURABLE_COMMITS,
                    "durable_commit_median_ms": {
                        str(size): round(durable[size], 3) for size in SIZES
                    },
                    "durable_note": (
                        "ungated: touched_digest serializes each touched "
                        "relation whole, so durable commits grow with |R|"
                    ),
                    "state_from_rows_rows": STATE_ROWS,
                    "state_from_rows_seconds": round(build_s, 3),
                    "build_gate": f"< {GATE_BUILD_SECONDS}s",
                    "build_gate_passed": build_s < GATE_BUILD_SECONDS,
                }
            }
        },
    )
    assert ratio <= GATE_RATIO, (
        f"100k-row commit costs {ratio:.2f}x the 100-row commit "
        f"(gate {GATE_RATIO}x)"
    )
    assert build_s < GATE_BUILD_SECONDS, (
        f"state_from_rows({STATE_ROWS}) took {build_s:.2f}s "
        f"(gate {GATE_BUILD_SECONDS}s)"
    )
