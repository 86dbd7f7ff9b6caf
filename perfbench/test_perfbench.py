"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench -q

* Tracing changes no behaviour: a traced and an untraced run of the same
  seed end at the same state digests with the same outcomes.
* A second seed changes the inputs but keeps every workload's shares.
* Uninstalling the wrappers restores every original entry point.
* Without the program's sources the benchmark fails without a result.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from tracing import Tracer  # noqa: E402
from workloads import Constrained, Ingest, Served, Sharded  # noqa: E402


class SmallIngest(Ingest):
    EMPLOYEES = 40


# Small versions of the workloads: (factory, operations per run).
SMALL = {
    "ingest": (SmallIngest, 60),
    "constrained": (Constrained, 10),
    "served": (Served, 60),
    "sharded": (Sharded, 60),
}


def drive(name: str, seed: int, traced: bool, workdir: str):
    """Run a fixed number of operations; return outcomes, digests, spans."""
    factory, count = SMALL[name]
    workload = factory(seed)
    workload.setup(workdir)
    tracer = Tracer()
    try:
        if traced:
            if hasattr(workload, "set_tracing"):
                workload.set_tracing(True)
            else:
                tracer.install()
        outcomes = []
        for n in range(count):
            caller = n % workload.callers
            op = workload.next_op(caller)
            outcomes.append((op.cls, op.args, workload.execute(op, caller)))
        if hasattr(workload, "set_tracing"):
            workload.set_tracing(False)
            spans = workload.trace_summary()[0]
        else:
            tracer.uninstall()
            spans = tracer.summary()
        digests = workload.digests()
        problems = workload.check()
    finally:
        tracer.uninstall()
        workload.close()
    return outcomes, digests, spans, problems


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_no_behaviour(name, tmp_path):
    plain = drive(name, 7, False, str(tmp_path / "plain"))
    traced = drive(name, 7, True, str(tmp_path / "traced"))
    assert plain[3] == [] and traced[3] == []
    assert plain[0] == traced[0]
    assert plain[1] == traced[1]
    assert plain[2] == {}
    assert traced[2], "the traced run recorded no span"
    assert all(outcome != "failed" for _c, _a, outcome in plain[0])


def classes_and_args(name: str, seed: int, workdir: str, count: int):
    factory, _ = SMALL[name]
    workload = factory(seed)
    workload.setup(workdir)
    try:
        ops = [workload.next_op(n % workload.callers) for n in range(count)]
    finally:
        workload.close()
    return collections.Counter(op.cls for op in ops), [op.args for op in ops]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_second_seed_changes_inputs_not_shares(name, tmp_path):
    # 120 operations are whole blocks of every workload's class schedule.
    first = classes_and_args(name, 1, str(tmp_path / "a"), 120)
    second = classes_and_args(name, 2, str(tmp_path / "b"), 120)
    assert first[0] == second[0]
    assert first[1] != second[1]


def test_uninstall_restores_every_entry_point():
    import repro.engine
    import repro.storage.store
    from repro.db.state import State

    originals = (State.insert_tuple, repro.engine.check_history,
                 repro.storage.store.state_delta)
    tracer = Tracer()
    tracer.install()
    try:
        assert State.insert_tuple is not originals[0]
        assert repro.engine.check_history is not originals[1]
        assert repro.storage.store.state_delta is not originals[2]
    finally:
        tracer.uninstall()
    assert (State.insert_tuple, repro.engine.check_history,
            repro.storage.store.state_delta) == originals


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    with open(tmp_path / "BENCHMARK.json", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    done = subprocess.run(
        command + ["--workload", "served", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
