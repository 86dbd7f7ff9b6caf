"""Span recording around the public entry points of each ``repro`` layer.

The benchmark traces the program from the outside: :class:`Tracer.install`
replaces each entry point listed in :data:`POINTS` with a wrapper that
records a span (name, start, end, parent span, operation id, optional tag)
and calls the original.  A wrapper must sit under the name the caller looks
up, so a module-level function is replaced in every loaded ``repro`` module
that imported it by name (``check_history`` in ``repro.engine``,
``state_delta`` in ``repro.storage.store`` and ``repro.sharding.sharded``).
:meth:`Tracer.uninstall` puts every original back.

Spans stay in memory until :meth:`Tracer.dump`.  A span's self time is its
duration minus the time covered by its child spans; children nest on the
thread that opened them, so they never overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable


def _check_tag(args, result):
    """``check_history(constraint, history, ...)`` -> (name, states)."""
    return (args[0].name, result.states_checked)


# (span name, module, attribute path[, tagger]).  Several entry points may
# share a span name: their times add up under that name.  A tagger maps a
# call's arguments and result to the span's tag.
POINTS: tuple[tuple, ...] = (
    ("db.state_update", "repro.db.state", "State.insert_tuple"),
    ("db.state_update", "repro.db.state", "State.delete_tuple"),
    ("db.state_update", "repro.db.state", "State.modify_tuple"),
    ("db.state_update", "repro.db.state", "State.assign_relation"),
    ("db.evolution", "repro.db.evolution", "EvolutionGraph.add_transition"),
    ("db.history", "repro.db.evolution", "History.advance"),
    ("db.history", "repro.db.evolution", "History.fork"),
    ("storage.log_commit", "repro.storage.store", "Store.log_commit"),
    ("storage.checkpoint", "repro.storage.store", "Store.checkpoint"),
    ("storage.serialize", "repro.storage.serialize", "state_delta"),
    ("storage.serialize", "repro.storage.serialize", "touched_digest"),
    ("transactions.run", "repro.transactions.program", "DatabaseProgram.run"),
    ("transactions.query", "repro.transactions.program", "DatabaseProgram.query"),
    ("constraints.check", "repro.constraints.checker", "check_history", _check_tag),
    ("concurrent.apply", "repro.engine", "Database.apply"),
    ("sharding.rehearse", "repro.engine", "Database.rehearse"),
    ("sharding.log_prepare", "repro.storage.store", "Store.log_prepare"),
    ("sharding.decide", "repro.sharding.twopc", "Coordinator.decide"),
    ("sharding.log_outcome", "repro.storage.store", "Store.log_outcome"),
)

# An entry point whose span ends when the future it returns resolves.
SUBMIT = ("concurrent.submit", "repro.concurrent.scheduler", "TransactionManager.submit")
# An entry point that is counted (bytes appended), not timed as a span.
JOURNAL_APPEND = ("repro.storage.journal", "Journal.append")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        # (span id, parent id, op id, name, start, end, tag)
        self.spans: list[tuple] = []
        self.journal_bytes = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- operation context ------------------------------------------------

    def begin_op(self, op_id) -> None:
        """Spans opened on this thread from now on belong to ``op_id``."""
        self._local.op = op_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        """(parent span, op id, new span id) for a span on this thread; a
        root span on a thread with no op becomes its own op."""
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            return stack[-1][0], stack[-1][1], sid
        op = getattr(self._local, "op", None)
        return None, op if op is not None else f"t{sid}", sid

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, tagger) -> Callable:
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, op, sid = self._open()
            stack = self._stack()
            stack.append((sid, op))
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tag = tagger(args, result) if tagger and result is not None else None
                spans.append((sid, parent, op, name, start, end, tag))

        return traced

    def _submit_wrapper(self, name: str, fn: Callable) -> Callable:
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, op, sid = self._open()
            start = time.perf_counter()
            future = fn(*args, **kwargs)

            def done(fut) -> None:
                failed = fut.cancelled() or fut.exception() is not None
                attempts = 0 if failed else fut.result().attempts
                spans.append(
                    (sid, parent, op, name, start, time.perf_counter(), attempts)
                )

            future.add_done_callback(done)
            return future

        return traced

    def _append_counter(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(journal, record):
            before = os.path.getsize(journal.path) if os.path.exists(journal.path) else 0
            result = fn(journal, record)
            self.journal_bytes += os.path.getsize(journal.path) - before
            return result

        return counted

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Replace every entry point with its wrapper (idempotent)."""
        if self._patches:
            return
        for name, module, path, *tagger in POINTS:
            original = _resolve(module, path)
            wrapper = self._span_wrapper(name, original, tagger[0] if tagger else None)
            self._patch(module, path, original, wrapper)
        name, module, path = SUBMIT
        original = _resolve(module, path)
        self._patch(module, path, original, self._submit_wrapper(name, original))
        module, path = JOURNAL_APPEND
        original = _resolve(module, path)
        self._patch(module, path, original, self._append_counter(original))

    def _patch(self, module: str, path: str, original, wrapper) -> None:
        if "." in path:
            owner_name, attr = path.split(".")
            owner = getattr(importlib.import_module(module), owner_name)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A function: rebind it wherever a loaded repro module imported it.
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(mod, path, None) is original:
                self._patches.append((mod, path, original))
                setattr(mod, path, wrapper)
                patched += 1
        if not patched:
            raise LookupError(f"{module}.{path} is bound in no loaded module")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: count, total seconds, self seconds; per tag."""
        child_time: dict[int, float] = {}
        for sid, parent, _op, _name, start, end, _tag in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for sid, _parent, _op, name, start, end, tag in self.spans:
            entry = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "tags": {}}
            )
            duration = end - start
            self_s = duration - child_time.get(sid, 0.0)
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += self_s
            if tag is not None:
                key = str(tag[0]) if isinstance(tag, tuple) else "value"
                tagged = entry["tags"].setdefault(
                    key, {"count": 0, "self_s": 0.0, "sum": 0}
                )
                tagged["count"] += 1
                tagged["self_s"] += self_s
                tagged["sum"] += tag[1] if isinstance(tag, tuple) else tag
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, tag in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start": start,
                            "end": end,
                            "tag": tag,
                        }
                    )
                )
                fh.write("\n")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner

