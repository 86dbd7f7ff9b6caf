"""The ``served`` workload's server, run in a child process.

The server process holds the database, so the generator and the server do
not share an interpreter lock.  The parent drives it over a socket pair:
:class:`ServerProcess` starts the child, waits until it serves, and sends
commands (tracing on/off, counter readings, final checks); the child
answers each with one reply.  Tracing wrappers are installed inside the
child, since that is where the layers run.

The child is a plain ``subprocess`` of this file, not a ``multiprocessing``
process: the ``spawn`` start method also starts a resource-tracker process
that is left behind when the benchmark exits, since nothing waits for it.
:meth:`ServerProcess.stop` waits for the child to end.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import traceback
from multiprocessing.connection import Connection

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

START_TIMEOUT = 60.0
CALL_TIMEOUT = 60.0


class ServerProcess:
    """Parent-side handle of one server child process."""

    def __init__(self, workdir: str, seed: int, workers: int) -> None:
        self._args = (workdir, str(seed), str(workers))
        self._proc = None
        self._conn = None

    def start(self) -> tuple[str, int]:
        mine, theirs = socket.socketpair()
        try:
            fd = theirs.fileno()
            self._proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(fd), *self._args],
                pass_fds=(fd,),
            )
        except OSError:
            mine.close()
            raise
        finally:
            theirs.close()
        self._conn = Connection(mine.detach())
        return tuple(self._reply(START_TIMEOUT))

    def _reply(self, timeout: float):
        if not self._conn.poll(timeout):
            raise TimeoutError("server child did not answer")
        status, value = self._conn.recv()
        if status != "ok":
            raise RuntimeError(f"server child failed:\n{value}")
        return value

    def call(self, command: str, *args):
        self._conn.send((command, args))
        return self._reply(CALL_TIMEOUT)

    def stop(self) -> None:
        if self._proc is None:
            return
        try:
            if self._proc.poll() is None:
                self.call("stop")
        except (OSError, EOFError, TimeoutError):
            pass  # the child is gone or stuck; it is killed below
        finally:
            self._conn.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc = None


def serve(conn, workdir: str, seed: int, workers: int) -> None:
    """Child main: build the system, serve, answer commands until stop."""
    try:
        from repro.server import TransactionServer
        from repro.storage.store import Store

        from tracing import Tracer
        import workloads

        db, programs = workloads.served_system(seed, workdir)
        server = TransactionServer(db, programs, workers=workers)
        host, port = server.start()
    except Exception:  # report any start failure to the parent, then exit
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ok", (host, port)))
    tracer = Tracer()

    def check(expected: dict) -> list[str]:
        problems = []
        current = db.current
        for name, rows in expected.items():
            live = sorted(t.values for t in current.relation(name))
            if live != [tuple(r) for r in rows]:
                problems.append(f"served: {name} differs from the model")
        server.close()
        db.close()
        recovered = Store(os.path.join(workdir, "store"), sync=workloads.SYNC).recover()
        if recovered.state.digest() != current.digest():
            problems.append("served: Store.recover() differs from the live state")
        return problems

    def counters() -> dict:
        out = workloads.registry_counters(db.metrics)
        out["wchar"] = workloads.written_bytes()
        return out

    def set_trace(on: bool) -> None:
        tracer.install() if on else tracer.uninstall()

    commands = {
        "trace": set_trace,
        "counters": counters,
        "evolution_states": lambda: len(db.graph),
        "peak_rss_mb": workloads.peak_rss_mb,
        "check": check,
        "trace_summary": lambda: (tracer.summary(), tracer.journal_bytes),
        "dump_spans": tracer.dump,
        "digest": lambda: db.current.digest(),
    }
    try:
        while True:
            command, args = conn.recv()
            if command == "stop":
                server.close()
                db.close()
                conn.send(("ok", None))
                return
            try:
                conn.send(("ok", commands[command](*args)))
            except Exception:  # the parent reports it and fails the run
                conn.send(("error", traceback.format_exc()))
    except EOFError:  # the parent went away
        server.close()
        db.close()
    finally:
        conn.close()


if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    fd, workdir, seed, workers = sys.argv[1:]
    serve(Connection(int(fd)), workdir, int(seed), int(workers))
