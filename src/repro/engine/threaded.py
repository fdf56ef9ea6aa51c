"""The threaded engine: a real recovery processor thread plus a restore
worker pool.

The paper's hardware runs the recovery CPU concurrently with the main
CPU against shared stable memory.  Here the recovery processor's duties
execute on a dedicated host thread; callers submit a duty and wait for
its completion, so the *order* of duties — and therefore every metered
total — matches the cooperative engine, while the work itself runs on
the other thread against the now lock-hardened stable structures.

Restart phase 2 is where threads genuinely interleave:
``restore_partitions`` fans the missing-partition list out over a pool of
worker threads, each running independent recovery transactions (the
paper's section 2.5 notes these are ordinary transactions, so several can
run at once).  Simulated device time still aggregates on the shared
virtual clock, and on the host clock the pool buys nothing — the work is
Python under the interpreter lock (docs/ENGINES.md has the numbers).
This engine exists to put the locking under real interleavings: the lock
audit, the torture rounds and the race tests run on it.

Exceptions raised by a duty on the recovery thread — including simulated
crash faults from the chaos engine — are ferried back and re-raised on
the submitting thread, so crash-injection tests behave identically under
both engines.
"""

from __future__ import annotations

import threading
import weakref

from repro.engine.base import RECOVERY_CPU, ExecutionEngine


class _RecoveryThread:
    """A persistent worker executing one submitted job at a time.

    The single-slot mailbox keeps submissions strictly sequential: the
    submitter blocks until its job finishes, and the job's return value
    or exception crosses back over the mailbox.  The thread starts
    lazily (many test databases never pump) and is a daemon, with
    :meth:`stop` for deterministic shutdown.
    """

    def __init__(self, label: str):
        self._label = label
        self._cv = threading.Condition()
        self._job: tuple | None = None
        self._stop_requested = False
        self._thread: threading.Thread | None = None

    def _ensure_started(self) -> None:
        with self._cv:
            if self._thread is None or not self._thread.is_alive():
                self._stop_requested = False
                self._thread = threading.Thread(
                    target=self._loop, name=self._label, daemon=True
                )
                self._thread.start()

    def run_job(self, fn):
        """Execute ``fn`` on the recovery thread; return its result or
        re-raise its exception here."""
        self._ensure_started()
        box: dict = {"done": False, "value": None, "error": None}
        with self._cv:
            while self._job is not None:
                self._cv.wait()
            self._job = (fn, box)
            self._cv.notify_all()
            while not box["done"]:
                self._cv.wait()
        if box["error"] is not None:
            raise box["error"]
        return box["value"]

    def _loop(self) -> None:
        while True:
            with self._cv:
                while self._job is None and not self._stop_requested:
                    self._cv.wait()
                if self._stop_requested:
                    return
                fn, box = self._job
            value = error = None
            try:
                value = fn()
            # Not a swallow: the error crosses the mailbox and run_job
            # re-raises it on the submitting thread, so SimulatedCrash
            # and friends keep their control-flow meaning.
            except BaseException as exc:  # repro-check: ignore[RC04]
                error = exc
            with self._cv:
                box["value"] = value
                box["error"] = error
                box["done"] = True
                self._job = None
                self._cv.notify_all()

    def stop(self) -> None:
        with self._cv:
            thread = self._thread
            self._stop_requested = True
            self._cv.notify_all()
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        with self._cv:
            self._thread = None


class ThreadedEngine(ExecutionEngine):
    """Recovery duties on their own thread; parallel phase-2 restores."""

    name = "threaded"

    def __init__(self, workers: int = 4, thread_prefix: str = "repro"):
        super().__init__()
        if workers < 1:
            raise ValueError("the threaded engine needs at least one worker")
        self.workers = workers
        #: Host-thread name prefix; a sharded deployment gives each node
        #: its own (``repro-shard3``) so stack dumps attribute work.
        self.thread_prefix = thread_prefix
        self._recovery = _RecoveryThread(f"{thread_prefix}-recovery-cpu")
        # The databases under test are created by the hundred; tie the
        # thread's lifetime to the engine object so abandoned instances
        # cannot leak host threads.
        self._finalizer = weakref.finalize(self, _RecoveryThread.stop, self._recovery)

    def _dispatch(self, duty, processor):
        # The recovery CPU's share crosses the mailbox; the checkpoint
        # and recovery transactions (main-CPU work in the paper) stay on
        # the calling thread.
        if processor == RECOVERY_CPU:
            return self._recovery.run_job(duty)
        return duty()

    def shutdown(self) -> None:
        self._recovery.stop()
