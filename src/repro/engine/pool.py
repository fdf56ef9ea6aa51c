"""The one worker pool every fan-out in the library goes through.

Paper section 2.5: recovery transactions are ordinary transactions, so
several may run at once.  Restart phase 2, media restore, command
replay, the concurrent scheduler and the sharded cluster's per-node
operations all apply a function to independent items on a few named
host threads and want the outcome back on the caller.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable


def run_pool(
    fn: Callable,
    items: Iterable,
    *,
    workers: int,
    name: str,
    stop_on_error: bool = True,
) -> list:
    """Apply ``fn`` to every item; results in input order.

    ``min(workers, len(items))`` daemon threads named ``"{name}-{i}"``
    claim items by index.  The first ``BaseException`` any of them
    raises — simulated crashes included — is re-raised on the caller
    after every thread has been joined.  With ``stop_on_error`` the
    threads stop claiming once an error is recorded (items already in
    flight still finish); without it every item runs regardless.

    One worker, or one item, runs inline on the caller in input order
    with no thread at all — the deterministic degenerate case.  Inline,
    an error propagates at once: nothing else is in flight to let finish.
    """
    items = list(items)
    size = min(workers, len(items))
    if size <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: list[BaseException] = []
    claim_lock = threading.Lock()
    unclaimed = iter(range(len(items)))

    def work() -> None:
        while True:
            with claim_lock:
                if errors and stop_on_error:
                    return
                index = next(unclaimed, None)
            if index is None:
                return
            try:
                results[index] = fn(items[index])
            # Not a swallow: the first error is re-raised on the caller
            # after join, so SimulatedCrash and friends keep their
            # control-flow meaning.
            except BaseException as exc:  # repro-check: ignore[RC04]
                with claim_lock:
                    errors.append(exc)

    threads = [
        threading.Thread(target=work, name=f"{name}-{i}", daemon=True)
        for i in range(size)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results
