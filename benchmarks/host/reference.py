"""The speed reference: a fixed piece of Python work timed beside the
program, and the arithmetic that expresses host time at reference speed.

The machine this benchmark runs on is a few virtual CPUs of a shared host.
Its speed moves with what the neighbours do — by 5-20 % from one half
minute to the next on a quiet day, by 1.3-1.8x for minutes on a busy one —
whatever the code under test is.  So the benchmark times a *reference
kernel* every few dozen operations, right beside the operations it times,
and divides each duration by how much slower than ``REFERENCE_MS`` the
kernel ran just then.  A metric is therefore host time **at reference speed**: the time
the work takes on a machine that runs the kernel in exactly
``REFERENCE_MS``.  On the machine this was written on, undisturbed, that
is the machine itself, and normalised and raw numbers agree within about
5 %; the raw numbers are always reported next to them.

The kernel is stdlib work with a wide instruction footprint (tokenizer,
difflib, textwrap, pprint: generators, regular expressions, dict and list
churn, string building) because that is what goes with the database: in
eight minutes of continuous interleaved measurement, dividing by this
kernel kept the database's 20-second medians within 3 % in 21 intervals of
23, dividing by a tight arithmetic loop in 16 (README.md, *Speed
normalisation*).  It touches nothing of the program under test, so a
change to the program cannot move it.
"""

from __future__ import annotations

import difflib
import io
import pprint
import statistics
import textwrap
import tokenize
from time import perf_counter_ns

#: The kernel's duration that defines reference speed: what this benchmark's
#: first machine (2 virtual cores, Python 3.11) needs between the database's
#: operations when undisturbed (1.13-1.20 ms by workload; 1.0 ms in a tight
#: loop of its own).  Any constant would do, it only fixes the unit.
REFERENCE_MS = 1.15

_SOURCE = '''\
def deposit(accounts, aid, delta, history):
    """Apply one debit/credit to ``accounts`` and append it to ``history``."""
    balance = accounts.get(aid, 0) + delta
    if balance < 0 and not accounts.get("overdraft"):
        raise ValueError(f"account {aid} would go to {balance}")
    accounts[aid] = balance
    history.append((len(history) + 1, aid, delta))
    return balance


class Ledger:
    limit = 1_000_000

    def __init__(self, rows=()):
        self.rows = {key: value for key, value in rows}

    def total(self):
        return sum(value for value in self.rows.values() if value is not None)

    def transfer(self, source, target, amount):
        if not 0 < amount <= self.limit:
            raise ValueError(f"amount {amount!r} is outside (0, {self.limit}]")
        for key, delta in ((source, -amount), (target, +amount)):
            self.rows[key] = self.rows.get(key, 0) + delta
        return self.rows[source], self.rows[target]

    def statement(self, keys, width=24):
        lines = [f"{key!s:<{width}}{self.rows[key]:>12,d}" for key in sorted(keys)]
        return "\n".join(lines) if lines else "(no rows)"
'''
_OLD_LINES = _SOURCE.splitlines()
_NEW_LINES = [line.replace("accounts", "table") for line in _OLD_LINES[3:]]
_PROSE = " ".join(_SOURCE.split())[:800]
_RECORDS = {
    f"row-{number}": [number, str(number) * 3, {"grp": number % 7, "pad": (number, -number)}]
    for number in range(24)
}


def reference_kernel() -> int:
    """One fixed unit of work; the return value only keeps it honest."""
    work = 0
    for token in tokenize.generate_tokens(io.StringIO(_SOURCE).readline):
        work += len(token.string)
    work += sum(map(len, difflib.unified_diff(_OLD_LINES, _NEW_LINES, lineterm="")))
    work += len(textwrap.fill(_PROSE, 48))
    work += len(pprint.pformat(_RECORDS, width=60))
    return work


def probe() -> int:
    """Nanoseconds the reference kernel takes right now.  It runs twice and
    the second run is timed, so the reading does not depend on how much of
    the kernel the program's last operation pushed out of the caches."""
    reference_kernel()
    start = perf_counter_ns()
    reference_kernel()
    return perf_counter_ns() - start


def speed_factor(probes_ns) -> float:
    """How many times slower than reference speed the machine ran, from
    the probes taken around a long timed region (a restart, a set-up):
    their median."""
    return statistics.median(probes_ns) / (REFERENCE_MS * 1e6)


def operation_factors(probes: list[list[int]], operations: int) -> list[float]:
    """Per timed operation, the speed factor of its surroundings.

    ``probes`` holds ``[operation index, nanoseconds]`` in order; a probe
    with index *i* ran just before operation *i* (the last one of a segment
    just after its last operation).  Operation *i* takes the second-fastest
    of the four probes around it — the two that bracket it and their
    neighbours.  Whatever disturbs a single probe (an interrupt, a time
    slice given to another process, a garbage collection) only ever makes
    it slower, and the operations themselves are reported by their minimum
    across repeats, so the factor leans the same way: with another busy
    process sharing the CPU, the median of the four overstated the
    slowdown in a fifth of the windows and throughput read 13 % high; the
    second-fastest read 1 % high, and on a quiet machine it spreads no more
    than the median does.
    """
    factors = [0.0] * operations
    for position in range(len(probes) - 1):
        low, high = probes[position][0], probes[position + 1][0]
        if low == high:  # the boundary between two segments
            continue
        window = sorted(nanoseconds for _, nanoseconds in probes[max(0, position - 1) : position + 3])
        factor = window[1] / (REFERENCE_MS * 1e6)
        for index in range(low, high):
            factors[index] = factor
    return factors
