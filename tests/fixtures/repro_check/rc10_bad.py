# repro-check: module=repro.wal.fixture_bad
"""RC10 bad fixture: registry drift in every direction — a stale
registration, an unregistered hook, and dead instrumentation."""

from repro.sim.chaos import crash_point, register_crash_point

register_crash_point("fixture.stale")
register_crash_point("fixture.orphaned")


def flush():
    crash_point("fixture.unregistered")


def _orphan():
    crash_point("fixture.orphaned")
