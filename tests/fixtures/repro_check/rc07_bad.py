# repro-check: module=repro.wal.fixture_bad
"""RC07 bad fixture: a registered hook on only one branch does not
dominate the write, and a hook naming no registered point dominates
nothing the sweep can crash at."""

from repro.common.checksum import seal_frame
from repro.sim.chaos import crash_point, register_crash_point

register_crash_point("fixture.before-write")


class Writer:
    def flush(self, disk, lsn, payload, verbose):
        if verbose:
            crash_point("fixture.before-write")
        disk.write_page(lsn, seal_frame(payload), sibling=True)

    def spill(self, disk, lsn, payload):
        crash_point("fixture.unregistered")
        disk.write_page(lsn, seal_frame(payload), sibling=True)
