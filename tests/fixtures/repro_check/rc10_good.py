# repro-check: module=repro.wal.fixture_good
"""RC10 good fixture: every point registered, used, and reachable."""

from repro.common.checksum import seal_frame
from repro.sim.chaos import crash_point, register_crash_point

register_crash_point("fixture.flush")


def flush(disk, lsn, payload):
    crash_point("fixture.flush")
    disk.write_page(lsn, seal_frame(payload), sibling=True)
