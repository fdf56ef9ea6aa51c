"""Paper section 2.5's latch rule, checked on every test.

No latch may be held across a crash point: a holder that dies leaves the
structure it protects wedged for every later owner.  The rule is the
crash-point observer for the duration of each test, so a violation
fails the test that commits it, at the crash point itself.

``no_host_sleep`` makes ``time.sleep`` raise for the tests that use it:
all time is simulated, so nothing on those paths may wait on the host.
"""

import time

import pytest

from repro.concurrency.latch import assert_no_latch_held
from repro.sim.chaos import set_crash_point_observer


@pytest.fixture(autouse=True)
def no_latch_across_crash_points():
    set_crash_point_observer(assert_no_latch_held)
    yield
    set_crash_point_observer(None)


@pytest.fixture
def no_host_sleep(monkeypatch):
    def refuse(seconds):
        raise AssertionError(f"time.sleep({seconds!r}) on a simulated-time path")

    monkeypatch.setattr(time, "sleep", refuse)
