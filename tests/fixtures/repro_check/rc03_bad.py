# repro-check: module=repro.txn.fixture_bad
"""RC03 bad fixture: wall-clock, ambient randomness and a host sleep in
core code."""

import random
import time


def jittered_now():
    return time.time() + random.random()


def wait_for_disk():
    time.sleep(0.001)
