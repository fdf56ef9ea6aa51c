# repro-check: module=repro.txn.fixture_bad
"""RC05 bad fixture: core code reaching past the chaos registry."""

from repro.sim.chaos import ChaosEngine, activate  # noqa: F401
