# repro-check: module=repro.txn.fixture_env_bad
"""RC03 bad fixture: core code reading the process environment."""

import os
from os import getenv


def pool_size():
    if getenv("REPRO_FIXTURE_DEBUG"):
        return 1
    return int(os.environ.get("REPRO_FIXTURE_WORKERS", "4"))
