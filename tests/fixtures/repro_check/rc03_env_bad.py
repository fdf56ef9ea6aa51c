# repro-check: module=repro.common.config
"""RC03 bad fixture: library code reading the process environment — in
the config module as anywhere else."""

import os
from os import getenv


def pool_size():
    if getenv("FIXTURE_DEBUG"):
        return 1
    return int(os.environ.get("FIXTURE_WORKERS", "4"))
