# repro-check: module=repro.common.config
"""RC03 good fixture: ``os`` itself is fine; only the environment is not."""

import os


def log_path(directory, name):
    return os.path.join(directory, name)
