# repro-check: module=repro.common.config
"""RC03 good fixture: the one module the environment enters through."""

import os


def env_settings():
    return os.environ.get("REPRO_ENGINE", "sim")
