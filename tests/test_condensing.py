"""Background condensing is gone; the update-count trigger alone bounds
restart (docs/INTERNALS.md).  ``condense_enabled`` is still accepted as
``False``, so callers written for it keep working, and refused as
``True``."""

import dataclasses

import pytest

from repro import SystemConfig
from repro.common.errors import ConfigurationError


class TestDutyPlumbing:
    def test_disabled_by_default(self):
        with pytest.raises(ConfigurationError, match="condensing was removed"):
            SystemConfig(condense_enabled=True)
        assert SystemConfig(condense_enabled=False) == SystemConfig()
        assert "condense_enabled" not in {f.name for f in dataclasses.fields(SystemConfig)}
