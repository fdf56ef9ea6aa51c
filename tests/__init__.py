"""The tier-1 suite.

A ``Test...Condensed`` class marked :data:`CONDENSED` and a module-level
``..._condensed`` function are twins of the test they name.  They ran it
again with the background condenser on; condensing is gone, so each now
runs its base test's configuration under the old name (``[condensed]``),
and they leave in batches small enough for one change each (ROADMAP.md).
"""

import pytest

CONDENSED = pytest.mark.parametrize("condense_enabled", [False], ids=["condensed"])
