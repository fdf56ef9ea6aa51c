"""The tier-1 suite.

Tests that must hold with the background condenser on as well as off
run both ways in one run.  A class's tests take
``SystemConfig.condense_enabled`` from the ``condense_enabled`` fixture
(off, tests/conftest.py), and a ``Test...Condensed`` subclass marked
:data:`CONDENSED` runs them again with it on; a module-level test has a
``..._condensed`` twin.
"""

import pytest

CONDENSED = pytest.mark.parametrize("condense_enabled", [True], ids=["condensed"])
