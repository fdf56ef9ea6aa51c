"""The durable script registry backing command logging.

Command logging (docs/LOGGING.md) replaces a transaction's after-images
with one record naming a *registered script* plus its arguments.  That
only recovers if restart can find the very same script: the registry
maps a name to a Python callable, the relations it declares (the replay
planner's dependency oracle — the same method-1 predeclared access list
the sharding router uses), and a version string that fences schema
drift.

The callable itself is application code and lives in ordinary volatile
memory — after a crash the application re-registers its scripts at boot,
exactly as a stored-procedure catalog is reloaded.  What *is* made
stable is the name → version map (in the SLB's well-known area), so a
restart replaying a command logged under version "1" against a script
re-registered as version "2" fails loudly with a
:class:`~repro.common.errors.RecoveryError` instead of silently
re-executing drifted logic.

Scripts must be **deterministic**: given the same database state and the
same (JSON-encodable) arguments they must issue the same operations.
All their effects go through the transaction handle they are passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.common.errors import RecoveryError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.txn.transaction import Transaction
    from repro.wal.slb import StableLogBuffer

#: Well-known key of the stable name → version map.
SCRIPT_VERSIONS_KEY = "script-versions"


class ScriptError(ReproError):
    """A script registration or lookup failed."""


@dataclass(frozen=True)
class ScriptInfo:
    """One registered transaction script."""

    name: str
    fn: Callable[..., object]
    #: Declared relation access list — every relation the script may
    #: read or write.  Replay batches are partitioned by these sets.
    relations: tuple[str, ...]
    version: str


class ScriptRegistry:
    """Name → script map with a stable version mirror."""

    def __init__(self, slb: "StableLogBuffer"):
        self._slb = slb
        self._scripts: dict[str, ScriptInfo] = {}

    def register(
        self,
        name: str,
        fn: Callable[..., object],
        *,
        relations,
        version: str = "1",
    ) -> ScriptInfo:
        """Register ``fn`` as a command-loggable script.

        ``fn(txn, *args)`` runs inside a transaction; ``relations`` is
        its full declared access list.  Re-registering a name replaces
        the script (and its stable version stamp).
        """
        if not relations:
            raise ScriptError(
                f"script {name!r} declares no relations; command logging "
                f"needs the full access list"
            )
        info = ScriptInfo(name, fn, tuple(relations), str(version))
        self._scripts[name] = info
        versions = dict(self._slb.get_well_known(SCRIPT_VERSIONS_KEY, {}))
        versions[name] = info.version
        self._slb.put_well_known(SCRIPT_VERSIONS_KEY, versions)
        return info

    def unregister(self, name: str) -> None:
        """Forget a script (models application code missing at restart).

        The stable version stamp is kept: the point of the fence is that
        a logged command must find a *live, matching* script at replay.
        """
        self._scripts.pop(name, None)

    def get(self, name: str) -> ScriptInfo:
        try:
            return self._scripts[name]
        except KeyError:
            raise ScriptError(f"no script registered as {name!r}") from None

    def get_for_replay(self, name: str, version: str) -> ScriptInfo:
        """Resolve a logged command's script, enforcing the drift fence."""
        info = self._scripts.get(name)
        if info is None:
            raise RecoveryError(
                f"command log names script {name!r} but no such script is "
                f"registered; re-register the application's scripts before "
                f"restart"
            )
        if info.version != version:
            raise RecoveryError(
                f"script {name!r} was logged at version {version!r} but is "
                f"registered at version {info.version!r}; schema drift makes "
                f"command replay unsafe"
            )
        return info
