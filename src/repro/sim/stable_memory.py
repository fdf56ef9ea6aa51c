"""Stable reliable memory.

The paper's design rests on a few megabytes of RAM that is both *stable*
(survives power loss) and *reliable* (protected from wild stores by a
failed main CPU), at the cost of being 2-4x slower than ordinary memory
(section 1).  :class:`StableMemory` models the allocator for one such
region: capacity-tracked named allocations whose contents survive the
simulated crash because the crash controller never touches them.

Objects stored here are plain Python objects.  We deliberately do not
serialise them — the stable RAM of the paper is byte-addressable memory
holding live data structures, not a device with a wire format.  The
capacity charge for each allocation is declared by the caller, which lets
the Stable Log Buffer and Stable Log Tail account their block and bin
budgets exactly as sections 2.3.1 and 2.3.3 describe.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.common.errors import StableMemoryFullError


class StableMemory:
    """A capacity-tracked region of stable reliable RAM, addressed
    directly by both processors."""

    def __init__(self, name: str, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._allocations: dict[str, tuple[int, Any]] = {}
        self._used = 0

    # -- allocation ------------------------------------------------------------

    def allocate(self, key: str, nbytes: int, value: Any = None) -> None:
        """Reserve ``nbytes`` under ``key`` and store ``value`` there.

        Raises :class:`StableMemoryFullError` when the region is exhausted —
        the condition the paper handles by stalling the main CPU's log
        writes until the recovery CPU drains the buffer.
        """
        if nbytes < 0:
            raise ValueError("allocation size cannot be negative")
        if key in self._allocations:
            raise KeyError(f"stable memory {self.name!r} already holds {key!r}")
        if self._used + nbytes > self.capacity_bytes:
            raise StableMemoryFullError(
                f"stable memory {self.name!r} full: "
                f"{self._used} + {nbytes} > {self.capacity_bytes} bytes"
            )
        self._allocations[key] = (nbytes, value)
        self._used += nbytes

    def store(self, key: str, value: Any) -> None:
        """Overwrite the value of an existing allocation (size unchanged)."""
        nbytes, _ = self._require(key)
        self._allocations[key] = (nbytes, value)

    def load(self, key: str) -> Any:
        """Read the value stored under ``key``."""
        return self._require(key)[1]

    def release(self, key: str) -> None:
        """Free an allocation."""
        nbytes, _ = self._require(key)
        del self._allocations[key]
        self._used -= nbytes

    def _require(self, key: str) -> tuple[int, Any]:
        try:
            return self._allocations[key]
        except KeyError:
            raise KeyError(f"stable memory {self.name!r} has no allocation {key!r}") from None

    # -- inspection --------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._allocations

    def keys(self) -> Iterator[str]:
        return iter(self._allocations)

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def __repr__(self) -> str:
        return (
            f"StableMemory(name={self.name!r}, used={self._used}, "
            f"capacity={self.capacity_bytes})"
        )
