"""Property-based tests on the lock manager's safety invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import LockManager, LockMode
from repro.concurrency.locks import covers, join

MODES = [
    LockMode.INTENT_SHARED,
    LockMode.INTENT_EXCLUSIVE,
    LockMode.SHARED,
    LockMode.EXCLUSIVE,
]

action_strategy = st.one_of(
    st.tuples(
        st.just("acquire"),
        st.integers(1, 5),  # txn
        st.integers(0, 3),  # resource
        st.sampled_from(MODES),
    ),
    st.tuples(
        st.just("release_all"),
        st.integers(1, 5),
        st.just(0),
        st.just(LockMode.SHARED),
    ),
)


def _table(lm: LockManager) -> dict:
    return {resource: dict(holders) for resource, holders in lm._holders.items()}


def _holders_compatible(lm: LockManager) -> bool:
    for holders in _table(lm).values():
        modes = list(holders.values())
        for i, mode_a in enumerate(modes):
            for mode_b in modes[i + 1 :]:
                if not mode_a.compatible_with(mode_b):
                    return False
    return True


def _apply(lm: LockManager, action, txn, resource, mode) -> None:
    if action == "acquire":
        lm.acquire(txn, resource, mode)
    else:
        lm.release_all(txn)


@settings(max_examples=120, deadline=None)
@given(st.lists(action_strategy, max_size=60))
def test_no_incompatible_holders_ever(actions):
    """Safety: at no point do two transactions hold incompatible modes on
    the same resource, no matter the request/release interleaving."""
    lm = LockManager()
    for step in actions:
        _apply(lm, *step)
        assert _holders_compatible(lm)


@settings(max_examples=80, deadline=None)
@given(st.lists(action_strategy, max_size=50))
def test_release_all_always_unblocks_everything(actions):
    """After every transaction releases, the table is empty — no holder
    and no leaked empty entry — so any fresh request is granted."""
    lm = LockManager()
    for step in actions:
        _apply(lm, *step)
    for txn in range(1, 6):
        lm.release_all(txn)
    assert _table(lm) == {}
    for resource in range(4):
        assert lm.acquire(99, resource, LockMode.EXCLUSIVE)
    lm.release_all(99)
    assert _table(lm) == {}


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.sampled_from(MODES)),
        min_size=1,
        max_size=20,
    )
)
def test_holds_is_consistent_with_grants(requests):
    """A granted request is immediately visible through holds(); a
    refused one leaves the table exactly as it was."""
    lm = LockManager()
    for txn, mode in requests:
        before = _table(lm)
        if lm.acquire(txn, "r", mode):
            assert lm.holds(txn, "r", mode)
        else:
            assert _table(lm) == before


class _ReferenceLockManager(LockManager):
    """The lock manager's earlier ``acquire``, kept verbatim as the
    reference the one-probe version must agree with."""

    def acquire(self, txn_id, resource, mode):
        holders = self._holders.get(resource)
        held = holders.get(txn_id) if holders else None
        if held is None or not _reference_covers(held, mode):
            wanted = mode if held is None else _reference_join(held, mode)
            if holders is None:
                self._holders[resource] = {txn_id: wanted}
            elif all(
                wanted.compatible_with(other)
                for holder, other in holders.items()
                if holder != txn_id
            ):
                holders[txn_id] = wanted
            else:
                return False
            self._held_by_txn.setdefault(txn_id, set()).add(resource)
        return True


_REFERENCE_STRENGTH = {
    LockMode.INTENT_SHARED: 0,
    LockMode.INTENT_EXCLUSIVE: 1,
    LockMode.SHARED: 1,
    LockMode.EXCLUSIVE: 2,
}


def _reference_join(a, b):
    if a is b:
        return a
    if _REFERENCE_STRENGTH[a] < _REFERENCE_STRENGTH[b]:
        a, b = b, a
    if _REFERENCE_STRENGTH[a] > _REFERENCE_STRENGTH[b]:
        if a is LockMode.EXCLUSIVE or b is LockMode.INTENT_SHARED:
            return a
    return LockMode.EXCLUSIVE


def _reference_covers(held, wanted):
    if held is wanted:
        return True
    if held is LockMode.EXCLUSIVE:
        return True
    if held is LockMode.SHARED and wanted is LockMode.INTENT_SHARED:
        return True
    if held is LockMode.INTENT_EXCLUSIVE and wanted is LockMode.INTENT_SHARED:
        return True
    return False


def _tables(lm: LockManager) -> tuple[list, list]:
    """Both tables as ordered lists, so insertion order is compared too."""
    holders = [(resource, list(held.items())) for resource, held in lm._holders.items()]
    return holders, [(txn, set(resources)) for txn, resources in lm._held_by_txn.items()]


def test_covers_and_join_agree_with_the_reference_tables():
    for held in MODES:
        for wanted in MODES:
            assert covers(held, wanted) is _reference_covers(held, wanted)
            assert join(held, wanted) is _reference_join(held, wanted)


@settings(max_examples=200, deadline=None)
@given(st.lists(action_strategy, max_size=80))
def test_acquire_matches_the_reference(actions):
    """Differential: over any request/release sequence the one-probe
    ``acquire`` grants and refuses exactly what the reference does, and
    leaves the same holder and per-transaction tables, in the same order."""
    lm, reference = LockManager(), _ReferenceLockManager()
    for action, txn, resource, mode in actions:
        if action == "acquire":
            assert lm.acquire(txn, resource, mode) == reference.acquire(txn, resource, mode)
        else:
            lm.release_all(txn)
            reference.release_all(txn)
        assert _tables(lm) == _tables(reference)
