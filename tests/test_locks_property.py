"""Property-based tests on the lock manager's safety invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import LockManager, LockMode

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
