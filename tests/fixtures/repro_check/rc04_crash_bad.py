# repro-check: module=repro.db.fixture_crash_bad
"""RC04 bad fixture: broad handlers that roll a transaction back without
first letting a SimulatedCrash pass — abort machinery on a dead machine."""


class ReproError(Exception):
    pass


class SimulatedCrash(ReproError):
    pass


def hand_rolled_frame(begin, body):
    txn = begin()
    try:
        body(txn)
    except BaseException:
        txn.abort()
        raise
    txn.commit()


def branch_cleanup(twopc, dtxn, prepare):
    try:
        prepare(dtxn)
    except Exception:
        twopc.abort_distributed(dtxn)
        raise


def crash_caught_too_late(txn, body):
    try:
        body(txn)
    except ReproError:
        txn.abort_prepared()
        raise
    except SimulatedCrash:
        raise
