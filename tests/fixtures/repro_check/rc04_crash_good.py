# repro-check: module=repro.db.fixture_crash_good
"""RC04 good fixture: a crash passes before anything rolls back, narrow
handlers may abort freely, and the frame is delegated where possible."""


class FixtureError(Exception):
    pass


class SimulatedCrash(Exception):
    pass


def crash_passes_first(txn, body):
    try:
        body(txn)
    except SimulatedCrash:
        raise
    except BaseException:
        txn.abort()
        raise


def crash_in_a_tuple(txn, body):
    try:
        body(txn)
    except (FixtureError, SimulatedCrash):
        raise
    except Exception as exc:
        txn.abort()
        raise FixtureError("wrapped") from exc


def narrow_abort(txn, body):
    try:
        body(txn)
    except FixtureError:
        txn.abort()
        return None


def delegated(settle, txn, body):
    try:
        body(txn)
    except BaseException as error:
        settle(txn, error)
        raise
    settle(txn)
