# repro-check: module=repro.db.fixture_good
"""RC04 good fixture: narrow catches, or broad catches that re-raise."""


class FixtureError(Exception):
    pass


def narrow(action):
    try:
        action()
    except FixtureError:
        return None


def cleanup_then_reraise(action, resource):
    try:
        action()
    except BaseException:
        resource.close()
        raise


def transform(action):
    try:
        action()
    except Exception as exc:
        raise FixtureError("wrapped") from exc
