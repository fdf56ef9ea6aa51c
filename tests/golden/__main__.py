"""``python -m tests.golden`` rebuilds every golden file;
``python -m tests.golden --check-host LOG`` compares the exact counters of
the host run whose log is ``LOG`` with ``host_quick_counters.json``."""

import argparse

from tests.golden import check_host, regenerate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check-host", metavar="LOG")
    args = parser.parse_args()
    if args.check_host:
        return check_host(args.check_host)
    regenerate()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
