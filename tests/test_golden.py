"""The frozen outputs equal their golden copies (tests/golden/).

A torture record, a Table-2 row or a simulated Graph 1-3 figure that moves
fails here with the record or line that moved, and so does a crash point
the torture batches newly leave unpassed.  ``python -m tests.golden``
rebuilds the files when a change moves one on purpose.
"""

import json

from repro.sim.torture import TortureHarness
from tests.golden import SIM_TABLES, TORTURE, TORTURE_UNPASSED, sim_tables, torture_records


def test_torture_records_are_golden():
    with open(TORTURE, encoding="utf-8") as handle:
        golden = [json.loads(line) for line in handle]
    harness = TortureHarness()
    records = torture_records(harness)
    assert len(records) == len(golden)
    for number, (record, expected) in enumerate(zip(records, golden), 1):
        moved = {
            field: (expected[field], record.get(field))
            for field in expected
            if record.get(field) != expected[field]
        }
        assert not moved and record.keys() == expected.keys(), (number, expected, moved)
    assert harness.unreached() == TORTURE_UNPASSED


def test_simulated_tables_are_golden():
    assert sim_tables() == SIM_TABLES.read_text(encoding="utf-8")
