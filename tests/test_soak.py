"""Soak test: a sustained mixed workload with periodic crashes, verified
against a model and the full integrity audit at every epoch."""

import random

from repro import Database, RecoveryMode, SystemConfig
from repro.db.integrity import verify_integrity


def soak():
    config = SystemConfig(
        log_page_size=1024,
        update_count_threshold=80,
        log_window_pages=512,
        log_window_grace_pages=32,
    )
    db = Database(config)
    rel = db.create_relation(
        "kv", [("k", "int"), ("v", "int"), ("s", "str")], primary_key="k"
    )
    db.create_index("kv_by_v", "kv", "v", kind="ttree")
    rng = random.Random(99)
    model: dict[int, tuple[int, str]] = {}
    addresses: dict[int, object] = {}
    next_key = 0

    def table():
        return db.table("kv")

    for epoch in range(4):
        for _ in range(120):
            op = rng.random()
            with db.transaction(pump=(rng.random() < 0.3)) as txn:
                if op < 0.45 or not model:
                    key = next_key
                    next_key += 1
                    value = rng.randrange(1000)
                    addresses[key] = table().insert(
                        txn, {"k": key, "v": value, "s": f"s{key}"}
                    )
                    model[key] = (value, f"s{key}")
                elif op < 0.85:
                    key = rng.choice(sorted(model))
                    value = rng.randrange(1000)
                    table().update(txn, addresses[key], {"v": value})
                    model[key] = (value, model[key][1])
                else:
                    key = rng.choice(sorted(model))
                    table().delete(txn, addresses[key])
                    del model[key]
                    del addresses[key]
        db.crash()
        db.restart(
            RecoveryMode.EAGER if epoch % 2 else RecoveryMode.ON_DEMAND
        )
        with db.transaction() as txn:
            rows = {
                row["k"]: (row["v"], row["s"]) for row in table().scan(txn)
            }
        assert rows == model, f"epoch {epoch}: state diverged"
        # secondary index agrees
        if model:
            probe_value = next(iter(model.values()))[0]
            with db.transaction() as txn:
                via_index = {
                    r["k"] for r in table().lookup_by(txn, "kv_by_v", probe_value)
                }
            expected = {k for k, (v, _) in model.items() if v == probe_value}
            assert via_index == expected
        if epoch % 2:  # audit needs full residency
            assert verify_integrity(db) == []
    assert db.checkpoints.checkpoints_taken > 0
    assert db.log_disk.pages_written > 0


def test_soak_mixed_workload_with_periodic_crashes():
    soak()
