"""Tests for the query layer: predicates, planning, aggregates, joins."""

import pytest

from repro import Database
from repro.common import CatalogError
from repro.db import hash_join, nested_loop_join


@pytest.fixture()
def db():
    database = Database()
    employees = database.create_relation(
        "employees",
        [("id", "int"), ("dept", "int"), ("salary", "int"), ("name", "str")],
        primary_key="id",
    )
    database.create_index("emp_by_salary", "employees", "salary", kind="ttree")
    database.create_index("emp_by_dept", "employees", "dept", kind="hash")
    departments = database.create_relation(
        "departments", [("did", "int"), ("dname", "str")], primary_key="did"
    )
    with database.transaction() as txn:
        for did, dname in [(1, "eng"), (2, "sales"), (3, "empty")]:
            departments.insert(txn, {"did": did, "dname": dname})
        rows = [
            (1, 1, 100, "ada"),
            (2, 1, 120, "grace"),
            (3, 2, 90, "edsger"),
            (4, 2, 110, "barbara"),
            (5, 1, 100, "alan"),
        ]
        for id_, dept, salary, name in rows:
            employees.insert(
                txn, {"id": id_, "dept": dept, "salary": salary, "name": name}
            )
    return database


class TestPredicates:
    def test_equality(self, db):
        with db.transaction() as txn:
            out = db.table("employees").query().where("dept", "==", 1).execute(txn)
        assert sorted(r["id"] for r in out) == [1, 2, 5]

    def test_comparisons(self, db):
        with db.transaction() as txn:
            q = db.table("employees").query().where("salary", ">=", 110)
            out = q.execute(txn)
        assert sorted(r["name"] for r in out) == ["barbara", "grace"]

    def test_conjunction(self, db):
        with db.transaction() as txn:
            out = (
                db.table("employees")
                .query()
                .where("dept", "==", 1)
                .where("salary", ">", 100)
                .execute(txn)
            )
        assert [r["name"] for r in out] == ["grace"]

    def test_not_equal(self, db):
        with db.transaction() as txn:
            out = db.table("employees").query().where("dept", "!=", 1).execute(txn)
        assert sorted(r["id"] for r in out) == [3, 4]

    def test_projection(self, db):
        with db.transaction() as txn:
            out = (
                db.table("employees")
                .query()
                .where("id", "==", 1)
                .select("name", "salary")
                .execute(txn)
            )
        assert out == [{"name": "ada", "salary": 100}]

    def test_unknown_field_rejected(self, db):
        with pytest.raises(CatalogError):
            db.table("employees").query().where("ghost", "==", 1)

    def test_unknown_operator_rejected(self, db):
        with pytest.raises(CatalogError):
            db.table("employees").query().where("id", "~=", 1)

    def test_empty_result(self, db):
        with db.transaction() as txn:
            out = db.table("employees").query().where("salary", ">", 10_000).execute(txn)
        assert out == []


class TestPlanner:
    def test_equality_on_indexed_field_uses_index(self, db):
        q = db.table("employees").query().where("dept", "==", 1)
        assert "index lookup on emp_by_dept" in q.explain()

    def test_primary_key_equality_uses_pk_index(self, db):
        q = db.table("employees").query().where("id", "==", 3)
        assert "index lookup on employees__pk" in q.explain()

    def test_range_on_ttree_field_uses_range_scan(self, db):
        q = db.table("employees").query().where("salary", ">=", 100)
        assert "index range scan on emp_by_salary" in q.explain()

    def test_range_on_hash_field_falls_back_to_scan(self, db):
        q = db.table("employees").query().where("dept", ">", 1)
        assert "full scan" in q.explain()

    def test_unindexed_field_scans(self, db):
        q = db.table("employees").query().where("name", "==", "ada")
        assert "full scan" in q.explain()

    def test_all_paths_agree(self, db):
        """Whatever the path, the answers match a brute-force filter."""
        with db.transaction() as txn:
            everything = list(db.table("employees").scan(txn))
        cases = [
            ("dept", "==", 1),
            ("salary", ">=", 100),
            ("salary", "<", 100),
            ("name", "==", "alan"),
            ("id", "==", 4),
        ]
        import operator as op_mod

        ops = {"==": op_mod.eq, ">=": op_mod.ge, "<": op_mod.lt}
        for field, op, value in cases:
            with db.transaction() as txn:
                got = sorted(
                    r["id"]
                    for r in db.table("employees").query().where(field, op, value).execute(txn)
                )
            want = sorted(r["id"] for r in everything if ops[op](r[field], value))
            assert got == want, (field, op, value)


class TestAggregates:
    def test_count(self, db):
        with db.transaction() as txn:
            assert db.table("employees").query().count(txn) == 5
            assert (
                db.table("employees").query().where("dept", "==", 2).count(txn) == 2
            )

    def test_sum_min_max_avg(self, db):
        with db.transaction() as txn:
            q = db.table("employees").query().where("dept", "==", 1)
            assert q.sum(txn, "salary") == 320
            assert q.min(txn, "salary") == 100
            assert q.max(txn, "salary") == 120
            assert q.avg(txn, "salary") == pytest.approx(320 / 3)

    def test_aggregates_on_empty(self, db):
        with db.transaction() as txn:
            q = db.table("employees").query().where("dept", "==", 99)
            assert q.sum(txn, "salary") == 0
            assert q.min(txn, "salary") is None
            assert q.max(txn, "salary") is None
            assert q.avg(txn, "salary") is None


class TestJoins:
    def test_hash_join(self, db):
        with db.transaction() as txn:
            out = hash_join(
                txn,
                db.table("departments").query(),
                db.table("employees").query(),
                on=("did", "dept"),
            )
        assert len(out) == 5
        eng = [r for r in out if r["l_dname"] == "eng"]
        assert sorted(r["r_name"] for r in eng) == ["ada", "alan", "grace"]

    def test_hash_join_with_filters(self, db):
        with db.transaction() as txn:
            out = hash_join(
                txn,
                db.table("departments").query().where("dname", "==", "sales"),
                db.table("employees").query().where("salary", ">", 100),
                on=("did", "dept"),
            )
        assert [r["r_name"] for r in out] == ["barbara"]

    def test_unmatched_rows_dropped(self, db):
        with db.transaction() as txn:
            out = hash_join(
                txn,
                db.table("departments").query(),
                db.table("employees").query(),
                on=("did", "dept"),
            )
        assert not any(r["l_dname"] == "empty" for r in out)

    def test_nested_loop_join_arbitrary_predicate(self, db):
        with db.transaction() as txn:
            out = nested_loop_join(
                txn,
                db.table("employees").query(),
                db.table("employees").query(),
                predicate=lambda a, b: a["salary"] == b["salary"]
                and a["id"] < b["id"],
            )
        # salary ties: (ada, alan) at 100
        assert len(out) == 1
        assert out[0]["l_name"] == "ada"
        assert out[0]["r_name"] == "alan"

    def test_joins_agree(self, db):
        with db.transaction() as txn:
            hashed = hash_join(
                txn,
                db.table("departments").query(),
                db.table("employees").query(),
                on=("did", "dept"),
            )
            looped = nested_loop_join(
                txn,
                db.table("departments").query(),
                db.table("employees").query(),
                predicate=lambda d, e: d["did"] == e["dept"],
            )
        key = lambda r: (r["l_did"], r["r_id"])  # noqa: E731
        assert sorted(hashed, key=key) == sorted(looped, key=key)

    def test_unknown_join_field_rejected(self, db):
        with pytest.raises(CatalogError):
            with db.transaction() as txn:
                hash_join(
                    txn,
                    db.table("departments").query(),
                    db.table("employees").query(),
                    on=("ghost", "dept"),
                )


class TestQueryAfterRecovery:
    def test_planner_and_results_survive_crash(self, db):
        from repro import RecoveryMode

        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        q = db.table("employees").query().where("salary", ">=", 110)
        assert "index range scan" in q.explain()
        with db.transaction() as txn:
            out = q.execute(txn)
        assert sorted(r["name"] for r in out) == ["barbara", "grace"]


class TestBulkDml:
    """``update_where`` / ``delete_where``: a predicate's matches, changed
    in one transaction."""

    @staticmethod
    def salaries(db):
        with db.transaction() as txn:
            return {r["name"]: r["salary"] for r in db.table("employees").scan(txn)}

    def test_update_where(self, db):
        with db.transaction() as txn:
            changed = db.table("employees").update_where(
                txn, "salary", ">=", 110, {"salary": 0}
            )
        assert changed == 2
        assert self.salaries(db) == {
            "ada": 100, "grace": 0, "edsger": 90, "barbara": 0, "alan": 100
        }

    def test_delete_where(self, db):
        with db.transaction() as txn:
            deleted = db.table("employees").delete_where(txn, "id", ">", 1)
        assert deleted == 4
        assert set(self.salaries(db)) == {"ada"}

    def test_bulk_dml_survives_crash(self, db):
        with db.transaction() as txn:
            db.table("employees").update_where(txn, "id", ">=", 0, {"salary": 777})
        db.crash()
        db.restart()
        assert set(self.salaries(db).values()) == {777}
