"""Tests for the layered public API: driver round-trips, fluent handles,
the extension registry, and batch simulation."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import InstanceHandle, ModelHandle, Session
from repro.core.udfs import parse_parest_arguments
from repro.errors import PgFmuError, UnknownInstanceError
from repro.data.loaders import load_dataset
from repro.data.nist import generate_hp1_dataset
from repro.models.heatpump import hp1_source
from repro.sqldb import Database
from repro.sqldb.udf import Extension, scalar_udf, table_udf


# --------------------------------------------------------------------------- #
# Driver layer: repro.connect() round trip
# --------------------------------------------------------------------------- #
class TestConnectRoundTrip:
    def test_connect_round_trips_create_and_simulate_via_cursor(self, tmp_path):
        conn = repro.connect(storage_dir=str(tmp_path / "fmu"), register_ml=False)
        load_dataset(conn.database, generate_hp1_dataset(hours=48, seed=3), table_name="measurements")
        cur = conn.cursor()
        cur.execute("SELECT fmu_create($1, 'HP1Instance1')", [hp1_source()])
        assert cur.fetchone() == ["HP1Instance1"]
        cur.execute(
            "SELECT count(*) FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements')"
        )
        assert cur.fetchone()[0] > 0
        conn.close()
        assert conn.closed

    def test_connection_exposes_object_layer(self, tmp_path):
        conn = repro.connect(storage_dir=str(tmp_path / "fmu"), register_ml=False)
        assert isinstance(conn.session, Session)
        inst = conn.session.create(hp1_source(), "HP1FromSession")
        assert isinstance(inst, InstanceHandle)

    def test_connect_installs_extensions(self):
        conn = repro.connect()
        assert conn.session.extensions() == ["madlib", "pgfmu"]
        assert repro.connect(register_ml=False).session.extensions() == ["pgfmu"]

    def test_session_survives_connection_close(self, tmp_path):
        with repro.connect(storage_dir=str(tmp_path / "fmu"), register_ml=False) as conn:
            session = conn.session
        assert conn.closed
        # The session mints a fresh connection; it is not killed by the close.
        assert session.execute("SELECT 1 + 1").scalar() == 2
        assert not session.connection().closed


# --------------------------------------------------------------------------- #
# Object layer: fluent handles
# --------------------------------------------------------------------------- #
class TestHandles:
    def test_create_returns_string_compatible_handle(self, session):
        inst = session.create(hp1_source(), "HP1Instance1")
        assert isinstance(inst, InstanceHandle)
        assert isinstance(inst, str)
        assert inst == "HP1Instance1"
        assert inst.id == "HP1Instance1"

    def test_fluent_chain_mutates_catalogue(self, session_with_data):
        inst = session_with_data.instance("HP1Instance1")
        result = (
            inst.set_initial("Cp", 2.0)
                .set_bounds("R", 0.2, 8.0)
                .simulate("SELECT * FROM measurements")
        )
        assert len(result.time) > 2
        values = inst.get("Cp")
        assert values["initialvalue"] == pytest.approx(2.0)
        bounds = inst.get("R")
        assert bounds["minvalue"] == pytest.approx(0.2)
        assert bounds["maxvalue"] == pytest.approx(8.0)
        inst.reset()
        assert inst.get("Cp")["initialvalue"] == pytest.approx(1.5)

    def test_calibrate_is_fluent_and_records_outcome(self, session_with_data):
        inst = session_with_data.instance("HP1Instance1")
        returned = inst.calibrate(
            measurements="SELECT * FROM measurements", parameters=["Cp", "R"]
        )
        assert returned is inst
        assert inst.last_calibration is not None
        assert inst.last_calibration.error < 0.2
        assert set(inst.parameters) == {"Cp", "R"}

    def test_copy_and_delete(self, session_with_data):
        inst = session_with_data.instance("HP1Instance1")
        clone = inst.copy("HP1Instance2")
        assert isinstance(clone, InstanceHandle)
        assert clone == "HP1Instance2"
        assert clone.delete() == "HP1Instance2"
        with pytest.raises(UnknownInstanceError):
            session_with_data.instance("HP1Instance2")

    def test_model_handle_navigation(self, session_with_data):
        inst = session_with_data.instance("HP1Instance1")
        model = inst.model
        assert isinstance(model, ModelHandle)
        assert model.name == "HP1"
        assert inst in model.instances()
        extra = model.new_instance("HP1Extra")
        assert extra == "HP1Extra"
        assert len(model.instances()) == 2
        assert session_with_data.models() == [model]

    def test_unknown_instance_handle_rejected(self, session):
        with pytest.raises(UnknownInstanceError):
            session.instance("ghost")


# --------------------------------------------------------------------------- #
# Batch simulation
# --------------------------------------------------------------------------- #
class TestSimulateMany:
    def test_simulate_many_matches_sequential_simulate(self, session_with_data):
        inst = session_with_data.instance("HP1Instance1")
        inst.copy("HP1Instance2").set_initial("Cp", 2.2)
        batch = session_with_data.simulate_many(
            ["HP1Instance1", "HP1Instance2"], "SELECT * FROM measurements"
        )
        assert sorted(batch) == ["HP1Instance1", "HP1Instance2"]
        for instance_id, result in batch.items():
            single = session_with_data.simulate(instance_id, "SELECT * FROM measurements")
            np.testing.assert_allclose(result.time, single.time)
            np.testing.assert_allclose(result["x"], single["x"])

    def test_simulate_many_deduplicates_ids(self, session_with_data):
        batch = session_with_data.simulate_many(
            ["HP1Instance1", "HP1Instance1"], "SELECT * FROM measurements"
        )
        assert list(batch) == ["HP1Instance1"]

    def test_prepared_inputs_bindings_are_keyed_by_exact_names(self):
        from repro.core.simulate import _PreparedInputs

        prepared = _PreparedInputs([
            {"time": 0.0, "u": 0.5},
            {"time": 1.0, "u": 0.6},
        ])
        lower, _ = prepared.bind({"u"})
        upper, _ = prepared.bind({"U"})
        assert set(lower) == {"u"}
        assert set(upper) == {"U"}

    def test_fmu_simulate_accepts_array_literal(self, session_with_data):
        session_with_data.instance("HP1Instance1").copy("HP1Instance2")
        batch = session_with_data.execute(
            "SELECT instanceid, count(*) AS n "
            "FROM fmu_simulate('{HP1Instance1, HP1Instance2}', 'SELECT * FROM measurements') "
            "GROUP BY instanceid ORDER BY instanceid"
        ).rows
        single = session_with_data.execute(
            "SELECT count(*) FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements')"
        ).scalar()
        assert [row[0] for row in batch] == ["HP1Instance1", "HP1Instance2"]
        assert all(row[1] == single for row in batch)

    def test_fmu_simulate_array_overload_deduplicates_like_simulate_many(
        self, session_with_data
    ):
        duplicated = session_with_data.execute(
            "SELECT count(*) FROM fmu_simulate('{HP1Instance1, HP1Instance1}', "
            "'SELECT * FROM measurements')"
        ).scalar()
        single = session_with_data.execute(
            "SELECT count(*) FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements')"
        ).scalar()
        assert duplicated == single

    def test_fmu_simulate_empty_array_rejected(self, session_with_data):
        with pytest.raises(PgFmuError):
            session_with_data.execute("SELECT * FROM fmu_simulate('{}')")

    def test_brace_named_instance_is_not_parsed_as_array(self, session_with_data):
        # Instance ids are unvalidated strings, so '{house}' is a legal name;
        # the batch overload must not hijack it.
        session_with_data.instance("HP1Instance1").copy("{house}")
        rows = session_with_data.execute(
            "SELECT DISTINCT instanceid FROM fmu_simulate('{house}', "
            "'SELECT * FROM measurements')"
        ).rows
        assert rows == [["{house}"]]


class TestTransactionalCatalogue:
    def test_rolled_back_delete_model_keeps_instances_simulable(self, session_with_data):
        conn = session_with_data.connection()
        model_id = session_with_data.instances.model_id_of("HP1Instance1")
        conn.begin()
        conn.execute("SELECT fmu_delete_model($1)", [model_id])
        assert session_with_data.instance_ids() == []
        conn.rollback()
        # Rows are restored AND the FMU archive is still loadable (the file
        # unlink is deferred to commit).
        assert session_with_data.instance_ids() == ["HP1Instance1"]
        result = session_with_data.simulate("HP1Instance1", "SELECT * FROM measurements")
        assert len(result.time) > 2

    def test_committed_delete_model_removes_archive(self, session_with_data):
        conn = session_with_data.connection()
        model_id = session_with_data.instances.model_id_of("HP1Instance1")
        conn.begin()
        conn.execute("SELECT fmu_delete_model($1)", [model_id])
        conn.commit()
        assert list(session_with_data.catalog.storage_dir.glob("*.fmu")) == []

    def test_rolled_back_fmu_create_removes_written_archive(self, session, tmp_path):
        conn = session.connection()
        mo_path = tmp_path / "hp1_txn.mo"
        mo_path.write_text(hp1_source())
        conn.begin()
        conn.execute(f"SELECT fmu_create('{mo_path}', 'TxnInstance')")
        assert len(list(session.catalog.storage_dir.glob("*.fmu"))) == 1
        conn.rollback()
        assert session.instance_ids() == []
        assert list(session.catalog.storage_dir.glob("*.fmu")) == []

    def test_delete_then_recreate_in_one_transaction_keeps_archive(
        self, session_with_data, tmp_path
    ):
        conn = session_with_data.connection()
        model_id = session_with_data.instances.model_id_of("HP1Instance1")
        mo_path = tmp_path / "hp1_recreate.mo"
        mo_path.write_text(hp1_source())
        conn.begin()
        conn.execute("SELECT fmu_delete_model($1)", [model_id])
        conn.execute(f"SELECT fmu_create('{mo_path}', 'HP1Reborn')")
        conn.commit()
        # The stale unlink hook must not delete the re-created archive.
        result = session_with_data.simulate("HP1Reborn", "SELECT * FROM measurements")
        assert len(result.time) > 2


# --------------------------------------------------------------------------- #
# Extension layer
# --------------------------------------------------------------------------- #
class TestExtensions:
    def test_install_madlib_is_the_only_ml_registration_path(self):
        db = Database()
        assert db.udfs.scalar("arima_train") is None
        db.install_extension("madlib")
        assert db.udfs.scalar("arima_train") is not None
        assert db.udfs.table("arima_forecast") is not None
        assert db.has_extension("madlib")

    def test_session_register_ml_flag_is_shimmed_onto_install(self, tmp_path):
        with_ml = Session(storage_dir=str(tmp_path / "a"), register_ml=True)
        without_ml = Session(storage_dir=str(tmp_path / "b"), register_ml=False)
        assert with_ml.database.has_extension("madlib")
        assert not without_ml.database.has_extension("madlib")
        assert without_ml.database.udfs.scalar("arima_train") is None

    def test_install_by_name_is_idempotent(self):
        db = Database()
        first = db.install_extension("madlib")
        second = db.install_extension("madlib")
        assert first is second

    def test_reinstall_with_options_rejected(self):
        from repro.errors import SqlCatalogError

        db = Database()
        db.install_extension("madlib")
        with pytest.raises(SqlCatalogError, match="already installed"):
            db.install_extension("madlib", flavor="spicy")

    def test_madlib_rejects_unknown_options_on_first_install(self):
        from repro.errors import SqlCatalogError

        with pytest.raises(SqlCatalogError, match="no install options"):
            Database().install_extension("madlib", versoin="2.0")

    def test_options_with_literal_bundle_rejected(self):
        from repro.errors import SqlCatalogError
        from repro.ml.udfs import MADLIB_EXTENSION

        with pytest.raises(SqlCatalogError, match="installing by name"):
            Database().install_extension(MADLIB_EXTENSION, flavor="spicy")

    def test_engine_introspection_udf_is_name_neutral(self):
        db = Database()
        db.install_extension("madlib")
        rows = db.execute("SELECT extname FROM installed_extensions()").rows
        assert [row[0] for row in rows] == ["madlib"]
        # The fmu_ spelling belongs to the pgfmu extension, not the engine.
        assert db.udfs.table("fmu_extensions") is None

    def test_extension_names_are_case_insensitive(self):
        @scalar_udf(min_args=0, max_args=0)
        def forty_two(_db):
            return 42

        db = Database()
        db.install_extension(Extension(name="MyPack", udfs=(forty_two.__udf_spec__,)))
        assert db.has_extension("mypack") and db.has_extension("MyPack")
        assert db.extension("MYPACK").name == "mypack"
        assert db.install_extension("MyPack") is db.extension("mypack")

    def test_rolled_back_install_extension_disappears_entirely(self):
        db = Database()
        db.begin()
        db.install_extension("pgfmu")
        db.rollback()
        # Neither the UDFs, nor the catalogue entry, nor the tables survive.
        assert not db.has_extension("pgfmu")
        assert db.udfs.scalar("fmu_create") is None
        assert not db.has_table("model")
        # And the database is repairable: a fresh install works.
        db.install_extension("pgfmu")
        assert db.execute("SELECT count(*) FROM fmu_models()").scalar() == 0

    def test_install_pgfmu_on_bare_database_boots_a_session(self):
        db = Database()
        ext = db.install_extension("pgfmu")
        assert ext.name == "pgfmu"
        assert db.udfs.scalar("fmu_create") is not None
        assert db.has_table("model")  # the catalogue came with it

    def test_unknown_extension_rejected(self):
        from repro.errors import SqlCatalogError

        with pytest.raises(SqlCatalogError):
            Database().install_extension("does_not_exist")

    def test_fmu_extensions_udf_lists_installed_packs(self, session):
        rows = session.execute(
            "SELECT extname, n_udfs FROM fmu_extensions() ORDER BY extname"
        ).rows
        assert [row[0] for row in rows] == ["madlib", "pgfmu"]
        assert all(row[1] > 0 for row in rows)

    def test_udf_decorators_attach_specs(self):
        @scalar_udf(min_args=1, max_args=1, description="double a value")
        def twice(_db, value):
            return value * 2

        @table_udf(columns=["n"], min_args=0, max_args=0)
        def numbers(_db):
            """Tiny set-returning function."""
            return [[1], [2]]

        assert twice.__udf_spec__.kind == "scalar"
        assert numbers.__udf_spec__.columns == ("n",)
        assert numbers.__udf_spec__.description == "Tiny set-returning function."

        db = Database()
        db.install_extension(Extension.from_functions("custom", (twice, numbers)))
        assert db.execute("SELECT twice(21)").scalar() == 42
        assert db.execute("SELECT count(*) FROM numbers()").scalar() == 2

    def test_undecorated_function_rejected_by_bundle(self):
        from repro.errors import SqlCatalogError

        def plain(_db):
            return 1

        with pytest.raises(SqlCatalogError):
            Extension.from_functions("broken", (plain,))


# --------------------------------------------------------------------------- #
# fmu_parest argument validation (regression)
# --------------------------------------------------------------------------- #
class TestParestValidation:
    def test_mismatched_lengths_raise_with_both_lengths(self):
        with pytest.raises(PgFmuError) as excinfo:
            parse_parest_arguments("{A, B, C}", "{q1, q2}")
        message = str(excinfo.value)
        assert "3" in message and "2" in message

    def test_mismatch_raises_through_sql(self, session_with_data):
        session_with_data.instance("HP1Instance1").copy("HP1Instance2")
        with pytest.raises(PgFmuError) as excinfo:
            session_with_data.execute(
                "SELECT fmu_parest('{HP1Instance1, HP1Instance2}', "
                "'{\"SELECT 1\", \"SELECT 2\", \"SELECT 3\"}')"
            )
        assert "2" in str(excinfo.value) and "3" in str(excinfo.value)

    def test_single_query_broadcasts(self):
        ids, queries = parse_parest_arguments("{A, B}", "{SELECT * FROM m}")
        assert ids == ["A", "B"]
        assert queries == ["SELECT * FROM m"] * 2

    def test_matched_lengths_pass_through(self):
        ids, queries = parse_parest_arguments("{A, B}", '{"SELECT 1", "SELECT 2"}')
        assert queries == ["SELECT 1", "SELECT 2"]
