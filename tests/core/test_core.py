"""Tests for the pgFMU core: catalogue, instance management, UDFs, parest, simulate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parest import ParameterEstimator
from repro.data.loaders import load_dataset
from repro.data.nist import generate_hp1_dataset
from repro.data.synthetic import scale_dataset
from repro.errors import (
    DuplicateInstanceError,
    PgFmuError,
    SimulationInputError,
    UnknownInstanceError,
    UnknownModelError,
)
from repro.models.heatpump import HP1_TRUE_PARAMETERS, build_hp0_archive, hp0_source, hp1_source


# --------------------------------------------------------------------------- #
# Catalogue structure (Figure 4)
# --------------------------------------------------------------------------- #
class TestCatalogue:
    def test_catalogue_tables_exist(self, session):
        for table in ("model", "modelvariable", "modelinstance", "modelinstancevalues"):
            assert session.database.has_table(table)

    def test_fmu_create_populates_all_tables(self, session_with_data):
        db = session_with_data.database
        assert db.execute("SELECT count(*) FROM model").scalar() == 1
        assert db.execute("SELECT count(*) FROM modelinstance").scalar() == 1
        n_variables = db.execute("SELECT count(*) FROM modelvariable").scalar()
        assert n_variables >= 5  # Cp, R, constants, u, y, x
        assert db.execute("SELECT count(*) FROM modelinstancevalues").scalar() == n_variables

    def test_catalogue_is_queryable_with_plain_sql(self, session_with_data):
        rows = session_with_data.execute(
            "SELECT varname FROM modelvariable WHERE vartype = 'parameter' ORDER BY varname"
        ).rows
        assert [r[0] for r in rows] == ["Cp", "R"]

    def test_fmu_storage_holds_one_archive_per_model(self, session_with_data, tmp_path):
        storage = list(session_with_data.catalog.storage_dir.glob("*.fmu"))
        assert len(storage) == 1
        # A second instance of the same model must not add a new archive.
        session_with_data.instance("HP1Instance1").copy("HP1Instance2")
        assert len(list(session_with_data.catalog.storage_dir.glob("*.fmu"))) == 1


# --------------------------------------------------------------------------- #
# Instance management
# --------------------------------------------------------------------------- #
class TestInstanceManagement:
    def test_create_from_inline_modelica(self, session):
        instance = session.create(hp0_source(), "HP0Inline")
        assert instance == "HP0Inline"
        assert set(session.instances.parameter_names("HP0Inline")) == {"Cp", "R"}

    def test_create_from_fmu_file(self, session, tmp_path):
        path = tmp_path / "hp0.fmu"
        build_hp0_archive().write(path)
        instance = session.execute(f"SELECT fmu_create('{path}', 'HP0FromFile')").scalar()
        assert instance == "HP0FromFile"

    def test_swapped_arguments_accepted(self, session, tmp_path):
        mo_path = tmp_path / "hp0.mo"
        mo_path.write_text(hp0_source())
        # The paper's examples also list (instanceId, modelRef); both work.
        instance = session.create("HP0Swapped", str(mo_path))
        assert instance == "HP0Swapped"

    def test_generated_instance_id_when_omitted(self, session):
        instance = session.create(hp0_source())
        assert instance.startswith("HP0Instance")

    def test_duplicate_instance_rejected(self, session_with_data, tmp_path):
        mo_path = tmp_path / "hp1_again.mo"
        mo_path.write_text(hp1_source())
        with pytest.raises(DuplicateInstanceError):
            session_with_data.create(str(mo_path), "HP1Instance1")

    def test_same_model_reference_reuses_model_row(self, session, tmp_path):
        mo_path = tmp_path / "hp0.mo"
        mo_path.write_text(hp0_source())
        session.create(str(mo_path), "A")
        session.create(str(mo_path), "B")
        assert session.database.execute("SELECT count(*) FROM model").scalar() == 1
        assert session.database.execute("SELECT count(*) FROM modelinstance").scalar() == 2

    def test_copy_clones_values(self, session_with_data):
        session_with_data.instance("HP1Instance1").set_initial("Cp", 2.5)
        session_with_data.instance("HP1Instance1").copy("HP1Instance2")
        assert session_with_data.instance("HP1Instance2").get("Cp")["initialvalue"] == pytest.approx(2.5)

    def test_variables_and_get(self, session_with_data):
        rows = session_with_data.instance("HP1Instance1").variables()
        by_name = {row["varname"]: row for row in rows}
        assert by_name["Cp"]["vartype"] == "parameter"
        assert by_name["u"]["vartype"] == "input"
        assert by_name["y"]["vartype"] == "output"
        assert by_name["x"]["vartype"] == "state"
        values = session_with_data.instance("HP1Instance1").get("R")
        assert values["initialvalue"] == pytest.approx(1.5)
        assert values["minvalue"] == pytest.approx(0.1)
        assert values["maxvalue"] == pytest.approx(10.0)

    def test_set_initial_min_max_and_reset(self, session_with_data):
        session_with_data.instance("HP1Instance1").set_initial("Cp", 3.0)
        session_with_data.instance("HP1Instance1").set_minimum("Cp", 0.5)
        session_with_data.instance("HP1Instance1").set_maximum("Cp", 5.0)
        values = session_with_data.instance("HP1Instance1").get("Cp")
        assert values["initialvalue"] == pytest.approx(3.0)
        assert values["minvalue"] == pytest.approx(0.5)
        assert values["maxvalue"] == pytest.approx(5.0)
        session_with_data.instance("HP1Instance1").reset()
        assert session_with_data.instance("HP1Instance1").get("Cp")["initialvalue"] == pytest.approx(1.5)

    def test_set_unknown_variable_rejected(self, session_with_data):
        with pytest.raises(PgFmuError):
            session_with_data.instance("HP1Instance1").set_initial("ghost", 1.0)

    def test_delete_instance_and_model(self, session_with_data):
        model_id = session_with_data.instances.model_id_of("HP1Instance1")
        session_with_data.instance("HP1Instance1").copy("HP1Instance2")
        session_with_data.instance("HP1Instance2").delete()
        with pytest.raises(UnknownInstanceError):
            session_with_data.instance("HP1Instance2").variables()
        session_with_data.model(model_id).delete()
        assert session_with_data.database.execute("SELECT count(*) FROM model").scalar() == 0
        assert session_with_data.database.execute("SELECT count(*) FROM modelinstancevalues").scalar() == 0
        with pytest.raises(UnknownModelError):
            session_with_data.model(model_id).delete()

    def test_unknown_instance_errors(self, session):
        with pytest.raises(UnknownInstanceError):
            session.instance("ghost").variables()
        with pytest.raises(UnknownInstanceError):
            session.instance("ghost").reset()


# --------------------------------------------------------------------------- #
# SQL UDF surface (the paper's example queries)
# --------------------------------------------------------------------------- #
class TestSqlUdfSurface:
    def test_fmu_variables_where_filter(self, session_with_data):
        result = session_with_data.execute(
            "SELECT * FROM fmu_variables('HP1Instance1') AS f WHERE f.vartype = 'parameter'"
        )
        assert sorted(row[1] for row in result.rows) == ["Cp", "R"]

    def test_fmu_get_and_setters_via_sql(self, session_with_data):
        session_with_data.execute("SELECT fmu_set_initial('HP1Instance1', 'Cp', 2)")
        session_with_data.execute("SELECT fmu_set_minimum('HP1Instance1', 'Cp', 1)")
        session_with_data.execute("SELECT fmu_set_maximum('HP1Instance1', 'Cp', 4)")
        row = session_with_data.execute("SELECT * FROM fmu_get('HP1Instance1', 'Cp')").rows[0]
        assert row == [2.0, 1.0, 4.0]

    def test_fmu_simulate_long_format(self, session_with_data):
        result = session_with_data.execute(
            "SELECT simulationtime, instanceid, varname, value "
            "FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements') "
            "WHERE varname IN ('y', 'x') ORDER BY simulationtime LIMIT 6"
        )
        assert result.columns == ["simulationtime", "instanceid", "varname", "value"]
        assert len(result) == 6
        assert set(row[2] for row in result.rows) == {"x", "y"}

    def test_lateral_multi_instance_simulation(self, session_with_data):
        session_with_data.execute("SELECT fmu_copy('HP1Instance1', 'HP1Instance2')")
        result = session_with_data.execute(
            "SELECT id, count(*) AS n FROM generate_series(1, 2) AS id, "
            "LATERAL fmu_simulate('HP1Instance' || id::text, 'SELECT * FROM measurements') AS f "
            "GROUP BY id ORDER BY id"
        )
        counts = [row[1] for row in result.rows]
        assert len(counts) == 2 and counts[0] == counts[1] > 0

    def test_fmu_models_and_instances_catalog_functions(self, session_with_data):
        models = session_with_data.execute("SELECT * FROM fmu_models()")
        instances = session_with_data.execute("SELECT * FROM fmu_instances()")
        assert len(models) == 1
        assert len(instances) == 1

    def test_fmu_parest_sql_returns_error_array(self, session_with_data):
        errors = session_with_data.execute(
            "SELECT fmu_parest('{HP1Instance1}', '{SELECT * FROM measurements}', '{Cp, R}')"
        ).scalar()
        assert errors.startswith("{") and errors.endswith("}")
        assert float(errors.strip("{}")) < 0.2

    def test_nested_composition_query(self, session_with_data, tmp_path):
        mo_path = tmp_path / "hp1_nested.mo"
        mo_path.write_text(hp1_source().replace("model HP1", "model HP1N").replace("end HP1;", "end HP1N;"))
        session_with_data.execute(f"SELECT fmu_create('{mo_path}', 'HPNested')")
        result = session_with_data.execute(
            "SELECT count(*) FROM fmu_simulate("
            "fmu_calibrate('HPNested', 'SELECT * FROM measurements', '{Cp, R}'), "
            "'SELECT * FROM measurements')"
        )
        assert result.scalar() > 0


# --------------------------------------------------------------------------- #
# Parameter estimation (Algorithms 2 and 3)
# --------------------------------------------------------------------------- #
class TestParest:
    def test_single_instance_recovers_parameters(self, session_with_data):
        outcomes = session_with_data.parest(
            ["HP1Instance1"], ["SELECT * FROM measurements"], parameters=["Cp", "R"]
        )
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.error < 0.1
        assert outcome.parameters["Cp"] == pytest.approx(HP1_TRUE_PARAMETERS["Cp"], abs=0.1)
        # The catalogue now holds the calibrated values.
        stored = session_with_data.instance_parameters("HP1Instance1")
        assert stored["Cp"] == pytest.approx(outcome.parameters["Cp"])

    def test_mi_optimization_uses_warm_start_for_similar_data(self, session_with_data, hp1_week_dataset):
        similar = scale_dataset(hp1_week_dataset, 1.05, columns=["x", "y"])
        load_dataset(session_with_data.database, similar, table_name="measurements_2")
        session_with_data.instance("HP1Instance1").copy("HP1Instance2")
        outcomes = session_with_data.parest(
            ["HP1Instance1", "HP1Instance2"],
            ["SELECT * FROM measurements", "SELECT * FROM measurements_2"],
            parameters=["Cp", "R"],
        )
        assert outcomes[0].used_mi_optimization is False
        assert outcomes[1].used_mi_optimization is True
        assert outcomes[1].dissimilarity < 0.2
        assert outcomes[1].global_time == 0.0
        assert outcomes[1].n_evaluations < outcomes[0].n_evaluations

    def test_mi_optimization_skipped_for_dissimilar_data(self, session_with_data, hp1_week_dataset):
        dissimilar = scale_dataset(hp1_week_dataset, 1.6, columns=["x", "y"])
        load_dataset(session_with_data.database, dissimilar, table_name="measurements_3")
        session_with_data.instance("HP1Instance1").copy("HP1Instance3")
        outcomes = session_with_data.parest(
            ["HP1Instance1", "HP1Instance3"],
            ["SELECT * FROM measurements", "SELECT * FROM measurements_3"],
            parameters=["Cp", "R"],
        )
        assert outcomes[1].used_mi_optimization is False
        assert outcomes[1].dissimilarity >= 0.2

    def test_pgfmu_minus_disables_mi_optimization(self, session_with_data, hp1_week_dataset):
        similar = scale_dataset(hp1_week_dataset, 1.03, columns=["x", "y"])
        load_dataset(session_with_data.database, similar, table_name="measurements_4")
        session_with_data.instance("HP1Instance1").copy("HP1Instance4")
        outcomes = session_with_data.parest(
            ["HP1Instance1", "HP1Instance4"],
            ["SELECT * FROM measurements", "SELECT * FROM measurements_4"],
            parameters=["Cp", "R"],
            use_mi_optimization=False,
        )
        assert all(not outcome.used_mi_optimization for outcome in outcomes)

    def test_mismatched_arguments_rejected(self, session_with_data):
        with pytest.raises(PgFmuError):
            session_with_data.parest(["HP1Instance1"], [])
        with pytest.raises(PgFmuError):
            session_with_data.parest([], [])

    def test_empty_measurement_query_rejected(self, session_with_data):
        session_with_data.execute("CREATE TABLE empty_measurements (time double precision, x double precision)")
        with pytest.raises(PgFmuError):
            session_with_data.parest(
                ["HP1Instance1"], ["SELECT * FROM empty_measurements"], parameters=["Cp"]
            )

    def test_dissimilarity_measure(self):
        from repro.estimation.objective import MeasurementSet

        a = MeasurementSet(time=np.arange(5.0), series={"x": np.ones(5)})
        b = MeasurementSet(time=np.arange(5.0), series={"x": np.ones(5) * 1.1})
        assert ParameterEstimator.measurement_dissimilarity(a, b) == pytest.approx(0.1)
        assert ParameterEstimator.measurement_dissimilarity(None, b) == float("inf")


# --------------------------------------------------------------------------- #
# Simulation (Algorithm 4)
# --------------------------------------------------------------------------- #
class TestSimulate:
    def test_simulation_result_and_rows_agree(self, session_with_data):
        result = session_with_data.simulate("HP1Instance1", "SELECT * FROM measurements")
        rows = session_with_data.instance("HP1Instance1").simulate_rows("SELECT * FROM measurements")
        assert len(rows) == len(result.time) * 2  # x and y
        assert rows[0][1] == "HP1Instance1"

    def test_time_window_restriction(self, session_with_data):
        result = session_with_data.simulate(
            "HP1Instance1", "SELECT * FROM measurements", time_from=10.0, time_to=20.0
        )
        assert result.time[0] >= 10.0
        assert result.time[-1] <= 20.0

    def test_missing_inputs_rejected(self, session_with_data):
        with pytest.raises(SimulationInputError):
            session_with_data.simulate("HP1Instance1")

    def test_input_query_without_time_column_rejected(self, session_with_data):
        session_with_data.execute("CREATE TABLE no_time (u double precision)")
        session_with_data.execute("INSERT INTO no_time VALUES (0.5)")
        with pytest.raises(SimulationInputError):
            session_with_data.simulate("HP1Instance1", "SELECT * FROM no_time")

    def test_simulation_without_inputs_uses_default_experiment(self, session, tmp_path):
        mo_path = tmp_path / "hp0.mo"
        mo_path.write_text(hp0_source())
        session.create(str(mo_path), "HP0NoInputs")
        result = session.simulate("HP0NoInputs")
        assert len(result.time) > 2

    def test_calibrated_simulation_matches_measurements(self, session_with_data, hp1_week_dataset):
        session_with_data.parest(
            ["HP1Instance1"], ["SELECT * FROM measurements"], parameters=["Cp", "R"]
        )
        result = session_with_data.simulate("HP1Instance1", "SELECT * FROM measurements")
        measured = hp1_week_dataset["x"]
        simulated = np.interp(hp1_week_dataset.time, result.time, result["x"])
        # The simulation starts from the catalogue's initial x (20 degC), so
        # allow a start-up transient; after it, the fit should be tight.
        tail_error = np.sqrt(np.mean((measured[24:] - simulated[24:]) ** 2))
        assert tail_error < 0.3
