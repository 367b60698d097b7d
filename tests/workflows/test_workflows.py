"""Tests for the baseline workflow, code metrics, scenarios and the usability study."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baseline import CODE_LINE_TABLE, PythonWorkflow, code_lines_table
from repro.baseline.code_metrics import OPERATIONS, count_effective_lines, totals
from repro.data.loaders import load_dataset
from repro.models.registry import get_model_spec
from repro.sqldb import Database
from repro.workflows import (
    PgFmuWorkflow,
    ScenarioSettings,
    UsabilityStudy,
    run_mi_scenario,
    run_si_scenario,
)
from repro.core import Session

# The global-search budget is kept well above the local-search budget so the
# cost asymmetry that drives the MI speedup is visible even at test scale.
FAST_SETTINGS = dict(
    hours=72.0,
    ga_options={"population_size": 12, "generations": 10, "patience": 6},
    local_options={"max_iterations": 10},
)


# --------------------------------------------------------------------------- #
# Code metrics (Table 1)
# --------------------------------------------------------------------------- #
class TestCodeMetrics:
    def test_all_operations_covered(self):
        assert len(CODE_LINE_TABLE) == len(OPERATIONS) == 7

    def test_count_effective_lines_skips_blank_and_comments(self):
        snippet = "\n# comment\n-- sql comment\nSELECT 1;\n\n"
        assert count_effective_lines(snippet) == 1

    def test_python_needs_an_order_of_magnitude_more_code(self):
        summary = totals()
        assert summary["python"] > 80
        assert summary["pgfmu"] <= 6
        assert summary["ratio"] > 10

    def test_every_python_operation_has_code(self):
        for row in code_lines_table():
            assert row.python_lines > 0
            assert row.packages


# --------------------------------------------------------------------------- #
# Baseline workflow (Figure 1)
# --------------------------------------------------------------------------- #
class TestPythonWorkflow:
    def _run(self, hp1_week_dataset, tmp_path):
        spec = get_model_spec("HP1")
        db = Database()
        table = load_dataset(db, hp1_week_dataset, table_name="measurements")
        workflow = PythonWorkflow(
            database=db,
            archive=spec.builder(),
            measurements_table=table,
            parameters=spec.estimated_parameters,
            ga_options=FAST_SETTINGS["ga_options"],
            local_options=FAST_SETTINGS["local_options"],
            seed=2,
            workdir=str(tmp_path),
        )
        return db, workflow.run()

    def test_runs_all_seven_steps(self, hp1_week_dataset, tmp_path):
        _, result = self._run(hp1_week_dataset, tmp_path)
        assert [s.name for s in result.steps] == [
            "load_fmu",
            "read_measurements",
            "recalibrate",
            "validate_update",
            "simulate",
            "export_predictions",
            "further_analysis",
        ]
        assert result.configuration == "python"
        assert result.training_error < 0.15
        assert result.validation_error is not None

    def test_calibration_dominates_runtime(self, hp1_week_dataset, tmp_path):
        # Population-batched estimation cut calibration's wall-clock share
        # (it used to be > 0.8 of the workflow); it still dominates every
        # other step by far.
        _, result = self._run(hp1_week_dataset, tmp_path)
        assert result.step_seconds("recalibrate") / result.total_seconds > 0.5

    def test_predictions_are_exported_to_the_database(self, hp1_week_dataset, tmp_path):
        db, _ = self._run(hp1_week_dataset, tmp_path)
        assert db.execute("SELECT count(*) FROM predictions_python").scalar() > 0

    def test_intermediate_csv_file_is_created(self, hp1_week_dataset, tmp_path):
        self._run(hp1_week_dataset, tmp_path)
        assert (tmp_path / "measurements.csv").exists()


class TestPgFmuWorkflow:
    def test_produces_comparable_results(self, hp1_week_dataset, tmp_path):
        spec = get_model_spec("HP1")
        session = Session(
            storage_dir=str(tmp_path / "storage"),
            ga_options=FAST_SETTINGS["ga_options"],
            local_options=FAST_SETTINGS["local_options"],
            seed=2,
        )
        load_dataset(session.database, hp1_week_dataset, table_name="measurements")
        workflow = PgFmuWorkflow(
            session=session,
            archive=spec.builder(),
            measurements_table="measurements",
            parameters=spec.estimated_parameters,
            instance_id="HP1Instance1",
            observed="x",
        )
        result = workflow.run()
        assert result.configuration == "pgfmu+"
        assert result.training_error < 0.15
        assert result.step_seconds("export_predictions") < 0.01  # nothing to export
        assert result.parameters["Cp"] == pytest.approx(1.49, abs=0.12)


# --------------------------------------------------------------------------- #
# Scenario runners
# --------------------------------------------------------------------------- #
class TestScenarios:
    def test_si_scenario_quality_matches_across_configurations(self):
        settings = ScenarioSettings(model_name="HP1", **FAST_SETTINGS)
        outcome = run_si_scenario(settings)
        errors = [r.training_error for r in outcome.results().values()]
        # Same calibration stack and seed in every configuration -> same error.
        assert max(errors) - min(errors) < 1e-6
        for result in outcome.results().values():
            assert result.parameters["Cp"] == pytest.approx(1.49, abs=0.12)

    def test_mi_scenario_pgfmu_plus_is_fastest_and_as_accurate(self):
        settings = ScenarioSettings(model_name="HP1", n_instances=3, **FAST_SETTINGS)
        outcome = run_mi_scenario(settings)
        # pgFMU+ skips the global search for the warm-started instances, so it
        # must be measurably faster than both other configurations (a small
        # tolerance absorbs machine-load jitter on loaded CI machines).
        assert outcome.total_seconds["pgfmu+"] < outcome.total_seconds["pgfmu-"] * 1.05
        assert outcome.speedup_over_python > 1.15
        assert outcome.mi_hits == 2  # both follow-up instances warm-started
        averages = outcome.average_errors
        assert averages["pgfmu+"] < 0.25
        assert averages["python"] < 0.25


# --------------------------------------------------------------------------- #
# Usability study (Figure 8)
# --------------------------------------------------------------------------- #
class TestUsability:
    def test_summary_matches_paper_shape(self):
        study = UsabilityStudy(n_participants=30, seed=42)
        outcomes = study.run()
        summary = study.summary(outcomes)
        assert summary["n_participants"] == 30
        assert summary["all_faster_with_pgfmu"] is True
        assert summary["mean_speedup"] == pytest.approx(11.74, rel=0.05)
        assert summary["min_pgfmu_minutes"] >= 9.0
        assert summary["max_pgfmu_minutes"] <= 20.0

    def test_deterministic_for_fixed_seed(self):
        a = UsabilityStudy(n_participants=10, seed=1).summary()
        b = UsabilityStudy(n_participants=10, seed=1).summary()
        assert a == b

    def test_workload_derived_from_code_metrics(self):
        load = UsabilityStudy().workload()
        assert load["python_lines"] > load["pgfmu_lines"]
        assert load["python_packages"] > load["pgfmu_packages"]

    def test_every_user_is_faster_with_pgfmu(self):
        outcomes = UsabilityStudy(n_participants=30, seed=7).run()
        assert all(o.pgfmu_minutes < o.python_minutes for o in outcomes)
        assert all(o.speedup > 1 for o in outcomes)
