"""Single-instance (SI) and multi-instance (MI) scenario runners.

These functions reproduce the experimental setup of Section 8.1:

* three configurations - ``Python`` (the traditional stack),
  ``pgFMU-`` (pgFMU without the MI optimization) and ``pgFMU+`` (with it);
* the SI scenario calibrates, validates and simulates a single instance of a
  model and reports per-step timings (Table 8) and calibration quality
  (Table 7);
* the MI scenario repeats the store/calibrate/simulate/validate workflow for
  ``n_instances`` instances of the same model, each bound to a synthetic
  dataset obtained by delta-scaling the original one (Figure 7).

The scenario settings expose the calibration budget so benchmarks can scale
the experiments down (the paper's full-size runs take ~14 minutes per
calibration on the original hardware); the *relative* behaviour - which
configuration wins and by roughly which factor - is preserved at any budget
because it is driven by how many global searches each configuration runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.baseline.workflow import PythonWorkflow, WorkflowResult
from repro.core.session import Session
from repro.data.generators import generate_dataset_for
from repro.data.loaders import load_dataset
from repro.data.synthetic import synthetic_family
from repro.errors import ReproError
from repro.estimation.metrics import rmse
from repro.estimation.objective import MeasurementSet
from repro.models.registry import get_model_spec
from repro.sqldb.database import Database
from repro.workflows.pgfmu_workflow import PgFmuWorkflow

#: Default calibration budget used by the scenario runners.  Chosen so a
#: single calibration takes on the order of a second on a laptop while still
#: running a genuine global + local search.
DEFAULT_GA_OPTIONS = {"population_size": 16, "generations": 10}
DEFAULT_LOCAL_OPTIONS = {"max_iterations": 40}


@dataclass
class ScenarioSettings:
    """Settings shared by the SI and MI scenario runners."""

    model_name: str = "HP1"
    hours: Optional[float] = 168.0
    n_instances: int = 5
    seed: int = 1
    threshold: float = 0.2
    training_fraction: float = 0.75
    ga_options: Dict = field(default_factory=lambda: dict(DEFAULT_GA_OPTIONS))
    local_options: Dict = field(default_factory=lambda: dict(DEFAULT_LOCAL_OPTIONS))

    def spec(self):
        return get_model_spec(self.model_name)


@dataclass
class SiScenarioResult:
    """Per-configuration results of the single-instance scenario."""

    model_name: str
    python: WorkflowResult
    pgfmu_minus: WorkflowResult
    pgfmu_plus: WorkflowResult
    true_parameters: Dict[str, float]

    def results(self) -> Dict[str, WorkflowResult]:
        return {
            "python": self.python,
            "pgfmu-": self.pgfmu_minus,
            "pgfmu+": self.pgfmu_plus,
        }


@dataclass
class MiScenarioResult:
    """Per-configuration results of the multi-instance scenario."""

    model_name: str
    n_instances: int
    total_seconds: Dict[str, float]
    errors: Dict[str, List[float]]
    mi_hits: int = 0

    @property
    def speedup_over_python(self) -> float:
        """How many times faster pgFMU+ is than the Python configuration."""
        python_time = self.total_seconds.get("python", 0.0)
        plus_time = self.total_seconds.get("pgfmu+", 0.0)
        if plus_time <= 0:
            return float("inf")
        return python_time / plus_time

    @property
    def average_errors(self) -> Dict[str, float]:
        return {
            config: float(np.mean(values)) if values else float("nan")
            for config, values in self.errors.items()
        }


# --------------------------------------------------------------------------- #
# SI scenario
# --------------------------------------------------------------------------- #
def run_si_scenario(settings: Optional[ScenarioSettings] = None) -> SiScenarioResult:
    """Run the single-instance scenario for one model in all three configurations."""
    settings = settings or ScenarioSettings()
    spec = settings.spec()
    dataset = generate_dataset_for(spec.name, hours=settings.hours, seed=settings.seed + 100)

    # Python configuration: its own database with the measurements loaded.
    python_db = Database()
    table = load_dataset(python_db, dataset, table_name="measurements")
    python_workflow = PythonWorkflow(
        database=python_db,
        archive=spec.builder(),
        measurements_table=table,
        parameters=spec.estimated_parameters,
        training_fraction=settings.training_fraction,
        ga_options=settings.ga_options,
        local_options=settings.local_options,
        seed=settings.seed,
    )
    python_result = python_workflow.run()

    # pgFMU- and pgFMU+ configurations.
    pgfmu_results = {}
    for use_mi, label in ((False, "pgfmu-"), (True, "pgfmu+")):
        session = Session(
            ga_options=settings.ga_options,
            local_options=settings.local_options,
            seed=settings.seed,
        )
        load_dataset(session.database, dataset, table_name="measurements")
        workflow = PgFmuWorkflow(
            session=session,
            archive=spec.builder(),
            measurements_table="measurements",
            parameters=spec.estimated_parameters,
            instance_id=f"{spec.name}Instance1",
            training_fraction=settings.training_fraction,
            use_mi_optimization=use_mi,
            observed=spec.observed[0],
            threshold=settings.threshold,
        )
        pgfmu_results[label] = workflow.run()

    return SiScenarioResult(
        model_name=spec.name,
        python=python_result,
        pgfmu_minus=pgfmu_results["pgfmu-"],
        pgfmu_plus=pgfmu_results["pgfmu+"],
        true_parameters=dict(spec.true_parameters),
    )


# --------------------------------------------------------------------------- #
# MI scenario
# --------------------------------------------------------------------------- #
def run_mi_scenario(settings: Optional[ScenarioSettings] = None) -> MiScenarioResult:
    """Run the multi-instance scenario in all three configurations.

    Each instance is bound to a delta-scaled synthetic dataset, as in the
    paper.  The Python and pgFMU- configurations run the full global+local
    calibration for every instance; pgFMU+ applies the MI optimization and
    runs the global stage only for the first instance (and for any instance
    whose measurements are too dissimilar).
    """
    settings = settings or ScenarioSettings()
    spec = settings.spec()
    if settings.n_instances < 1:
        raise ReproError("n_instances must be at least 1")
    base_dataset = generate_dataset_for(spec.name, hours=settings.hours, seed=settings.seed + 100)
    family = synthetic_family(base_dataset, settings.n_instances, seed=settings.seed + 200)
    observed = spec.observed[0]

    total_seconds: Dict[str, float] = {}
    errors: Dict[str, List[float]] = {}

    # ---------------- Python configuration ---------------- #
    python_db = Database()
    tables = [
        load_dataset(python_db, member, table_name=f"measurements_{i + 1}")
        for i, member in enumerate(family)
    ]
    started = time.perf_counter()
    python_errors = []
    for i, table in enumerate(tables):
        workflow = PythonWorkflow(
            database=python_db,
            archive=spec.builder(),
            measurements_table=table,
            parameters=spec.estimated_parameters,
            training_fraction=settings.training_fraction,
            ga_options=settings.ga_options,
            local_options=settings.local_options,
            seed=settings.seed,
            predictions_table=f"predictions_python_{i + 1}",
        )
        python_errors.append(workflow.run().training_error)
    total_seconds["python"] = time.perf_counter() - started
    errors["python"] = python_errors

    # ---------------- pgFMU- and pgFMU+ ---------------- #
    mi_hits = 0
    for use_mi, label in ((False, "pgfmu-"), (True, "pgfmu+")):
        session = Session(
            ga_options=settings.ga_options,
            local_options=settings.local_options,
            seed=settings.seed,
        )
        member_tables = [
            load_dataset(session.database, member, table_name=f"measurements_{i + 1}")
            for i, member in enumerate(family)
        ]
        archive_path = session.catalog.storage_dir / f"{spec.name}_mi.fmu"
        spec.builder().write(archive_path)

        started = time.perf_counter()
        instance_ids = []
        for i in range(settings.n_instances):
            instance_id = f"{spec.name}Instance{i + 1}"
            if i == 0:
                session.create(str(archive_path), instance_id)
            else:
                session.instance(f"{spec.name}Instance1").copy(instance_id)
            instance_ids.append(instance_id)
        input_sqls = [f"SELECT * FROM {table}" for table in member_tables]
        outcomes = session.parest(
            instance_ids,
            input_sqls,
            parameters=spec.estimated_parameters,
            threshold=settings.threshold,
            use_mi_optimization=use_mi,
        )
        # Simulate every instance (part of the timed workflow, as in the paper)
        # and record the calibration error, which is the quality figure the
        # paper's MI comparison reports.
        config_errors = [outcome.error for outcome in outcomes]
        for instance_id, table in zip(instance_ids, member_tables):
            session.simulate(instance_id, f"SELECT * FROM {table}")
        total_seconds[label] = time.perf_counter() - started
        errors[label] = config_errors
        if use_mi:
            mi_hits = sum(1 for outcome in outcomes if outcome.used_mi_optimization)

    return MiScenarioResult(
        model_name=spec.name,
        n_instances=settings.n_instances,
        total_seconds=total_seconds,
        errors=errors,
        mi_hits=mi_hits,
    )
