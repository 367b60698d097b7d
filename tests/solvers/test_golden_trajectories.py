"""Golden trajectories: solves must stay bit-identical.

``tests/data/golden_trajectories.npz`` holds rk4, euler and rk45
trajectories of HP0, HP1 and Classroom over 168 h of
``generate_dataset_for(..., seed=1)`` inputs - one scalar
:meth:`FmuModel.simulate` of the nominal model and one batched
:meth:`FmuModel.simulate_batch` of a four-member parameter population - plus
a plain :class:`OdeProblem` / :class:`BatchOdeProblem` with a callable input
for the fixed-step solvers.  Every trajectory, ``n_steps``, ``n_rejected``
(model cases) and ``n_rhs_evals`` must equal the recorded values exactly
(``np.array_equal``, not a tolerance): a change to how stage times, inputs
or adaptive step sizes are computed that moves one bit fails here.

The fixture is an oracle, so it is regenerated only when a trajectory
change is intended::

    PYTHONPATH=src python tests/solvers/test_golden_trajectories.py --write
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.data import generate_dataset_for
from repro.fmi import load_fmu
from repro.fmi.model import FmuModel
from repro.models.registry import get_model_spec
from repro.solvers import get_solver
from repro.solvers.base import BatchOdeProblem, OdeProblem

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "golden_trajectories.npz"

MODELS = ("HP0", "HP1", "Classroom")
FIXED_STEP_SOLVERS = ("rk4", "euler")
#: rk45 runs with its default tolerances, so its step sequence, rejections
#: and dense output are pinned as well.
SOLVERS = FIXED_STEP_SOLVERS + ("rk45",)
#: Per-member multipliers of the estimated parameters in the batched
#: population (row 1 is the nominal model).
POPULATION_SCALES = (0.8, 1.0, 1.25, 1.5)


def _options(solver: str, sample_step: float) -> dict:
    # rk4 steps on the sample grid like calibration does, so its midpoint
    # stages fall between samples; euler takes 0.7 of it, so its stage
    # times fall off the grid and the last step is a short one.
    if solver == "rk45":
        return {}
    return {"step": sample_step if solver == "rk4" else 0.7 * sample_step}


def _model_cases(name: str) -> Dict[str, np.ndarray]:
    spec = get_model_spec(name)
    dataset = generate_dataset_for(name, hours=168, seed=1)
    inputs = {var: (dataset.time, dataset.series[var]) for var in spec.inputs}
    sample_step = float(dataset.time[1] - dataset.time[0])
    nominal = load_fmu(spec.builder())
    population = []
    for row, scale in enumerate(POPULATION_SCALES):
        member = nominal.clone(instance_name=f"{name}-{row}")
        for parameter in spec.estimated_parameters:
            member.set(parameter, nominal.get(parameter) * scale)
        population.append(member)

    arrays: Dict[str, np.ndarray] = {}
    for solver in SOLVERS:
        common = dict(
            inputs=inputs or None,
            output_times=dataset.time,
            solver=solver,
            solver_options=_options(solver, sample_step),
        )
        scalar = nominal.simulate(**common)
        prefix = f"{name}/{solver}/scalar"
        for var, values in scalar.trajectories.items():
            arrays[f"{prefix}/{var}"] = values
        arrays[f"{prefix}/#n_steps"] = np.array(scalar.solver_stats["n_steps"])
        arrays[f"{prefix}/#n_rejected"] = np.array(scalar.solver_stats["n_rejected"])
        arrays[f"{prefix}/#n_rhs_evals"] = np.array(scalar.solver_stats["n_rhs_evals"])

        batch = FmuModel.simulate_batch(population, **common)
        assert all(result.solver_stats.get("batched") for result in batch)
        prefix = f"{name}/{solver}/batch"
        for var in batch[0].trajectories:
            arrays[f"{prefix}/{var}"] = np.stack([r.trajectories[var] for r in batch])
        arrays[f"{prefix}/#n_steps"] = np.array([r.solver_stats["n_steps"] for r in batch])
        arrays[f"{prefix}/#n_rejected"] = np.array([r.solver_stats["n_rejected"] for r in batch])
        arrays[f"{prefix}/#n_rhs_evals"] = np.array(batch[0].solver_stats["n_rhs_evals"])
    return arrays


def _forcing(t: float) -> list:
    return [np.sin(t), 0.5 * np.cos(3.0 * t)]


def _plain_rhs(t, x, u):
    return np.array([-0.7 * x[0] + u[0], x[0] - 0.2 * x[1] + u[1] * u[0]])


def _plain_cases() -> Dict[str, np.ndarray]:
    """A solver-level problem with a callable input and no table hook."""
    rates = np.array([[0.5], [1.0], [2.0]])

    def batch_inputs(t):
        return np.tile(_forcing(t), (3, 1))

    def batch_rhs(t, X, U):
        return np.stack(
            [-0.7 * rates[:, 0] * X[:, 0] + U[:, 0], X[:, 0] - 0.2 * X[:, 1] + U[:, 1] * U[:, 0]],
            axis=1,
        )

    grid = np.linspace(0.0, 3.0, 31)
    arrays: Dict[str, np.ndarray] = {}
    for solver in FIXED_STEP_SOLVERS:
        stepper = get_solver(solver, step=0.07)
        scalar = stepper.solve(
            OdeProblem(rhs=_plain_rhs, x0=[1.0, 0.0], t0=0.0, t1=3.0, inputs=_forcing),
            output_times=grid,
        )
        prefix = f"plain/{solver}/scalar"
        arrays[f"{prefix}/states"] = scalar.states
        arrays[f"{prefix}/#n_steps"] = np.array(scalar.n_steps)
        arrays[f"{prefix}/#n_rhs_evals"] = np.array(scalar.n_rhs_evals)

        batch = stepper.solve_batch(
            BatchOdeProblem(
                rhs=batch_rhs, x0=np.array([[1.0, 0.0], [0.5, 1.0], [2.0, -1.0]]),
                t0=0.0, t1=3.0, inputs=batch_inputs,
            ),
            output_times=grid,
        )
        prefix = f"plain/{solver}/batch"
        arrays[f"{prefix}/states"] = batch.states
        arrays[f"{prefix}/#n_steps"] = np.asarray(batch.n_steps)
        arrays[f"{prefix}/#n_rhs_evals"] = np.array(batch.n_rhs_evals)
    return arrays


def golden_cases() -> Dict[str, np.ndarray]:
    """Every recorded array, keyed ``case/solver/shape/variable``."""
    arrays: Dict[str, np.ndarray] = {}
    for name in MODELS:
        arrays.update(_model_cases(name))
    arrays.update(_plain_cases())
    return arrays


@pytest.fixture(scope="module")
def recorded():
    with np.load(FIXTURE) as data:
        return {key: data[key] for key in data.files}


@pytest.fixture(scope="module")
def current():
    return golden_cases()


CASES = [(name, solver) for name in MODELS for solver in SOLVERS] + [
    ("plain", solver) for solver in FIXED_STEP_SOLVERS
]


@pytest.mark.parametrize("case,solver", CASES)
@pytest.mark.parametrize("shape", ("scalar", "batch"))
def test_trajectories_match_golden(recorded, current, case, solver, shape):
    prefix = f"{case}/{solver}/{shape}/"
    expected = {k: v for k, v in recorded.items() if k.startswith(prefix)}
    actual = {k: v for k, v in current.items() if k.startswith(prefix)}
    assert expected, f"no golden arrays recorded for {prefix}"
    assert sorted(actual) == sorted(expected)
    for key, values in expected.items():
        assert np.array_equal(actual[key], values), f"{key} differs from the golden fixture"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    np.savez_compressed(FIXTURE, **golden_cases())
    print(f"wrote {FIXTURE}")
