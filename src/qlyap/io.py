"""File formats: model definition JSON, trajectory CSV, report JSON.

Complex scalars are stored as [re, im] pairs and matrices as row-major
nested lists of pairs. Floats survive a dump/load cycle exactly (json
writes shortest round-tripping decimal forms; the CSV writer uses %.17g).
Parsing errors always name the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .analysis import (
    AssumptionReport,
    ControlsFinding,
    EigenstateFinding,
    EscapeMatrixResult,
    IndependenceFinding,
    InvariantSetResult,
    InvariantSetSweep,
)
from .control import control_signals
from .ensemble import (
    EnsembleSummary,
    ProbeResult,
    StabilityBoundReport,
    StabilityRow,
    SupermartingaleResult,
)
from .errors import ValidationError
from .model import ControlLaw, SystemModel
from .quantum import require_state_vector

DEFAULT_R_LIST = (0.3, 0.5, 1.0)


@dataclass(frozen=True)
class RunParams:
    """Ensemble execution parameters bundled with a definition file.

    initial_state is optional; tools that need one fail with a clear
    message when neither the file nor the caller provides it.
    """

    dt: float
    t_final: float
    trials: int
    seed: int
    r_list: tuple = DEFAULT_R_LIST
    initial_state: np.ndarray | None = None


def _require_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{where}: expected a finite number, got {value!r}")
    return number


def _require_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _complex_scalar(value, where):
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"{where}: expected an [re, im] pair, got {value!r}")
    return complex(_require_number(value[0], f"{where}[0]"), _require_number(value[1], f"{where}[1]"))


def _complex_vector(value, where):
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where}: expected a non-empty list of [re, im] pairs")
    return np.array([_complex_scalar(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _complex_matrix(value, where):
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where}: expected a non-empty list of rows")
    rows = [_complex_vector(row, f"{where}[{i}]") for i, row in enumerate(value)]
    width = rows[0].size
    for i, row in enumerate(rows):
        if row.size != width:
            raise ValidationError(f"{where}[{i}]: row length {row.size} != {width}")
    return np.array(rows)


def _section(data, key, where):
    if key not in data:
        raise ValidationError(f"{where}: missing required key {key!r}")
    section = data[key]
    if not isinstance(section, dict):
        raise ValidationError(f"{where}.{key}: expected an object")
    return section


def _check_keys(data, allowed, where):
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_definition(data):
    if not isinstance(data, dict):
        raise ValidationError("definition: top level must be an object")
    _check_keys(data, ("system", "control_law", "run"), "definition")

    sys_d = _section(data, "system", "definition")
    _check_keys(
        sys_d,
        ("free_hamiltonian", "controls", "observable", "target", "measurement_strength", "hbar"),
        "system",
    )
    for key in ("free_hamiltonian", "controls", "observable", "target", "measurement_strength"):
        if key not in sys_d:
            raise ValidationError(f"system: missing required key {key!r}")
    if not isinstance(sys_d["controls"], list):
        raise ValidationError("system.controls: expected a list of matrices")
    controls = tuple(
        _complex_matrix(mat, f"system.controls[{k}]") for k, mat in enumerate(sys_d["controls"])
    )
    strength = _require_number(sys_d["measurement_strength"], "system.measurement_strength")
    if strength <= 0.0:
        raise ValidationError(
            f"system.measurement_strength: must be positive in a definition file, got {strength}"
        )
    model = SystemModel(
        free_hamiltonian=_complex_matrix(sys_d["free_hamiltonian"], "system.free_hamiltonian"),
        controls=controls,
        observable=_complex_matrix(sys_d["observable"], "system.observable"),
        target=_complex_vector(sys_d["target"], "system.target"),
        measurement_strength=strength,
        hbar=_require_number(sys_d.get("hbar", 1.0), "system.hbar"),
    )

    law_d = _section(data, "control_law", "definition")
    _check_keys(law_d, ("gains", "phase_tol"), "control_law")
    if "gains" not in law_d or not isinstance(law_d["gains"], list):
        raise ValidationError("control_law.gains: expected a list of numbers")
    gains = tuple(
        _require_number(g, f"control_law.gains[{k}]") for k, g in enumerate(law_d["gains"])
    )
    law = ControlLaw(gains=gains, phase_tol=_require_number(law_d.get("phase_tol", 1e-12), "control_law.phase_tol"))
    law.require_positive_gains()
    law.require_matching(model)

    run_d = _section(data, "run", "definition")
    _check_keys(run_d, ("dt", "t_final", "trials", "seed", "r_list", "initial_state"), "run")
    for key in ("dt", "t_final", "trials", "seed"):
        if key not in run_d:
            raise ValidationError(f"run: missing required key {key!r}")
    dt = _require_number(run_d["dt"], "run.dt")
    if dt <= 0.0:
        raise ValidationError(f"run.dt: must be positive, got {dt}")
    t_final = _require_number(run_d["t_final"], "run.t_final")
    if t_final < 0.0:
        raise ValidationError(f"run.t_final: must be nonnegative, got {t_final}")
    trials = _require_int(run_d["trials"], "run.trials")
    if trials < 1:
        raise ValidationError(f"run.trials: must be >= 1, got {trials}")
    seed = _require_int(run_d["seed"], "run.seed")
    if seed < 0:
        raise ValidationError(f"run.seed: must be >= 0, got {seed}")
    raw_r = run_d.get("r_list", list(DEFAULT_R_LIST))
    if not isinstance(raw_r, list) or not raw_r:
        raise ValidationError("run.r_list: expected a non-empty list of numbers")
    r_list = tuple(_require_number(r, f"run.r_list[{k}]") for k, r in enumerate(raw_r))
    for k, r in enumerate(r_list):
        if not 0.0 < r < 2.0:
            raise ValidationError(f"run.r_list[{k}]: radii must lie in (0, 2), got {r}")
    initial_state = None
    if "initial_state" in run_d:
        initial_state = require_state_vector(
            _complex_vector(run_d["initial_state"], "run.initial_state"),
            "run.initial_state",
        )
        if initial_state.size != model.n:
            raise ValidationError(
                f"run.initial_state: dimension {initial_state.size} does not match system dimension {model.n}"
            )
    params = RunParams(
        dt=dt,
        t_final=t_final,
        trials=trials,
        seed=seed,
        r_list=r_list,
        initial_state=initial_state,
    )
    return model, law, params


def load_definition(path):
    """Read a JSON definition file into (SystemModel, ControlLaw, RunParams)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return _parse_definition(data)


def bundled_fixture(name):
    """Load one of the definitions shipped inside the package."""
    ref = resources.files("qlyap").joinpath("fixtures", f"{name}.json")
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ValidationError(f"no bundled fixture named {name!r}") from exc
    return _parse_definition(json.loads(text))


def _pairs(array):
    array = np.asarray(array, dtype=np.complex128)
    if array.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in array]
    return [_pairs(row) for row in array]


def dump_definition(path, model, law, params):
    """Write a definition file that load_definition parses back exactly."""
    data = {
        "system": {
            "free_hamiltonian": _pairs(model.free_hamiltonian),
            "controls": [_pairs(hk) for hk in model.controls],
            "observable": _pairs(model.observable),
            "target": _pairs(model.target),
            "measurement_strength": float(model.measurement_strength),
            "hbar": float(model.hbar),
        },
        "control_law": {
            "gains": [float(g) for g in law.gains],
            "phase_tol": float(law.phase_tol),
        },
        "run": {
            "dt": float(params.dt),
            "t_final": float(params.t_final),
            "trials": int(params.trials),
            "seed": int(params.seed),
            "r_list": [float(r) for r in params.r_list],
        },
    }
    if params.initial_state is not None:
        data["run"]["initial_state"] = _pairs(params.initial_state)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_trajectory_csv(path, record, model, law):
    """Write one trajectory as CSV with a fixed column layout.

    Columns: t, V, fidelity, X_mean, the control signals, then the state
    components as re/im pairs. Control rows are the signals applied over
    [t_i, t_i+dt); the final row carries the signal the law would apply
    next, so every row is the feedback evaluated at that row's state.
    """
    states = np.ascontiguousarray(record.states, dtype=np.complex128)
    final_u = control_signals(model, law, states[-1])
    header = ["t", "V", "fidelity", "X_mean"]
    header += [f"u_{k + 1}" for k in range(model.m)]
    for j in range(model.n):
        header += [f"psi_re_{j + 1}", f"psi_im_{j + 1}"]
    table = np.column_stack(
        [
            record.times,
            record.lyapunov,
            record.fidelity,
            record.observable_mean,
            np.vstack([record.controls_applied, final_u]),
            states.view(np.float64),  # re, im of each component side by side
        ]
    )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        np.savetxt(handle, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def _float_or_none(value):
    value = float(value)
    return None if not np.isfinite(value) else value


def to_jsonable(obj):
    """Convert the package's report objects into JSON-serializable data."""
    if isinstance(obj, EnsembleSummary):
        counts, edges = obj.final_fidelity_histogram
        return {
            "trials": obj.trials,
            "included": obj.included,
            "failures": obj.failures,
            "excluded_seeds": list(obj.excluded_seeds),
            "base_seed": obj.base_seed,
            "dt": obj.dt,
            "t_final": obj.t_final,
            "times": [float(t) for t in obj.times],
            "mean_V": [float(v) for v in obj.mean_V],
            "stderr_V": [float(v) for v in obj.stderr_V],
            "mean_X": [float(v) for v in obj.mean_X],
            "stderr_X": [float(v) for v in obj.stderr_X],
            "mean_fidelity": [float(v) for v in obj.mean_fidelity],
            "stderr_fidelity": [float(v) for v in obj.stderr_fidelity],
            "sup_distance_exceed_prob": {str(r): float(p) for r, p in obj.sup_distance_exceed_prob.items()},
            "first_exit_times": {
                str(r): [_float_or_none(t) for t in times]
                for r, times in obj.first_exit_times.items()
            },
            "final_fidelity_histogram": {
                "counts": [int(c) for c in counts],
                "bin_edges": [float(e) for e in edges],
            },
        }
    if isinstance(obj, AssumptionReport):
        return {
            "target_free_eigenstate": to_jsonable(obj.target_free_eigenstate),
            "controls_move_target": to_jsonable(obj.controls_move_target),
            "target_observable_eigenstate": to_jsonable(obj.target_observable_eigenstate),
            "independent_generators": to_jsonable(obj.independent_generators),
            "all_hold": obj.all_hold,
        }
    if isinstance(obj, EigenstateFinding):
        return {"holds": obj.holds, "eigenvalue": obj.eigenvalue, "degeneracy": obj.degeneracy}
    if isinstance(obj, ControlsFinding):
        return {"holds": obj.holds, "movers": list(obj.movers)}
    if isinstance(obj, IndependenceFinding):
        return {
            "holds": obj.holds,
            "rank": obj.rank,
            "common_eigenket_count": len(obj.common_eigenkets),
        }
    if isinstance(obj, InvariantSetResult):
        return {
            "shifts": list(obj.shifts),
            "dimension": obj.dimension,
            "basis": _pairs(obj.basis.T) if obj.basis.size else [],
            "contains_target": obj.contains_target,
            "singular_values": list(obj.singular_values),
        }
    if isinstance(obj, InvariantSetSweep):
        return {
            "grid_sizes": [int(g.size) for g in obj.grids],
            "dimension_counts": {str(k): int(v) for k, v in sorted(obj.dimension_counts.items())},
            "max_dimension": obj.max_dimension,
            "max_dimension_slice": to_jsonable(obj.max_dimension_slice),
            "target_slice": to_jsonable(obj.target_slice),
        }
    if isinstance(obj, EscapeMatrixResult):
        return {
            "matrix": _pairs(obj.matrix) if obj.matrix.size else [],
            "full_rank": obj.full_rank,
            "rank": obj.rank,
            "singular_values": list(obj.singular_values),
        }
    if isinstance(obj, SupermartingaleResult):
        return {
            "passes": obj.passes,
            "worst_violation_sigma": _float_or_none(obj.worst_violation_sigma),
            "pairs": obj.pairs,
        }
    if isinstance(obj, StabilityRow):
        return {
            "perturbation_size": obj.perturbation_size,
            "v0": obj.v0,
            "floor": obj.floor,
            "bound": obj.bound,
            "empirical_p": obj.empirical_p,
            "stderr": obj.stderr,
            "passes": obj.passes,
        }
    if isinstance(obj, StabilityBoundReport):
        return {
            "radius": obj.radius,
            "rows": [to_jsonable(r) for r in obj.rows],
            "monotone_within_band": obj.monotone_within_band,
            "passes": obj.passes,
        }
    if isinstance(obj, ProbeResult):
        return {
            "candidate": _pairs(obj.candidate),
            "stationary": obj.stationary,
            "mean_drift_v": obj.mean_drift_v,
            "stderr_drift_v": obj.stderr_drift_v,
            "mean_drift_distance": obj.mean_drift_distance,
            "stderr_drift_distance": obj.stderr_drift_distance,
            "mean_drift_fidelity": obj.mean_drift_fidelity,
            "stderr_drift_fidelity": obj.stderr_drift_fidelity,
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ValidationError(f"no JSON encoding for objects of type {type(obj).__name__}")


def write_report_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(to_jsonable(obj), handle, indent=2, sort_keys=True)
        handle.write("\n")
