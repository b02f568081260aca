"""File formats: model definition JSON, trajectory CSV, report JSON.

Complex scalars are stored as [re, im] pairs and matrices as row-major
nested lists of pairs. Floats survive a dump/load cycle exactly (json
writes shortest round-tripping decimal forms; the CSV writer uses %.17g).
Parsing errors always name the offending field.
"""

from __future__ import annotations

import dataclasses
import json
import math
from importlib import resources

import numpy as np

from .analysis import (
    AssumptionReport,
    EscapeMatrixResult,
    IndependenceFinding,
    InvariantSetResult,
    InvariantSetSweep,
)
from .control import control_signals
from .ensemble import DEFAULT_R_LIST, EnsembleSummary, StabilityBoundReport, require_radii
from .errors import ValidationError
from .model import ControlLaw, SystemModel
from .quantum import require_int, require_list, require_number, require_state_vector

CSV_BLOCK_ROWS = 256


@dataclasses.dataclass(frozen=True)
class RunParams:
    """Ensemble execution parameters bundled with a definition file.

    dt > 0, t_final >= 0, trials >= 1 and seed >= 0; r_list is a
    non-empty list of radii in (0, 2). initial_state is optional; tools
    that need one fail with a clear message when neither the file nor the
    caller provides it.
    """

    dt: float
    t_final: float
    trials: int
    seed: int
    r_list: tuple = DEFAULT_R_LIST
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        # dump_definition writes the fields as they are, so hold them in file types
        fields = {
            "dt": require_number(self.dt, "dt", above=0.0),
            "t_final": require_number(self.t_final, "t_final", at_least=0.0),
            "r_list": require_radii(self.r_list),
            "trials": require_int(self.trials, "trials", 1),
            "seed": require_int(self.seed, "seed"),
        }
        if not fields["r_list"]:
            raise ValidationError("r_list: expected a non-empty list of radii")
        if self.initial_state is not None:
            fields["initial_state"] = require_state_vector(self.initial_state, "initial_state")
        for name, value in fields.items():
            object.__setattr__(self, name, value)


def _complex_scalar(value, where):
    pair = require_list(value, where, "two numbers [re, im]", require_number)
    if len(pair) != 2:
        raise ValidationError(f"{where}: expected a list of two numbers [re, im], got {value!r}")
    return complex(*pair)


def _complex_vector(value, where):
    # a tuple: the model or run makes the array, and a matrix converts all its rows in one call
    entries = require_list(value, where, "[re, im] pairs", _complex_scalar)
    if not entries:
        raise ValidationError(f"{where}: expected a non-empty list of [re, im] pairs")
    return entries


def _complex_matrix(value, where):
    rows = require_list(value, where, "rows", _complex_vector)
    if not rows:
        raise ValidationError(f"{where}: expected a non-empty list of rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(f"{where}[{i}]: row length {len(row)} != {width}")
    return np.array(rows)


# The sections of a definition file, and the [re, im] reader of each
# complex field; every other field is handed to its type as JSON gave it.
_SECTIONS = {"system": SystemModel, "control_law": ControlLaw, "run": RunParams}
_COMPLEX_READERS = {
    "free_hamiltonian": _complex_matrix,
    "controls": lambda value, where: require_list(value, where, "matrices", _complex_matrix),
    "observable": _complex_matrix,
    "target": _complex_vector,
    "initial_state": _complex_vector,
}


def _require_object(data, allowed, required, where):
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object")
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise ValidationError(f"{where}: missing required key {key!r}")


def _read(cls, data, where):
    """Build the dataclass cls from a JSON object keyed by its fields.

    The fields without a default are required; the others take the
    dataclass default when absent. cls checks every value itself, and its
    ValidationError comes back with `where` in front of the field name.
    """
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    _require_object(data, [f.name for f in fields], required, where)
    kwargs = {
        key: _COMPLEX_READERS[key](value, f"{where}.{key}") if key in _COMPLEX_READERS else value
        for key, value in data.items()
    }
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}.{exc}") from exc


def _parse_definition(data):
    _require_object(data, _SECTIONS, _SECTIONS, "definition")
    model, law, params = (_read(cls, data[key], key) for key, cls in _SECTIONS.items())
    # rules of the file format, or that span two sections
    require_number(model.measurement_strength, "system.measurement_strength", above=0.0)
    law.require_positive_gains()
    law.require_matching(model)
    if params.initial_state is not None:
        model.require_start(params.initial_state, "run.initial_state")
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
    return [_pairs(row) for row in array] if array.size else []


def dump_definition(path, model, law, params):
    """Write a definition file that load_definition parses back exactly."""
    data = to_jsonable(dict(zip(_SECTIONS, (model, law, params))))
    if params.initial_state is None:
        del data["run"]["initial_state"]
    _write_json(path, data)


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
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        # one % format per block of rows: as fast as one for the whole
        # table, without holding every value as a Python float at once
        for lo in range(0, table.shape[0], CSV_BLOCK_ROWS):
            rows = table[lo : lo + CSV_BLOCK_ROWS]
            handle.write((row_fmt * rows.shape[0]) % tuple(rows.ravel().tolist()))


# Where a report's JSON differs from its dataclass fields: each entry maps
# an output key to a function of the report, or to None to drop that field.
_LAYOUT = {
    EnsembleSummary: {
        "included": lambda s: s.included,
        "final_fidelity_histogram": lambda s: dict(
            zip(("counts", "bin_edges"), s.final_fidelity_histogram)
        ),
    },
    AssumptionReport: {"all_hold": lambda r: r.all_hold},
    StabilityBoundReport: {"passes": lambda r: r.passes},
    IndependenceFinding: {
        "common_eigenkets": None,
        "common_eigenket_count": lambda f: len(f.common_eigenkets),
    },
    InvariantSetResult: {"basis": lambda r: r.basis.T},
    InvariantSetSweep: {
        "grids": None,
        "grid_sizes": lambda s: [g.size for g in s.grids],
    },
    EscapeMatrixResult: {"completion": None},
}


def to_jsonable(obj):
    """Convert report objects, definitions and containers into JSON data.

    One rule covers every type: a dataclass becomes an object of its
    fields (amended by _LAYOUT), a complex array a nest of [re, im] pairs,
    any other array its .tolist(), a dict an object with str() keys, a
    list or tuple a list, and a non-finite float null.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        for key, get in _LAYOUT.get(type(obj), {}).items():
            if get is None:
                del fields[key]
            else:
                fields[key] = get(obj)
        return to_jsonable(fields)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return _pairs(obj)
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            return [to_jsonable(v) for v in obj]
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if obj is None or isinstance(obj, (int, float, str)):  # bool is an int
        return obj
    raise ValidationError(f"no JSON encoding for objects of type {type(obj).__name__}")


def _write_json(path, data):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_report_json(path, obj):
    _write_json(path, to_jsonable(obj))
