"""Regenerate the golden files that tier-1 tests compare byte for byte.

    python3 tests/golden/make_golden.py

qubit_seed7.csv is acceptance criterion 12's trajectory: the bundled qubit
from its initial state, dt 0.01, t_final 2.0, seed 7, written with
write_trajectory_csv. ensemble_qubit_seed7.json is the ensemble summary of
the bundled qubit (its dt, initial state, seed and radii) at t_final 0.5
over 600 trials, i.e. three chunks, written with write_report_json.
sweep_deficient.json is the invariant-set sweep of conftest's
four_level_deficient_model at 10 grid points, written with
write_report_json; its nodes fall into two dimension classes.

The remaining files pin the JSON encoding of every other report and of the
definition file, one each:
- report_qubit.json: `qlyap report --json` on the bundled qubit shortened
  to t_final 0.1 and 8 trials (assumptions, escape matrix, ensemble
  summary and supermartingale gate);
- check_deficient.json: check_assumptions of four_level_deficient_model,
  whose generators share a common eigenket;
- probe_qubit.json: invariance_probe of the conftest qubit at its target
  and at the orthogonal state;
- stability_qubit.json: stability_bound_test of the conftest qubit;
- definition_qutrit.json and definition_qutrit_no_psi0.json:
  dump_definition of the bundled qutrit, with and without its initial
  state.

Any change to the step kernel's rounding moves the trajectory, ensemble,
report, probe and stability files, and any change to the chunk reduction
moves the ensemble and report files. The sweep moves only with the
invariant-set analysis, and the definitions only with the definition
format. Regenerate only on purpose, and record in CHANGES.md why and how
far the values moved: for every file it rewrites, the script prints the
largest absolute change of a float against the file it replaces and
whether every discrete field (exit times, exceedance probabilities,
histogram counts, excluded seeds, dimension counts, and any integer,
boolean, string or null) is unchanged.
"""

import contextlib
import dataclasses
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from qlyap import (  # noqa: E402
    ControlLaw,
    bundled_fixture,
    check_assumptions,
    dump_definition,
    invariance_probe,
    invariant_set_sweep,
    run_ensemble,
    simulate_trajectory,
    stability_bound_test,
    write_report_json,
    write_trajectory_csv,
)
from qlyap.cli import main as cli_main  # noqa: E402
from conftest import four_level_deficient_model, qubit_model  # noqa: E402

GOLDEN = HERE / "qubit_seed7.csv"
GOLDEN_ENSEMBLE = HERE / "ensemble_qubit_seed7.json"
GOLDEN_SWEEP = HERE / "sweep_deficient.json"


def write_report(path):
    model, law, params = bundled_fixture("qubit")
    with tempfile.TemporaryDirectory() as tmp:
        definition = str(Path(tmp) / "qubit_short.json")
        dump_definition(definition, model, law, dataclasses.replace(params, t_final=0.1, trials=8))
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["report", definition, "--json", str(path)])


def write_check(path):
    write_report_json(path, check_assumptions(four_level_deficient_model()))


def write_probe(path):
    candidates = [np.array([0.0, 1.0], dtype=complex), np.array([1.0, 0.0], dtype=complex)]
    results = invariance_probe(
        qubit_model(), ControlLaw(gains=(1.0,)), candidates, 0.01, 0.2, trials=8, base_seed=3
    )
    write_report_json(path, results)


def write_stability(path):
    report = stability_bound_test(
        qubit_model(),
        ControlLaw(gains=(1.0,)),
        0.5,
        (0.0, 0.2),
        16,
        dt=0.01,
        t_final=0.5,
        base_seed=11,
    )
    write_report_json(path, report)


def write_definition(path):
    dump_definition(path, *bundled_fixture("qutrit"))


def write_definition_no_psi0(path):
    model, law, params = bundled_fixture("qutrit")
    dump_definition(path, model, law, dataclasses.replace(params, initial_state=None))


# file name -> writer, for the goldens that pin one JSON encoding each
ENCODINGS = {
    "report_qubit.json": write_report,
    "check_deficient.json": write_check,
    "probe_qubit.json": write_probe,
    "stability_qubit.json": write_stability,
    "definition_qutrit.json": write_definition,
    "definition_qutrit_no_psi0.json": write_definition_no_psi0,
}


# report keys whose values are counts or events, compared exactly
DISCRETE_KEYS = {
    "first_exit_times",
    "sup_distance_exceed_prob",
    "counts",
    "excluded_seeds",
    "dimension_counts",
}


def _json_moves(old, new, path="", discrete=False):
    """(largest float change, paths of changed discrete fields) between two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        parts = [
            _json_moves(old[k], new[k], f"{path}.{k}", discrete or k in DISCRETE_KEYS) for k in old
        ]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        parts = [_json_moves(a, b, f"{path}[{i}]", discrete) for i, (a, b) in enumerate(zip(old, new))]
    elif not discrete and type(old) is float and type(new) is float:
        return abs(new - old), []
    else:
        return 0.0, [] if old == new and type(old) is type(new) else [path or "."]
    return max((d for d, _ in parts), default=0.0), [p for _, moved in parts for p in moved]


def _csv_moves(old, new):
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if old_lines[:1] != new_lines[:1] or len(old_lines) != len(new_lines):
        return math.nan, ["header or row count"]
    a = np.array([[float(v) for v in line.split(",")] for line in old_lines[1:]])
    b = np.array([[float(v) for v in line.split(",")] for line in new_lines[1:]])
    return float(np.max(np.abs(a - b), initial=0.0)), []


def _moved(path, old):
    """One line on how far the rewritten file at `path` moved from the bytes `old`."""
    if old is None:
        return "new file"
    new = path.read_bytes()
    if new == old:
        return "bytes unchanged"
    if path.suffix == ".csv":
        delta, moved = _csv_moves(old.decode(), new.decode())
    else:
        delta, moved = _json_moves(json.loads(old), json.loads(new))
    discrete = f"discrete fields CHANGED at {', '.join(moved)}" if moved else "discrete fields unchanged"
    return f"max |float change| {delta:.3g}; {discrete}"


def write_trajectory(path):
    model, law, params = bundled_fixture("qubit")
    record = simulate_trajectory(model, law, params.initial_state, 0.01, 2.0, seed=7)
    write_trajectory_csv(path, record, model, law)


def write_ensemble(path):
    model, law, params = bundled_fixture("qubit")
    summary = run_ensemble(
        model, law, params.initial_state, params.dt, 0.5, 600, params.seed, r_list=params.r_list
    )
    write_report_json(path, summary)


def write_sweep(path):
    write_report_json(path, invariant_set_sweep(four_level_deficient_model(), grid_points=10))


def main():
    writers = {GOLDEN: write_trajectory, GOLDEN_ENSEMBLE: write_ensemble, GOLDEN_SWEEP: write_sweep}
    writers.update((HERE / name, write) for name, write in ENCODINGS.items())
    for path, write in writers.items():
        old = path.read_bytes() if path.exists() else None
        write(path)
        print(f"wrote {path}: {_moved(path, old)}")


if __name__ == "__main__":
    main()
