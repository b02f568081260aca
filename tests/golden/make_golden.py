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

Any change to the step kernel's rounding moves the first two files, and any
change to the chunk reduction moves the second. The third moves only with
the invariant-set analysis. Regenerate only on purpose, and record in
CHANGES.md why and how far the values moved.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from qlyap import (  # noqa: E402
    bundled_fixture,
    invariant_set_sweep,
    run_ensemble,
    simulate_trajectory,
    write_report_json,
    write_trajectory_csv,
)
from conftest import four_level_deficient_model  # noqa: E402

GOLDEN = HERE / "qubit_seed7.csv"
GOLDEN_ENSEMBLE = HERE / "ensemble_qubit_seed7.json"
GOLDEN_SWEEP = HERE / "sweep_deficient.json"


def main():
    model, law, params = bundled_fixture("qubit")
    record = simulate_trajectory(model, law, params.initial_state, 0.01, 2.0, seed=7)
    write_trajectory_csv(GOLDEN, record, model, law)
    print(f"wrote {GOLDEN}")
    summary = run_ensemble(
        model, law, params.initial_state, params.dt, 0.5, 600, params.seed, r_list=params.r_list
    )
    write_report_json(GOLDEN_ENSEMBLE, summary)
    print(f"wrote {GOLDEN_ENSEMBLE}")
    write_report_json(GOLDEN_SWEEP, invariant_set_sweep(four_level_deficient_model(), grid_points=10))
    print(f"wrote {GOLDEN_SWEEP}")


if __name__ == "__main__":
    main()
