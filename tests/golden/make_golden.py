"""Regenerate the golden files that tier-1 tests compare byte for byte.

    python3 tests/golden/make_golden.py

qubit_seed7.csv is acceptance criterion 12's trajectory: the bundled qubit
from its initial state, dt 0.01, t_final 2.0, seed 7, written with
write_trajectory_csv. ensemble_qubit_seed7.json is the ensemble summary of
the bundled qubit (its dt, initial state, seed and radii) at t_final 0.5
over 600 trials, i.e. three chunks, written with write_report_json.

Any change to the step kernel's rounding moves both files, and any change
to the chunk reduction moves the second. Regenerate only on purpose, and
record in CHANGES.md why and how far the values moved.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from qlyap import (  # noqa: E402
    bundled_fixture,
    run_ensemble,
    simulate_trajectory,
    write_report_json,
    write_trajectory_csv,
)

GOLDEN = HERE / "qubit_seed7.csv"
GOLDEN_ENSEMBLE = HERE / "ensemble_qubit_seed7.json"


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


if __name__ == "__main__":
    main()
