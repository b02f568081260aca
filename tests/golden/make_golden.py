"""Regenerate qubit_seed7.csv, the golden trajectory of acceptance criterion 12.

    python3 tests/golden/make_golden.py

Makes exactly criterion 12's call: the bundled qubit from its initial
state, dt 0.01, t_final 2.0, seed 7, written with write_trajectory_csv.
The criterion compares fresh runs with this file byte for byte, so any
change to the step kernel's rounding moves it. Regenerate only on purpose,
and record in CHANGES.md why and how far the states, V and u moved.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from qlyap import bundled_fixture, simulate_trajectory, write_trajectory_csv  # noqa: E402

GOLDEN = HERE / "qubit_seed7.csv"


def main():
    model, law, params = bundled_fixture("qubit")
    record = simulate_trajectory(model, law, params.initial_state, 0.01, 2.0, seed=7)
    write_trajectory_csv(GOLDEN, record, model, law)
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
