"""Regenerate reference/ensemble_qubit_seed7.json, the ensemble-qubit output check.

    python3 perfbench/make_reference.py

Runs the ensemble-qubit call at the bundled qubit's default seed and keeps
its summary series. The benchmark compares each run's default-seed call
against them with an absolute tolerance of 1e-9, so a rounding change of
1e-12 passes while a change in the numerics does not. Regenerate only on
purpose, and say why in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Api  # noqa: E402
from workloads import REFERENCE, REFERENCE_SEED, SERIES, EnsembleQubit  # noqa: E402


def main():
    scratch = HERE.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workload = EnsembleQubit(Api(), tmp, REFERENCE_SEED)
        workload.setup()
        (op,) = next(workload.rounds())
        result = op.run()
        if result.problems():
            raise SystemExit(result.problems()[0])
        data = json.loads(result.path.read_text(encoding="utf-8"))
    reference = {"argv": ["ensemble", "qubit", "--trials", str(workload.trials), "--seed", str(REFERENCE_SEED)]}
    reference.update({key: data[key] for key in SERIES})
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
