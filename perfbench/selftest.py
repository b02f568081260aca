"""Determinism self-test of the benchmark workloads.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Runs one round of a shrunk version of each workload twice with the same
seed and once more with QLYAP_THREADS=2, and requires byte-identical JSON
and CSV outputs, as the determinism contract in docs/formats.md promises.
The file name keeps it out of the default pytest collection.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Api  # noqa: E402
from workloads import WORKLOADS, CliResult  # noqa: E402

SEED = 20240917


def round_outputs(name, threads, seed=SEED):
    """Bytes of every output of one shrunk round, with QLYAP_THREADS=threads."""
    import qlyap

    scratch = HERE.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    saved = os.environ.get("QLYAP_THREADS")
    os.environ["QLYAP_THREADS"] = threads
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as work_dir:
            workload = WORKLOADS[name](Api(), work_dir, seed, small=True)
            workload.setup()
            outputs = []
            for op in next(workload.rounds()):
                result = op.run()
                if isinstance(result, CliResult):
                    assert not result.problems(), result.problems()
                    outputs.append(result.path.read_bytes())
                else:
                    outputs.append(json.dumps(qlyap.to_jsonable(result), sort_keys=True).encode())
            return outputs
    finally:
        if saved is None:
            del os.environ["QLYAP_THREADS"]
        else:
            os.environ["QLYAP_THREADS"] = saved


def _check_repeatable(name):
    first = round_outputs(name, "1")
    assert first and all(first), f"{name}: no output"
    assert round_outputs(name, "1") == first, f"{name}: two runs with one seed differ"
    assert round_outputs(name, "2") == first, f"{name}: QLYAP_THREADS=2 changes the bytes"
    assert round_outputs(name, "1", SEED + 1) != first, f"{name}: the seed does not change the inputs"


def test_ensemble_qubit_repeatable():
    _check_repeatable("ensemble-qubit")


def test_probe_4level_repeatable():
    _check_repeatable("probe-4level")


def test_trajectory_csv_repeatable():
    _check_repeatable("trajectory-csv")


def test_sweep_4level_repeatable():
    _check_repeatable("sweep-4level")


if __name__ == "__main__":
    failures = 0
    for test in (test_ensemble_qubit_repeatable, test_probe_4level_repeatable,
                 test_trajectory_csv_repeatable, test_sweep_4level_repeatable):
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
    sys.exit(1 if failures else 0)
