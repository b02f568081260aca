"""End-to-end command line behavior: output, files, exit codes."""

import json

import numpy as np
import pytest

from qlyap import ControlLaw, RunParams, SystemModel, dump_definition
from qlyap.cli import main

from conftest import QUBIT_PSI0, four_level_deficient_model, qubit_model


def _write(tmp_path, name, model, law, **run):
    defaults = dict(dt=0.002, t_final=0.5, trials=24, seed=5)
    defaults.update(run)
    params = RunParams(**defaults)
    path = tmp_path / name
    dump_definition(path, model, law, params)
    return str(path)


@pytest.fixture
def good_def(tmp_path):
    return _write(
        tmp_path, "good.json", qubit_model(), ControlLaw(gains=(1.0,)), initial_state=QUBIT_PSI0
    )


@pytest.fixture
def deficient_def(tmp_path):
    return _write(
        tmp_path,
        "deficient.json",
        four_level_deficient_model(),
        ControlLaw(gains=(1.0, 1.0, 1.0)),
    )


@pytest.fixture
def off_target_def(tmp_path):
    # the target is not an observable eigenstate, so the measurement
    # itself pushes the mean V up and the ensemble gate must fail
    s = 1.0 / np.sqrt(2.0)
    model = SystemModel(
        free_hamiltonian=np.diag([1.0, -1.0]).astype(complex),
        controls=(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),),
        observable=np.diag([1.0, -1.0]).astype(complex),
        target=np.array([s, s], dtype=complex),
        measurement_strength=1.0,
    )
    return _write(
        tmp_path,
        "offtarget.json",
        model,
        ControlLaw(gains=(1.0,)),
        trials=32,
        initial_state=np.array([s, s], dtype=complex),
    )


def test_check_pass_and_json(good_def, tmp_path, capsys):
    out = tmp_path / "check.json"
    assert main(["check", good_def, "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 4
    assert "FAIL" not in text
    assert json.loads(out.read_text())["all_hold"] is True


def test_check_gate_failure(deficient_def, capsys):
    assert main(["check", deficient_def]) == 2
    text = capsys.readouterr().out
    assert "controls_move_target: FAIL" in text
    assert "independent_generators: FAIL" in text


def test_check_accepts_bundled_fixture_names(capsys):
    assert main(["check", "qubit"]) == 0
    assert main(["check", "qutrit"]) == 0
    assert capsys.readouterr().out.count("PASS") == 8


def test_simulate_writes_deterministic_csv(good_def, tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["simulate", good_def, "--out", str(out_a)]) == 0
    assert main(["simulate", good_def, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert "wrote" in capsys.readouterr().out

    out_c = tmp_path / "c.csv"
    assert main(["simulate", good_def, "--out", str(out_c), "--seed", "99"]) == 0
    assert out_a.read_bytes() != out_c.read_bytes()


def test_simulate_psi0_override_and_errors(good_def, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["simulate", good_def, "--out", str(out), "--psi0", "0,0,1,0"]) == 0
    first_row = out.read_text().splitlines()[1].split(",")
    assert float(first_row[1]) == 0.0  # V = 0 when starting on the target

    assert main(["simulate", good_def, "--out", str(out), "--psi0", "1,0"]) == 1
    assert main(["simulate", good_def, "--out", str(out), "--psi0", "a,b,c,d"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("flag, value", [("--dt", "nan"), ("--t-final", "inf")])
def test_simulate_rejects_non_finite_times(good_def, tmp_path, capsys, flag, value):
    out = tmp_path / "t.csv"
    assert main(["simulate", good_def, "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "qubit", "--psi0", "nan,0,1,0"],
        ["simulate", "qubit", "--seed", "-1"],
        ["invariant-set", "qubit", "--grid-points", "-3"],
    ],
)
def test_bad_inputs_exit_with_error_line(tmp_path, capsys, argv):
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "t.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_requires_some_initial_state(tmp_path, capsys):
    no_psi0 = _write(tmp_path, "nopsi.json", qubit_model(), ControlLaw(gains=(1.0,)))
    assert main(["simulate", no_psi0, "--out", str(tmp_path / "x.csv")]) == 1
    assert "initial_state" in capsys.readouterr().err


def test_ensemble_pass_and_json(good_def, tmp_path, capsys):
    out = tmp_path / "ens.json"
    assert main(["ensemble", good_def, "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "24/24 trajectories" in text
    assert "supermartingale: PASS" in text
    assert "P(sup distance > 0.3)" in text
    payload = json.loads(out.read_text())
    assert payload["trials"] == 24
    assert len(payload["mean_V"]) == len(payload["times"])


def test_ensemble_gate_failure(off_target_def, capsys):
    assert main(["ensemble", off_target_def, "--stride", "50"]) == 2
    assert "supermartingale: FAIL" in capsys.readouterr().out


def test_ensemble_trials_override(good_def, capsys):
    assert main(["ensemble", good_def, "--trials", "6"]) == 0
    assert "6/6 trajectories" in capsys.readouterr().out


def test_invariant_set_output(good_def, capsys):
    assert main(["invariant-set", good_def, "--grid-points", "7"]) == 0
    text = capsys.readouterr().out
    assert "dimension 1:" in text
    assert "canonical shifts" in text
    assert "contains target: True" in text


def test_escape_pass_and_fail(good_def, deficient_def, tmp_path, capsys):
    out = tmp_path / "esc.json"
    assert main(["escape", good_def, "--json", str(out)]) == 0
    assert "full rank: PASS" in capsys.readouterr().out
    assert json.loads(out.read_text())["rank"] == 1

    assert main(["escape", deficient_def]) == 2
    text = capsys.readouterr().out
    assert "rank 2 of 3" in text
    assert "full rank: FAIL" in text


def test_report_combined(good_def, off_target_def, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", good_def, "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "assumptions: PASS" in text
    assert "escape matrix full rank: PASS" in text
    assert "supermartingale PASS" in text
    payload = json.loads(out.read_text())
    assert set(payload) == {"assumptions", "escape", "ensemble", "supermartingale"}
    assert payload["supermartingale"]["passes"] is True

    assert main(["report", off_target_def]) == 2


def test_usage_and_missing_definition(capsys):
    assert main([]) == 64
    assert main(["frobnicate", "qubit"]) == 64
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["check", "no-such-definition"]) == 1
    assert "no such file or bundled fixture" in capsys.readouterr().err


def test_console_script_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qlyap

    # the child imports the same qlyap as this suite, installed or not
    src = str(Path(qlyap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qlyap.cli", "escape", "qutrit"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "full rank: PASS" in proc.stdout
