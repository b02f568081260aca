"""End-to-end command line behavior: output, files, exit codes."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlyap import ControlLaw, IntegrationError, RunParams, SystemModel, dump_definition
from qlyap.cli import _build_parser, main

from conftest import QUBIT_PSI0, four_level_deficient_model, qubit_model, qutrit_model


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


def test_check_findings_do_not_depend_on_units(tmp_path, capsys):
    # the qutrit in a rotated basis, so that its matrices have rounding in
    # every entry, written once in unit scale and once with H0 and the
    # controls in 1e6 units (hbar to match), as in MHz-scale definitions
    rotation = np.linalg.qr(np.random.default_rng(26).normal(size=(3, 3)) + 1j * np.eye(3))[0]
    model = qutrit_model()

    def rotate(op):
        return rotation @ op @ rotation.conj().T

    rotated = SystemModel(
        free_hamiltonian=rotate(model.free_hamiltonian),
        controls=tuple(rotate(hk) for hk in model.controls),
        observable=rotate(model.observable),
        target=rotation @ model.target,
        measurement_strength=1.0,
    )
    unit_path = _write(tmp_path, "unit.json", rotated, ControlLaw(gains=(1.0, 1.0)))
    data = json.loads(open(unit_path, encoding="utf-8").read())
    system = data["system"]
    for op in [system["free_hamiltonian"], *system["controls"]]:
        for row in op:
            for pair in row:
                pair[:] = [1e6 * part for part in pair]
    system["hbar"] *= 1e6
    mhz_path = tmp_path / "mhz.json"
    mhz_path.write_text(json.dumps(data), encoding="utf-8")

    results = []
    for path, scale in ((unit_path, 1.0), (str(mhz_path), 1e6)):
        out = tmp_path / f"check-{scale:g}.json"
        code = main(["check", path, "--json", str(out)])
        lines = capsys.readouterr().out.splitlines()[:4]
        report = json.loads(out.read_text())
        free = report["target_free_eigenstate"]
        free["eigenvalue"] = round(free["eigenvalue"] / scale, 9)
        results.append((code, lines, report))
    assert results[0][0] == 0 and results[0][1].count("independent_generators: PASS") == 1
    assert results[1] == results[0]


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


def test_one_parser_serves_every_call_and_keeps_no_flag(good_def, tmp_path, capsys):
    # the parser is built once per process, yet each call parses into a new
    # namespace: a flag given to one call reaches no later call
    _build_parser.cache_clear()
    first, seeded, last = (tmp_path / f"{name}.csv" for name in ("first", "seeded", "last"))
    assert main(["simulate", good_def, "--out", str(first)]) == 0  # the definition's seed, 5
    assert main(["simulate", good_def, "--out", str(seeded), "--seed", "6"]) == 0
    assert main(["simulate", good_def, "--out", str(tmp_path / "x.csv"), "--seed"]) == 64
    assert main(["simulate", good_def, "--out", str(last)]) == 0
    assert last.read_bytes() == first.read_bytes() != seeded.read_bytes()
    assert _build_parser.cache_info().misses == 1
    out = capsys.readouterr().out
    assert out.count("seed 5:") == 2 and out.count("seed 6:") == 1


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
        ["invariant-set", "qubit", "--grid-points", "100000000000"],
        ["simulate", "qubit", "--dt", "1e-300"],
        ["simulate", "qubit", "--t-final", "1e300"],
        ["simulate", "qubit", "--psi0", "1e308,0,1e308,0"],
        ["simulate", "qubit", "--dt", "1e308"],
    ],
)
def test_bad_inputs_exit_with_error_line(tmp_path, capsys, argv):
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "t.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "qubit", "--t-final", "0.1", "--out"],
        ["check", "qubit", "--json"],
        ["ensemble", "qubit", "--json"],
        ["report", "qubit", "--json"],
        ["escape", "qubit", "--json"],
        ["invariant-set", "qubit", "--json"],
    ],
)
def test_unwritable_output_exits_with_error_line(tmp_path, capsys, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{argv[0]} started work before checking its output path")

    for worker in (
        "simulate_trajectory",
        "run_ensemble",
        "check_assumptions",
        "escape_matrix",
        "invariant_set_sweep",
    ):
        monkeypatch.setattr(f"qlyap.cli.{worker}", must_not_run)
    path = str(tmp_path / "missing" / "out.file")
    assert main(argv + [path]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_failed_simulate_leaves_existing_output_untouched(tmp_path, capsys, monkeypatch):
    def collapse(*args, **kwargs):
        raise IntegrationError("state norm collapsed")

    monkeypatch.setattr("qlyap.cli.simulate_trajectory", collapse)
    existing = tmp_path / "kept.csv"
    existing.write_text("old contents\n")
    assert main(["simulate", "qubit", "--out", str(existing)]) == 1
    assert existing.read_text() == "old contents\n"
    # a path that did not exist is not left behind as an empty file
    fresh = tmp_path / "fresh.csv"
    assert main(["simulate", "qubit", "--out", str(fresh)]) == 1
    assert not fresh.exists()
    assert "integration failed" in capsys.readouterr().err


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


def test_zero_length_ensemble_is_refused_not_passed(tmp_path, capsys):
    # t_final 0 records one time and leaves the gate no pair to test
    path = _write(
        tmp_path, "zero.json", qubit_model(), ControlLaw(gains=(1.0,)),
        t_final=0.0, initial_state=QUBIT_PSI0,
    )
    for command in ("ensemble", "report"):
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("error:") and "two recorded times" in captured.err


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ensemble", "qubit", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["simulate", "qubit", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["simulate", "qubit", "--dt", "0"], "dt: must be > 0, got 0.0"),
        (["simulate", "qubit", "--t-final", "-1"], "t_final: must be >= 0, got -1.0"),
        (["ensemble", "qubit", "--trials", "0"], "trials must be an integer >= 1, got 0"),
        (["report", "qubit", "--trials", "0"], "trials must be an integer >= 1, got 0"),
    ],
    ids=[
        "ensemble-seed", "simulate-seed", "simulate-dt", "simulate-t-final", "ensemble-trials", "report-trials"
    ],
)
def test_run_flags_are_refused_like_file_fields(tmp_path, capsys, argv, message):
    # a flag takes the place of its run field and meets that field's rule; a
    # negative --seed used to be refused as the library's base_seed
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "t.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _parses_as_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# every numeric value here is malformed or an edge: non-finite, zero,
# negative, or past any size the commands accept; free text is drawn only
# where it cannot parse as a number
_BAD_NUMBERS = st.sampled_from(
    ["", "abc", "nan", "NaN", "inf", "-inf", "0", "-1", "-2.5", "1e308", "-1e308", str(10**30)]
) | st.text(max_size=8).filter(lambda text: not _parses_as_number(text))
_BAD_TRIALS = _BAD_NUMBERS.filter(lambda text: text != str(10**30))
_BAD_PSI0 = st.sampled_from(
    ["", "nan,0,1,0", "inf,0,0,0", "1e308,0,1e308,0", "0,0,0,0", "1,0", "a,b,c,d", "1,0,0,0,0,0"]
) | st.text(max_size=12)
_PATHS = st.sampled_from(["", "{dir}", "{dir}/missing/out.file", "{dir}/out.file"])
_FLAGS = {
    "check": {"--json": _PATHS},
    "simulate": {
        "--out": _PATHS,
        "--seed": _BAD_NUMBERS,
        "--dt": _BAD_NUMBERS,
        "--t-final": _BAD_NUMBERS,
        "--psi0": _BAD_PSI0,
    },
    "ensemble": {
        "--trials": _BAD_TRIALS,
        "--seed": _BAD_NUMBERS,
        "--stride": _BAD_NUMBERS,
        "--psi0": _BAD_PSI0,
        "--json": _PATHS,
    },
    "invariant-set": {"--grid-points": _BAD_NUMBERS, "--json": _PATHS},
    "escape": {"--json": _PATHS},
    "report": {"--trials": _BAD_TRIALS, "--psi0": _BAD_PSI0, "--json": _PATHS},
}


@st.composite
def _malformed_argv(draw):
    # one malformed flag per call, so that its own check is the one reached
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flag = draw(st.sampled_from(sorted(_FLAGS[command])))
    argv = [command, "{dir}/short.json", f"{flag}={draw(_FLAGS[command][flag])}"]
    if command == "simulate" and flag != "--out":
        argv.append("--out={dir}/out.file")
    return argv


@pytest.fixture(scope="module")
def short_qubit_dir(tmp_path_factory):
    where = tmp_path_factory.mktemp("cli-flags")
    _write(
        where,
        "short.json",
        qubit_model(),
        ControlLaw(gains=(1.0,)),
        dt=0.01,
        t_final=0.05,
        trials=4,
        initial_state=QUBIT_PSI0,
    )
    return str(where)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_malformed_argv())
def test_malformed_flags_never_raise(short_qubit_dir, argv):
    """Malformed flag values on a 5-step qubit definition end in an exit code, never a traceback.

    Each call sets one flag of one subcommand to non-numeric text, an
    empty string, NaN, +-inf, zero, a negative, 1e308 or 10**30, or sets
    --out/--json to an empty, directory or unwritable path. Valid but
    long runs are left out of the strategy: a huge --trials (10**30) or a
    long --t-final would run for hours and prove nothing about flag
    handling.
    """
    argv = [arg.replace("{dir}", short_qubit_dir) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 64), argv


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
