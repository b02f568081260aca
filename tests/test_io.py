"""Definition files, trajectory CSV, and report serialization."""

import json

import numpy as np
import pytest

from qlyap import (
    ControlLaw,
    RunParams,
    ValidationError,
    bundled_fixture,
    check_assumptions,
    dump_definition,
    escape_matrix,
    invariant_set_slice,
    load_definition,
    run_ensemble,
    simulate_trajectory,
    supermartingale_test,
    to_jsonable,
    write_report_json,
    write_trajectory_csv,
)

from conftest import QUBIT_PSI0, QUTRIT_PSI0, qubit_model, qutrit_model


def _qutrit_setup():
    model = qutrit_model(k=0.85)
    law = ControlLaw(gains=(0.7, 1.3), phase_tol=1e-11)
    params = RunParams(
        dt=0.1 + 0.2,  # a float with no short decimal form
        t_final=1.2,
        trials=17,
        seed=3,
        r_list=(0.31, 1.9),
        initial_state=QUTRIT_PSI0,
    )
    return model, law, params


def test_definition_round_trip_is_exact(tmp_path):
    model, law, params = _qutrit_setup()
    path = tmp_path / "def.json"
    dump_definition(path, model, law, params)
    model2, law2, params2 = load_definition(path)

    assert np.array_equal(model2.free_hamiltonian, model.free_hamiltonian)
    assert len(model2.controls) == 2
    for got, want in zip(model2.controls, model.controls):
        assert np.array_equal(got, want)
    assert np.array_equal(model2.observable, model.observable)
    assert np.array_equal(model2.target, model.target)
    assert model2.measurement_strength == model.measurement_strength
    assert model2.hbar == model.hbar
    assert law2.gains == law.gains
    assert law2.phase_tol == law.phase_tol
    assert params2.dt == params.dt
    assert params2.t_final == params.t_final
    assert params2.trials == params.trials
    assert params2.seed == params.seed
    assert params2.r_list == params.r_list
    assert np.array_equal(params2.initial_state, params.initial_state)


def test_definition_round_trip_without_initial_state(tmp_path):
    model, law, params = _qutrit_setup()
    params = RunParams(dt=params.dt, t_final=params.t_final, trials=params.trials, seed=params.seed)
    path = tmp_path / "def.json"
    dump_definition(path, model, law, params)
    assert "initial_state" not in json.loads(path.read_text())["run"]
    _, _, params2 = load_definition(path)
    assert params2.initial_state is None
    assert params2.r_list == (0.3, 0.5, 1.0)


def test_bundled_fixtures():
    model, law, params = bundled_fixture("qubit")
    assert model.n == 2 and model.m == 1
    assert np.array_equal(model.target, np.array([0.0, 1.0]))
    assert params.trials == 2000 and params.seed == 7
    assert params.initial_state is not None

    model3, law3, params3 = bundled_fixture("qutrit")
    assert model3.n == 3 and model3.m == 2
    assert law3.gains == (1.0, 1.0)
    assert params3.trials == 500
    assert params3.r_list == (0.3, 0.5, 1.0)

    with pytest.raises(ValidationError, match="no bundled fixture"):
        bundled_fixture("does-not-exist")


def _dump_dict(tmp_path):
    model, law, params = _qutrit_setup()
    path = tmp_path / "base.json"
    dump_definition(path, model, law, params)
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.pop("system"), r"missing required key 'system'"),
        (lambda d: d.update(extra={}), r"definition: unknown keys.*extra"),
        (lambda d: d["system"].pop("observable"), r"system: missing required key 'observable'"),
        (lambda d: d["system"].update(novel=1), r"system: unknown keys.*novel"),
        (
            lambda d: d["system"].update(measurement_strength=0.0),
            r"system.measurement_strength.*positive",
        ),
        (lambda d: d["system"].update(target=[[1.0]]), r"system\.target\[0\]"),
        (
            lambda d: d["system"].update(target=[[1.0, "x"], [0.0, 0.0], [0.0, 0.0]]),
            r"system\.target\[0\]\[1\].*number",
        ),
        (
            lambda d: d["system"]["free_hamiltonian"][1].pop(),
            r"system\.free_hamiltonian\[1\]: row length",
        ),
        (lambda d: d["control_law"].update(gains=[0.7, -1.0]), r"gains must all be > 0"),
        (lambda d: d["control_law"].update(gains=[0.7]), r"1 gains but the model has 2"),
        (lambda d: d["run"].update(dt=0.0), r"run.dt.*positive"),
        (lambda d: d["run"].update(t_final=-1.0), r"run.t_final"),
        # json writes and reads back the NaN / Infinity literals
        (lambda d: d["run"].update(dt=float("nan")), r"run\.dt.*finite"),
        (lambda d: d["run"].update(t_final=float("inf")), r"run\.t_final.*finite"),
        (lambda d: d["run"].update(t_final=10 ** 400), r"run\.t_final.*finite number, got 1000"),
        (lambda d: d["run"].update(trials=0), r"run.trials"),
        (lambda d: d["run"].update(trials=2.5), r"run.trials.*integer"),
        (lambda d: d["run"].update(trials=True), r"run.trials.*integer"),
        (lambda d: d["run"].update(seed=-4), r"run.seed"),
        (lambda d: d["run"].update(r_list=[0.3, 2.0]), r"run\.r_list\[1\].*\(0, 2\)"),
        (lambda d: d["run"].update(r_list=[]), r"run.r_list.*non-empty"),
        (
            lambda d: d["run"].update(initial_state=[[1.0, 0.0], [0.0, 0.0]]),
            r"run.initial_state.*dimension",
        ),
    ],
)
def test_validation_errors_name_the_field(tmp_path, mutate, match):
    data = _dump_dict(tmp_path)
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match=match):
        load_definition(bad)


def test_invalid_json_syntax(tmp_path):
    bad = tmp_path / "syntax.json"
    bad.write_text("{nope")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_definition(bad)


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_definition(tmp_path / "absent.json")


def test_trajectory_csv_layout_and_determinism(tmp_path):
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    record = simulate_trajectory(model, law, QUBIT_PSI0, 0.01, 0.1, seed=21)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_trajectory_csv(path_a, record, model, law)
    write_trajectory_csv(path_b, record, model, law)
    assert path_a.read_bytes() == path_b.read_bytes()

    lines = path_a.read_text().splitlines()
    assert lines[0] == "t,V,fidelity,X_mean,u_1,psi_re_1,psi_im_1,psi_re_2,psi_im_2"
    assert len(lines) == 12  # header plus 11 sampled times

    body = [line.split(",") for line in lines[1:]]
    assert [float(row[0]) for row in body] == list(record.times)
    # %.17g survives the text round trip bit for bit
    assert [float(row[1]) for row in body] == list(record.lyapunov)
    assert [float(row[4]) for row in body[:-1]] == list(record.controls_applied[:, 0])
    re1 = [float(row[5]) for row in body]
    im1 = [float(row[6]) for row in body]
    assert np.array_equal(np.array(re1) + 1j * np.array(im1), record.states[:, 0])


def test_report_json_round_trip(tmp_path):
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    summary = run_ensemble(
        model, law, QUBIT_PSI0, 0.01, 0.2, trials=8, base_seed=2, r_list=(0.3, 1.9)
    )
    payload = {
        "assumptions": to_jsonable(check_assumptions(model)),
        "escape": to_jsonable(escape_matrix(model)),
        "ensemble": to_jsonable(summary),
        "gate": to_jsonable(supermartingale_test(summary)),
        "slice": to_jsonable(invariant_set_slice(model, np.array([0.0]))),
    }
    path = tmp_path / "report.json"
    write_report_json(path, payload["ensemble"])
    loaded = json.loads(path.read_text())
    assert loaded["trials"] == 8
    assert loaded["included"] == 8

    text = json.dumps(payload)
    back = json.loads(text)
    # nobody reaches distance 1.9 in t = 0.2: every exit time is null
    assert back["ensemble"]["sup_distance_exceed_prob"]["1.9"] == 0.0
    assert all(t is None for t in back["ensemble"]["first_exit_times"]["1.9"])
    assert back["ensemble"]["final_fidelity_histogram"]["counts"][-1] >= 0
    assert back["assumptions"]["all_hold"] is True
    assert back["escape"]["full_rank"] is True
    assert back["slice"]["dimension"] == 1
    assert len(back["slice"]["basis"]) == 1 and len(back["slice"]["basis"][0]) == 2


def test_to_jsonable_rejects_unknown_types():
    with pytest.raises(ValidationError, match="no JSON encoding"):
        to_jsonable(object())
