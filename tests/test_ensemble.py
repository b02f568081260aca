"""Ensemble reductions and the statistical gates on top of them."""

import numpy as np
import pytest

import qlyap.ensemble as ensemble_mod
from qlyap import (
    ControlLaw,
    ValidationError,
    invariance_probe,
    run_ensemble,
    simulate_trajectory,
    stability_bound_test,
    supermartingale_test,
)
from qlyap.dynamics import _Stepper

from conftest import QUBIT_PSI0, four_level_deficient_model, qubit_model, qutrit_model


def test_single_trial_matches_simulate_trajectory_bitwise():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    summary = run_ensemble(
        model, law, QUBIT_PSI0, 0.001, 0.3, trials=1, base_seed=123, record_stride=1
    )
    record = simulate_trajectory(model, law, QUBIT_PSI0, 0.001, 0.3, seed=123)
    assert np.array_equal(summary.times, record.times)
    assert np.array_equal(summary.mean_V, record.lyapunov)
    assert np.array_equal(summary.mean_X, record.observable_mean)
    assert np.array_equal(summary.mean_fidelity, record.fidelity)
    assert np.all(summary.stderr_V == 0.0)
    assert summary.included == 1


def test_recording_grid_and_exceedance_bookkeeping():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    summary = run_ensemble(
        model, law, QUBIT_PSI0, 0.001, 1.0, trials=64, base_seed=5, record_stride=300
    )
    assert np.array_equal(summary.times, np.array([0, 300, 600, 900, 1000]) * 0.001)
    p = summary.sup_distance_exceed_prob
    # the start is already farther than 0.3 from the target
    assert p[0.3] == 1.0
    assert np.all(summary.first_exit_times[0.3] == 0.0)
    assert p[0.3] >= p[0.5] >= p[1.0]
    for r, times in summary.first_exit_times.items():
        assert p[r] == pytest.approx(np.mean(np.isfinite(times)))
    counts, edges = summary.final_fidelity_histogram
    assert counts.sum() == summary.included
    assert edges[0] == 0.0 and edges[-1] == 1.0 and len(edges) == 21


def test_target_start_stays_put():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    summary = run_ensemble(
        model, law, model.target, 0.001, 0.5, trials=32, base_seed=17
    )
    assert np.max(summary.mean_V) <= 1e-10
    assert np.max(np.abs(summary.mean_X + 1.0)) <= 1e-10
    assert summary.sup_distance_exceed_prob[0.3] == 0.0


def test_supermartingale_gate_passes_on_stabilizing_law():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    summary = run_ensemble(
        model, law, QUBIT_PSI0, 0.001, 2.0, trials=300, base_seed=11
    )
    result = supermartingale_test(summary)
    assert result.passes, result
    assert result.pairs == len(summary.times) - 1
    assert result.worst_violation_sigma < 3.0


def test_supermartingale_gate_fails_on_negated_gains():
    # an imaginary component in psi0 activates the feedback immediately;
    # the coarse stride stops per-pair noise from hiding the steady climb
    model = qubit_model()
    law = ControlLaw(gains=(-2.0,))
    psi0 = np.array([0.6j, 0.8])
    summary = run_ensemble(
        model, law, psi0, 0.001, 2.0, trials=300, base_seed=11, record_stride=500
    )
    result = supermartingale_test(summary)
    assert not result.passes
    assert result.worst_violation_sigma > 3.0
    assert summary.mean_V[1] > summary.mean_V[0] + 0.05


def test_noiseless_equality_passes_via_absolute_slack():
    # k = 0 and zero gain freeze the fidelity exactly; the summed-squares
    # stderr only carries a rounding floor, and the absolute slack absorbs
    # the same-order rises
    model = qubit_model(k=0.0)
    summary = run_ensemble(
        model, ControlLaw(gains=(0.0,)), QUBIT_PSI0, 0.001, 1.0, trials=8, base_seed=3
    )
    assert np.max(summary.stderr_V) < 1e-8
    assert np.max(np.abs(summary.mean_V - 0.18)) < 1e-12
    result = supermartingale_test(summary)
    assert result.passes

    # with the gain on, the noiseless closed loop descends deterministically
    active = run_ensemble(
        model, ControlLaw(gains=(1.0,)), QUBIT_PSI0, 0.001, 4.0, trials=2, base_seed=3
    )
    assert np.max(active.stderr_V) == 0.0
    assert active.mean_V[-1] < 0.005
    assert supermartingale_test(active).passes


def test_chunk_independence():
    # 600 trials run as chunks of 256, 256 and 88; the first chunk's
    # trajectories must not depend on the chunks that follow it
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    assert ensemble_mod.CHUNK == 256
    full = run_ensemble(model, law, QUBIT_PSI0, 0.004, 0.4, trials=600, base_seed=29)
    first = run_ensemble(model, law, QUBIT_PSI0, 0.004, 0.4, trials=256, base_seed=29)
    for r in full.first_exit_times:
        assert np.array_equal(full.first_exit_times[r][:256], first.first_exit_times[r])
    # at R = 1 the exits are spread over the horizon, so the comparison has teeth
    assert np.unique(first.first_exit_times[1.0]).size > 10


class _FlakyStepper(_Stepper):
    """Marks a fixed row of every chunk dead on the first step."""

    dead_rows = ()

    def step(self, psi, dw):
        psi_next, fid, x_mean, u, norms, ok = super().step(psi, dw)
        ok = ok.copy()
        for row in type(self).dead_rows:
            if row < len(ok):
                ok[row] = False
        return psi_next, fid, x_mean, u, norms, ok


def test_failed_trajectories_are_excluded(monkeypatch):
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    monkeypatch.setattr(_FlakyStepper, "dead_rows", (1,))
    monkeypatch.setattr(ensemble_mod, "_Stepper", _FlakyStepper)
    summary = run_ensemble(
        model, law, QUBIT_PSI0, 0.001, 0.1, trials=5, base_seed=40, record_stride=1
    )
    assert summary.failures == 1
    assert summary.excluded_seeds == (41,)
    assert summary.included == 4

    # the survivors' mean is the plain average of the four clean runs
    records = [
        simulate_trajectory(model, law, QUBIT_PSI0, 0.001, 0.1, seed=s)
        for s in (40, 42, 43, 44)
    ]
    expected = np.mean([r.lyapunov for r in records], axis=0)
    assert np.max(np.abs(summary.mean_V - expected)) < 1e-15
    counts, _ = summary.final_fidelity_histogram
    assert counts.sum() == 4


def test_all_failed_raises(monkeypatch):
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    monkeypatch.setattr(_FlakyStepper, "dead_rows", (0, 1, 2))
    monkeypatch.setattr(ensemble_mod, "_Stepper", _FlakyStepper)
    with pytest.raises(ValidationError, match="every trajectory"):
        run_ensemble(model, law, QUBIT_PSI0, 0.001, 0.01, trials=3, base_seed=0)


def test_run_ensemble_input_validation():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    with pytest.raises(ValidationError, match="trials"):
        run_ensemble(model, law, QUBIT_PSI0, 0.001, 0.1, trials=0, base_seed=0)
    with pytest.raises(ValidationError, match="dimension"):
        run_ensemble(model, law, np.array([1.0, 0, 0]), 0.001, 0.1, trials=1, base_seed=0)
    with pytest.raises(ValidationError, match="record_stride"):
        run_ensemble(
            model, law, QUBIT_PSI0, 0.001, 0.1, trials=1, base_seed=0, record_stride=0
        )


def test_supermartingale_test_hand_cases():
    def fake(mean_v, stderr_v):
        return ensemble_mod.EnsembleSummary(
            trials=10,
            base_seed=0,
            dt=0.1,
            t_final=0.3,
            times=np.arange(len(mean_v)) * 0.1,
            mean_V=np.asarray(mean_v, dtype=float),
            stderr_V=np.asarray(stderr_v, dtype=float),
            mean_X=np.zeros(len(mean_v)),
            stderr_X=np.zeros(len(mean_v)),
            mean_fidelity=np.zeros(len(mean_v)),
            stderr_fidelity=np.zeros(len(mean_v)),
            sup_distance_exceed_prob={},
            first_exit_times={},
            final_fidelity_histogram=(np.zeros(20, dtype=int), np.linspace(0, 1, 21)),
            failures=0,
            excluded_seeds=(),
        )

    falling = supermartingale_test(fake([0.5, 0.4, 0.3], [0.0, 0.01, 0.01]))
    assert falling.passes and falling.pairs == 2

    small_rise = supermartingale_test(fake([0.5, 0.52], [0.0, 0.01]))
    assert small_rise.passes
    assert small_rise.worst_violation_sigma == pytest.approx(2.0)

    big_rise = supermartingale_test(fake([0.5, 0.55], [0.0, 0.01]))
    assert not big_rise.passes
    assert big_rise.worst_violation_sigma == pytest.approx(5.0)

    exact_rise_no_noise = supermartingale_test(fake([0.5, 0.6], [0.0, 0.0]))
    assert not exact_rise_no_noise.passes
    assert exact_rise_no_noise.worst_violation_sigma == np.inf


def test_stability_bound_report():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    report = stability_bound_test(
        model,
        law,
        radius=1.0,
        perturbation_sizes=(0.1, 0.3),
        trials=150,
        dt=0.002,
        t_final=1.0,
        base_seed=900,
    )
    assert report.passes
    assert report.monotone_within_band
    assert len(report.rows) == 2
    for row in report.rows:
        size = row.perturbation_size
        v0 = 0.5 * size * size / (1.0 + size * size)
        assert row.v0 == pytest.approx(v0, abs=1e-12)
        assert row.floor == pytest.approx(0.375)
        assert row.bound == pytest.approx(v0 / 0.375, abs=1e-12)
        assert row.empirical_p <= row.bound + 3.0 * row.stderr + 1e-12


def test_invariance_probe_flags():
    # the free phase drift at the qubit antipode leaks through the phase
    # tie-break and switches the control on, so the state escapes
    qubit = qubit_model()
    law1 = ControlLaw(gains=(1.0,))
    e0 = np.array([1.0, 0.0], dtype=complex)
    results = invariance_probe(
        qubit, law1, [qubit.target, e0], dt=0.002, t_probe=0.5, trials=100, base_seed=60
    )
    target_probe, antipode_probe = results
    assert target_probe.stationary
    assert abs(target_probe.mean_drift_v) < 1e-10
    assert not antipode_probe.stationary
    assert antipode_probe.mean_drift_fidelity > 3.0 * antipode_probe.stderr_drift_fidelity

    qutrit = qutrit_model()
    law2 = ControlLaw(gains=(1.0, 1.0))
    e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    (escaping,) = invariance_probe(
        qutrit, law2, [e1], dt=0.002, t_probe=0.5, trials=200, base_seed=61
    )
    assert not escaping.stationary
    assert escaping.mean_drift_fidelity > 3.0 * escaping.stderr_drift_fidelity
    assert escaping.mean_drift_v < 0.0


def test_invariance_probe_finds_truly_stuck_state():
    # every control annihilates e_4 in the deficient model, so no phase
    # convention can switch the feedback on: the probe must stay flat
    model = four_level_deficient_model()
    law = ControlLaw(gains=(1.0, 1.0, 1.0))
    stuck = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    results = invariance_probe(
        model, law, [model.target, stuck], dt=0.002, t_probe=0.5, trials=100, base_seed=60
    )
    for probe in results:
        assert probe.stationary
        assert abs(probe.mean_drift_v) < 1e-12
        assert abs(probe.mean_drift_fidelity) < 1e-12


def test_invariance_probe_rejects_bad_candidate():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    with pytest.raises(ValidationError, match="candidates"):
        invariance_probe(
            model, law, [np.zeros(2)], dt=0.002, t_probe=0.1, trials=2, base_seed=0
        )
    with pytest.raises(ValidationError, match="trials"):
        invariance_probe(
            model, law, [model.target], dt=0.002, t_probe=0.1, trials=0, base_seed=0
        )
