"""Ensemble reductions and the statistical gates on top of them."""

import pathlib
import tracemalloc

import numpy as np
import pytest

import qlyap.ensemble as ensemble_mod
from qlyap import (
    ControlLaw,
    PreconditionError,
    ValidationError,
    bundled_fixture,
    invariance_probe,
    run_ensemble,
    simulate_trajectory,
    stability_bound_test,
    supermartingale_test,
    to_jsonable,
    write_report_json,
)
from qlyap.dynamics import _Stepper
from qlyap.quantum import normalize

from conftest import QUBIT_PSI0, four_level_deficient_model, qubit_model, qutrit_model

GOLDEN_ENSEMBLE = pathlib.Path(__file__).parent / "golden" / "ensemble_qubit_seed7.json"


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
    # final fidelities round to either side of 1; the top bin holds them all
    counts, _ = summary.final_fidelity_histogram
    assert counts[-1] == summary.included


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
    # 1500 trials run as batches of 1024 and 476; neither batch's
    # trajectories may depend on the other
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    assert ensemble_mod.BATCH == 1024
    full = run_ensemble(model, law, QUBIT_PSI0, 0.004, 0.4, trials=1500, base_seed=29)
    first = run_ensemble(model, law, QUBIT_PSI0, 0.004, 0.4, trials=256, base_seed=29)
    last = run_ensemble(model, law, QUBIT_PSI0, 0.004, 0.4, trials=476, base_seed=29 + 1024)
    for r in full.first_exit_times:
        assert np.array_equal(full.first_exit_times[r][:256], first.first_exit_times[r])
        assert np.array_equal(full.first_exit_times[r][1024:], last.first_exit_times[r])
    # at R = 1 the exits are spread over the horizon, so the comparison has teeth
    assert np.unique(first.first_exit_times[1.0]).size > 10


def test_report_bytes_do_not_depend_on_batch_width(monkeypatch, tmp_path):
    # the reduction runs in fixed CHUNK-row blocks whatever the batch width,
    # so every sum, and with it every byte of the report, stays the same;
    # the probe and the stability rows read the same driver's per-trial arrays
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    e0 = np.array([1.0, 0.0], dtype=complex)
    reports = {"ensemble": set(), "probe": set(), "stability": set()}
    for batch in (256, 512, 1024):
        monkeypatch.setattr(ensemble_mod, "BATCH", batch)
        outputs = {
            "ensemble": run_ensemble(
                model, law, QUBIT_PSI0, 0.004, 0.4, trials=600, base_seed=31, record_stride=7
            ),
            "probe": invariance_probe(
                model, law, [QUBIT_PSI0, e0], dt=0.004, t_probe=0.4, trials=600, base_seed=31
            ),
            "stability": stability_bound_test(
                model, law, 0.5, (0.3, 0.6), 600, dt=0.004, t_final=0.4, base_seed=31
            ),
        }
        for name, obj in outputs.items():
            path = tmp_path / f"{name}-{batch}.json"
            write_report_json(path, obj)
            reports[name].add(path.read_bytes())
    assert all(len(found) == 1 for found in reports.values()), reports


def test_stacked_groups_match_single_group_calls(monkeypatch):
    # every group is one slice of a single seed range, group i starting at
    # base_seed + i * trials; at BATCH 256 the 900 stacked rows run as four
    # batches, and each group straddles a batch boundary
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    monkeypatch.setattr(ensemble_mod, "BATCH", 256)
    sizes = (0.1, 0.2, 0.3)
    stacked = stability_bound_test(model, law, 0.3, sizes, 300, dt=0.004, t_final=0.4, base_seed=17)
    for i, size in enumerate(sizes):
        (row,) = stability_bound_test(
            model, law, 0.3, (size,), 300, dt=0.004, t_final=0.4, base_seed=17 + i * 300
        ).rows
        assert stacked.rows[i] == row
    assert len({row.empirical_p for row in stacked.rows}) == 3  # the rows differ, so the check has teeth

    candidates = [QUBIT_PSI0, np.array([1.0, 0.0], dtype=complex), model.target]
    stacked = invariance_probe(model, law, candidates, dt=0.004, t_probe=0.4, trials=300, base_seed=17)
    for i, cand in enumerate(candidates):
        single = invariance_probe(
            model, law, [cand], dt=0.004, t_probe=0.4, trials=300, base_seed=17 + i * 300
        )
        assert to_jsonable(stacked[i : i + 1]) == to_jsonable(single)


@pytest.mark.parametrize("block", [7, ensemble_mod.NOISE_BLOCK])
def test_exit_steps_match_single_trajectories_across_blocks(monkeypatch, block):
    # exits are resolved once per block of fidelities; the first exit must be
    # the first step whose overlap magnitude falls below the threshold,
    # wherever it lies in its block
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    radii = (1.0, 1.2)
    monkeypatch.setattr(ensemble_mod, "NOISE_BLOCK", block)
    summary = run_ensemble(
        model, law, QUBIT_PSI0, 0.001, 0.6, trials=40, base_seed=29, r_list=radii, max_recorded=2
    )
    exit_steps = []
    for row, seed in enumerate(range(29, 69)):
        fid = simulate_trajectory(model, law, QUBIT_PSI0, 0.001, 0.6, seed=seed).fidelity
        for r in radii:
            below = np.flatnonzero(np.sqrt(fid) < 1.0 - 0.5 * r * r)
            expected = below[0] * 0.001 if below.size else np.inf
            assert summary.first_exit_times[r][row] == expected, (seed, r)
            if below.size:
                exit_steps.append(below[0])
    # exits in more than one block, at both ends of some block
    exit_steps = np.array(exit_steps)
    assert np.unique(exit_steps // block).size > 1
    if block < 100:
        assert {0, block - 1} <= set(exit_steps % block)


def test_noise_is_streamed_not_held_whole():
    # a (256, 4000) increments array alone takes 8.2 MB; two (256, 256)
    # noise blocks, the most the stream holds at once, take 1 MB
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    tracemalloc.start()
    try:
        run_ensemble(
            model, law, QUBIT_PSI0, 0.001, 4.0, trials=256, base_seed=5, r_list=(), max_recorded=2
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


class _SteplessStepper(_Stepper):
    def step(self, f, dw):
        raise AssertionError("stepped")


def test_negative_base_seed_raises_before_stepping(monkeypatch):
    monkeypatch.setattr(ensemble_mod, "_Stepper", _SteplessStepper)
    with pytest.raises(ValidationError, match="seed"):
        run_ensemble(qubit_model(), ControlLaw(gains=(1.0,)), QUBIT_PSI0, 0.001, 0.1, 3, -1)


class _FlakyStepper(_Stepper):
    """Marks fixed columns (trajectories) of every batch block dead at every step."""

    dead_columns = ()

    def step(self, f, dw):
        f_next, fid, x_mean, u, norms, ok = super().step(f, dw)
        ok = ok.copy()
        for col in type(self).dead_columns:
            if col < len(ok):
                ok[col] = False
        return f_next, fid, x_mean, u, norms, ok


def test_failed_trajectories_are_excluded(monkeypatch):
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    monkeypatch.setattr(_FlakyStepper, "dead_columns", (1,))
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

    # a stability row counts its exceedances over the same four survivors,
    # and its binomial stderr divides by 4, not by the 5 trials
    radius = 0.5
    report = stability_bound_test(
        model, law, radius, (0.5,), 5, dt=0.001, t_final=0.1, base_seed=40
    )
    (row,) = report.rows
    # the start stability_bound_test builds: the target plus 0.5i times its completion e0
    psi0 = normalize(model.target + 0.5j * np.array([1.0, 0.0]))
    exceeded = [
        np.any(np.sqrt(simulate_trajectory(model, law, psi0, 0.001, 0.1, seed=s).fidelity)
               < 1.0 - 0.5 * radius * radius)
        for s in (40, 42, 43, 44)
    ]
    assert row.empirical_p == np.mean(exceeded)
    assert 0.0 < row.empirical_p < 1.0
    assert row.stderr == pytest.approx(np.sqrt(row.empirical_p * (1.0 - row.empirical_p) / 4))


def test_all_failed_raises(monkeypatch):
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    monkeypatch.setattr(_FlakyStepper, "dead_columns", (0, 1, 2))
    monkeypatch.setattr(ensemble_mod, "_Stepper", _FlakyStepper)
    with pytest.raises(ValidationError, match="every trajectory"):
        run_ensemble(model, law, QUBIT_PSI0, 0.001, 0.01, trials=3, base_seed=0)


def test_run_ensemble_input_validation():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    # a float or a bool is refused, not truncated or run as one trial
    for bad in (0, 2.5, 3.0, True, np.float64(2.0)):
        with pytest.raises(ValidationError, match="trials must be an integer >= 1"):
            run_ensemble(model, law, QUBIT_PSI0, 0.001, 0.1, trials=bad, base_seed=0)
    summary = run_ensemble(model, law, QUBIT_PSI0, 0.001, 0.01, trials=np.int64(2), base_seed=0)
    assert summary.trials == 2 and summary.included == 2
    with pytest.raises(ValidationError, match=r"psi0: dimension 3 does not match"):
        run_ensemble(model, law, np.array([1.0, 0, 0]), 0.001, 0.1, trials=1, base_seed=0)
    with pytest.raises(ValidationError, match=r"psi0: dimension 3 does not match"):
        simulate_trajectory(model, law, np.array([1.0, 0, 0]), 0.001, 0.1, seed=0)
    with pytest.raises(ValidationError, match="record_stride"):
        run_ensemble(
            model, law, QUBIT_PSI0, 0.001, 0.1, trials=1, base_seed=0, record_stride=0
        )
    # radii outside (0, 2) used to give an exceedance probability of 0
    for bad in ((5.0,), (float("nan"),), (-1.0,), (0.0,), (0.3, 2.0)):
        with pytest.raises(ValidationError, match=rf"r_list\[{len(bad) - 1}\]"):
            run_ensemble(model, law, QUBIT_PSI0, 0.001, 0.01, trials=1, base_seed=0, r_list=bad)
    # no radii is legal: nothing to track
    summary = run_ensemble(model, law, QUBIT_PSI0, 0.001, 0.01, trials=1, base_seed=0, r_list=())
    assert summary.sup_distance_exceed_prob == {} and summary.first_exit_times == {}


def test_seeds_and_counts_take_the_integer_rule(monkeypatch):
    # a float base_seed used to raise a bare TypeError, a bool was run as a
    # seed, and a float or bool record_stride was truncated
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    monkeypatch.setattr(ensemble_mod, "_Stepper", _SteplessStepper)
    tools = (
        lambda seed: run_ensemble(model, law, QUBIT_PSI0, 0.01, 0.1, 2, seed),
        lambda seed: invariance_probe(
            model, law, [model.target], dt=0.01, t_probe=0.1, trials=2, base_seed=seed
        ),
        lambda seed: stability_bound_test(
            model, law, 0.5, (0.1,), 2, dt=0.01, t_final=0.1, base_seed=seed
        ),
    )
    for tool in tools:
        for bad in (2.5, True, np.float64(3.0), -1):
            with pytest.raises(ValidationError, match=r"base_seed must be an integer >= 0"):
                tool(bad)
    for bad in (2.5, True, 0):
        with pytest.raises(ValidationError, match=r"record_stride must be an integer >= 1"):
            run_ensemble(model, law, QUBIT_PSI0, 0.01, 0.1, 2, 0, record_stride=bad)
    with pytest.raises(ValidationError, match=r"max_recorded must be an integer >= 1"):
        run_ensemble(model, law, QUBIT_PSI0, 0.01, 0.1, 2, 0, max_recorded=2.5)


def test_golden_ensemble_bytes(tmp_path):
    # 600 trials are reduced in three CHUNK-row blocks, so the bytes pin the
    # cross-block reduction as well as the kernel; tests/golden/make_golden.py
    # writes it
    model, law, params = bundled_fixture("qubit")
    summary = run_ensemble(
        model, law, params.initial_state, params.dt, 0.5, 600, params.seed, r_list=params.r_list
    )
    path = tmp_path / "ensemble.json"
    write_report_json(path, summary)
    assert path.read_bytes() == GOLDEN_ENSEMBLE.read_bytes()


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

    # a rise within V_ABS_TOL is rounding: 0 sigma however small its stderr;
    # the numbers are those of pair 125 of `ensemble qubit --trials 4`
    rounding_rise = supermartingale_test(fake([0.3, -1.4e-17, 1.1e-16], [0.0, 1e-2, 2.3e-17]))
    assert rounding_rise.passes
    assert rounding_rise.worst_violation_sigma == 0.0
    # a fall keeps its negative sigma
    assert supermartingale_test(fake([0.3, 0.28], [0.0, 0.01])).worst_violation_sigma == pytest.approx(-2.0)

    # one recorded time has no pair to test: refused, not passed on no evidence
    with pytest.raises(PreconditionError, match="at least two recorded times"):
        supermartingale_test(fake([0.5], [0.0]))


def test_supermartingale_test_refuses_zero_length_run():
    summary = run_ensemble(qubit_model(), ControlLaw(gains=(1.0,)), QUBIT_PSI0, 0.001, 0.0, 4, 0)
    assert summary.times.size == 1
    with pytest.raises(PreconditionError, match="got 1"):
        supermartingale_test(summary)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_stability_bound_test_rejects_bad_perturbation_sizes(monkeypatch, bad):
    # rejected before any row runs and before normalize, which warned on NaN and inf
    # (the suite turns a RuntimeWarning into an error)
    monkeypatch.setattr(ensemble_mod, "_Stepper", _SteplessStepper)
    for sizes in ((bad,), (0.1, bad)):
        with pytest.raises(ValidationError, match=rf"perturbation_sizes\[{len(sizes) - 1}\]"):
            stability_bound_test(
                qubit_model(), ControlLaw(gains=(1.0,)), 0.5, sizes, 4,
                dt=0.01, t_final=0.1, base_seed=0,
            )
    # no sizes would give no rows and a report that passes on no evidence
    with pytest.raises(ValidationError, match="perturbation_sizes must not be empty"):
        stability_bound_test(
            qubit_model(), ControlLaw(gains=(1.0,)), 0.5, (), 4, dt=0.01, t_final=0.1, base_seed=0
        )
    with pytest.raises(ValidationError, match="trials must be an integer"):
        stability_bound_test(
            qubit_model(), ControlLaw(gains=(1.0,)), 0.5, (0.1,), 4.0, dt=0.01, t_final=0.1, base_seed=0
        )


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


def test_invariance_probe_rejects_bad_candidate(monkeypatch):
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    with pytest.raises(ValidationError, match="candidates"):
        invariance_probe(
            model, law, [np.zeros(2)], dt=0.002, t_probe=0.1, trials=2, base_seed=0
        )
    # no candidates would give a result based on no trajectories
    with pytest.raises(ValidationError, match="candidates must not be empty"):
        invariance_probe(model, law, [], dt=0.002, t_probe=0.1, trials=2, base_seed=0)
    for bad in (0, 2.5, False):
        with pytest.raises(ValidationError, match="trials must be an integer >= 1"):
            invariance_probe(
                model, law, [model.target], dt=0.002, t_probe=0.1, trials=bad, base_seed=0
            )
    # a qubit state given to the qutrit is named, and refused before any candidate runs
    monkeypatch.setattr(ensemble_mod, "_Stepper", _SteplessStepper)
    qutrit = qutrit_model()
    with pytest.raises(
        ValidationError, match=r"candidates\[1\]: dimension 2 does not match model dimension 3"
    ):
        invariance_probe(
            qutrit, ControlLaw(gains=(1.0, 1.0)), [qutrit.target, model.target],
            dt=0.002, t_probe=0.1, trials=2, base_seed=0,
        )


def test_invariance_probe_names_collapsed_candidate(monkeypatch):
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    monkeypatch.setattr(_FlakyStepper, "dead_columns", (1,))
    monkeypatch.setattr(ensemble_mod, "_Stepper", _FlakyStepper)
    # one trial per candidate never reaches column 1 (a one-column batch is stepped
    # as two copies, and only the first is yielded); two trials do
    (probe,) = invariance_probe(
        model, law, [model.target], dt=0.002, t_probe=0.1, trials=1, base_seed=0
    )
    assert probe.stationary
    with pytest.raises(ValidationError, match=r"candidates\[0\]: probe trajectories failed"):
        invariance_probe(
            model, law, [model.target, model.target], dt=0.002, t_probe=0.1, trials=2, base_seed=0
        )
    # every row of every candidate dead: the first candidate is named
    monkeypatch.setattr(_FlakyStepper, "dead_columns", (0, 1, 2, 3))
    with pytest.raises(ValidationError, match=r"candidates\[0\]: probe trajectories failed"):
        invariance_probe(
            model, law, [model.target, model.target], dt=0.002, t_probe=0.1, trials=2, base_seed=0
        )


def test_stability_bound_test_names_a_size_with_no_survivors(monkeypatch):
    # rows 3, 4 and 5 are the three trials of size 1; with no survivors its
    # binomial stderr would divide by 0
    monkeypatch.setattr(_FlakyStepper, "dead_columns", (3, 4, 5))
    monkeypatch.setattr(ensemble_mod, "_Stepper", _FlakyStepper)
    with pytest.raises(
        ValidationError, match=r"perturbation_sizes\[1\]: every trajectory failed to integrate"
    ):
        stability_bound_test(
            qubit_model(), ControlLaw(gains=(1.0,)), 0.5, (0.1, 0.2, 0.3), 3,
            dt=0.01, t_final=0.1, base_seed=0,
        )


def test_tools_refuse_a_bare_number_or_state_for_a_list(monkeypatch):
    # a bare number raised a bare TypeError, and a bare state was walked
    # component by component
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    monkeypatch.setattr(ensemble_mod, "_Stepper", _SteplessStepper)
    with pytest.raises(ValidationError, match=r"perturbation_sizes: expected a list of sizes, got 0\.1"):
        stability_bound_test(model, law, 0.5, 0.1, 2, dt=0.01, t_final=0.1, base_seed=0)
    for bad in (5, model.target):
        with pytest.raises(ValidationError, match=r"candidates: expected a list of states"):
            invariance_probe(model, law, bad, dt=0.01, t_probe=0.1, trials=2, base_seed=0)
