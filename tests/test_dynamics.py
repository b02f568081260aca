"""Integrator tests: noise paths, step kernels, convergence, determinism."""

import numpy as np
import pytest
from scipy.linalg import expm

from qlyap import (
    ControlLaw,
    IntegrationError,
    PreconditionError,
    SystemModel,
    ValidationError,
    WienerPath,
    simulate_trajectory,
)
from qlyap.dynamics import diffusion, drift, euler_maruyama_step, euler_maruyama_step_many
from qlyap.control import control_signals

from conftest import QUBIT_PSI0, qubit_model, qutrit_model, random_state


def test_wiener_path_reproducible_and_distributed():
    p1 = WienerPath.generate(42, 5000, 0.01)
    p2 = WienerPath.generate(42, 5000, 0.01)
    assert np.array_equal(p1.increments, p2.increments)
    assert p1.steps == 5000
    assert not np.array_equal(p1.increments, WienerPath.generate(43, 5000, 0.01).increments)
    assert abs(np.mean(p1.increments)) < 5e-3
    assert np.var(p1.increments) == pytest.approx(0.01, rel=0.1)
    with pytest.raises(ValueError):
        p1.increments[0] = 0.0  # write-protected


def test_wiener_path_coarsen():
    p = WienerPath.generate(7, 12, 0.5)
    c = p.coarsen(4)
    assert c.steps == 3
    assert c.dt == pytest.approx(2.0)
    assert np.allclose(c.increments, p.increments.reshape(3, 4).sum(axis=1))
    with pytest.raises(ValidationError):
        p.coarsen(5)


def test_drift_hand_case():
    model = qubit_model()
    psi = np.array([1.0, 0.0], dtype=complex)
    # <X> = 1 at e_1 so the measurement term vanishes; pure Hamiltonian flow
    f = drift(model, np.array([0.5]), psi)
    h = model.free_hamiltonian + 0.5 * model.controls[0]
    assert np.allclose(f, -1j * (h @ psi), atol=1e-14)
    assert np.allclose(diffusion(model, psi), 0.0, atol=1e-14)


def test_drift_matches_matrix_polynomial():
    rng = np.random.default_rng(301)
    model = qubit_model(k=0.8)
    eye = np.eye(model.n)
    for _ in range(200):
        psi = random_state(rng, model.n)
        u = rng.normal(size=model.m)
        x_mean = float(np.real(np.vdot(psi, model.observable @ psi)))
        xc = model.observable - x_mean * eye
        expected = (-1j / model.hbar) * (model.hamiltonian(u) @ psi) - (
            model.measurement_strength * (xc @ xc) @ psi
        )
        assert np.max(np.abs(drift(model, u, psi) - expected)) < 1e-13
        g_expected = np.sqrt(2.0 * model.measurement_strength) * (xc @ psi)
        assert np.max(np.abs(diffusion(model, psi) - g_expected)) < 1e-13


def test_diffusion_orthogonal_to_state():
    rng = np.random.default_rng(302)
    model = qubit_model(k=2.0)
    for _ in range(1000):
        psi = random_state(rng, 2)
        assert abs(np.vdot(psi, diffusion(model, psi))) < 1e-12


def test_em_step_matches_frozen_control_unitary():
    # with k = 0 the step is deterministic; against expm of the zero-order
    # hold Hamiltonian the one-step error must scale like dt^2 (n = 3: for a
    # qubit the renormalized step is accidentally third order, since a
    # traceless 2x2 Hamiltonian squares to a multiple of the identity)
    model = qutrit_model(k=0.0)
    law = ControlLaw(gains=(1.0, 1.0))
    psi = np.array([0.6, 0.48j, 0.64], dtype=complex)
    errs = []
    for dt in (1e-3, 1e-4):
        u = control_signals(model, law, psi)
        exact = expm(-1j * dt * model.hamiltonian(u)) @ psi
        stepped = euler_maruyama_step(model, law, psi, dt, 0.0)
        errs.append(np.linalg.norm(stepped - exact))
    ratio = errs[0] / errs[1]
    assert 50.0 < ratio < 200.0


def test_strong_convergence_toward_reference_path():
    # same Brownian path on nested grids; strong error should shrink with
    # order between one half and one
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    t_final = 0.5
    dt = 0.01
    err_coarse = []
    err_fine = []
    for seed in range(40):
        fine = WienerPath.generate(seed, int(round(t_final / (dt / 16))), dt / 16)
        ref = simulate_trajectory(
            model, law, QUBIT_PSI0, dt / 16, t_final, seed, increments=fine.increments
        )
        c16 = fine.coarsen(16)
        c8 = fine.coarsen(8)
        sol_c = simulate_trajectory(
            model, law, QUBIT_PSI0, dt, t_final, seed, increments=c16.increments
        )
        sol_f = simulate_trajectory(
            model, law, QUBIT_PSI0, dt / 2, t_final, seed, increments=c8.increments
        )
        err_coarse.append(np.linalg.norm(sol_c.states[-1] - ref.states[-1]))
        err_fine.append(np.linalg.norm(sol_f.states[-1] - ref.states[-1]))
    ratio = np.mean(err_coarse) / np.mean(err_fine)
    assert 1.2 < ratio < 2.8


def test_simulate_trajectory_deterministic():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    r1 = simulate_trajectory(model, law, QUBIT_PSI0, 1e-3, 0.2, 99)
    r2 = simulate_trajectory(model, law, QUBIT_PSI0, 1e-3, 0.2, 99)
    assert np.array_equal(r1.states, r2.states)
    assert np.array_equal(r1.controls_applied, r2.controls_applied)
    assert np.array_equal(r1.wiener_increments, r2.wiener_increments)
    r3 = simulate_trajectory(model, law, QUBIT_PSI0, 1e-3, 0.2, 100)
    assert not np.array_equal(r1.states, r3.states)


def test_trajectory_record_shapes_and_identities():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    rec = simulate_trajectory(model, law, QUBIT_PSI0, 1e-3, 0.05, 5)
    steps = rec.steps
    assert steps == 50
    assert rec.states.shape == (51, 2)
    assert rec.controls_applied.shape == (50, 1)
    assert rec.times[0] == 0.0
    assert rec.times[-1] == pytest.approx(0.05)
    assert np.array_equal(rec.lyapunov, 0.5 * (1.0 - rec.fidelity))
    norms = np.linalg.norm(rec.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    # every state stays unit so fidelity is bounded
    assert np.all(rec.fidelity <= 1.0 + 1e-12)


def test_step_count_must_divide():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    with pytest.raises(PreconditionError):
        simulate_trajectory(model, law, QUBIT_PSI0, 0.0003, 0.001, 1)


@pytest.mark.parametrize(
    "dt, t_final", [(np.nan, 1.0), (np.inf, 1.0), (0.001, np.inf), (0.001, np.nan)]
)
def test_non_finite_times_rejected(dt, t_final):
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    with pytest.raises(ValidationError):
        simulate_trajectory(model, law, QUBIT_PSI0, dt, t_final, 1)
    if not np.isfinite(dt):
        with pytest.raises(ValidationError, match="dt"):
            WienerPath.generate(1, 10, dt)


def test_norm_collapse_raises():
    # contraction model: f = -k psi exactly, so one step of size dt = 1 - 1e-7
    # with zero noise shrinks the norm below the collapse threshold
    model = SystemModel(
        free_hamiltonian=np.zeros((2, 2), dtype=complex),
        controls=(),
        observable=np.diag([1.0, -1.0]).astype(complex),
        target=np.array([0.0, 1.0], dtype=complex),
        measurement_strength=1.0,
    )
    law = ControlLaw(gains=())
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    dt = 1.0 - 1e-7
    with pytest.raises(IntegrationError):
        euler_maruyama_step(model, law, psi, dt, 0.0)
    with pytest.raises(IntegrationError, match="at step 0"):
        simulate_trajectory(model, law, psi, dt, dt, 3, increments=np.array([0.0]))


def test_em_step_many_matches_single_steps():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    rng = np.random.default_rng(303)
    states = np.stack([random_state(rng, 2) for _ in range(37)])
    dws = rng.normal(0.0, np.sqrt(1e-3), 37)
    batch = euler_maruyama_step_many(model, law, states, 1e-3, dws)
    for i in range(37):
        single = euler_maruyama_step(model, law, states[i], 1e-3, dws[i])
        assert np.array_equal(batch[i], single)


def test_observable_mean_pair_cancellation():
    # QND model (no Hamiltonian): the dt-coefficient of d<X> cancels against
    # the Ito correction, so averaging one step over +/- dW leaves <X>
    # unchanged to O(dt^2)
    model = SystemModel(
        free_hamiltonian=np.zeros((2, 2), dtype=complex),
        controls=(),
        observable=np.diag([1.0, -1.0]).astype(complex),
        target=np.array([0.0, 1.0], dtype=complex),
        measurement_strength=0.7,
    )
    law = ControlLaw(gains=())
    rng = np.random.default_rng(304)
    psi = random_state(rng, 2)
    x0 = float(np.real(np.vdot(psi, model.observable @ psi)))

    def pair_bias(dt):
        xs = []
        for sign in (1.0, -1.0):
            out = euler_maruyama_step(model, law, psi, dt, sign * np.sqrt(dt))
            xs.append(float(np.real(np.vdot(out, model.observable @ out))))
        return abs(0.5 * (xs[0] + xs[1]) - x0)

    b1 = pair_bias(2e-3)
    b2 = pair_bias(1e-3)
    assert b1 / b2 == pytest.approx(4.0, rel=0.4)


def test_zero_horizon_records_initial_state_only():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    rec = simulate_trajectory(model, law, QUBIT_PSI0, 1e-3, 0.0, 1)
    assert rec.steps == 0
    assert rec.states.shape == (1, 2)
    assert rec.lyapunov[0] == pytest.approx(0.18)
