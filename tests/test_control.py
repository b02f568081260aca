"""Lyapunov function, floors, feedback signals, and generator algebra."""

import numpy as np
import pytest

from qlyap import (
    ControlLaw,
    PreconditionError,
    SystemModel,
    ValidationError,
    closed_loop_generator,
    control_signals,
    lyapunov_generator,
    lyapunov_increment,
    lyapunov_value,
    min_lyapunov_at_distance,
)
from qlyap.dynamics import diffusion, drift
from qlyap.quantum import equivalence_distance, normalize

from conftest import qubit_model, qutrit_model, random_state


def test_lyapunov_value_range_and_hand_cases():
    target = np.array([0.0, 1.0], dtype=complex)
    assert lyapunov_value(target, target) == 0.0
    assert lyapunov_value(1j * target, target) == pytest.approx(0.0, abs=1e-15)
    assert lyapunov_value(np.array([1.0, 0.0]), target) == pytest.approx(0.5)
    assert lyapunov_value(np.array([0.6, 0.8]), target) == pytest.approx(0.18)


def test_min_lyapunov_at_distance_formula():
    assert min_lyapunov_at_distance(0.5) == pytest.approx(0.1171875, abs=1e-15)
    for r in (0.1, 0.3, 0.5, 1.0, 1.2, np.sqrt(2.0) - 1e-9):
        tight = min_lyapunov_at_distance(r)
        assert tight == pytest.approx(0.5 * (1.0 - (1.0 - r * r / 2.0) ** 2), abs=1e-15)
    # beyond sqrt(2) no state is that far away; the floor saturates at max V
    assert min_lyapunov_at_distance(1.5) == 0.5
    assert min_lyapunov_at_distance(1.999) == 0.5
    with pytest.raises(ValidationError, match=r"^radius: must lie in \(0, 2\), got 2\.0"):
        min_lyapunov_at_distance(2.0)
    # not a number: a bare TypeError or ValueError from float(), or True taken as 1.0
    for bad in (None, "0.5", True):
        with pytest.raises(ValidationError, match="^radius: expected a number"):
            min_lyapunov_at_distance(bad)


def test_min_lyapunov_floor_is_attained_on_boundary():
    target = np.array([0.0, 0.0, 1.0], dtype=complex)
    perp = np.array([1.0, 0.0, 0.0], dtype=complex)
    for r_dist in (0.3, 0.5, 1.0):
        overlap = 1.0 - r_dist * r_dist / 2.0
        psi = overlap * target + np.sqrt(1.0 - overlap ** 2) * perp
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert equivalence_distance(psi, target) == pytest.approx(r_dist, abs=1e-12)
        assert lyapunov_value(psi, target) == pytest.approx(
            min_lyapunov_at_distance(r_dist), abs=1e-12
        )


def test_min_lyapunov_floor_against_rejection_sampling():
    rng = np.random.default_rng(201)
    target = np.array([1.0, 0.0], dtype=complex)
    radius = 0.5
    floor = min_lyapunov_at_distance(radius)
    values = []
    for _ in range(20000):
        psi = random_state(rng, 2)
        if equivalence_distance(psi, target) >= radius:
            values.append(lyapunov_value(psi, target))
    assert len(values) > 1000
    sampled_min = min(values)
    assert sampled_min >= floor - 1e-12
    assert sampled_min <= floor + 0.02  # the bound is tight, samples get close


def test_lyapunov_increment_is_exact():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        psi = random_state(rng, n)
        target = random_state(rng, n)
        delta = (rng.normal(size=n) + 1j * rng.normal(size=n)) * rng.uniform(0.0, 2.0)
        direct = lyapunov_value(psi + delta, target) - lyapunov_value(psi, target)
        assert abs(lyapunov_increment(psi, delta, target) - direct) < 1e-12


def test_control_signals_hand_cases():
    model = qubit_model()
    law = ControlLaw(gains=(0.7,))
    # orthogonal state with real coupling: zero signal
    u = control_signals(model, law, np.array([1.0, 0.0], dtype=complex))
    assert u.shape == (1,)
    assert u[0] == 0.0
    # the i-rotated orthogonal state drives at full gain
    u = control_signals(model, law, np.array([1.0j, 0.0], dtype=complex))
    assert u[0] == pytest.approx(0.7, abs=1e-14)
    # on target the signal vanishes
    u = control_signals(model, law, model.target)
    assert u[0] == pytest.approx(0.0, abs=1e-14)


def test_control_signals_phase_invariant_away_from_lock():
    model = qutrit_model()
    law = ControlLaw(gains=(1.0, 0.5))
    rng = np.random.default_rng(204)
    for _ in range(200):
        psi = random_state(rng, 3)
        if abs(np.vdot(model.target, psi)) < 1e-6:
            continue
        u0 = control_signals(model, law, psi)
        u1 = control_signals(model, law, np.exp(1j * rng.uniform(0, 2 * np.pi)) * psi)
        assert np.max(np.abs(u0 - u1)) < 1e-10


def test_generator_matches_directional_calculus():
    # drift of V must equal the increment calculus applied to the SDE
    # coefficients: -Re(<psi|t><t|f>) - |<t|g>|^2 / 2, noise = -Re(<psi|t><t|g>)
    rng = np.random.default_rng(205)
    model = qutrit_model(k=0.8)
    for _ in range(200):
        psi = random_state(rng, 3)
        u = rng.normal(size=2)
        terms = lyapunov_generator(model, u, psi)
        f = drift(model, u, psi)
        g = diffusion(model, psi)
        overlap = np.vdot(psi, model.target)
        tf = np.vdot(model.target, f)
        tg = np.vdot(model.target, g)
        expected_drift = -np.real(overlap * tf) - 0.5 * abs(tg) ** 2
        expected_noise = -np.real(overlap * tg)
        assert terms.drift == pytest.approx(expected_drift, abs=1e-12)
        assert terms.noise == pytest.approx(expected_noise, abs=1e-12)


def test_closed_loop_generator_nonpositive_and_consistent():
    rng = np.random.default_rng(206)
    for model in (qubit_model(), qutrit_model()):
        law = ControlLaw(gains=tuple(1.0 for _ in range(model.m)))
        for _ in range(500):
            psi = random_state(rng, model.n)
            reduced = closed_loop_generator(model, law, psi)
            assert reduced <= 1e-15
            u = control_signals(model, law, psi)
            general = lyapunov_generator(model, u, psi).drift
            assert abs(reduced - general) < 1e-12


def test_closed_loop_generator_requires_eigenstructure():
    base = qubit_model()
    model = SystemModel(
        free_hamiltonian=base.free_hamiltonian,
        controls=base.controls,
        observable=base.observable,
        target=normalize(np.array([1.0, 1.0])),
        measurement_strength=1.0,
    )
    with pytest.raises(PreconditionError):
        closed_loop_generator(model, ControlLaw(gains=(1.0,)), np.array([1.0, 0.0]))


def test_every_state_argument_names_a_wrong_dimension_one_way():
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    wrong = np.array([1.0, 0.0, 0.0])
    calls = (
        lambda: control_signals(model, law, wrong),
        lambda: lyapunov_generator(model, np.zeros(1), wrong),
        lambda: closed_loop_generator(model, law, wrong),
        lambda: drift(model, np.zeros(1), wrong),
        lambda: diffusion(model, wrong),
    )
    for call in calls:
        with pytest.raises(ValidationError, match=r"^state: dimension 3 does not match model dimension 2$"):
            call()
