"""Structural analysis: assumption report, invariant slices, escape matrix."""

import numpy as np
import pytest

from qlyap import (
    ControlLaw,
    SystemModel,
    check_assumptions,
    common_eigenkets,
    escape_matrix,
    invariant_set_slice,
    invariant_set_sweep,
    shifted_controls_independent,
    to_jsonable,
)
from qlyap.dynamics import euler_maruyama_step

from conftest import (
    four_level_deficient_model,
    four_level_model,
    qubit_model,
    qutrit_model,
    random_state,
)


def test_assumptions_hold_on_good_models():
    for model in (qubit_model(), qutrit_model(), four_level_model()):
        report = check_assumptions(model)
        assert report.all_hold, to_jsonable(report)
        assert report.target_free_eigenstate.degeneracy == 1
        assert report.target_observable_eigenstate.degeneracy == 1
        assert report.independent_generators.rank == model.m + 1
        assert report.independent_generators.common_eigenkets == ()
        assert all(report.controls_move_target.movers)


def test_assumption_eigenvalues_reported():
    report = check_assumptions(qutrit_model())
    assert report.target_free_eigenstate.eigenvalue == pytest.approx(2.0)
    assert report.target_observable_eigenstate.eigenvalue == pytest.approx(1.0)


def test_assumptions_fail_on_deficient_model():
    model = four_level_deficient_model()
    report = check_assumptions(model)
    assert not report.all_hold
    assert report.controls_move_target.movers == (True, True, False)
    assert not report.controls_move_target.holds
    # e_4 is a simultaneous eigenvector of every generator
    assert not report.independent_generators.holds
    kets = report.independent_generators.common_eigenkets
    assert len(kets) == 1
    assert np.allclose(kets[0], np.array([0, 0, 0, 1.0]), atol=1e-9)
    # the eigenstate findings still hold
    assert report.target_free_eigenstate.holds
    assert report.target_observable_eigenstate.holds


def test_assumptions_fail_on_degenerate_observable_eigenvalue():
    model = SystemModel(
        free_hamiltonian=np.diag([2.0, -1.0, -1.0]).astype(complex),
        controls=qutrit_model().controls,
        observable=np.diag([1.0, 1.0, -2.0]).astype(complex),
        target=np.array([1.0, 0.0, 0.0], dtype=complex),
        measurement_strength=1.0,
    )
    report = check_assumptions(model)
    finding = report.target_observable_eigenstate
    assert finding.eigenvalue == pytest.approx(1.0)
    assert finding.degeneracy == 2
    assert not finding.holds


def test_assumptions_fail_on_dependent_controls():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    model = SystemModel(
        free_hamiltonian=np.diag([1.0, -1.0]).astype(complex),
        controls=(sx, 2.0 * sx),
        observable=np.diag([1.0, -1.0]).astype(complex),
        target=np.array([0.0, 1.0], dtype=complex),
        measurement_strength=1.0,
    )
    report = check_assumptions(model)
    assert report.independent_generators.rank == 2
    assert not report.independent_generators.holds


def test_common_eigenkets_hand_cases():
    a = np.diag([1.0, 1.0, -2.0]).astype(complex)
    b = np.diag([0.0, 1.0, -1.0]).astype(complex)
    kets = common_eigenkets((a, b))
    assert len(kets) == 3
    got = sorted(int(np.argmax(np.abs(k))) for k in kets)
    assert got == [0, 1, 2]

    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert common_eigenkets((sz, sx)) == ()


def test_shifted_controls_independent_generic_and_collapsing():
    model = qutrit_model()
    rng = np.random.default_rng(401)
    for _ in range(100):
        shifts = rng.uniform(-3.0, 3.0, size=2)
        assert shifted_controls_independent(model, shifts)

    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    pair = SystemModel(
        free_hamiltonian=np.diag([1.0, -1.0]).astype(complex),
        controls=(sx, 2.0 * sx),
        observable=np.diag([1.0, -1.0]).astype(complex),
        target=np.array([0.0, 1.0], dtype=complex),
        measurement_strength=1.0,
    )
    # 2 H1 - (2 c) I = 2 (H1 - c I): the shifted family collapses exactly
    # when the second shift doubles the first
    assert not shifted_controls_independent(pair, np.array([0.3, 0.6]))
    assert shifted_controls_independent(pair, np.array([0.3, 0.0]))


def test_invariant_set_slice_qubit_hand_cases():
    model = qubit_model()
    at_zero = invariant_set_slice(model, np.array([0.0]))
    assert at_zero.dimension == 1
    assert at_zero.contains_target
    assert abs(abs(at_zero.basis[1, 0]) - 1.0) < 1e-12

    shifted = invariant_set_slice(model, np.array([0.5]))
    assert shifted.dimension == 1
    assert not shifted.contains_target
    v = shifted.basis[:, 0]
    coupling = np.vdot(model.target, model.controls[0] @ v)
    plain = np.vdot(model.target, v)
    assert abs(coupling - 0.5 * plain) < 1e-12


def test_invariant_set_slice_defining_equations():
    rng = np.random.default_rng(402)
    for model in (qutrit_model(), four_level_model()):
        for _ in range(50):
            shifts = rng.uniform(-2.0, 2.0, size=model.m)
            result = invariant_set_slice(model, shifts)
            assert result.dimension == 1  # generic shifts leave a single ray
            basis = result.basis
            assert basis.shape == (model.n, result.dimension)
            assert np.max(np.abs(basis.conj().T @ basis - np.eye(result.dimension))) < 1e-10
            for k, hk in enumerate(model.controls):
                residual = np.vdot(model.target, hk @ basis[:, 0]) - shifts[k] * np.vdot(
                    model.target, basis[:, 0]
                )
                assert abs(residual) < 1e-9


def _b2_model():
    """Two controls sharing one eigenvector (e_4): slices gain a dimension."""
    h1 = np.zeros((4, 4), dtype=complex)
    h1[0, 1] = h1[1, 0] = h1[1, 2] = h1[2, 1] = 1.0
    h2 = np.zeros((4, 4), dtype=complex)
    h2[0, 1] = h2[1, 0] = 1.0
    return SystemModel(
        free_hamiltonian=np.diag([3.0, -1.0, -1.0, -1.0]).astype(complex),
        controls=(h1, h2),
        observable=np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex),
        target=np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
        measurement_strength=1.0,
    )


def test_invariant_set_dimension_grows_with_common_eigenkets():
    model = _b2_model()
    shared = common_eigenkets(model.controls)
    assert len(shared) == 1
    assert np.allclose(shared[0], np.array([0, 0, 0, 1.0]), atol=1e-9)
    rng = np.random.default_rng(403)
    for _ in range(50):
        shifts = rng.uniform(-2.0, 2.0, size=2)
        result = invariant_set_slice(model, shifts)
        assert result.dimension == 1 + len(shared)
        # the shared eigenvector sits inside every slice
        coords = result.basis.conj().T @ shared[0]
        assert np.linalg.norm(result.basis @ coords - shared[0]) < 1e-9


def test_invariant_set_sweep_qutrit():
    model = qutrit_model()
    sweep = invariant_set_sweep(model, grid_points=9)
    assert sweep.max_dimension == 1
    assert set(sweep.dimension_counts) == {1}
    assert sweep.dimension_counts[1] == sweep.grids[0].size * sweep.grids[1].size
    assert sweep.target_slice.dimension == 1
    assert sweep.target_slice.contains_target
    assert sweep.target_slice.shifts == (0.0, 0.0)


def test_invariant_set_sweep_b2():
    sweep = invariant_set_sweep(_b2_model(), grid_points=7)
    assert set(sweep.dimension_counts) <= {2, 3}
    assert min(sweep.dimension_counts) == 2
    assert sweep.max_dimension == 3  # both grids share shift values


def test_escape_matrix_four_level():
    result = escape_matrix(four_level_model())
    expected = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0j, 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )
    assert np.allclose(result.matrix, expected, atol=1e-12)
    assert result.full_rank
    assert result.rank == 3
    assert np.allclose(result.singular_values, (1.0, 1.0, 1.0), atol=1e-12)


def test_escape_matrix_deficient_rank_two():
    result = escape_matrix(four_level_deficient_model())
    assert not result.full_rank
    assert result.rank == 2
    assert np.allclose(result.matrix[2], 0.0, atol=1e-12)


def test_escape_matrix_rank_meaning():
    # full rank: every orthogonal state keeps a coupling to the target;
    # deficient: the stuck direction annihilates all of them
    rng = np.random.default_rng(404)
    model = four_level_model()
    result = escape_matrix(model)
    perp = result.completion[:, 1:]
    for _ in range(100):
        coords = random_state(rng, 3)
        psi = perp @ coords
        couplings = np.array([np.vdot(model.target, hk @ psi) for hk in model.controls])
        assert np.linalg.norm(couplings) > 0.99  # sigma_min = 1 here

    deficient = four_level_deficient_model()
    stuck = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    couplings = np.array([np.vdot(deficient.target, hk @ stuck) for hk in deficient.controls])
    assert np.max(np.abs(couplings)) < 1e-14


def _expected_escape_increment(model, law, state):
    # Mean drift of <t|psi> from a target-orthogonal state when the target is
    # an eigenvector of H0 and of the observable: the free, measurement and
    # noise terms vanish there and the feedback leaves
    # -i/hbar sum_k gain_k Im(<t|H_k|psi>) <t|H_k|psi>.
    couplings = [complex(np.vdot(model.target, hk @ state)) for hk in model.controls]
    rate = sum(gain * c.imag * c for gain, c in zip(law.gains, couplings))
    return -1j / model.hbar * rate


def _one_step_rate(model, law, state, dt=1e-6):
    # one noiseless step moves <t|psi> by rate * dt up to O(dt^2)
    stepped = euler_maruyama_step(model, law, state, dt, 0.0)
    return complex(np.vdot(model.target, stepped)) / dt


def test_expected_escape_increment_values_and_one_step_agreement():
    model = four_level_model()
    law = ControlLaw(gains=(1.0, 1.0, 1.0))
    # real coupling: zero first-order escape
    e1 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    assert _expected_escape_increment(model, law, e1) == 0.0
    assert abs(_one_step_rate(model, law, e1)) < 1e-4
    # the i-rotated state drives the overlap at unit rate
    psi = 1j * e1
    rate = _expected_escape_increment(model, law, psi)
    assert rate == pytest.approx(1.0, abs=1e-14)
    assert abs(_one_step_rate(model, law, psi) - rate) < 1e-4


def test_expected_escape_increment_zero_on_stuck_state():
    model = four_level_deficient_model()
    law = ControlLaw(gains=(1.0, 1.0, 1.0))
    stuck = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    for phase in (1.0, 1j, np.exp(0.4j)):
        assert abs(_expected_escape_increment(model, law, phase * stuck)) == 0.0
        assert abs(_one_step_rate(model, law, phase * stuck)) < 1e-4
