"""Structural analysis: assumption report, invariant slices, escape matrix."""

import dataclasses
import itertools
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlyap import (
    ControlLaw,
    InvariantSetSweep,
    SystemModel,
    ValidationError,
    check_assumptions,
    common_eigenkets,
    escape_matrix,
    invariant_set_slice,
    invariant_set_sweep,
    shifted_controls_independent,
    to_jsonable,
    write_report_json,
)
from qlyap.analysis import MAX_SWEEP_NODES
from qlyap.dynamics import euler_maruyama_step

from conftest import (
    four_level_deficient_model,
    four_level_model,
    qubit_model,
    qutrit_model,
    random_hermitian,
    random_state,
)

GOLDEN_SWEEP = pathlib.Path(__file__).parent / "golden" / "sweep_deficient.json"


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


def _sweep_by_slices(model, grids):
    # the per-node loop the sweep ran before the rank rule: one
    # invariant_set_slice per node in itertools.product order
    counts = {}
    best = None
    for combo in itertools.product(*grids):
        result = invariant_set_slice(model, np.array(combo))
        counts[result.dimension] = counts.get(result.dimension, 0) + 1
        if best is None or result.dimension > best.dimension:
            best = result
    canonical = np.array(
        [float(np.real(np.vdot(model.target, hk @ model.target))) for hk in model.controls]
    )
    return InvariantSetSweep(
        grids=grids,
        dimension_counts=counts,
        max_dimension=best.dimension,
        max_dimension_slice=best,
        target_slice=invariant_set_slice(model, canonical),
    )


def _assert_sweep_matches_slices(model, grid_points):
    sweep = invariant_set_sweep(model, grid_points=grid_points)
    oracle = _sweep_by_slices(model, sweep.grids)
    assert sweep.dimension_counts == oracle.dimension_counts
    assert sweep.max_dimension == oracle.max_dimension
    assert to_jsonable(sweep) == to_jsonable(oracle)
    return sweep


@pytest.mark.parametrize("grid_points", [3, 7])
def test_invariant_set_sweep_matches_per_node_slices_on_fixtures(grid_points):
    for model in (qubit_model(), qutrit_model(), four_level_model(), _b2_model()):
        _assert_sweep_matches_slices(model, grid_points)
    # axis 4 decouples, so the nodes whose third shift is 0 gain a dimension
    sweep = _assert_sweep_matches_slices(four_level_deficient_model(), grid_points)
    plane = sweep.grids[0].size * sweep.grids[1].size
    assert sweep.dimension_counts == {1: plane * (sweep.grids[2].size - 1), 2: plane}


def _traceless_control(rng, n, eigenket=None):
    h = random_hermitian(rng, n)
    if eigenket is not None:
        # keep eigenket as an eigenvector: zero its couplings to the rest
        ket = np.outer(eigenket, eigenket.conj())
        proj = np.eye(n) - ket
        h = proj @ h @ proj + rng.normal() * ket
        h = 0.5 * (h + h.conj().T)
    return h - (np.trace(h).real / n) * np.eye(n)


def _random_sweep_models(seed):
    """Seeded models with n <= 4, generic and with a rank-deficient coupling matrix W."""
    rng = np.random.default_rng(seed)
    for n, m in itertools.product((2, 3, 4), (1, 2, 3)):
        target = random_state(rng, n)
        other = random_state(rng, n)
        other = other - np.vdot(target, other) * target
        other = other / np.linalg.norm(other)
        families = {
            "generic": [_traceless_control(rng, n) for _ in range(m)],
            # an orthogonal eigenket shared by every control drops rank W
            "shared eigenket": [_traceless_control(rng, n, other) for _ in range(m)],
            # the target is an eigenvector of control 0: a zero row of W
            "zero row": [_traceless_control(rng, n, target)]
            + [_traceless_control(rng, n) for _ in range(m - 1)],
            # the target is an eigenvector of every control: W = 0
            "all rows zero": [_traceless_control(rng, n, target) for _ in range(m)],
        }
        if m >= 2:
            first = _traceless_control(rng, n)
            families["duplicated rows"] = [first] + [
                _traceless_control(rng, n) for _ in range(m - 2)
            ] + [first]
        for kind, controls in families.items():
            model = SystemModel(
                free_hamiltonian=_traceless_control(rng, n),
                controls=tuple(controls),
                observable=random_hermitian(rng, n),
                target=target,
                measurement_strength=1.0,
            )
            yield f"n={n} m={m} {kind}", model


def test_invariant_set_sweep_matches_per_node_slices_on_random_models():
    classes = {}
    for label, model in _random_sweep_models(405):
        sweep = _assert_sweep_matches_slices(model, 5 if model.m < 3 else 3)
        classes[label] = len(sweep.dimension_counts)
    # the deficient families put nodes on the set, next to nodes off it
    assert classes["n=4 m=3 duplicated rows"] == 2
    assert classes["n=3 m=2 zero row"] == 2
    assert classes["n=4 m=2 all rows zero"] == 2
    assert sum(count == 2 for count in classes.values()) >= 10


def _unit_model(seed, n, m):
    """A seeded model with exact structure for the checks to find.

    The target is usually an eigenvector of H0, with the other levels of H0
    sometimes degenerate; it is always an eigenvector of X, sometimes a
    degenerate one. Each control is generic, leaves the target fixed, or
    shares an orthogonal eigenket with the others, and two may be equal.
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    target, other = basis[:, 0], basis[:, -1]
    levels, spectrum = rng.normal(size=n), rng.normal(size=n)
    if rng.random() < 0.5:
        levels[1:] = levels[1]
    if rng.random() < 0.3:
        spectrum[1] = spectrum[0]
    h0 = basis @ np.diag(levels) @ basis.conj().T
    h0 = h0 - (np.trace(h0).real / n) * np.eye(n)
    if rng.random() < 0.3:
        h0 = _traceless_control(rng, n)
    controls = [_traceless_control(rng, n, (None, target, other)[rng.integers(3)]) for _ in range(m)]
    if m >= 2 and rng.random() < 0.3:
        controls[-1] = controls[0]
    return SystemModel(
        free_hamiltonian=h0,
        controls=tuple(controls),
        observable=basis @ np.diag(spectrum) @ basis.conj().T,
        target=target,
        measurement_strength=1.0,
    )


def _in_units(model, s):
    """The same closed loop with H0, every control and hbar scaled by s."""
    return dataclasses.replace(
        model,
        free_hamiltonian=s * model.free_hamiltonian,
        controls=tuple(s * hk for hk in model.controls),
        hbar=s * model.hbar,
    )


def _structural_findings(model):
    report = check_assumptions(model)
    independence = report.independent_generators
    canonical = [float(np.real(np.vdot(model.target, hk @ model.target))) for hk in model.controls]
    target_slice = invariant_set_slice(model, canonical)
    return (
        [(f.holds, f.degeneracy) for f in (report.target_free_eigenstate, report.target_observable_eigenstate)],
        report.controls_move_target.movers,
        (independence.holds, independence.rank, len(independence.common_eigenkets)),
        escape_matrix(model).rank,
        (target_slice.dimension, target_slice.contains_target),
    )


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    exponent=st.floats(-12.0, 12.0),
)
def test_structural_findings_do_not_depend_on_units(seed, n, m, exponent):
    # every tolerance is a fraction of the operators' largest entry, so a
    # change of units (H0, the controls and hbar scaled alike) moves no finding
    model = _unit_model(seed, n, m)
    expected = _structural_findings(model)
    for s in (1e-12, 1e-9, 1e-6, 10.0**exponent, 1e6, 1e9, 1e12):
        assert _structural_findings(_in_units(model, s)) == expected, s


def test_fixture_findings_do_not_depend_on_units():
    for model in (qubit_model(), qutrit_model(), four_level_model(), four_level_deficient_model()):
        expected = _structural_findings(model)
        for exponent in range(-12, 13, 3):
            assert _structural_findings(_in_units(model, 10.0**exponent)) == expected, exponent


def test_invariant_set_sweep_near_node_limit_stays_in_memory_bound():
    # 995 points keep 995 ** 2 under MAX_SWEEP_NODES; the eigenvalues the
    # grids add make 998 * 997 = 995006 nodes
    model = _b2_model()
    assert 995**2 <= MAX_SWEEP_NODES
    tracemalloc.start()
    try:
        sweep = invariant_set_sweep(model, grid_points=995)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sweep.dimension_counts.values()) == 995006
    assert sweep.max_dimension == 3
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_invariant_set_sweep_grid_points_take_the_integer_rule():
    # a float used to reach np.linspace's TypeError
    for bad in (2.5, True, np.float64(10.0), 1):
        with pytest.raises(ValidationError, match=r"grid_points must be an integer >= 2"):
            invariant_set_sweep(qubit_model(), grid_points=bad)


def test_golden_sweep_bytes(tmp_path):
    # tests/golden/make_golden.py writes it; its nodes fall in two dimension classes
    path = tmp_path / "sweep.json"
    write_report_json(path, invariant_set_sweep(four_level_deficient_model(), grid_points=10))
    assert path.read_bytes() == GOLDEN_SWEEP.read_bytes()


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
