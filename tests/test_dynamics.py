"""Integrator tests: noise paths, step kernels, convergence, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from qlyap.dynamics import (
    MAX_STEPS,
    NOISE_BLOCK,
    NORM_COLLAPSE_TOL,
    _step_count,
    _Stepper,
    _to_block,
    _to_rows,
    diffusion,
    drift,
    euler_maruyama_step,
    euler_maruyama_step_many,
    wiener_blocks,
)
from qlyap.control import control_signals
from qlyap.quantum import normalize, orthonormal_completion

from conftest import QUBIT_PSI0, qubit_model, qutrit_model, random_hermitian, random_state


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


@pytest.mark.parametrize("steps", [0, 1, 255, 256, 257, 1000])
def test_wiener_blocks_match_generate(steps):
    seeds = range(900, 920)
    blocks = list(wiener_blocks(seeds, steps, 0.004))
    assert [b.shape for b in blocks] == [
        (20, min(NOISE_BLOCK, steps - lo)) for lo in range(0, steps, NOISE_BLOCK)
    ]
    expected = np.stack([WienerPath.generate(seed, steps, 0.004).increments for seed in seeds])
    streamed = np.concatenate(blocks, axis=1) if blocks else np.empty((20, 0))
    assert np.array_equal(streamed, expected)


# ranges straddling 2**32, 2**64 and 2**128, where a seed gains a 32-bit word, and
# single seeds at 0, 2**31 and far beyond the one-pass hash
@pytest.mark.parametrize(
    "seeds",
    [range(2**32 - 4, 2**32 + 4), range(2**64 - 4, 2**64 + 4), range(2**128 - 4, 2**128 + 4),
     [0], [2**31], [2**200]],
    ids=["2^32", "2^64", "2^128", "0", "2^31", "2^200"],
)
def test_wiener_blocks_match_generate_across_the_seed_range(seeds):
    # each row's key comes from a vectorized port of numpy's SeedSequence
    # hash; a numpy whose Philox(seed) keys differ fails here
    steps = NOISE_BLOCK + 3
    expected = np.stack([WienerPath.generate(seed, steps, 0.004).increments for seed in seeds])
    for _ in range(2):  # the second pass re-keys the generators the first one returned
        streamed = np.concatenate(list(wiener_blocks(seeds, steps, 0.004)), axis=1)
        assert np.array_equal(streamed, expected)


def test_live_wiener_blocks_iterators_never_share_a_generator():
    # two iterators consumed in turn, a third abandoned after one block, and
    # a fourth started after that: each yields the blocks it yields alone
    steps, dt = 3 * NOISE_BLOCK, 0.01
    ranges = (range(0, 6), range(50, 53), range(7, 12), range(300, 306))
    alone = [np.concatenate(list(wiener_blocks(r, steps, dt)), axis=1) for r in ranges]
    first, second, third = (wiener_blocks(r, steps, dt) for r in ranges[:3])
    got = [[], []]
    for k, pair in enumerate(zip(first, second)):
        got[0].append(pair[0])
        got[1].append(pair[1])
        if k == 0:
            assert np.array_equal(next(third), alone[2][:, :NOISE_BLOCK])
            del third  # its generators return to the idle list, then go to the fourth
            fourth = np.concatenate(list(wiener_blocks(ranges[3], steps, dt)), axis=1)
    assert np.array_equal(fourth, alone[3])
    for blocks, expected in zip(got, alone):
        assert np.array_equal(np.concatenate(blocks, axis=1), expected)


def test_seeds_and_step_counts_take_the_integer_rule():
    # a float seed used to reach SeedSequence's TypeError, and a float step
    # count was truncated
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    for seed in (2.5, True, -1):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            simulate_trajectory(model, law, model.target, 0.01, 0.1, seed)
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            WienerPath.generate(seed, 2, 0.01)
    for steps in (2.5, True, -1):
        with pytest.raises(ValidationError, match="steps must be an integer >= 0"):
            WienerPath.generate(1, steps, 0.01)
    for factor in (2.0, True, 0):
        with pytest.raises(ValidationError, match="factor must be an integer >= 1"):
            WienerPath.generate(1, 4, 0.01).coarsen(factor)
    assert WienerPath.generate(np.int64(1), np.int64(4), 0.01).seed == 1


def test_wiener_blocks_check_arguments_before_drawing():
    # the checks run at the call, not at the first block
    with pytest.raises(ValidationError, match="seed"):
        wiener_blocks([3, -1], 10, 0.01)
    with pytest.raises(ValidationError, match="dt"):
        wiener_blocks([3], 10, float("nan"))
    with pytest.raises(ValidationError, match="steps"):
        wiener_blocks([3], -1, 0.01)


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
    assert _step_count(0.002, 0.3) == 150
    assert _step_count(0.01, 0.0) == 0
    # a dt far beyond t_final is not a 0-step run
    with pytest.raises(PreconditionError, match="does not divide"):
        _step_count(1e308, 10.0)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_increments_rejected(bad):
    # a non-finite dW used to surface as a numpy RuntimeWarning or as a norm collapse
    model = qubit_model()
    law = ControlLaw(gains=(1.0,))
    inc = np.zeros(10)
    inc[3] = bad
    with pytest.raises(ValidationError, match=rf"^increments\[3\]: must be finite, got {bad}$"):
        simulate_trajectory(model, law, QUBIT_PSI0, 0.01, 0.1, 1, increments=inc)
    with pytest.raises(ValidationError, match="^dw: expected a finite number"):
        euler_maruyama_step(model, law, QUBIT_PSI0, 0.01, bad)
    with pytest.raises(ValidationError, match=r"^dws\[1\]: must be finite"):
        euler_maruyama_step_many(model, law, np.stack([QUBIT_PSI0] * 3), 0.01, [0.0, bad, 0.0])


def test_step_count_refuses_more_than_max_steps():
    assert _step_count(1e-6, 10.0) == MAX_STEPS
    for dt, t_final in ((1e-300, 10.0), (0.001, 1e300), (5e-324, 1e300)):
        with pytest.raises(ValidationError, match="MAX_STEPS"):
            _step_count(dt, t_final)


@settings(derandomize=True, database=None)
@given(st.floats(), st.floats())
def test_step_count_is_bounded_or_refused(dt, t_final):
    try:
        steps = _step_count(dt, t_final)
    except (ValidationError, PreconditionError):
        return
    assert 0 <= steps <= MAX_STEPS


def _contraction_model():
    # at <X> = 0, f = -k psi exactly, so one step of size dt = 1 - 1e-7 with
    # zero noise shrinks the norm of (1, 1)/sqrt(2) below the collapse threshold
    return SystemModel(
        free_hamiltonian=np.zeros((2, 2), dtype=complex),
        controls=(),
        observable=np.diag([1.0, -1.0]).astype(complex),
        target=np.array([0.0, 1.0], dtype=complex),
        measurement_strength=1.0,
    )


def test_norm_collapse_raises():
    model = _contraction_model()
    law = ControlLaw(gains=())
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    dt = 1.0 - 1e-7
    with pytest.raises(IntegrationError):
        euler_maruyama_step(model, law, psi, dt, 0.0)
    with pytest.raises(IntegrationError, match="at step 0"):
        simulate_trajectory(model, law, psi, dt, dt, 3, increments=np.array([0.0]))


@pytest.fixture
def uncontrolled():
    """A dense n = 3 model with m = 0 and hbar != 1."""
    rng = np.random.default_rng(307)
    model = SystemModel(
        free_hamiltonian=random_hermitian(rng, 3, traceless=True),
        controls=(),
        observable=random_hermitian(rng, 3),
        target=random_state(rng, 3),
        measurement_strength=0.8,
        hbar=0.7,
    )
    return model, ControlLaw(gains=())


@pytest.mark.parametrize("system", ["qubit", "qutrit", "four_level", "uncontrolled"])
def test_fused_step_matches_drift_diffusion_oracle(request, system):
    model, law = request.getfixturevalue(system)
    rng = np.random.default_rng(305)
    rows = [random_state(rng, model.n) for _ in range(24)]
    # |<t|psi>| = 1e-14 < phase_tol, so the feedback phase is 1, not -i
    perp = orthonormal_completion(model.target)[:, 1]
    locked = normalize(np.exp(0.7j) * perp + 1e-14j * model.target)
    assert abs(np.vdot(model.target, locked)) < law.phase_tol
    rows.append(locked)
    states = np.stack(rows)
    dt = 1e-3
    dws = rng.normal(0.0, np.sqrt(dt), len(states))
    stepped = euler_maruyama_step_many(model, law, states, dt, dws)
    for psi, dw, got in zip(states, dws, stepped):
        u = control_signals(model, law, psi)
        expected = normalize(psi + drift(model, u, psi) * dt + diffusion(model, psi) * dw)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_collapsed_row_is_named_and_kept_at_its_pre_step_value():
    model = _contraction_model()
    law = ControlLaw(gains=())
    rng = np.random.default_rng(308)
    # row 2 is (1, 1) with norm 2; its raw update has norm 2e-7
    states = np.stack(
        [[1.0, 0.0], random_state(rng, 2), [np.sqrt(2.0), np.sqrt(2.0)], random_state(rng, 2)]
    ).astype(complex)
    dws = np.zeros(4)
    dt = 1.0 - 1e-7
    with pytest.raises(IntegrationError, match=r"\(row 2\)"):
        euler_maruyama_step_many(model, law, states, dt, dws)
    block, _, _, _, _, norms, ok = _Stepper(model, law, dt).step(_to_block(states), dws)
    assert ok.tolist() == [True, True, False, True]
    assert norms[2] < NORM_COLLAPSE_TOL
    assert np.max(np.abs(_to_rows(block)[2] - np.array([1.0, 1.0]) / np.sqrt(2.0))) < 1e-15
    # the other columns come out exactly as they do in a batch without a collapse
    clean = _Stepper(model, law, dt).step(_to_block(states[[0, 1, 3]]), dws[[0, 1, 3]])[0]
    assert np.array_equal(block[:, [0, 1, 3]], clean)


def _kept(items):
    """The items of a states() loop, each array copied before the next step overwrites it."""
    return [(i, *(None if a is None else a.copy() for a in arrays)) for i, *arrays in items]


def test_states_yields_the_steppers_buffers():
    # the contract of states(): F alternates between two blocks, every other array is one buffer
    model, law = qubit_model(), ControlLaw(gains=(1.0,))
    rng = np.random.default_rng(310)
    f0 = _to_block(np.stack([random_state(rng, 2) for _ in range(5)]))
    stepper = _Stepper(model, law, 1e-3)
    items = list(stepper.states(f0, [rng.normal(0.0, np.sqrt(1e-3), (5, 4))]))
    assert [item[0] for item in items] == list(range(5))
    for i in range(3):
        assert np.shares_memory(items[i][1], items[i + 2][1])
        assert not np.shares_memory(items[i][1], items[i + 1][1])
        assert all(np.shares_memory(a, b) for a, b in zip(items[i][2:7], items[i + 1][2:7]))
    # a step on which no column collapses yields no mask
    assert all(item[7] is None for item in items)


def test_states_yields_a_mask_when_a_column_collapses():
    model = _contraction_model()
    law = ControlLaw(gains=())
    rng = np.random.default_rng(308)
    # column 2 is (1, 1) with norm 2; its raw update has norm 2e-7, as in
    # test_collapsed_row_is_named_and_kept_at_its_pre_step_value
    states = np.stack(
        [[1.0, 0.0], random_state(rng, 2), [np.sqrt(2.0), np.sqrt(2.0)], random_state(rng, 2)]
    ).astype(complex)
    items = _kept(_Stepper(model, law, 1.0 - 1e-7).states(_to_block(states), [np.zeros((4, 1))]))
    (i, _, _, _, _, _, norms, ok), (_, f1, *_, final_norms, final_ok) = items
    assert i == 0 and ok.tolist() == [True, True, False, True] and norms[2] < NORM_COLLAPSE_TOL
    # the collapsed column keeps its pre-step value, normalized
    assert np.max(np.abs(_to_rows(f1)[2] - np.array([1.0, 1.0]) / np.sqrt(2.0))) < 1e-15
    assert final_norms is None and final_ok is None


def test_block_layout_round_trips():
    rng = np.random.default_rng(309)
    rows = np.stack([random_state(rng, 3) for _ in range(5)])
    block = _to_block(rows)
    assert block.shape == (6, 5) and block.flags.c_contiguous
    assert np.array_equal(block[:3], rows.real.T) and np.array_equal(block[3:], rows.imag.T)
    assert np.array_equal(_to_rows(block), rows)


@pytest.mark.parametrize("system", ["qubit", "qutrit", "four_level"])
def test_rows_do_not_depend_on_batch_width(request, system):
    model, law = request.getfixturevalue(system)
    rng = np.random.default_rng(306)
    psi0 = np.stack([random_state(rng, model.n) for _ in range(600)])
    # two starts orthogonal to the target put the phase-lock branch in some slices
    psi0[[5, 400]] = orthonormal_completion(model.target)[:, 1]
    f0 = _to_block(psi0)
    increments = rng.normal(0.0, np.sqrt(1e-3), (600, 25))
    stepper = _Stepper(model, law, 1e-3)
    whole = _kept(stepper.states(f0, [increments]))
    assert [item[0] for item in whole] == list(range(26))
    assert whole[-1][6] is None and whole[-1][7] is None
    # time blocks: one, two uneven ones, and one per step
    cuts = ([0, 25], [0, 3, 25], list(range(26)))
    for width in (1, 7, 256, 336):
        for cut in cuts:
            parts = []
            for lo in range(0, 600, width):
                rows = increments[lo : lo + width]
                blocks = [rows[:, a:b] for a, b in zip(cut, cut[1:])]
                parts.append(_kept(stepper.states(f0[:, lo : lo + width], blocks)))
            # every yielded state, final one included: i, F, fid, mag, x_mean, u, norms, ok,
            # each with the trajectories along its last (batch) axis; no column collapses,
            # so ok is None throughout
            for i, full in enumerate(whole):
                assert all(part[i][0] == i for part in parts)
                assert full[7] is None and all(part[i][7] is None for part in parts)
                for k in range(1, 6 if full[6] is None else 7):
                    sliced = np.concatenate([part[i][k] for part in parts], axis=-1)
                    assert np.array_equal(full[k], sliced), (width, len(cut) - 1, i, k)
    # no blocks at all is a run of zero steps: the start state alone
    ((i, f, *_, norms, ok),) = stepper.states(f0[:, :3], [])
    assert i == 0 and np.array_equal(f, f0[:, :3]) and norms is None and ok is None


@pytest.mark.parametrize("system", ["qubit", "qutrit", "four_level"])
def test_simulate_matches_batch_columns_bit_for_bit(request, system):
    # docs/formats.md: a `simulate` trajectory matches the same seed's column of an ensemble batch
    model, law = request.getfixturevalue(system)
    psi0 = normalize(np.arange(1.0, model.n + 1.0) + 0.5j)
    dt, steps, first = 1e-3, 300, 50
    seeds = range(first, first + 300)
    f0 = _to_block(np.tile(psi0, (len(seeds), 1)))
    batch = _kept(_Stepper(model, law, dt).states(f0, wiener_blocks(seeds, steps, dt)))
    for col, seed in enumerate(seeds[:5]):
        rec = simulate_trajectory(model, law, psi0, dt, steps * dt, seed)
        assert rec.steps == steps
        assert np.array_equal(rec.states, _to_rows(np.stack([item[1][:, col] for item in batch]).T))
        assert np.array_equal(rec.fidelity, [item[2][col] for item in batch])
        assert np.array_equal(rec.observable_mean, [item[4][col] for item in batch])
        assert np.array_equal(rec.controls_applied, [item[5][:, col] for item in batch[:-1]])


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
