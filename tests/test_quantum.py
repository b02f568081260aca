"""State/operator primitives: validation, distances, eigenstates, completions."""

import dataclasses
import re

import numpy as np
import pytest

from qlyap import (
    ControlLaw,
    ValidationError,
    control_signals,
    drift,
    eigenstate_eigenvalue,
    equivalence_distance,
    euler_maruyama_step,
    expectation_value,
    fidelity,
    invariance_probe,
    invariant_set_slice,
    lyapunov_value,
    min_lyapunov_at_distance,
    normalize,
    orthonormal_completion,
    run_ensemble,
    shifted_controls_independent,
    simulate_trajectory,
    stability_bound_test,
)
from qlyap.quantum import (
    require_hermitian,
    require_int,
    require_list,
    require_number,
    require_state_vector,
    require_traceless_hermitian,
)

from conftest import QUBIT_PSI0, qubit_model, random_hermitian, random_state


def test_number_rule_takes_finite_ints_and_floats_only():
    for value in (3, -2.5, np.int64(4), np.float32(0.5), np.float64(1e300)):
        got = require_number(value, "x")
        assert type(got) is float and got == float(value)
    for bad, match in (
        (True, "expected a number, got True"),
        (np.bool_(False), "expected a number"),
        (None, "expected a number, got None"),
        ("1.0", "expected a number"),
        ([1.0], "expected a number"),
        (1j, "expected a number"),
        (float("nan"), "expected a finite number"),
        (-np.inf, "expected a finite number"),
        (10**400, "expected a finite number"),
    ):
        with pytest.raises(ValidationError, match=f"^x: {match}"):
            require_number(bad, "x")


def test_number_rule_checks_each_bound_with_one_message_shape():
    assert require_number(0.0, "x", at_least=0.0) == 0.0
    assert require_number(np.int64(1), "x", above=0.0, below=2.0) == 1.0
    for kwargs, bad, message in (
        ({"above": 0.0}, 0.0, "x: must be > 0, got 0.0"),
        ({"above": 0.0}, -1, "x: must be > 0, got -1.0"),
        ({"at_least": 0.0}, -0.5, "x: must be >= 0, got -0.5"),
        ({"above": 0.0, "below": 2.0}, 2.0, "x: must lie in (0, 2), got 2.0"),
        ({"above": 0.0, "below": 2.0}, np.float64(3.0), "x: must lie in (0, 2), got 3.0"),
        ({"above": 0.0, "below": 2.0}, 0, "x: must lie in (0, 2), got 0.0"),
        ({"below": 2.0}, 2.0, "x: must be < 2, got 2.0"),
        # the number rule comes first: a bound never sees NaN or a non-number
        ({"above": 0.0}, float("nan"), "x: expected a finite number, got nan"),
        ({"below": 2.0}, True, "x: expected a number, got True"),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            require_number(bad, "x", **kwargs)


def test_list_rule_takes_lists_and_tuples_only_and_names_each_entry():
    assert require_list([1, 2.5], "xs", "numbers", require_number) == (1.0, 2.5)
    assert require_list((), "xs", "numbers", require_number) == ()
    for bad in (0.5, "ab", {"a": 1}, np.array([1.0, 2.0]), None):
        with pytest.raises(ValidationError, match=r"^xs: expected a list of numbers, got "):
            require_list(bad, "xs", "numbers", require_number)
    with pytest.raises(ValidationError, match=r"^xs\[1\]: expected a number, got 'a'$"):
        require_list([1.0, "a"], "xs", "numbers", require_number)


def _qubit_call(call):
    model, law = qubit_model(), ControlLaw(gains=(1.0,))
    return lambda bad: call(model, law, bad)


# One row per library call: the call, the malformed value, the exception and
# the start of its message. Each argument is refused by the rule of its kind
# in quantum, under the name the caller gave it.
@pytest.mark.parametrize(
    "call, bad, error, prefix",
    [
        (_qubit_call(lambda q, law, s: lyapunov_value(s, q.target)), [np.nan, 1.0], ValidationError,
         "state[0]: must be finite, got (nan+0j)"),
        (_qubit_call(lambda q, law, s: control_signals(q, law, s)), [np.nan, 1.0], ValidationError,
         "state[0]: must be finite, got (nan+0j)"),
        (_qubit_call(lambda q, law, s: drift(q, [0.0], s)), [np.inf, 1.0], ValidationError,
         "state[0]: must be finite, got (inf+0j)"),
        (_qubit_call(lambda q, law, x: invariant_set_slice(q, x)), [np.nan], ValidationError,
         "shifts[0]: expected a finite number, got nan"),
        (_qubit_call(lambda q, law, x: invariant_set_slice(q, x)), [np.inf], ValidationError,
         "shifts[0]: expected a finite number, got inf"),
        (_qubit_call(lambda q, law, x: invariant_set_slice(q, x)), ["a"], ValidationError,
         "shifts[0]: expected a number, got 'a'"),
        (_qubit_call(lambda q, law, x: shifted_controls_independent(q, x)), [np.nan], ValidationError,
         "shifts[0]: expected a finite number, got nan"),
        (_qubit_call(lambda q, law, x: shifted_controls_independent(q, x)), np.array([[0.1]]),
         ValidationError, "shifts must have shape (1,), got (1, 1)"),
        (_qubit_call(lambda q, law, dw: euler_maruyama_step(q, law, q.target, 0.01, dw)), [1.0, 2.0],
         ValidationError, "dw: expected a number, got [1.0, 2.0]"),
        (_qubit_call(lambda q, law, dw: euler_maruyama_step(q, law, q.target, 0.01, dw)), "x",
         ValidationError, "dw: expected a number, got 'x'"),
        (_qubit_call(lambda q, law, dt: simulate_trajectory(q, law, QUBIT_PSI0, dt, 0.1, 0)), 0.0,
         ValidationError, "dt: must be > 0, got 0.0"),
        (_qubit_call(lambda q, law, t: simulate_trajectory(q, law, QUBIT_PSI0, 0.01, t, 0)), -1,
         ValidationError, "t_final: must be >= 0, got -1.0"),
        (_qubit_call(lambda q, law, t: invariance_probe(q, law, [q.target], 0.01, t, 2, 0)), -1,
         ValidationError, "t_probe: must be >= 0, got -1.0"),
        (_qubit_call(lambda q, law, r: stability_bound_test(
            q, law, r, (0.1,), 2, dt=0.01, t_final=0.1, base_seed=0)), 3.0,
         ValidationError, "radius: must lie in (0, 2), got 3.0"),
        (_qubit_call(lambda q, law, s: stability_bound_test(
            q, law, 0.5, s, 2, dt=0.01, t_final=0.1, base_seed=0)), (0.1, -0.1),
         ValidationError, "perturbation_sizes[1]: must be >= 0, got -0.1"),
        (lambda r: min_lyapunov_at_distance(r), 2.0, ValidationError, "radius: must lie in (0, 2), got 2.0"),
        (lambda r: min_lyapunov_at_distance(r), 0, ValidationError, "radius: must lie in (0, 2), got 0.0"),
        (_qubit_call(lambda q, law, r: run_ensemble(q, law, QUBIT_PSI0, 0.01, 0.1, 1, 0, r_list=r)),
         (0.5, 2.0), ValidationError, "r_list[1]: must lie in (0, 2), got 2.0"),
        (_qubit_call(lambda q, law, c: dataclasses.replace(q, controls=c)),
         np.array([[[0.0, 1.0], [1.0, 0.0]]]), ValidationError, "controls: expected a list of matrices"),
        (lambda g: ControlLaw(gains=g), np.array([1.0]), ValidationError, "gains: expected a list of numbers"),
        (lambda tol: ControlLaw(gains=(1.0,), phase_tol=tol), 0.0, ValidationError,
         "phase_tol: must be > 0, got 0.0"),
        (_qubit_call(lambda q, law, h: dataclasses.replace(q, hbar=h)), -1.0, ValidationError,
         "hbar: must be > 0, got -1.0"),
        (_qubit_call(lambda q, law, k: dataclasses.replace(q, measurement_strength=k)), -1.0,
         ValidationError, "measurement_strength: must be >= 0, got -1.0"),
    ],
    ids=[
        "nan-state-lyapunov",
        "nan-state-controls",
        "inf-state-drift",
        "nan-shift",
        "inf-shift",
        "str-shift",
        "nan-shift-independence",
        "matrix-shifts",
        "list-dw",
        "str-dw",
        "zero-dt",
        "negative-t_final",
        "negative-t_probe",
        "radius-3-stability",
        "negative-size",
        "radius-2-floor",
        "radius-0-floor",
        "radius-2-r_list",
        "array-controls",
        "array-gains",
        "zero-phase_tol",
        "negative-hbar",
        "negative-strength",
    ],
)
def test_library_calls_refuse_malformed_arguments(call, bad, error, prefix):
    with pytest.raises(error, match=f"^{re.escape(prefix)}"):
        call(bad)


def test_integer_rule_takes_integers_from_the_minimum_only():
    assert require_int(0, "n") == 0
    got = require_int(np.int64(7), "n", 1)
    assert type(got) is int and got == 7
    for bad in (-1, 2.5, 3.0, np.float64(2.0), True, np.bool_(True), None, "3"):
        with pytest.raises(ValidationError, match=r"^n must be an integer >= 0, got "):
            require_int(bad, "n")
    with pytest.raises(ValidationError, match=r"^n must be an integer >= 2, got 1$"):
        require_int(1, "n", 2)


def test_require_state_vector_accepts_unit_rejects_rest():
    require_state_vector(np.array([0.6, 0.8]))
    with pytest.raises(ValidationError):
        require_state_vector(np.array([0.6, 0.9]))
    with pytest.raises(ValidationError):
        require_state_vector(np.array([1.0]))
    with pytest.raises(ValidationError):
        require_state_vector(np.eye(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match=r"^psi0\[1\]: must be finite"):
            require_state_vector(np.array([0.0, bad]), "psi0")
    # finite but huge: the norm overflows to inf and must fail as a ValidationError
    for huge in (np.array([1e308, 1e308]), np.array([1e308 + 1e308j, 0.0])):
        with pytest.raises(ValidationError, match="psi0: norm inf"):
            require_state_vector(huge, "psi0")


def test_require_hermitian_and_traceless():
    require_hermitian(np.array([[1.0, 2.0j], [-2.0j, 3.0]]))
    with pytest.raises(ValidationError):
        require_hermitian(np.array([[1.0, 2.0j], [2.0j, 3.0]]))
    with pytest.raises(ValidationError):
        require_hermitian(np.ones((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match=r"^h0\[1, 0\]: must be finite"):
            require_hermitian(np.array([[1.0, 0.0], [bad, 1.0]]), "h0")
    require_traceless_hermitian(np.diag([1.0, -1.0]))
    with pytest.raises(ValidationError):
        require_traceless_hermitian(np.diag([1.0, 1.0]))
    # both tolerances are fractions of the largest entry: a tiny skew control is
    # refused, a zero operator passes (0 <= 0), and so does a traceless operator
    # whose trace rounds to about 1e-9 in MHz-scale units
    with pytest.raises(ValidationError, match=r"^controls\[0\]: not Hermitian within 1e-25 \(max deviation 1e-13\)$"):
        dataclasses.replace(qubit_model(), controls=(np.array([[0.0, 1e-13], [0.0, 0.0]]),))
    require_traceless_hermitian(np.zeros((2, 2)))
    rotation = np.linalg.qr(random_hermitian(np.random.default_rng(26), 3) + 1j * np.eye(3))[0]
    h0 = 1e6 * rotation @ np.diag([2.0, -1.0, -1.0]) @ rotation.conj().T
    require_traceless_hermitian(0.5 * (h0 + h0.conj().T))
    # finite but huge entries overflow the checks to inf (or nan) and still fail
    for skew in (np.array([[0.0, 1e308], [-1e308, 0.0]]), np.array([[0.0, 1e308j], [1e308j, 0.0]])):
        with pytest.raises(ValidationError, match="h0: not Hermitian"):
            require_hermitian(skew, "h0")
    require_traceless_hermitian(np.diag([1e308, -1e308]))
    for diagonal in ([1e308, 1e308], [1e308, -1e308] * 16):
        with pytest.raises(ValidationError, match="h0: trace"):
            require_traceless_hermitian(np.diag(diagonal + [1e308]), "h0")


def test_normalize():
    v = normalize(np.array([3.0, 4.0j]))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15
    with pytest.raises(ValidationError):
        normalize(np.zeros(2))


def test_expectation_value_hand_case():
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert abs(expectation_value(psi, sx) - 1.0) < 1e-14
    with pytest.raises(ValidationError):
        expectation_value(
            np.array([1.0, 1.0j]) / np.sqrt(2.0), np.array([[0.0, 1.0], [0.5, 0.0]])
        )


def test_distance_fidelity_identity():
    # d^2 = 2 - 2 sqrt(fidelity) for unit vectors
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        psi = random_state(rng, n)
        phi = random_state(rng, n)
        d = equivalence_distance(psi, phi)
        f = fidelity(psi, phi)
        assert abs(d * d - (2.0 - 2.0 * np.sqrt(f))) < 1e-12


def test_distance_phase_invariance():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        psi = random_state(rng, n)
        phi = random_state(rng, n)
        d0 = equivalence_distance(psi, phi)
        a, b = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        assert abs(equivalence_distance(a * psi, b * phi) - d0) < 1e-12


def test_distance_matches_phase_grid_minimum():
    rng = np.random.default_rng(103)
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 10000, endpoint=False))
    for _ in range(20):
        n = int(rng.integers(2, 5))
        psi = random_state(rng, n)
        phi = random_state(rng, n)
        grid = np.min(np.linalg.norm(psi[None, :] - phases[:, None] * phi[None, :], axis=1))
        assert abs(equivalence_distance(psi, phi) - grid) < 1e-6


def test_eigenstate_eigenvalue():
    op = np.diag([2.0, -1.0, -1.0]).astype(complex)
    assert eigenstate_eigenvalue(np.array([1.0, 0.0, 0.0]), op) == pytest.approx(2.0)
    assert eigenstate_eigenvalue(normalize(np.array([1.0, 1.0, 0.0])), op) is None
    # shift invariance of the residual test
    rng = np.random.default_rng(104)
    h = random_hermitian(rng, 3)
    vals, vecs = np.linalg.eigh(h)
    v = vecs[:, 0]
    lam = eigenstate_eigenvalue(v, h)
    lam_shifted = eigenstate_eigenvalue(v, h + 3.5 * np.eye(3))
    assert lam == pytest.approx(vals[0], abs=1e-10)
    assert lam_shifted == pytest.approx(vals[0] + 3.5, abs=1e-10)


def test_orthonormal_completion_unitary_and_deterministic():
    rng = np.random.default_rng(107)
    for n in (2, 3, 4):
        first = random_state(rng, n)
        basis = orthonormal_completion(first)
        assert basis.shape == (n, n)
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(n))) < 1e-12
        assert np.allclose(basis[:, 0], first)
        again = orthonormal_completion(first.copy())
        assert np.array_equal(basis, again)
