"""State/operator primitives: validation, distances, decompositions."""

import numpy as np
import pytest
from scipy.linalg import expm

from qlyap import (
    PreconditionError,
    ValidationError,
    connecting_generator,
    eigenstate_eigenvalue,
    eigh_fixed,
    equivalence_distance,
    expectation_value,
    fidelity,
    normalize,
    orthonormal_completion,
)
from qlyap.quantum import hs_norm, require_hermitian, require_state_vector, require_traceless_hermitian

from conftest import random_hermitian, random_state


def test_require_state_vector_accepts_unit_rejects_rest():
    require_state_vector(np.array([0.6, 0.8]))
    with pytest.raises(ValidationError):
        require_state_vector(np.array([0.6, 0.9]))
    with pytest.raises(ValidationError):
        require_state_vector(np.array([1.0]))
    with pytest.raises(ValidationError):
        require_state_vector(np.eye(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="psi0: entries must be finite"):
            require_state_vector(np.array([bad, 0.0]), "psi0")


def test_require_hermitian_and_traceless():
    require_hermitian(np.array([[1.0, 2.0j], [-2.0j, 3.0]]))
    with pytest.raises(ValidationError):
        require_hermitian(np.array([[1.0, 2.0j], [2.0j, 3.0]]))
    with pytest.raises(ValidationError):
        require_hermitian(np.ones((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="h0: entries must be finite"):
            require_hermitian(np.diag([bad, 1.0]), "h0")
    require_traceless_hermitian(np.diag([1.0, -1.0]))
    with pytest.raises(ValidationError):
        require_traceless_hermitian(np.diag([1.0, 1.0]))


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


def test_connecting_generator_properties():
    rng = np.random.default_rng(105)
    for n in (2, 3, 4):
        for _ in range(25):
            psi1 = random_state(rng, n)
            psi2 = random_state(rng, n)
            if equivalence_distance(psi1, psi2) < 0.05:
                continue
            eps, h = connecting_generator(psi1, psi2)
            assert eps > 0.0
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
            assert abs(hs_norm(h) - 1.0) < 1e-12
            assert abs(np.trace(h)) < 1e-10
            moved = expm(1j * eps * h) @ psi2
            assert np.linalg.norm(moved - psi1) < 1e-8
            # the generator rotates both endpoints, it fixes neither ray
            assert eigenstate_eigenvalue(psi1, h, tol=1e-6) is None
            assert eigenstate_eigenvalue(psi2, h, tol=1e-6) is None


def test_connecting_generator_rejects_phase_equivalent():
    psi = np.array([0.6, 0.8], dtype=complex)
    with pytest.raises(PreconditionError):
        connecting_generator(psi, 1j * psi)


def test_connecting_generator_epsilon_scales_with_angle():
    # colinear-overlap case: rotating |0> onto cos(t)|0> + sin(t)|1>
    for t in (0.3, 0.7, 1.2):
        psi2 = np.array([1.0, 0.0], dtype=complex)
        psi1 = np.array([np.cos(t), np.sin(t)], dtype=complex)
        eps, _ = connecting_generator(psi1, psi2)
        assert eps == pytest.approx(np.sqrt(2.0) * t, rel=1e-10)


def test_eigh_fixed_deterministic_and_convention():
    rng = np.random.default_rng(106)
    h = random_hermitian(rng, 4)
    vals1, vecs1 = eigh_fixed(h)
    vals2, vecs2 = eigh_fixed(h.copy())
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)
    assert np.all(np.diff(vals1) >= 0)
    recon = vecs1 @ np.diag(vals1) @ vecs1.conj().T
    assert np.max(np.abs(recon - h)) < 1e-12
    for j in range(4):
        col = vecs1[:, j]
        idx = np.argmax(np.abs(col) > 1e-8)
        assert col[idx].real > 0.0
        assert abs(col[idx].imag) < 1e-12


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
