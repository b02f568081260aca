"""State and operator primitives for finite-dimensional quantum systems.

States are complex unit vectors in C^n, observables are n x n Hermitian
matrices, both held as plain numpy arrays. Physical states are identified
up to a global phase, so distances and membership tests are phase
invariant. Everything here is a pure function over those arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, ValidationError

STATE_NORM_TOL = 1e-9
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EXPECTATION_IMAG_TOL = 1e-10
PHASE_EQUIVALENT_TOL = 1e-8


def as_complex_vector(vec, name="state"):
    """Coerce to a 1-D complex128 array without normalizing."""
    arr = np.asarray(vec, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError(
            f"{name}: expected a complex vector of length >= 2, got shape {arr.shape}"
        )
    return arr


def _require_finite(arr, name):
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name}: entries must be finite")


def require_state_vector(vec, name="state", tol=STATE_NORM_TOL):
    """Return vec as a complex array, raising unless it is finite with norm 1 within tol."""
    arr = as_complex_vector(vec, name)
    _require_finite(arr, name)
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > tol:
        raise ValidationError(f"{name}: norm {norm:.12g} is not 1 within {tol:g}")
    return arr


def require_hermitian(mat, name="operator", tol=HERMITIAN_TOL):
    """Return mat as a complex square array, raising unless finite and Hermitian within tol."""
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name}: expected a square matrix, got shape {arr.shape}")
    _require_finite(arr, name)
    dev = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if dev > tol:
        raise ValidationError(f"{name}: not Hermitian within {tol:g} (max deviation {dev:.3g})")
    return arr


def require_traceless_hermitian(mat, name="operator", tol=HERMITIAN_TOL, trace_tol=TRACE_TOL):
    """Hermitian check plus |trace| <= trace_tol (membership in i*su(n) directions)."""
    arr = require_hermitian(mat, name, tol)
    tr = complex(np.trace(arr))
    if abs(tr) > trace_tol:
        raise ValidationError(f"{name}: trace {tr:.3g} is not 0 within {trace_tol:g}")
    return arr


def normalize(vec):
    """vec / ||vec||. Raises when the norm is too small to divide by safely."""
    arr = as_complex_vector(vec)
    norm = float(np.linalg.norm(arr))
    if norm < 1e-12:
        raise ValidationError(f"cannot normalize a vector of norm {norm:.3g}")
    return arr / norm


def hs_norm(mat):
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(mat)))


def expectation_value(state, op):
    """<state|op|state> as a real number.

    The imaginary part of the raw quadratic form must be below 1e-10
    (anything larger indicates a non-Hermitian operator or a broken state)
    and is discarded.
    """
    psi = as_complex_vector(state)
    mat = np.asarray(op, dtype=np.complex128)
    if mat.shape != (psi.size, psi.size):
        raise ValidationError(
            f"operator shape {mat.shape} does not match state dimension {psi.size}"
        )
    raw = complex(np.vdot(psi, mat @ psi))
    if abs(raw.imag) >= EXPECTATION_IMAG_TOL:
        raise ValidationError(
            f"expectation value has imaginary part {raw.imag:.3g}; operator is not Hermitian enough"
        )
    return raw.real


def fidelity(state, target):
    """|<target|state>|^2."""
    psi = as_complex_vector(state)
    phi = as_complex_vector(target, "target")
    if phi.size != psi.size:
        raise ValidationError("state and target dimensions differ")
    return float(abs(np.vdot(phi, psi)) ** 2)


def equivalence_distance(state, target):
    """min over phases phi of ||state - e^{i phi} target||.

    Closed form sqrt(2 - 2 |<target|state>|) for unit vectors; the value
    lies in [0, sqrt(2)] and is invariant under a phase change of either
    argument.
    """
    psi = as_complex_vector(state)
    phi = as_complex_vector(target, "target")
    if phi.size != psi.size:
        raise ValidationError("state and target dimensions differ")
    overlap = abs(np.vdot(phi, psi))
    return float(np.sqrt(max(2.0 - 2.0 * overlap, 0.0)))


def eigenstate_eigenvalue(state, op, tol=1e-9):
    """The eigenvalue of op at state, or None when state is not an eigenvector.

    Uses the residual test ||op state - <op> state|| < tol, which is
    invariant under spectral shifts op -> op + c*I up to the shift in the
    returned eigenvalue.
    """
    psi = as_complex_vector(state)
    lam = expectation_value(psi, op)
    residual = float(np.linalg.norm(np.asarray(op, dtype=np.complex128) @ psi - lam * psi))
    if residual < tol:
        return float(lam)
    return None


def connecting_generator(psi1, psi2):
    """A Hermitian generator moving psi2 onto psi1.

    Returns (epsilon, h) with epsilon > 0, h Hermitian of unit
    Hilbert-Schmidt norm, and expm(1j * epsilon * h) @ psi2 == psi1. The
    unitary rotates the plane spanned by the two states and acts as the
    identity on its orthogonal complement, so h is traceless (never a
    multiple of I) and neither input is one of its eigenvectors.

    Raises PreconditionError when the states are phase-equivalent (no
    nontrivial plane to rotate in): their equivalence_distance is at most
    PHASE_EQUIVALENT_TOL.
    """
    a_vec = require_state_vector(psi1, "psi1")
    b_vec = require_state_vector(psi2, "psi2")
    if a_vec.size != b_vec.size:
        raise ValidationError("psi1 and psi2 dimensions differ")
    if equivalence_distance(a_vec, b_vec) <= PHASE_EQUIVALENT_TOL:
        raise PreconditionError("states are phase-equivalent; no connecting rotation exists")

    a = complex(np.vdot(b_vec, a_vec))  # <psi2|psi1>
    w = a_vec - a * b_vec
    b = float(np.linalg.norm(w))
    e2 = w / b

    # 2x2 special-unitary block sending (1,0) -> (a, b) in the {psi2, e2} frame.
    u = np.array([[a, -b], [b, np.conj(a)]], dtype=np.complex128)
    theta = float(np.arccos(np.clip(a.real, -1.0, 1.0)))
    sin_theta = np.sin(theta)
    # u = cos(theta) I + i sin(theta) M with M Hermitian, M^2 = I, so the
    # principal logarithm of the block is theta * M.
    m = (u - np.cos(theta) * np.eye(2)) / (1j * sin_theta)
    block = theta * m

    frame = np.stack([b_vec, e2], axis=1)
    gen = frame @ block @ frame.conj().T
    gen = 0.5 * (gen + gen.conj().T)
    epsilon = hs_norm(gen)
    return epsilon, gen / epsilon


def eigh_fixed(op):
    """Deterministic Hermitian eigendecomposition.

    Eigenvalues ascending; each eigenvector is rescaled so its first
    component of magnitude above 1e-8 is real and positive. For a fixed
    input array the output is reproducible bit for bit.
    """
    mat = require_hermitian(op, tol=1e-10)
    vals, vecs = np.linalg.eigh(mat)
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        idx = np.argmax(np.abs(col) > 1e-8)
        pivot = col[idx]
        vecs[:, j] = col * (np.conj(pivot) / abs(pivot))
    return vals, vecs


def orthonormal_completion(first):
    """Orthonormal basis whose first vector is `first`.

    The remaining vectors come from Gram-Schmidt over the standard basis
    in index order, skipping near-dependent candidates, so the completion
    is deterministic.
    """
    v0 = require_state_vector(first, "first")
    n = v0.size
    basis = [v0]
    for j in range(n):
        if len(basis) == n:
            break
        cand = np.zeros(n, dtype=np.complex128)
        cand[j] = 1.0
        for b in basis:
            cand = cand - np.vdot(b, cand) * b
        norm = float(np.linalg.norm(cand))
        if norm > 1e-8:
            basis.append(cand / norm)
    return np.stack(basis, axis=1)
