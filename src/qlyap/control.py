"""Distance-to-target Lyapunov function, its exact increment, and the
phase-locked feedback law.

V(psi) = (1 - |<target|psi>|^2) / 2 ranges over [0, 1/2] and vanishes
exactly on the target ray. The feedback u_k = gain_k * Im(p * <target|H_k|psi>)
with p the unit phase of <psi|target> makes the expected time derivative of
V along the measured dynamics a negative sum of squares.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, ValidationError
from .quantum import as_complex_vector, eigenstate_eigenvalue, fidelity, require_number


def lyapunov_value(state, target):
    """V(state) = (1 - |<target|state>|^2) / 2."""
    return 0.5 * (1.0 - fidelity(state, target))


def _require_radius(radius, name="radius"):
    """Return radius as a float, raising ValidationError unless it lies in (0, 2)."""
    return require_number(radius, name, above=0.0, below=2.0)


def min_lyapunov_at_distance(radius):
    """Tight floor: min of V over {equivalence_distance >= R}.

    distance d = sqrt(2 - 2 r) with r = |<target|state>| gives r <= 1 - R^2/2
    on that set, and V = (1 - r^2)/2 is decreasing in r, so the minimum is
    (1 - (1 - R^2/2)^2) / 2 for R <= sqrt(2). Distances never exceed
    sqrt(2), so for larger R the set is empty and the floor is max V = 1/2
    (any exceedance probability is zero and the bound stays valid).
    """
    r = _require_radius(radius)
    if r * r >= 2.0:
        return 0.5
    return float(0.5 * (1.0 - (1.0 - 0.5 * r * r) ** 2))


def lyapunov_increment(state, delta, target):
    """Exact change of V under state -> state + delta.

    V extends to non-normalized arguments by its defining formula, and the
    second-order expansion terminates: the increment equals
    -Re(<state|target><target|delta>) - |<target|delta>|^2 / 2 identically.
    """
    psi = as_complex_vector(state)
    d = as_complex_vector(delta, "delta")
    phi = as_complex_vector(target, "target")
    if not (phi.size == psi.size == d.size):
        raise ValidationError("state, delta, and target dimensions differ")
    overlap = complex(np.vdot(psi, phi))
    td = complex(np.vdot(phi, d))
    return float(-np.real(overlap * td) - 0.5 * abs(td) ** 2)


def _phase_factor(target_overlap, phase_tol):
    """Unit phase of conj(target_overlap) = <psi|target>, locked to 1 near zero overlap."""
    mag = abs(target_overlap)
    if mag < phase_tol:
        return 1.0 + 0.0j
    return np.conj(target_overlap) / mag


def control_signals(model, law, state):
    """Feedback amplitudes u_k = gain_k * Im(p * <target|H_k|state>).

    p is the unit phase of <state|target>, replaced by 1 when
    |<target|state>| < law.phase_tol. The two phase-carrying factors
    transform inversely under a global phase of state, so away from the
    locked region the signals are phase invariant.
    """
    law.require_matching(model)
    psi = model.as_state(state)
    overlap = complex(np.vdot(model.target, psi))
    p = _phase_factor(overlap, law.phase_tol)
    u = np.empty(model.m, dtype=float)
    for k, hk in enumerate(model.controls):
        u[k] = law.gains[k] * np.imag(p * np.vdot(model.target, hk @ psi))
    return u


class GeneratorTerms(NamedTuple):
    """Ito generator of V: expected dV = drift * dt + noise * dW."""

    drift: float
    noise: float


def lyapunov_generator(model, controls_now, state):
    """Generator of V along the measured dynamics with explicit controls.

    drift = -(1/hbar) Im(<psi|t><t|H(u)|psi>)
            + k Re(<psi|t><t|(X - <X>)^2|psi>) - k |<t|(X - <X>)|psi>|^2
    noise = -sqrt(2 k) Re(<psi|t><t|(X - <X>)|psi>)
    with t the target and <X> taken at the current state.
    """
    psi = model.as_state(state)
    t = model.target
    k = model.measurement_strength
    h = model.hamiltonian(controls_now)

    overlap = complex(np.vdot(psi, t))  # <psi|target>
    x_mean = float(np.real(np.vdot(psi, model.observable @ psi)))
    xc_psi = model.observable @ psi - x_mean * psi
    xc2_psi = model.observable @ xc_psi - x_mean * xc_psi

    drift = (
        -(1.0 / model.hbar) * float(np.imag(overlap * np.vdot(t, h @ psi)))
        + k * float(np.real(overlap * np.vdot(t, xc2_psi)))
        - k * float(abs(np.vdot(t, xc_psi)) ** 2)
    )
    noise = -np.sqrt(2.0 * k) * float(np.real(overlap * np.vdot(t, xc_psi)))
    return GeneratorTerms(drift=drift, noise=noise)


def _require_target_eigenstructure(model):
    if eigenstate_eigenvalue(model.target, model.free_hamiltonian) is None:
        raise PreconditionError(
            "target is not an eigenstate of the free Hamiltonian; the reduced generator does not apply"
        )
    if eigenstate_eigenvalue(model.target, model.observable) is None:
        raise PreconditionError(
            "target is not an eigenstate of the observable; the reduced generator does not apply"
        )


def closed_loop_generator(model, law, state):
    """Drift of V under the feedback law, in reduced form.

    Requires the target to be an eigenstate of both the free Hamiltonian
    and the observable; then the free and measurement contributions cancel
    and the drift collapses to
        -(1/hbar) sum_k gain_k * |<target|psi>| * Im(p <target|H_k|psi>)^2,
    which is nonpositive for positive gains.
    """
    _require_target_eigenstructure(model)
    law.require_matching(model)
    psi = model.as_state(state)
    overlap = complex(np.vdot(model.target, psi))
    p = _phase_factor(overlap, law.phase_tol)
    mag = abs(overlap)
    total = 0.0
    for k, hk in enumerate(model.controls):
        term = float(np.imag(p * np.vdot(model.target, hk @ psi)))
        total += law.gains[k] * mag * term * term
    return -total / model.hbar
