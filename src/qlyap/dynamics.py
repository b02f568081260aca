"""Ito integration of the continuously measured, feedback-controlled state.

The state obeys, in Ito form,

    d|psi> = ( -(i/hbar) H(u) - k (X - <X>)^2 ) |psi> dt
             + sqrt(2 k) (X - <X>) |psi> dW,

with H(u) = H0 + sum_k u_k H_k and <X> evaluated at the current state.
Integration is Euler-Maruyama with renormalization after every step; the
feedback amplitudes are evaluated on the pre-step state and held constant
across the step (zero-order hold). Noise comes from a counter-based
generator (Philox) so every trajectory is reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, PreconditionError, ValidationError
from .quantum import as_complex_vector, require_state_vector

NORM_COLLAPSE_TOL = 1e-6


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _require_dt(dt):
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValidationError(f"dt must be finite and > 0, got {dt}")


@dataclass(frozen=True)
class WienerPath:
    """A seeded sequence of Wiener increments on a uniform grid.

    Each increment is Normal(0, dt). Regenerating with the same seed and
    shape reproduces the array bit for bit.
    """

    seed: int
    dt: float
    increments: np.ndarray

    @classmethod
    def generate(cls, seed, steps, dt):
        _require_dt(dt)
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        if steps < 0:
            raise ValidationError(f"steps must be >= 0, got {steps}")
        inc = _rng(seed).normal(0.0, np.sqrt(dt), int(steps))
        inc.setflags(write=False)
        return cls(seed=int(seed), dt=float(dt), increments=inc)

    @property
    def steps(self):
        return self.increments.size

    def coarsen(self, factor):
        """Sum consecutive groups of `factor` increments (same Brownian path on a coarser grid)."""
        factor = int(factor)
        if factor < 1 or self.steps % factor:
            raise ValidationError(f"factor {factor} does not divide {self.steps} steps")
        summed = self.increments.reshape(-1, factor).sum(axis=1)
        summed.setflags(write=False)
        return WienerPath(seed=self.seed, dt=self.dt * factor, increments=summed)


def drift(model, controls_now, state):
    """Deterministic part of d|psi>/dt for the given control amplitudes."""
    psi = as_complex_vector(state)
    if psi.size != model.n:
        raise ValidationError(f"state dimension {psi.size} does not match model dimension {model.n}")
    h = model.hamiltonian(controls_now)
    x_mean = float(np.real(np.vdot(psi, model.observable @ psi)))
    xc_psi = model.observable @ psi - x_mean * psi
    xc2_psi = model.observable @ xc_psi - x_mean * xc_psi
    return (-1j / model.hbar) * (h @ psi) - model.measurement_strength * xc2_psi


def diffusion(model, state):
    """Noise coefficient sqrt(2 k) (X - <X>) |psi>; orthogonal to the state."""
    psi = as_complex_vector(state)
    if psi.size != model.n:
        raise ValidationError(f"state dimension {psi.size} does not match model dimension {model.n}")
    x_mean = float(np.real(np.vdot(psi, model.observable @ psi)))
    return np.sqrt(2.0 * model.measurement_strength) * (model.observable @ psi - x_mean * psi)


class _Stepper:
    """Batched Euler-Maruyama kernel shared by single and ensemble runs.

    States are rows of a (B, n) array. Row-vector products use transposed
    operator copies so each step is a handful of small matmuls.
    """

    def __init__(self, model, law, dt):
        law.require_matching(model)
        _require_dt(dt)
        self.model = model
        self.law = law
        self.dt = float(dt)
        self.h0_t = model.free_hamiltonian.T.copy()
        self.x_t = model.observable.T.copy()
        self.hk_t = np.stack([hk.T for hk in model.controls]) if model.m else None
        # rows conj(H_k target): <target|H_k|psi> = psi @ row_k
        self.bra_rows = (
            np.stack([(hk @ model.target).conj() for hk in model.controls]) if model.m else None
        )
        self.target_conj = model.target.conj()
        self.gains = np.asarray(law.gains, dtype=float)
        self.phase_tol = law.phase_tol
        self.k = model.measurement_strength
        self.sqrt2k = np.sqrt(2.0 * model.measurement_strength)
        self.inv_hbar = 1.0 / model.hbar

    def diagnostics(self, psi):
        """(fidelity, x_mean, u) of each row, with u the feedback amplitudes."""
        overlap = psi @ self.target_conj  # <target|psi> per row
        fid = np.abs(overlap) ** 2
        x_psi = psi @ self.x_t
        x_mean = np.einsum("bi,bi->b", psi.conj(), x_psi).real
        if self.model.m:
            inner = psi @ self.bra_rows.T  # (B, m) of <target|H_k|psi>
            phase = np.ones_like(overlap)
            live = np.abs(overlap) >= self.phase_tol
            phase[live] = np.conj(overlap[live]) / np.abs(overlap[live])
            u = self.gains * np.imag(phase[:, None] * inner)
        else:
            u = np.zeros((psi.shape[0], 0), dtype=float)
        return fid, x_mean, u, x_psi

    def step(self, psi, dw):
        """One EM step for every row. Returns (psi_next, fid, x_mean, u, norms).

        Rows whose raw update norm falls below NORM_COLLAPSE_TOL are left at
        their pre-step value (normalized) and flagged through `norms`; the
        caller decides whether to raise or mask.
        """
        fid, x_mean, u, x_psi = self.diagnostics(psi)
        h_psi = psi @ self.h0_t
        if self.model.m:
            ctrl = np.einsum("bi,kij->bkj", psi, self.hk_t)
            h_psi = h_psi + np.einsum("bk,bkj->bj", u, ctrl)
        xc_psi = x_psi - x_mean[:, None] * psi
        xc2_psi = xc_psi @ self.x_t - x_mean[:, None] * xc_psi
        f = (-1j * self.inv_hbar) * h_psi - self.k * xc2_psi
        g = self.sqrt2k * xc_psi
        raw = psi + f * self.dt + g * dw[:, None]
        norms = np.linalg.norm(raw, axis=1)
        ok = norms >= NORM_COLLAPSE_TOL
        safe = np.where(ok[:, None], raw, psi)
        safe_norms = np.where(ok, norms, np.linalg.norm(psi, axis=1))
        psi_next = safe / safe_norms[:, None]
        return psi_next, fid, x_mean, u, norms, ok

    def run(self, psi0_rows, increments, observe=None):
        """Propagate rows through increments.shape[1] steps.

        observe(i, psi, fid, x_mean, u, norms, ok), when given, sees the
        pre-step rows of step i and that step's outputs. Returns the final
        rows, their (fid, x_mean) and a boolean mask of rows that never
        collapsed.
        """
        psi = np.array(psi0_rows, dtype=np.complex128)
        alive = np.ones(psi.shape[0], dtype=bool)
        for i in range(increments.shape[1]):
            psi_next, fid, x_mean, u, norms, ok = self.step(psi, increments[:, i])
            if observe is not None:
                observe(i, psi, fid, x_mean, u, norms, ok)
            alive &= ok
            psi = psi_next
        fid, x_mean, _, _ = self.diagnostics(psi)
        return psi, fid, x_mean, alive


def euler_maruyama_step(model, law, state, dt, dw):
    """One Euler-Maruyama step with feedback from the pre-step state.

    Renormalizes the updated vector; raises IntegrationError when the raw
    update norm falls below NORM_COLLAPSE_TOL (the linearization has left
    the sphere's neighborhood and the run is invalid).
    """
    psi = require_state_vector(state)
    return euler_maruyama_step_many(model, law, psi[None, :], dt, [dw])[0]


def euler_maruyama_step_many(model, law, states, dt, dws):
    """Vectorized euler_maruyama_step over rows of `states` with per-row increments."""
    psi = np.asarray(states, dtype=np.complex128)
    if psi.ndim != 2 or psi.shape[1] != model.n:
        raise ValidationError(f"states must have shape (B, {model.n}), got {psi.shape}")
    dws = np.asarray(dws, dtype=float)
    if dws.shape != (psi.shape[0],):
        raise ValidationError("dws must have one increment per state row")
    stepper = _Stepper(model, law, dt)
    rows, _, _, _, norms, ok = stepper.step(psi, dws)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise IntegrationError(
            f"state norm collapsed to {norms[bad]:.3g} in one step (row {bad})"
        )
    return rows


@dataclass(frozen=True)
class TrajectoryRecord:
    """Everything one closed-loop run produced, sampled at every step.

    states[i] is the state at times[i]; lyapunov, fidelity, and
    observable_mean are evaluated there. controls_applied[i] holds the
    amplitudes used on the step from times[i] to times[i+1] (one fewer row
    than states). wiener_increments are the dW draws, seeded by `seed`.
    """

    times: np.ndarray
    states: np.ndarray
    lyapunov: np.ndarray
    fidelity: np.ndarray
    observable_mean: np.ndarray
    controls_applied: np.ndarray
    wiener_increments: np.ndarray
    seed: int

    @property
    def steps(self):
        return self.wiener_increments.size


def _step_count(dt, t_final):
    _require_dt(dt)
    if not (np.isfinite(t_final) and t_final >= 0.0):
        raise ValidationError(f"t_final must be finite and >= 0, got {t_final}")
    steps = int(round(t_final / dt))
    if abs(steps * dt - t_final) > 1e-9 * max(abs(t_final), dt):
        raise PreconditionError(f"dt {dt} does not divide t_final {t_final}")
    return steps


def simulate_trajectory(model, law, psi0, dt, t_final, seed, increments=None):
    """Integrate one closed-loop trajectory and record every step.

    The Wiener increments come from WienerPath.generate(seed, ...) unless an
    explicit array is supplied (same Brownian path across refinements, for
    convergence studies). Raises IntegrationError if the state norm
    collapses below 1e-6 at any step.
    """
    psi0 = require_state_vector(psi0, "psi0")
    if psi0.size != model.n:
        raise ValidationError(f"psi0 dimension {psi0.size} does not match model dimension {model.n}")
    steps = _step_count(dt, t_final)
    if increments is None:
        path = WienerPath.generate(seed, steps, dt)
        inc = path.increments
    else:
        inc = np.asarray(increments, dtype=float)
        if inc.shape != (steps,):
            raise ValidationError(f"increments shape {inc.shape} does not match {steps} steps")

    states = np.empty((steps + 1, model.n), dtype=np.complex128)
    fid = np.empty(steps + 1)
    x_mean = np.empty(steps + 1)
    controls = np.empty((steps, model.m))

    def observe(i, psi, f, x, u, norms, ok):
        states[i] = psi[0]
        fid[i] = f[0]
        x_mean[i] = x[0]
        controls[i] = u[0]
        if not ok[0]:
            raise IntegrationError(
                f"state norm collapsed to {norms[0]:.3g} at step {i} (t = {i * dt:.6g})"
            )

    psi, f, x, _ = _Stepper(model, law, dt).run(psi0[None, :], inc[None, :], observe)
    states[steps] = psi[0]
    fid[steps] = f[0]
    x_mean[steps] = x[0]

    times = np.arange(steps + 1) * float(dt)
    record = TrajectoryRecord(
        times=times,
        states=states,
        lyapunov=0.5 * (1.0 - fid),
        fidelity=fid,
        observable_mean=x_mean,
        controls_applied=controls,
        wiener_increments=np.array(inc),
        seed=int(seed),
    )
    return record
