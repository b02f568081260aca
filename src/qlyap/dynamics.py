"""Ito integration of the continuously measured, feedback-controlled state.

The state obeys, in Ito form,

    d|psi> = ( -(i/hbar) H(u) - k (X - <X>)^2 ) |psi> dt
             + sqrt(2 k) (X - <X>) |psi> dW,

with H(u) = H0 + sum_k u_k H_k and <X> evaluated at the current state.
Integration is Euler-Maruyama with renormalization after every step; the
feedback amplitudes are evaluated on the pre-step state and held constant
across the step (zero-order hold). Noise comes from a counter-based
generator (Philox) so every trajectory is reproducible from its seed;
wiener_blocks() streams the same increments for a batch of seeds in
fixed time blocks, so no caller holds a whole (rows, steps) array.

The step kernel (_Stepper) batches trajectories as rows and gets every
operator product a step needs from one matmul against an operator block
built once per run; its states() generator, the package's one loop over
time, consumes increment blocks, yields every state of the batch and
callers record what they need.
drift() and diffusion() spell the same update out term by term; they are
the reference the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, PreconditionError, ValidationError
from .quantum import as_complex_vector, require_state_vector

NORM_COLLAPSE_TOL = 1e-6
NOISE_BLOCK = 256
# _step_count refuses runs longer than this many steps (1000x the bundled default)
MAX_STEPS = 10**7


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _require_dt(dt):
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValidationError(f"dt must be finite and > 0, got {dt}")


def _require_noise_args(seeds, steps, dt):
    _require_dt(dt)
    for seed in seeds:
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps}")


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
        _require_noise_args((seed,), steps, dt)
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


def wiener_blocks(seeds, steps, dt):
    """The increments of WienerPath.generate(seed, steps, dt) for every seed, in time blocks.

    Returns an iterator of (len(seeds), s) arrays, s = NOISE_BLOCK except
    for a shorter last block, whose concatenation along axis 1 bit-equals
    the stacked paths: each row draws from its own Philox stream, and a
    stream drawn in slices yields the same normals as one draw. The
    arguments are checked here, before any block is drawn.
    """
    _require_noise_args(seeds, steps, dt)
    return _wiener_blocks([_rng(seed) for seed in seeds], int(steps), np.sqrt(dt))


def _wiener_blocks(rngs, steps, scale):
    for lo in range(0, steps, NOISE_BLOCK):
        block = np.empty((len(rngs), min(NOISE_BLOCK, steps - lo)))
        for row, rng in zip(block, rngs):
            row[:] = rng.normal(0.0, scale, row.size)
        yield block


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


def _row_norms(z):
    """Euclidean norm of each row of a contiguous complex (B, n) array."""
    f = z.view(np.float64)  # (B, 2n): real and imaginary parts side by side
    return np.sqrt(np.einsum("ij,ij->i", f, f))


class _Stepper:
    """Batched Euler-Maruyama kernel; states() iterates step() over a run, yielding each state.

    States are rows of a contiguous (B, n) array. Each step is one matmul,
    P = psi @ W, against an operator block W built once per stepper. With
    A = I - (i dt/hbar) H0 - k dt X^2 and t the target, its column blocks are

        A^T | X^T | c H_1^T ... c H_m^T | conj(H_1 t) ... conj(H_m t) | conj(t)

    where c = -i dt/hbar, so the slices of each row of P hold A psi, X psi,
    every c H_k psi, every <t|H_k|psi> and <t|psi>. Expanding
    (X - <X>)^2 psi over those slices, the raw update is

        A psi + (2 k dt <X> + sqrt(2 k) dW) X psi
              - (k dt <X> + sqrt(2 k) dW) <X> psi + sum_k u_k c H_k psi,

    which is psi + drift dt + diffusion dW with the feedback held at its
    pre-step value. Past the matmul, every quantity of row i is an
    elementwise function of row i alone, computed on real views of the
    complex arrays, so a row's numbers do not depend on the batch around it.
    """

    def __init__(self, model, law, dt):
        law.require_matching(model)
        _require_dt(dt)
        self.model = model
        n, m, x = model.n, model.m, model.observable
        c = -1j * float(dt) / model.hbar
        self.k_dt = model.measurement_strength * float(dt)
        a = np.eye(n) + c * model.free_hamiltonian - self.k_dt * (x @ x)
        self.w = np.concatenate(
            [a.T, x.T]
            + [c * hk.T for hk in model.controls]
            + [(hk @ model.target).conj()[:, None] for hk in model.controls]
            + [model.target.conj()[:, None]],
            axis=1,
        )
        self.ctrl_cols = [slice((2 + j) * n, (3 + j) * n) for j in range(m)]
        self.inner_cols = slice((2 + m) * n, (2 + m) * n + m)
        self.gains = np.asarray(law.gains, dtype=float)
        self.phase_tol = law.phase_tol
        self.sqrt2k = np.sqrt(2.0 * model.measurement_strength)

    def diagnostics(self, psi):
        """(fidelity, x_mean, u, P) of each row, with u the feedback amplitudes and P = psi @ W."""
        if psi.shape[0] == 1:
            # numpy hands a one-row product to BLAS gemv, which rounds unlike
            # the gemm of wider batches; two rows keep B = 1 on gemm too
            p = (np.concatenate((psi, psi)) @ self.w)[:1]
        else:
            p = psi @ self.w
        n = self.model.n
        overlap = p[:, -1]  # <target|psi> per row
        a, b = overlap.real, overlap.imag
        fid = a * a + b * b
        x_mean = np.einsum("ij,ij->i", psi.view(np.float64), p[:, n : 2 * n].view(np.float64))
        if not self.model.m:
            return fid, x_mean, np.zeros((psi.shape[0], 0)), p
        # u_k = gains_k Im(phase <t|H_k|psi>), phase = conj(overlap) / |overlap|,
        # or phase = 1 where |overlap| < phase_tol (phase lock)
        phase_re, phase_im, mag = a, -b, np.sqrt(fid)
        locked = mag < self.phase_tol
        if locked.any():
            phase_re = np.where(locked, 1.0, phase_re)
            phase_im = np.where(locked, 0.0, phase_im)
            mag = np.where(locked, 1.0, mag)
        inner = p[:, self.inner_cols]
        im = phase_re[:, None] * inner.imag + phase_im[:, None] * inner.real
        u = self.gains * (im / mag[:, None])
        return fid, x_mean, u, p

    def step(self, psi, dw):
        """One EM step for every row. Returns (psi_next, fid, x_mean, u, norms, ok).

        Rows whose raw update norm falls below NORM_COLLAPSE_TOL are left at
        their pre-step value (normalized) and flagged through `ok`; the
        caller decides whether to raise or mask.
        """
        fid, x_mean, u, p = self.diagnostics(psi)
        n = self.model.n
        noise = self.sqrt2k * dw
        c_x = 2.0 * self.k_dt * x_mean + noise
        c_psi = (self.k_dt * x_mean + noise) * x_mean
        raw = np.empty_like(psi)
        f = raw.view(np.float64)
        np.multiply(c_x[:, None], p[:, n : 2 * n].view(np.float64), out=f)
        f += p[:, :n].view(np.float64)
        f -= c_psi[:, None] * psi.view(np.float64)
        for j, cols in enumerate(self.ctrl_cols):
            f += u[:, j, None] * p[:, cols].view(np.float64)
        norms = _row_norms(raw)
        ok = norms >= NORM_COLLAPSE_TOL
        scale = norms
        if not ok.all():
            raw = np.where(ok[:, None], raw, psi)
            scale = np.where(ok, norms, _row_norms(psi))
        f = raw.view(np.float64)
        f /= scale[:, None]
        return raw, fid, x_mean, u, norms, ok

    def states(self, psi0_rows, blocks):
        """Propagate rows through the increment blocks in turn, yielding each state.

        blocks is an iterable of (B, s) increment arrays, one column per
        step; `steps` is the total of their widths. Yields
        (i, psi, fid, x_mean, u, norms, ok) for i = 0 .. steps: the rows at
        step i with their diagnostics and, for i < steps, that step's raw
        update norms and non-collapse flags. At i = steps (the final state)
        norms and ok are None.
        """
        psi = np.array(psi0_rows, dtype=np.complex128, order="C")
        i = 0
        for block in blocks:
            for dw in block.T:
                psi_next, fid, x_mean, u, norms, ok = self.step(psi, dw)
                yield i, psi, fid, x_mean, u, norms, ok
                psi = psi_next
                i += 1
        fid, x_mean, u, _ = self.diagnostics(psi)
        yield i, psi, fid, x_mean, u, None, None


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
    psi = np.ascontiguousarray(states, dtype=np.complex128)
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
    ratio = float(t_final) / float(dt)
    if ratio > MAX_STEPS:
        raise ValidationError(f"t_final {t_final} / dt {dt} exceeds MAX_STEPS = {MAX_STEPS} steps")
    steps = int(round(ratio))
    # the tolerance scales with t_final alone: a dt far beyond t_final is 0 steps off by t_final
    if abs(steps * dt - t_final) > 1e-9 * t_final:
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

    stepper = _Stepper(model, law, dt)
    for i, psi, f, x, u, norms, ok in stepper.states(psi0[None, :], [inc[None, :]]):
        states[i] = psi[0]
        fid[i] = f[0]
        x_mean[i] = x[0]
        if i < steps:
            controls[i] = u[0]
            if not ok[0]:
                raise IntegrationError(
                    f"state norm collapsed to {norms[0]:.3g} at step {i} (t = {i * dt:.6g})"
                )

    return TrajectoryRecord(
        times=np.arange(steps + 1) * float(dt),
        states=states,
        lyapunov=0.5 * (1.0 - fid),
        fidelity=fid,
        observable_mean=x_mean,
        controls_applied=controls,
        wiener_increments=np.array(inc),
        seed=int(seed),
    )
