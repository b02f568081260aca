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
fixed time blocks, so no caller holds a whole (rows, steps) array. A
Philox stream is fixed by its 128-bit key, which numpy derives from the
seed through its SeedSequence hash; wiener_blocks computes the keys of a
whole batch in one vectorized pass of that hash (_philox_keys) and
re-keys idle generators with them instead of building one per seed.

The step kernel (_Stepper) holds a batch as one real block of shape
(2n, B), real parts of the components above imaginary parts, one
trajectory per column, and gets every operator product a step needs from
one matmul against a real operator stack built once per run; every later
op runs on contiguous length-B rows, writing into buffers built once per
batch width. Its states() generator, the package's one loop over time,
consumes increment blocks, yields every state of the batch and callers
record what they need. The yielded arrays are those buffers: what is
yielded at step i is overwritten by step i + 1, so a caller copies what
it keeps, as simulate_trajectory and _run_trials do. Callers hand it
complex state rows converted by _to_block (euler_maruyama_step_many,
simulate_trajectory and the ensemble driver, once per batch) and read
states back with _to_rows.
drift() and diffusion() spell the same update out term by term; they are
the reference the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, PreconditionError, ValidationError
from .quantum import _require_finite, require_int, require_number, require_state_vector

NORM_COLLAPSE_TOL = 1e-6
NOISE_BLOCK = 256
# _step_count refuses runs longer than this many steps (1000x the bundled default)
MAX_STEPS = 10**7
# numpy's SeedSequence hash, pool size 4 (see _philox_keys)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# a seed from here on has a fifth 32-bit word, which SeedSequence mixes past its pool
_HASHED_SEEDS = 1 << 128
# Generator(Philox) objects that no live wiener_blocks iterator holds
_IDLE = []


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _hasher(init, mult):
    """SeedSequence's hash step over uint32 arrays; its constant advances with every call."""
    const = init

    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    return hash_


def _philox_keys(seeds):
    """The Philox key Generator(Philox(seed)) starts with, as a (B, 2) uint64 array, one row per seed.

    Philox(seed) takes its key from numpy's SeedSequence(seed): mix_entropy
    over the seed's 32-bit words, least significant first and zeros past
    its length up to the pool size of 4, then generate_state(2, uint64).
    This is that hash in uint32 array arithmetic, one pass over the whole
    batch. The rows of seeds >= 2**128, which have more words, are not
    their keys.
    """
    data = b"".join((s if s < _HASHED_SEEDS else 0).to_bytes(16, "little") for s in seeds)
    words = np.frombuffer(data, dtype="<u4").reshape(-1, 4).T
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst]
                mixed -= np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> np.uint32(16)
    state = [v.astype(np.uint64) for v in map(_hasher(_INIT_B, _MULT_B), pool)]
    return np.stack((state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)), axis=1)


def _generators(seeds):
    """One Generator(Philox) per seed, each in the state Generator(Philox(seed)) starts in.

    Idle generators are re-keyed, and a new one is built only when the
    idle list runs out, so the list never holds more generators than the
    live iterators held at once.
    """
    rngs = []
    for seed, key in zip(seeds, _philox_keys(seeds).tolist()):
        if seed >= _HASHED_SEEDS:  # beyond the one-pass hash: numpy's own
            key = np.random.Philox(seed).state["state"]["key"].tolist()
        try:  # one pop, not a test and a pop: another thread may take the last one between them
            rng = _IDLE.pop()
        except IndexError:
            rng = _rng(0)
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,  # the buffer is spent: the first draw runs the counter from 0
            "has_uint32": 0,
            "uinteger": 0,
        }
        rngs.append(rng)
    return rngs


def _require_dt(dt):
    return require_number(dt, "dt", above=0.0)


def _require_noise_args(seeds, steps, dt):
    """Check dt and every seed; return the seeds as a list of ints and steps as an int."""
    _require_dt(dt)
    seeds = [require_int(seed, "seed") for seed in seeds]
    return seeds, require_int(steps, "steps")


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
        _, steps = _require_noise_args((seed,), steps, dt)
        inc = _rng(seed).normal(0.0, np.sqrt(dt), steps)
        inc.setflags(write=False)
        return cls(seed=int(seed), dt=float(dt), increments=inc)

    @property
    def steps(self):
        return self.increments.size

    def coarsen(self, factor):
        """Sum consecutive groups of `factor` increments (same Brownian path on a coarser grid)."""
        factor = require_int(factor, "factor", 1)
        if self.steps % factor:
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
    arguments are checked here, before any block is drawn. The iterator
    holds its generators from its first block until it is exhausted,
    closed or dropped, and then returns them to the idle list.
    """
    seeds, steps = _require_noise_args(seeds, steps, dt)
    return _wiener_blocks(seeds, steps, np.sqrt(dt))


def _wiener_blocks(seeds, steps, scale):
    rngs = []
    try:
        rngs = _generators(seeds)
        for lo in range(0, steps, NOISE_BLOCK):
            block = np.empty((len(rngs), min(NOISE_BLOCK, steps - lo)))
            for row, rng in zip(block, rngs):
                rng.standard_normal(out=row)
            # bit-equal to normal(0.0, scale), which returns 0.0 + scale * z
            block *= scale
            yield block
    finally:
        _IDLE.extend(rngs)


def drift(model, controls_now, state):
    """Deterministic part of d|psi>/dt for the given control amplitudes."""
    psi = model.as_state(state)
    h = model.hamiltonian(controls_now)
    x_mean = float(np.real(np.vdot(psi, model.observable @ psi)))
    xc_psi = model.observable @ psi - x_mean * psi
    xc2_psi = model.observable @ xc_psi - x_mean * xc_psi
    return (-1j / model.hbar) * (h @ psi) - model.measurement_strength * xc2_psi


def diffusion(model, state):
    """Noise coefficient sqrt(2 k) (X - <X>) |psi>; orthogonal to the state."""
    psi = model.as_state(state)
    x_mean = float(np.real(np.vdot(psi, model.observable @ psi)))
    return np.sqrt(2.0 * model.measurement_strength) * (model.observable @ psi - x_mean * psi)


def _to_block(rows):
    """Complex state rows (B, n) as the kernel's real block (2n, B): Re psi above Im psi, one column each."""
    rows = np.asarray(rows, dtype=np.complex128)
    n = rows.shape[1]
    block = np.empty((2 * n, rows.shape[0]))
    block[:n] = rows.real.T
    block[n:] = rows.imag.T
    return block


def _to_rows(block):
    """The kernel's real block (2n, B) as complex state rows (B, n); _to_rows(_to_block(z)) == z."""
    n = block.shape[0] // 2
    rows = np.empty((block.shape[1], n), dtype=np.complex128)
    rows.real = block[:n].T
    rows.imag = block[n:].T
    return rows


def _two_columns(a):
    """a with its one column repeated, or a itself when it has more.

    numpy hands a one-column product to BLAS gemv, which rounds unlike the
    gemm of wider blocks; two identical columns keep B = 1 on gemm.
    """
    return np.repeat(a, 2, axis=-1) if a.shape[-1] == 1 else a


def _real_op(op):
    """The real (2n, 2n) matrix acting on [Re psi; Im psi] as the complex op acts on psi."""
    r, s = op.real, op.imag
    return np.block([[r, -s], [s, r]])


def _real_bras(vectors):
    """Rows giving Re <v|psi> for each row v of `vectors`, then each Im <v|psi>, on [Re psi; Im psi]."""
    b = vectors.conj()
    return np.concatenate((np.hstack((b.real, -b.imag)), np.hstack((b.imag, b.real))))


class _Buffers:
    """Every array a step of one batch width writes, built once per width.

    p receives P = W F, and views name its row blocks; pair holds the two
    state blocks that successive steps alternate between.
    """

    def __init__(self, stepper, width):
        n2, m = 2 * stepper.model.n, stepper.model.m
        self.width = width
        self.p = p = np.empty((stepper.w.shape[0], width))
        self.a, self.b = p[stepper.overlap_re], p[-1]  # Re and Im of <target|psi>
        self.a_psi, self.x_psi = p[:n2], p[stepper.x_rows]
        self.ctrl_psi = [p[rows] for rows in stepper.ctrl_rows]
        self.inner_re, self.inner_im = p[stepper.inner_re], p[stepper.inner_im]
        self.fid, self.mag, self.x_mean, self.norms, self.c_x, self.c_psi, self.row = np.empty((7, width))
        self.u, self.im, self.term = np.empty((3, m, width))
        self.block = np.empty((n2, width))  # the product of a length-B row and a state block
        self.pair = tuple(np.empty((2, n2, width)))


def _first_column(*arrays):
    """Each array cut to its first column (along its last axis); None stays None."""
    return [a if a is None else a[..., :1] for a in arrays]


class _Stepper:
    """Batched Euler-Maruyama kernel; states() iterates step() over a run, yielding each state.

    A batch is one C-contiguous real block F of shape (2n, B): rows
    Re psi_1 .. Re psi_n, Im psi_1 .. Im psi_n, one trajectory per column.
    Each step is one matmul, P = W F, against a real (K, 2n) operator stack
    W built once per stepper. With A = I - (i dt/hbar) H0 - k dt X^2, t the
    target and c = -i dt/hbar, its row blocks are

        A | X | c H_1 ... c H_m | <t|H_1| ... <t|H_m| <t|

    each complex operator M written as [[Re M, -Im M], [Im M, Re M]] (2n
    rows) and the m + 1 bras as m + 1 rows of real parts above m + 1 rows
    of imaginary parts, so the rows of P hold A psi, X psi, every
    c H_k psi, every <t|H_k|psi> and <t|psi>, each with its real part
    above its imaginary part. Expanding (X - <X>)^2 psi over those rows,
    the raw update is

        A psi + (2 k dt <X> + sqrt(2 k) dW) X psi
              - (k dt <X> + sqrt(2 k) dW) <X> psi + sum_k u_k c H_k psi,

    which is psi + drift dt + diffusion dW with the feedback held at its
    pre-step value. Past the matmul every op runs on contiguous length-B
    rows, sums over components are sequential np.add.reduce over axis 0,
    and every quantity of column j is an elementwise function of column j
    alone, so a trajectory's numbers do not depend on the batch around it.
    Every op writes into the buffers of the batch width (_Buffers), built
    when the width changes and reused by every later step, so a stepper
    serves one loop at a time: concurrent loops need steppers of their own.
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
            [_real_op(a), _real_op(x)]
            + [_real_op(c * hk) for hk in model.controls]
            + [_real_bras(np.array([hk @ model.target for hk in model.controls] + [model.target]))]
        )
        self.x_rows = slice(2 * n, 4 * n)
        self.ctrl_rows = [slice((2 + j) * 2 * n, (3 + j) * 2 * n) for j in range(m)]
        bras = (2 + m) * 2 * n  # Re <t|H_k|psi>, Re <t|psi>, Im <t|H_k|psi>, Im <t|psi>
        self.overlap_re = bras + m
        self.inner_re, self.inner_im = slice(bras, bras + m), slice(bras + m + 1, bras + 2 * m + 1)
        self.gains = np.asarray(law.gains, dtype=float)[:, None]
        self.phase_tol = law.phase_tol
        self.sqrt2k = np.sqrt(2.0 * model.measurement_strength)
        self._bufs = None

    def _buffers(self, width):
        if self._bufs is None or self._bufs.width != width:
            self._bufs = _Buffers(self, width)
        return self._bufs

    def diagnostics(self, f):
        """(fidelity, mag, x_mean, u, buffers) of each column.

        mag is |<target|psi>|, u the (m, B) feedback amplitudes, and the
        buffers' p holds P = W F. The next call overwrites every array returned.
        """
        s = self._buffers(f.shape[1])
        np.matmul(self.w, f, out=s.p)
        a, b, fid, mag = s.a, s.b, s.fid, s.mag
        np.multiply(a, a, out=fid)
        np.multiply(b, b, out=s.row)
        fid += s.row
        np.sqrt(fid, out=mag)
        np.multiply(f, s.x_psi, out=s.block)
        np.add.reduce(s.block, axis=0, out=s.x_mean)
        if not self.model.m:
            return fid, mag, s.x_mean, s.u, s
        # u_k = gains_k Im(phase <t|H_k|psi>) with phase = (a - i b) / mag,
        # or phase = 1 where mag < phase_tol (phase lock)
        div = mag
        if mag.min(initial=np.inf) < self.phase_tol:  # an empty batch has no minimum
            locked = mag < self.phase_tol
            np.copyto(a, 1.0, where=locked)  # the overlap rows of P are spent once fid is known
            np.copyto(b, 0.0, where=locked)
            div = s.row
            np.copyto(div, mag)
            np.copyto(div, 1.0, where=locked)
        np.multiply(a, s.inner_im, out=s.im)
        np.multiply(b, s.inner_re, out=s.term)
        s.im -= s.term
        s.im /= div
        np.multiply(self.gains, s.im, out=s.u)
        return fid, mag, s.x_mean, s.u, s

    def step(self, f, noise):
        """One EM step for every column, noise holding each column's sqrt(2 k) dW.

        Returns (f_next, fid, mag, x_mean, u, norms, ok), the diagnostics
        being those of f. Columns whose raw update norm falls below
        NORM_COLLAPSE_TOL are left at their pre-step value (normalized) and
        marked False in the mask ok; ok is None when no column collapsed.
        The caller decides whether to raise or mask. f_next is the one of
        the width's two state blocks that f is not, and the next step but
        one overwrites it; the next step overwrites every other array.
        """
        fid, mag, x_mean, u, s = self.diagnostics(f)
        c_x, c_psi, block = s.c_x, s.c_psi, s.block
        np.multiply(2.0 * self.k_dt, x_mean, out=c_x)
        c_x += noise
        np.multiply(self.k_dt, x_mean, out=c_psi)
        c_psi += noise
        c_psi *= x_mean
        raw = s.pair[f is s.pair[0]]
        np.multiply(c_x, s.x_psi, out=raw)
        raw += s.a_psi
        np.multiply(c_psi, f, out=block)
        raw -= block
        for u_j, ctrl_psi in zip(u, s.ctrl_psi):
            np.multiply(u_j, ctrl_psi, out=block)
            raw += block
        norms, scale, ok = s.norms, s.norms, None
        np.multiply(raw, raw, out=block)
        np.add.reduce(block, axis=0, out=norms)
        np.sqrt(norms, out=norms)
        if not norms.min(initial=np.inf) >= NORM_COLLAPSE_TOL:  # a nan norm counts as collapsed
            ok = norms >= NORM_COLLAPSE_TOL
            np.copyto(raw, f, where=~ok)
            np.multiply(f, f, out=block)
            scale = np.sqrt(np.add.reduce(block, axis=0, out=s.row), out=s.row)
            np.copyto(scale, norms, where=ok)
        raw /= scale
        return raw, fid, mag, x_mean, u, norms, ok

    def states(self, f0, blocks):
        """Propagate the columns of the block f0 through the increment blocks, yielding each state.

        blocks is an iterable of (B, s) increment arrays, one column per
        step; `steps` is the total of their widths. Each block is scaled by
        sqrt(2 k) once, into one C-contiguous (s, B) array whose rows are
        the steps' noise. Yields
        (i, F, fid, mag, x_mean, u, norms, ok) for i = 0 .. steps: the
        (2n, B) block at step i with its diagnostics and, for i < steps,
        that step's raw update norms and collapse mask (None when no column
        collapsed). At i = steps (the final state) norms and ok are None. A one-column batch is stepped as two identical
        columns (see _two_columns), and the copy is never yielded.

        The yielded arrays are the stepper's buffers, not copies: those
        yielded at step i are overwritten by step i + 1 (F alternates
        between two blocks, so it is overwritten while step i + 1 is
        computed and reused at step i + 2). A caller copies what it keeps.
        """
        trim = f0.shape[1] == 1
        f = self._buffers(f0.shape[1] + trim).pair[0]
        np.copyto(f, f0)  # a one-column f0 fills both columns
        i = 0
        for block in blocks:
            for noise in _two_columns(np.multiply(np.asarray(block).T, self.sqrt2k, order="C")):
                f_next, fid, mag, x_mean, u, norms, ok = self.step(f, noise)
                if trim:
                    yield i, *_first_column(f, fid, mag, x_mean, u, norms, ok)
                else:
                    yield i, f, fid, mag, x_mean, u, norms, ok
                f = f_next
                i += 1
            noise = None  # a row view keeps the scaled block alive while the next one is drawn
        fid, mag, x_mean, u, _ = self.diagnostics(f)
        final = (f, fid, mag, x_mean, u, None, None)
        yield i, *(_first_column(*final) if trim else final)


def euler_maruyama_step(model, law, state, dt, dw):
    """One Euler-Maruyama step with feedback from the pre-step state.

    Renormalizes the updated vector; raises IntegrationError when the raw
    update norm falls below NORM_COLLAPSE_TOL (the linearization has left
    the sphere's neighborhood and the run is invalid).
    """
    psi = require_state_vector(state)
    return euler_maruyama_step_many(model, law, psi[None, :], dt, [require_number(dw, "dw")])[0]


def euler_maruyama_step_many(model, law, states, dt, dws):
    """Vectorized euler_maruyama_step over rows of `states` with per-row increments."""
    psi = np.asarray(states, dtype=np.complex128)
    if psi.ndim != 2 or psi.shape[1] != model.n:
        raise ValidationError(f"states must have shape (B, {model.n}), got {psi.shape}")
    dws = np.asarray(dws, dtype=float)
    if dws.shape != (psi.shape[0],):
        raise ValidationError("dws must have one increment per state row")
    _require_finite(dws, "dws")
    stepper = _Stepper(model, law, dt)
    b = psi.shape[0]
    noise = _two_columns(stepper.sqrt2k * dws)
    f, _, _, _, _, norms, ok = stepper.step(_two_columns(_to_block(psi)), noise)
    if ok is not None:
        bad = int(np.argmin(ok))
        raise IntegrationError(
            f"state norm collapsed to {norms[bad]:.3g} in one step (row {bad})"
        )
    return _to_rows(f[:, :b])


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


def _step_count(dt, t_final, name="t_final"):
    """The number of dt steps in t_final; name is the caller's name for its horizon."""
    dt = _require_dt(dt)
    t_final = require_number(t_final, name, at_least=0.0)
    ratio = t_final / dt
    if ratio > MAX_STEPS:
        raise ValidationError(f"{name} {t_final} / dt {dt} exceeds MAX_STEPS = {MAX_STEPS} steps")
    steps = int(round(ratio))
    # the tolerance scales with t_final alone: a dt far beyond t_final is 0 steps off by t_final
    if abs(steps * dt - t_final) > 1e-9 * t_final:
        raise PreconditionError(f"dt {dt} does not divide {name} {t_final}")
    return steps


def simulate_trajectory(model, law, psi0, dt, t_final, seed, increments=None):
    """Integrate one closed-loop trajectory and record every step.

    The Wiener increments come from WienerPath.generate(seed, ...) unless an
    explicit array is supplied (same Brownian path across refinements, for
    convergence studies). Raises IntegrationError if the state norm
    collapses below 1e-6 at any step.
    """
    psi0 = model.require_start(psi0, "psi0")
    seed = require_int(seed, "seed")
    steps = _step_count(dt, t_final)
    if increments is None:
        path = WienerPath.generate(seed, steps, dt)
        inc = path.increments
    else:
        inc = np.asarray(increments, dtype=float)
        if inc.shape != (steps,):
            raise ValidationError(f"increments shape {inc.shape} does not match {steps} steps")
        _require_finite(inc, "increments")

    states = np.empty((steps + 1, 2 * model.n))
    fid = np.empty(steps + 1)
    x_mean = np.empty(steps + 1)
    controls = np.empty((steps, model.m))

    stepper = _Stepper(model, law, dt)
    for i, f, fi, _, x, u, norms, ok in stepper.states(_to_block(psi0[None, :]), [inc[None, :]]):
        states[i] = f[:, 0]
        fid[i] = fi[0]
        x_mean[i] = x[0]
        if i < steps:
            controls[i] = u[:, 0]
            if ok is not None and not ok[0]:
                raise IntegrationError(
                    f"state norm collapsed to {norms[0]:.3g} at step {i} (t = {i * dt:.6g})"
                )

    return TrajectoryRecord(
        times=np.arange(steps + 1) * float(dt),
        states=_to_rows(states.T),
        lyapunov=0.5 * (1.0 - fid),
        fidelity=fid,
        observable_mean=x_mean,
        controls_applied=controls,
        wiener_increments=np.array(inc),
        seed=seed,
    )
