"""Seeded trajectory ensembles and the statistical gates built on them.

Trajectory i of an ensemble uses seed base_seed + i, so any single
trajectory can be reproduced in isolation. Work runs serially in batches
of up to BATCH rows, and each batch is reduced in fixed blocks of CHUNK
rows, in seed order, so every statistic is fixed by the inputs alone: a
trajectory's numbers do not depend on which batch it falls into, and the
blocks, hence every sum, do not depend on the batch width.

Every tool reaches the kernel through one call of one driver, _run_trials,
which runs one trajectory per row of its starts. An ensemble repeats psi0;
the probe and the stability test stack `trials` rows per candidate or size,
so group g's trajectory j has seed base_seed + g * trials + j. The driver
loops per batch over _Stepper.states and reduces surviving rows to sums.

The list arguments (r_list, perturbation_sizes, candidates) are read by
quantum.require_list, and a radius meets one rule, in (0, 2), wherever it
is given; a bad one raises ValidationError naming the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .control import _require_radius, lyapunov_value, min_lyapunov_at_distance
from .dynamics import NOISE_BLOCK, _Stepper, _step_count, _to_block, _wiener_blocks
from .errors import PreconditionError, ValidationError
from .quantum import equivalence_distance, fidelity, normalize, orthonormal_completion
from .quantum import require_int, require_list, require_number

CHUNK = 256
BATCH = 4 * CHUNK
HIST_BINS = 20
# The gates' one stability criterion: a mean rise or drift counts only
# beyond N_SIGMA standard errors. The absolute slacks keep noiseless
# exact fixtures (zero standard error) from failing on rounding.
N_SIGMA = 3.0
V_ABS_TOL = 1e-12
PROBE_ABS_TOL_V = 1e-9
PROBE_ABS_TOL_DISTANCE = 1e-6
DEFAULT_R_LIST = (0.3, 0.5, 1.0)


@dataclass(frozen=True)
class EnsembleSummary:
    """Order-fixed reduction of an ensemble of closed-loop trajectories.

    Series are sampled on `times` (a strided subset of the step grid).
    sup_distance_exceed_prob[R] estimates P{sup_t equivalence_distance > R}
    on the finite horizon; first_exit_times[R] holds each included
    trajectory's first exceedance time (inf when it never exceeds).
    Trajectories whose integration collapsed are excluded from every
    statistic and reported through failures/excluded_seeds.
    """

    trials: int
    base_seed: int
    dt: float
    t_final: float
    times: np.ndarray
    mean_V: np.ndarray
    stderr_V: np.ndarray
    mean_X: np.ndarray
    stderr_X: np.ndarray
    mean_fidelity: np.ndarray
    stderr_fidelity: np.ndarray
    sup_distance_exceed_prob: dict
    first_exit_times: dict
    final_fidelity_histogram: tuple
    failures: int
    excluded_seeds: tuple

    @property
    def included(self):
        return self.trials - self.failures


def _run_trials(stepper, starts, base_seed, steps, dt, rec_idx, radii):
    """Run one trajectory per row of the (rows, n) array starts, row i with seed base_seed + i.

    The rows run in BATCH-wide ranges through `steps` steps; the callers
    have checked dt, steps and base_seed. rec_idx is the list of recorded
    steps, ending at `steps`; radii lists the distances whose first
    exceedance is tracked, possibly none. Returns, over all rows,
    (alive, total, total_sq, final_fid, exit_steps):
    - alive marks the rows that never collapsed, the survivors (callers check them);
    - total and total_sq are (3, len(rec_idx)) sums of V, <X> and fidelity
      and of their squares over the survivors, added one CHUNK-row block
      at a time in row order;
    - final_fid holds each row's fidelity at `steps`;
    - exit_steps has one row per radius, -1 where it was never exceeded.
    """
    # exceedance in distance > R is overlap magnitude < 1 - R^2/2
    r_thresh = np.array([1.0 - 0.5 * r * r for r in radii])
    alive = np.ones(len(starts), dtype=bool)
    final_fid = np.empty(len(starts))
    exit_steps = np.full((r_thresh.size, len(starts)), -1, dtype=np.int64)
    sums, sums_sq = [], []
    for lo in range(0, len(starts), BATCH):
        hi = min(lo + BATCH, len(starts))
        blocks = _wiener_blocks(range(base_seed + lo, base_seed + hi), steps, np.sqrt(dt))
        hist = np.empty((3, hi - lo, len(rec_idx)))
        live, exits = alive[lo:hi], exit_steps[:, lo:hi]  # views: updates land in the full arrays
        # overlap magnitudes of up to NOISE_BLOCK steps; first exits are
        # resolved once per block of steps instead of at every step
        mags = np.empty((NOISE_BLOCK, hi - lo)) if r_thresh.size else None
        rec = 0
        for i, _, fid, mag, x_mean, _, _, ok in stepper.states(_to_block(starts[lo:hi]), blocks):
            if i == rec_idx[rec]:
                hist[:, :, rec] = 0.5 * (1.0 - fid), x_mean, fid
                rec += 1
            if mags is not None:
                j = i % NOISE_BLOCK
                mags[j] = mag
                if j == NOISE_BLOCK - 1 or i == steps:
                    _resolve_exits(exits, mags[: j + 1], i - j, r_thresh)
            if ok is not None:
                live &= ok
        final_fid[lo:hi] = hist[2, :, -1]
        for c in range(0, hi - lo, CHUNK):
            kept = hist[:, c : c + CHUNK][:, live[c : c + CHUNK]]
            sums.append(kept.sum(axis=1))
            sums_sq.append((kept ** 2).sum(axis=1))
    return alive, np.stack(sums).sum(axis=0), np.stack(sums_sq).sum(axis=0), final_fid, exit_steps


def _resolve_exits(exit_steps, mags, first_step, r_thresh):
    """Record, for rows not yet exited, the first step whose mags fall below each threshold.

    mags holds the overlap magnitudes of steps first_step, first_step + 1, ...
    """
    below = mags < r_thresh[:, None, None]  # (radii, steps, rows)
    newly = below.any(axis=1) & (exit_steps < 0)
    exit_steps[newly] = first_step + below.argmax(axis=1)[newly]


def require_radii(r_list, name="r_list"):
    """Return r_list as a tuple of floats, raising unless it is a list or tuple of radii in (0, 2)."""
    return require_list(r_list, name, "radii", _require_radius)


def _mean_stderr(total, total_sq, count):
    mean = total / count
    if count < 2:
        return mean, np.zeros_like(mean)
    var = np.maximum(total_sq - count * mean ** 2, 0.0) / (count - 1)
    return mean, np.sqrt(var / count)


def run_ensemble(
    model,
    law,
    psi0,
    dt,
    t_final,
    trials,
    base_seed,
    *,
    r_list=DEFAULT_R_LIST,
    record_stride=None,
    max_recorded=201,
):
    """Run `trials` seeded trajectories and reduce them to an EnsembleSummary.

    record_stride sets the sampling stride of the summary series (None
    picks a stride giving at most `max_recorded` points). Exceedance and
    exit times are tracked at every step regardless of the stride. The
    result is deterministic for fixed inputs.
    """
    psi0 = model.require_start(psi0, "psi0")
    trials = require_int(trials, "trials", 1)
    base_seed = require_int(base_seed, "base_seed")
    steps = _step_count(dt, t_final)

    if record_stride is None:
        record_stride = max(1, steps // max(require_int(max_recorded, "max_recorded", 1) - 1, 1))
    record_stride = require_int(record_stride, "record_stride", 1)
    rec_idx = list(range(0, steps + 1, record_stride))
    if rec_idx[-1] != steps:
        rec_idx.append(steps)

    r_list = require_radii(r_list)
    starts = np.broadcast_to(psi0, (trials, psi0.size))
    alive, total, total_sq, final_fid, exit_steps = _run_trials(
        _Stepper(model, law, dt), starts, base_seed, steps, dt, rec_idx, r_list
    )
    if not alive.any():
        raise ValidationError("every trajectory in the ensemble failed to integrate")
    (mean_v, mean_x, mean_f), (se_v, se_x, se_f) = _mean_stderr(total, total_sq, int(alive.sum()))
    exit_steps = exit_steps[:, alive]
    exits = dict(zip(r_list, np.where(exit_steps >= 0, exit_steps * dt, np.inf)))
    exceed = {r: float(np.mean(np.isfinite(times))) for r, times in exits.items()}
    # rounding can put a unit state's fidelity a few ulps above 1, and
    # np.histogram drops values outside its range
    hist = np.histogram(np.clip(final_fid[alive], 0.0, 1.0), bins=HIST_BINS, range=(0.0, 1.0))
    failed = [base_seed + int(i) for i in np.flatnonzero(~alive)]

    return EnsembleSummary(
        trials=trials,
        base_seed=base_seed,
        dt=float(dt),
        t_final=float(t_final),
        times=np.asarray(rec_idx, dtype=np.int64) * float(dt),
        mean_V=mean_v,
        stderr_V=se_v,
        mean_X=mean_x,
        stderr_X=se_x,
        mean_fidelity=mean_f,
        stderr_fidelity=se_f,
        sup_distance_exceed_prob=exceed,
        first_exit_times=exits,
        final_fidelity_histogram=hist,
        failures=len(failed),
        excluded_seeds=tuple(failed),
    )


@dataclass(frozen=True)
class SupermartingaleResult:
    passes: bool
    worst_violation_sigma: float
    pairs: int


def supermartingale_test(summary):
    """Check mean V never rises between consecutive recorded times.

    Passes iff mean_V[i+1] <= mean_V[i] + N_SIGMA * stderr_V[i+1] + V_ABS_TOL
    for every consecutive pair. worst_violation_sigma reports the largest
    rise in units of the pair's standard error (inf when the rise exceeds
    V_ABS_TOL at zero stderr); a rise of at most V_ABS_TOL is rounding and
    counts as 0 sigma. A summary with fewer than two recorded times has no
    pair to test and raises PreconditionError.
    """
    mean_v = np.asarray(summary.mean_V, dtype=float)
    if mean_v.size < 2:
        raise PreconditionError(
            f"supermartingale_test needs at least two recorded times, got {mean_v.size}"
        )
    se = np.asarray(summary.stderr_V, dtype=float)
    diffs = mean_v[1:] - mean_v[:-1]
    se_next = se[1:]
    passes = bool(np.all(diffs <= N_SIGMA * se_next + V_ABS_TOL))
    worst = -np.inf
    for d, s in zip(diffs, se_next):
        if d > V_ABS_TOL:
            worst = max(worst, d / s if s > 0.0 else np.inf)
        else:
            worst = max(worst, min(d / s, 0.0) if s > 0.0 else 0.0)
    return SupermartingaleResult(passes=passes, worst_violation_sigma=float(worst), pairs=len(diffs))


@dataclass(frozen=True)
class StabilityRow:
    perturbation_size: float
    v0: float
    floor: float
    bound: float
    empirical_p: float
    stderr: float
    passes: bool


@dataclass(frozen=True)
class StabilityBoundReport:
    radius: float
    rows: tuple
    monotone_within_band: bool

    @property
    def passes(self):
        return all(r.passes for r in self.rows) and self.monotone_within_band


def stability_bound_test(
    model,
    law,
    radius,
    perturbation_sizes,
    trials,
    *,
    dt,
    t_final,
    base_seed,
):
    """Exceedance probabilities from perturbed starts against V0 / floor.

    Starts are normalize(target + size * direction), with direction 1j
    times the first deterministic completion vector of the target, so the
    feedback is active from the first step. Each row passes when the
    empirical P{sup_t distance > radius} stays below V0/floor plus N_SIGMA
    binomial standard errors; the report also checks the probabilities
    grow monotonically with the perturbation size (within the combined
    N_SIGMA band), so they vanish as the perturbation does.
    """
    trials = require_int(trials, "trials", 1)
    base_seed = require_int(base_seed, "base_seed")
    sizes = require_list(
        perturbation_sizes, "perturbation_sizes", "sizes", partial(require_number, at_least=0.0)
    )
    if not sizes:
        raise ValidationError("perturbation_sizes must not be empty")
    direction = 1j * orthonormal_completion(model.target)[:, 1]
    starts = [normalize(model.target + size * direction) if size else model.target.copy() for size in sizes]
    floor = min_lyapunov_at_distance(radius)
    steps = _step_count(dt, t_final)
    alive, _, _, _, exit_steps = _run_trials(
        _Stepper(model, law, dt), np.repeat(starts, trials, axis=0), base_seed,
        steps, dt, [steps], (float(radius),),
    )
    alive, exceeded = alive.reshape(-1, trials), (exit_steps[0] >= 0).reshape(-1, trials)  # one row per size
    rows = []
    for i, (size, psi0) in enumerate(zip(sizes, starts)):
        survivors = int(alive[i].sum())
        if not survivors:
            raise ValidationError(f"perturbation_sizes[{i}]: every trajectory failed to integrate")
        v0 = lyapunov_value(psi0, model.target)
        p = float(np.mean(exceeded[i, alive[i]]))
        stderr = float(np.sqrt(p * (1.0 - p) / survivors))
        bound = v0 / floor
        rows.append(
            StabilityRow(
                perturbation_size=size,
                v0=v0,
                floor=floor,
                bound=bound,
                empirical_p=p,
                stderr=stderr,
                passes=bool(p <= bound + N_SIGMA * stderr),
            )
        )
    ordered = sorted(rows, key=lambda r: r.perturbation_size)
    monotone = all(
        small.empirical_p <= big.empirical_p + N_SIGMA * float(np.hypot(small.stderr, big.stderr))
        for small, big in zip(ordered, ordered[1:])
    )
    return StabilityBoundReport(radius=float(radius), rows=tuple(rows), monotone_within_band=monotone)


@dataclass(frozen=True)
class ProbeResult:
    """Mean terminal drifts of V, distance, and fidelity from one start."""

    candidate: np.ndarray
    stationary: bool
    mean_drift_v: float
    stderr_drift_v: float
    mean_drift_distance: float
    stderr_drift_distance: float
    mean_drift_fidelity: float
    stderr_drift_fidelity: float


def _scalar_stats(values):
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / np.sqrt(values.size))


def invariance_probe(
    model,
    law,
    candidates,
    dt,
    t_probe,
    trials,
    base_seed,
):
    """Short-ensemble drift test for candidate stationary states.

    For each candidate, `trials` trajectories run to t_probe; the candidate
    is stationary when the mean V drift is within N_SIGMA standard errors
    plus PROBE_ABS_TOL_V of zero, and the mean distance drift within
    N_SIGMA standard errors plus PROBE_ABS_TOL_DISTANCE. Fidelity drift is
    reported so escape from the target-orthogonal set can be gated on
    growth.
    """
    trials = require_int(trials, "trials", 1)
    base_seed = require_int(base_seed, "base_seed")
    starts = require_list(candidates, "candidates", "states", model.require_start)
    if not starts:
        raise ValidationError("candidates must not be empty")
    steps = _step_count(dt, t_probe, "t_probe")
    alive, _, _, final_fid, _ = _run_trials(
        _Stepper(model, law, dt), np.repeat(starts, trials, axis=0), base_seed, steps, dt, [steps], ()
    )
    if not alive.all():  # name the candidate of the first dead row
        raise ValidationError(f"candidates[{np.argmin(alive) // trials}]: probe trajectories failed to integrate")
    results = []
    for psi0, fid in zip(starts, final_fid.reshape(-1, trials)):  # one row of trials per candidate
        v0 = lyapunov_value(psi0, model.target)
        d0 = equivalence_distance(psi0, model.target)
        f0 = fidelity(psi0, model.target)
        dist = np.sqrt(np.maximum(2.0 - 2.0 * np.sqrt(fid), 0.0))
        dv = 0.5 * (1.0 - fid) - v0
        dd = dist - d0
        df = fid - f0
        (mean_dv, se_dv), (mean_dd, se_dd), (mean_df, se_df) = map(_scalar_stats, (dv, dd, df))
        stationary = bool(
            abs(mean_dv) <= N_SIGMA * se_dv + PROBE_ABS_TOL_V
            and abs(mean_dd) <= N_SIGMA * se_dd + PROBE_ABS_TOL_DISTANCE
        )
        results.append(
            ProbeResult(
                candidate=psi0,
                stationary=stationary,
                mean_drift_v=mean_dv,
                stderr_drift_v=se_dv,
                mean_drift_distance=mean_dd,
                stderr_drift_distance=se_dd,
                mean_drift_fidelity=mean_df,
                stderr_drift_fidelity=se_df,
            )
        )
    return results
