"""Seeded trajectory ensembles and the statistical gates built on them.

Trajectory i of an ensemble uses seed base_seed + i, so any single
trajectory can be reproduced in isolation. Work runs serially in chunks
of a fixed width (CHUNK) and is reduced in chunk order, so every
statistic is fixed by the inputs alone, and a trajectory's numbers do not
depend on which chunk it falls into.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import lyapunov_value, min_lyapunov_at_distance
from .dynamics import WienerPath, _Stepper, _step_count
from .errors import ValidationError
from .quantum import equivalence_distance, normalize, orthonormal_completion, require_state_vector

CHUNK = 256
HIST_BINS = 20
# The gates' one stability criterion: a mean rise or drift counts only
# beyond N_SIGMA standard errors. The absolute slacks keep noiseless
# exact fixtures (zero standard error) from failing on rounding.
N_SIGMA = 3.0
V_ABS_TOL = 1e-12
PROBE_ABS_TOL_V = 1e-9
PROBE_ABS_TOL_DISTANCE = 1e-6


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


def _seed_chunks(first_seed, trials):
    """Seeds first_seed, first_seed + 1, ... split into CHUNK-wide ranges."""
    return [
        range(first_seed + lo, first_seed + min(lo + CHUNK, trials))
        for lo in range(0, trials, CHUNK)
    ]


def _propagate(stepper, psi0, seeds, steps, dt, observe=None):
    """Run one chunk: a trajectory from psi0 per seed, through `steps` steps.

    Returns stepper.run's (psi, fid, x_mean, alive) for the final states.
    """
    inc = np.empty((len(seeds), steps))
    for row, seed in enumerate(seeds):
        inc[row] = WienerPath.generate(seed, steps, dt).increments
    return stepper.run(np.tile(psi0, (len(seeds), 1)), inc, observe)


def _chunk_stats(stepper, psi0, dt, steps, seeds, r_thresh, rec_idx):
    """Propagate one chunk and reduce it. Returns per-chunk partial sums."""
    b = len(seeds)
    n_rec = len(rec_idx)
    v_hist = np.empty((b, n_rec))
    x_hist = np.empty((b, n_rec))
    f_hist = np.empty((b, n_rec))
    exit_steps = np.full((len(r_thresh), b), -1, dtype=np.int64)
    rec_pos = 0

    def observe(index, psi, fid, x_mean, *_):
        nonlocal rec_pos
        if rec_pos < n_rec and index == rec_idx[rec_pos]:
            v_hist[:, rec_pos] = 0.5 * (1.0 - fid)
            x_hist[:, rec_pos] = x_mean
            f_hist[:, rec_pos] = fid
            rec_pos += 1
        mag = np.sqrt(np.maximum(fid, 0.0))
        newly = (mag < r_thresh[:, None]) & (exit_steps < 0)
        exit_steps[newly] = index

    psi, fid, x_mean, valid = _propagate(stepper, psi0, seeds, steps, dt, observe)
    observe(steps, psi, fid, x_mean)

    exit_times = np.where(exit_steps[:, valid] >= 0, exit_steps[:, valid] * dt, np.inf)
    return {
        "count": int(valid.sum()),
        "sum_v": v_hist[valid].sum(axis=0),
        "sum_v2": (v_hist[valid] ** 2).sum(axis=0),
        "sum_x": x_hist[valid].sum(axis=0),
        "sum_x2": (x_hist[valid] ** 2).sum(axis=0),
        "sum_f": f_hist[valid].sum(axis=0),
        "sum_f2": (f_hist[valid] ** 2).sum(axis=0),
        "exit_times": exit_times,
        "final_fid": f_hist[valid, -1],
        "failed_seeds": [int(s) for s, a in zip(seeds, valid) if not a],
    }


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
    r_list=(0.3, 0.5, 1.0),
    record_stride=None,
    max_recorded=201,
):
    """Run `trials` seeded trajectories and reduce them to an EnsembleSummary.

    record_stride sets the sampling stride of the summary series (None
    picks a stride giving at most `max_recorded` points). Exceedance and
    exit times are tracked at every step regardless of the stride. The
    result is deterministic for fixed inputs.
    """
    psi0 = require_state_vector(psi0, "psi0")
    if psi0.size != model.n:
        raise ValidationError(f"psi0 dimension {psi0.size} does not match model dimension {model.n}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    steps = _step_count(dt, t_final)

    if record_stride is None:
        record_stride = max(1, steps // max(max_recorded - 1, 1))
    record_stride = int(record_stride)
    if record_stride < 1:
        raise ValidationError(f"record_stride must be >= 1, got {record_stride}")
    rec_idx = list(range(0, steps + 1, record_stride))
    if rec_idx[-1] != steps:
        rec_idx.append(steps)
    rec_idx = np.asarray(rec_idx, dtype=np.int64)

    r_list = tuple(float(r) for r in r_list)
    # exceedance in distance > R is overlap magnitude < 1 - R^2/2
    r_thresh = np.array([1.0 - 0.5 * r * r for r in r_list])
    stepper = _Stepper(model, law, dt)
    partials = [
        _chunk_stats(stepper, psi0, dt, steps, seeds, r_thresh, rec_idx)
        for seeds in _seed_chunks(base_seed, trials)
    ]

    count = sum(p["count"] for p in partials)
    if count == 0:
        raise ValidationError("every trajectory in the ensemble failed to integrate")
    sum_v = np.sum([p["sum_v"] for p in partials], axis=0)
    sum_v2 = np.sum([p["sum_v2"] for p in partials], axis=0)
    sum_x = np.sum([p["sum_x"] for p in partials], axis=0)
    sum_x2 = np.sum([p["sum_x2"] for p in partials], axis=0)
    sum_f = np.sum([p["sum_f"] for p in partials], axis=0)
    sum_f2 = np.sum([p["sum_f2"] for p in partials], axis=0)
    exit_times = np.concatenate([p["exit_times"] for p in partials], axis=1)
    final_fid = np.concatenate([p["final_fid"] for p in partials])
    failed = [s for p in partials for s in p["failed_seeds"]]

    mean_v, se_v = _mean_stderr(sum_v, sum_v2, count)
    mean_x, se_x = _mean_stderr(sum_x, sum_x2, count)
    mean_f, se_f = _mean_stderr(sum_f, sum_f2, count)
    exceed = {
        r: float(np.mean(np.isfinite(exit_times[j]))) for j, r in enumerate(r_list)
    }
    exits = {r: exit_times[j].copy() for j, r in enumerate(r_list)}
    hist = np.histogram(final_fid, bins=HIST_BINS, range=(0.0, 1.0))

    return EnsembleSummary(
        trials=int(trials),
        base_seed=int(base_seed),
        dt=float(dt),
        t_final=float(t_final),
        times=rec_idx * float(dt),
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
    V_ABS_TOL at zero stderr).
    """
    mean_v = np.asarray(summary.mean_V, dtype=float)
    se = np.asarray(summary.stderr_V, dtype=float)
    diffs = mean_v[1:] - mean_v[:-1]
    se_next = se[1:]
    passes = bool(np.all(diffs <= N_SIGMA * se_next + V_ABS_TOL))
    worst = -np.inf
    for d, s in zip(diffs, se_next):
        if s > 0.0:
            worst = max(worst, d / s)
        elif d > V_ABS_TOL:
            worst = np.inf
        else:
            worst = max(worst, 0.0)
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
    direction = 1j * orthonormal_completion(model.target)[:, 1]
    floor = min_lyapunov_at_distance(radius)
    rows = []
    for i, size in enumerate(perturbation_sizes):
        size = float(size)
        psi0 = normalize(model.target + size * direction) if size else model.target.copy()
        v0 = lyapunov_value(psi0, model.target)
        summary = run_ensemble(
            model,
            law,
            psi0,
            dt,
            t_final,
            trials,
            base_seed + i * trials,
            r_list=(float(radius),),
            max_recorded=2,
        )
        p = summary.sup_distance_exceed_prob[float(radius)]
        stderr = float(np.sqrt(p * (1.0 - p) / summary.included))
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
    monotone = True
    for small, big in zip(ordered, ordered[1:]):
        band = N_SIGMA * float(np.hypot(small.stderr, big.stderr))
        if small.empirical_p > big.empirical_p + band:
            monotone = False
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
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    steps = _step_count(dt, t_probe)
    stepper = _Stepper(model, law, dt)
    results = []
    for idx, cand in enumerate(candidates):
        psi0 = require_state_vector(cand, f"candidates[{idx}]")
        v0 = lyapunov_value(psi0, model.target)
        d0 = equivalence_distance(psi0, model.target)
        f0 = float(abs(np.vdot(model.target, psi0)) ** 2)

        fids = []
        for seeds in _seed_chunks(base_seed + idx * trials, trials):
            _, fid, _, alive = _propagate(stepper, psi0, seeds, steps, dt)
            if not alive.all():
                raise ValidationError(
                    f"candidates[{idx}]: probe trajectories failed to integrate"
                )
            fids.append(fid)
        fid = np.concatenate(fids)
        dist = np.sqrt(np.maximum(2.0 - 2.0 * np.sqrt(np.maximum(fid, 0.0)), 0.0))
        dv = 0.5 * (1.0 - fid) - v0
        dd = dist - d0
        df = fid - f0

        mean_dv, se_dv = _scalar_stats(dv)
        mean_dd, se_dd = _scalar_stats(dd)
        mean_df, se_df = _scalar_stats(df)
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
