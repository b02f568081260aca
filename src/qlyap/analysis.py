"""Structural checks on a closed-loop model.

Everything here is deterministic linear algebra on the model matrices:
which design assumptions hold, which states the feedback can never move,
and whether the coupling out of the target-orthogonal set has full rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError
from .quantum import (
    eigenstate_eigenvalue,
    negligible,
    operator_size,
    orthonormal_completion,
    require_int,
    require_number,
)

SWEEP_PAD = 1.0
# invariant_set_sweep holds per-node arrays over at least grid_points ** m nodes; beyond this many it refuses
MAX_SWEEP_NODES = 10**6


@dataclass(frozen=True)
class EigenstateFinding:
    """Whether the target is an eigenvector of one operator.

    eigenvalue is None when it is not; degeneracy counts the operator
    eigenvalues clustered at that value. When the finding was asked to
    require nondegeneracy, holds is False for a degenerate eigenvalue
    even though the target is an eigenvector.
    """

    holds: bool
    eigenvalue: float | None
    degeneracy: int


@dataclass(frozen=True)
class ControlsFinding:
    """movers[k] is True when control k actually moves the target state."""

    holds: bool
    movers: tuple


@dataclass(frozen=True)
class IndependenceFinding:
    """Real-linear independence of the Hamiltonian generators.

    rank is the dimension of the real span of the free Hamiltonian plus
    all controls; common_eigenkets holds simultaneous eigenvectors of the
    whole generator set (each one spans a line no Hamiltonian term can
    leave). holds requires full rank and no common eigenket.
    """

    holds: bool
    rank: int
    common_eigenkets: tuple


@dataclass(frozen=True)
class AssumptionReport:
    target_free_eigenstate: EigenstateFinding
    controls_move_target: ControlsFinding
    target_observable_eigenstate: EigenstateFinding
    independent_generators: IndependenceFinding

    @property
    def all_hold(self):
        return (
            self.target_free_eigenstate.holds
            and self.controls_move_target.holds
            and self.target_observable_eigenstate.holds
            and self.independent_generators.holds
        )


def _eigenstate_finding(state, op, require_nondegenerate=False):
    value = eigenstate_eigenvalue(state, op)
    if value is None:
        return EigenstateFinding(holds=False, eigenvalue=None, degeneracy=0)
    eigenvalues = np.linalg.eigvalsh(op)
    degeneracy = int(np.count_nonzero(negligible(np.abs(eigenvalues - value), operator_size(op))))
    holds = degeneracy == 1 if require_nondegenerate else True
    return EigenstateFinding(holds=holds, eigenvalue=value, degeneracy=degeneracy)


def _real_span_rank(matrices):
    rows = np.array(
        [np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in matrices]
    )
    singular = np.linalg.svd(rows, compute_uv=False)
    return int(np.count_nonzero(~negligible(singular, operator_size(*matrices))))


def _phase_fix(vec):
    for component in vec:
        if abs(component) > 1e-8:
            return vec * (abs(component) / component)
    return vec


def common_eigenkets(operators):
    """Simultaneous eigenvectors of a family of Hermitian operators.

    Enumerates one eigenvalue per cluster for each operator, intersects
    the corresponding eigenspaces through the nullspace of the stacked
    shifted operators, and returns an independent set of unit vectors.
    Combinations whose eigenvalues differ are orthogonal, so a greedy
    residual filter is enough to deduplicate.
    """
    ops = [np.asarray(op, dtype=np.complex128) for op in operators]
    if not ops:
        return ()
    n = ops[0].shape[0]
    size = operator_size(*ops)
    spectra = []
    for op in ops:
        unique = []
        for value in np.linalg.eigvalsh(op):
            if not unique or not negligible(value - unique[-1], size):
                unique.append(float(value))
        spectra.append(unique)

    found = []
    eye = np.eye(n)
    for combo in itertools.product(*spectra):
        stacked = np.vstack([op - lam * eye for op, lam in zip(ops, combo)])
        _, singular, vh = np.linalg.svd(stacked)
        for row in range(int(np.count_nonzero(~negligible(singular, size))), n):
            vec = vh[row].conj()
            residual = vec.copy()
            for prev in found:
                residual -= np.vdot(prev, residual) * prev
            if np.linalg.norm(residual) > 1e-8:
                found.append(_phase_fix(vec))
    return tuple(found)


def check_assumptions(model):
    """Evaluate the four structural design assumptions on a model.

    The target must be an eigenvector of the free Hamiltonian, every
    control must move it, it must be a nondegenerate eigenvector of the
    measured observable, and the generator set must be independent with
    no simultaneous eigenvector.
    """
    target = model.target
    free_finding = _eigenstate_finding(target, model.free_hamiltonian)
    movers = tuple(
        eigenstate_eigenvalue(target, hk) is None for hk in model.controls
    )
    controls_finding = ControlsFinding(holds=bool(movers) and all(movers), movers=movers)
    observable_finding = _eigenstate_finding(
        target, model.observable, require_nondegenerate=True
    )
    generators = (model.free_hamiltonian,) + model.controls
    rank = _real_span_rank(generators)
    kets = common_eigenkets(generators)
    independence = IndependenceFinding(
        holds=rank == model.m + 1 and not kets,
        rank=rank,
        common_eigenkets=kets,
    )
    return AssumptionReport(
        target_free_eigenstate=free_finding,
        controls_move_target=controls_finding,
        target_observable_eigenstate=observable_finding,
        independent_generators=independence,
    )


def _require_shifts(model, shifts):
    """Return shifts (a list, tuple or array) as m floats, each checked as shifts[k]."""
    values = np.asarray(shifts, dtype=object)
    if values.shape != (model.m,):
        raise ValidationError(f"shifts must have shape ({model.m},), got {values.shape}")
    return np.array([require_number(lam, f"shifts[{k}]") for k, lam in enumerate(values)], dtype=float)


def shifted_controls_independent(model, shifts):
    """True when the controls stay independent after diagonal shifts.

    Tests real-linear independence of {H_k - shifts[k] * I}; a family that
    collapses under some shift admits a control redundancy the feedback
    cannot distinguish from free evolution.
    """
    shifts = _require_shifts(model, shifts)
    if model.m == 0:
        return True
    eye = np.eye(model.n)
    shifted = [hk - lam * eye for hk, lam in zip(model.controls, shifts)]
    return _real_span_rank(shifted) == model.m


@dataclass(frozen=True)
class InvariantSetResult:
    """Solution slice of the stationarity conditions at fixed shifts.

    basis columns span the states whose control-channel overlaps with the
    target all equal shifts[k] times the plain overlap; dimension is the
    complex dimension of that subspace.
    """

    shifts: tuple
    dimension: int
    basis: np.ndarray
    contains_target: bool
    singular_values: tuple


def invariant_set_slice(model, shifts):
    shifts = _require_shifts(model, shifts)
    n = model.n
    target = model.target
    if model.m == 0:
        basis = np.eye(n, dtype=np.complex128)
        return InvariantSetResult(
            shifts=(), dimension=n, basis=basis, contains_target=True, singular_values=()
        )
    shifted = [hk - lam * np.eye(n) for hk, lam in zip(model.controls, shifts)]
    size = operator_size(*shifted)
    rows = np.array([(h @ target).conj() for h in shifted])
    _, singular, vh = np.linalg.svd(rows)
    rank = int(np.count_nonzero(~negligible(singular, size)))
    basis_rows = vh[rank:].conj()
    basis = np.column_stack([_phase_fix(row) for row in basis_rows]) if rank < n else np.empty(
        (n, 0), dtype=np.complex128
    )
    return InvariantSetResult(
        shifts=tuple(float(s) for s in shifts),
        dimension=n - rank,
        basis=basis,
        contains_target=negligible(float(np.linalg.norm(rows @ target)), size),
        singular_values=tuple(float(s) for s in singular),
    )


@dataclass(frozen=True)
class InvariantSetSweep:
    """Grid scan of invariant_set_slice dimensions over per-control shift values.

    dimension_counts maps slice dimension to the number of grid nodes
    attaining it; max_dimension_slice is the full result at the first
    node, in itertools.product order, attaining the maximum. target_slice
    evaluates the canonical shifts <target|H_k|target>, the one choice
    guaranteed to keep the target itself inside the slice.
    """

    grids: tuple
    dimension_counts: dict
    max_dimension: int
    max_dimension_slice: InvariantSetResult
    target_slice: InvariantSetResult


def invariant_set_sweep(model, grid_points=50):
    """Count invariant_set_slice dimensions over a grid per control.

    Each control's grid holds grid_points values spanning its spectrum
    widened by SWEEP_PAD on both sides, plus its eigenvalues. Raises
    ValidationError when grid_points ** m exceeds MAX_SWEEP_NODES.

    The dimensions come from one rank rule rather than one SVD per node.
    With a_k = <t|H_k|t> and W the matrix with rows H_k t - a_k t, the
    slice at shifts lam has dimension n - rank W when a - lam lies in the
    column space of W, and n - rank W - 1 otherwise. rank W and the left
    kernel L of W are computed once, and the residual L (a - lam) is
    evaluated over the whole grid by broadcasting. A singular value of W,
    or a node's residual norm, counts as zero when negligible beside the
    largest entry of the H_k - a_k I, as at the canonical slice.
    invariant_set_slice runs only twice: at the first node attaining the
    maximum and at the canonical shifts a.
    """
    grid_points = require_int(grid_points, "grid_points", 2)
    if model.m == 0:
        raise PreconditionError("invariant set sweep needs at least one control")
    if grid_points**model.m > MAX_SWEEP_NODES:
        raise ValidationError(
            f"grid_points {grid_points} with {model.m} control(s) means more than "
            f"MAX_SWEEP_NODES = {MAX_SWEEP_NODES} nodes"
        )
    grids = []
    for hk in model.controls:
        eigenvalues = np.linalg.eigvalsh(hk)
        grid = np.linspace(eigenvalues[0] - SWEEP_PAD, eigenvalues[-1] + SWEEP_PAD, grid_points)
        grids.append(np.unique(np.concatenate([grid, eigenvalues])))
    target = model.target
    canonical = np.array(
        [float(np.real(np.vdot(target, hk @ target))) for hk in model.controls]
    )
    coupling = np.array([hk @ target for hk in model.controls]) - np.outer(canonical, target)
    size = operator_size(*(hk - a_k * np.eye(model.n) for hk, a_k in zip(model.controls, canonical)))
    left, singular, _ = np.linalg.svd(coupling)
    rank = int(np.count_nonzero(~negligible(singular, size)))
    kernel = left[:, rank:].conj().T
    # residual[i_1, ..., i_m] = L (a - lam) at the node with shifts lam_k = grids[k][i_k]
    residual = sum(
        (a_k - lam_k)[..., None] * kernel[:, k]
        for k, (a_k, lam_k) in enumerate(zip(canonical, np.ix_(*grids)))
    )
    on_set = negligible(np.linalg.norm(residual, axis=-1), size)
    on_count = int(np.count_nonzero(on_set))
    counts = {
        dim: count
        for dim, count in ((model.n - rank - 1, on_set.size - on_count), (model.n - rank, on_count))
        if count
    }
    # the first on-set node attains the maximum; with none on the set every
    # node has the same dimension and argmax picks node 0
    first = np.unravel_index(int(np.argmax(on_set)), on_set.shape)
    best = invariant_set_slice(model, np.array([grid[i] for grid, i in zip(grids, first)]))
    return InvariantSetSweep(
        grids=tuple(grids),
        dimension_counts=counts,
        max_dimension=max(counts),
        max_dimension_slice=best,
        target_slice=invariant_set_slice(model, canonical),
    )


@dataclass(frozen=True)
class EscapeMatrixResult:
    """Control couplings from the target into its orthogonal complement.

    matrix[k, j] = <target|H_k+1|b_j> over the deterministic orthonormal
    completion b_1..b_{n-1} of the target. Full row space (rank n - 1)
    means no orthogonal state decouples from every control channel.
    """

    matrix: np.ndarray
    full_rank: bool
    rank: int
    singular_values: tuple
    completion: np.ndarray


def escape_matrix(model):
    completion = orthonormal_completion(model.target)
    perp = completion[:, 1:]
    bra = model.target.conj()
    matrix = np.array([bra @ (hk @ perp) for hk in model.controls]).reshape(
        model.m, model.n - 1
    )
    singular = np.linalg.svd(matrix, compute_uv=False) if matrix.size else np.zeros(0)
    rank = int(np.count_nonzero(~negligible(singular, operator_size(*model.controls))))
    return EscapeMatrixResult(
        matrix=matrix,
        full_rank=rank == model.n - 1,
        rank=rank,
        singular_values=tuple(float(s) for s in singular),
        completion=completion,
    )
