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
from .quantum import eigenstate_eigenvalue, orthonormal_completion, require_state_vector

RANK_TOL = 1e-9
CLUSTER_REL_TOL = 1e-8
SWEEP_PAD = 1.0
ORTHOGONAL_TOL = 1e-10


def _cluster_tol(eigenvalues):
    return max(CLUSTER_REL_TOL * float(np.max(np.abs(eigenvalues), initial=0.0)), 1e-12)


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

    def to_dict(self):
        return {"holds": self.holds, "eigenvalue": self.eigenvalue, "degeneracy": self.degeneracy}


@dataclass(frozen=True)
class ControlsFinding:
    """movers[k] is True when control k actually moves the target state."""

    holds: bool
    movers: tuple

    def to_dict(self):
        return {"holds": self.holds, "movers": list(self.movers)}


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

    def to_dict(self):
        return {
            "holds": self.holds,
            "rank": self.rank,
            "common_eigenket_count": len(self.common_eigenkets),
        }


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

    def to_dict(self):
        return {
            "target_free_eigenstate": self.target_free_eigenstate.to_dict(),
            "controls_move_target": self.controls_move_target.to_dict(),
            "target_observable_eigenstate": self.target_observable_eigenstate.to_dict(),
            "independent_generators": self.independent_generators.to_dict(),
            "all_hold": self.all_hold,
        }


def _eigenstate_finding(state, op, require_nondegenerate=False):
    value = eigenstate_eigenvalue(state, op, RANK_TOL)
    if value is None:
        return EigenstateFinding(holds=False, eigenvalue=None, degeneracy=0)
    eigenvalues = np.linalg.eigvalsh(op)
    degeneracy = int(np.sum(np.abs(eigenvalues - value) <= _cluster_tol(eigenvalues)))
    holds = degeneracy == 1 if require_nondegenerate else True
    return EigenstateFinding(holds=holds, eigenvalue=value, degeneracy=degeneracy)


def _real_span_rank(matrices):
    rows = np.array(
        [np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in matrices]
    )
    singular = np.linalg.svd(rows, compute_uv=False)
    if singular.size == 0 or singular[0] == 0.0:
        return 0
    return int(np.sum(singular > RANK_TOL * singular[0]))


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
    spectra = []
    for op in ops:
        eigenvalues = np.linalg.eigvalsh(op)
        ctol = _cluster_tol(eigenvalues)
        unique = []
        for value in eigenvalues:
            if not unique or value - unique[-1] > ctol:
                unique.append(float(value))
        spectra.append(unique)

    found = []
    eye = np.eye(n)
    for combo in itertools.product(*spectra):
        stacked = np.vstack([op - lam * eye for op, lam in zip(ops, combo)])
        _, singular, vh = np.linalg.svd(stacked)
        threshold = RANK_TOL * max(singular[0], 1.0)
        for row in range(n - 1, -1, -1):
            if row < singular.size and singular[row] > threshold:
                break
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
        eigenstate_eigenvalue(target, hk, RANK_TOL) is None for hk in model.controls
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


def shifted_controls_independent(model, shifts):
    """True when the controls stay independent after diagonal shifts.

    Tests real-linear independence of {H_k - shifts[k] * I}; a family that
    collapses under some shift admits a control redundancy the feedback
    cannot distinguish from free evolution.
    """
    shifts = np.asarray(shifts, dtype=float)
    if shifts.shape != (model.m,):
        raise ValidationError(
            f"shifts must have shape ({model.m},), got {shifts.shape}"
        )
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
    shifts = np.asarray(shifts, dtype=float)
    if shifts.shape != (model.m,):
        raise ValidationError(
            f"shifts must have shape ({model.m},), got {shifts.shape}"
        )
    n = model.n
    target = model.target
    rows = np.array(
        [((hk - lam * np.eye(n)) @ target).conj() for hk, lam in zip(model.controls, shifts)]
    ).reshape(model.m, n)
    if model.m == 0:
        basis = np.eye(n, dtype=np.complex128)
        return InvariantSetResult(
            shifts=(), dimension=n, basis=basis, contains_target=True, singular_values=()
        )
    _, singular, vh = np.linalg.svd(rows)
    threshold = RANK_TOL * max(singular[0], 1.0)
    rank = int(np.sum(singular > threshold))
    basis_rows = vh[rank:].conj()
    basis = np.column_stack([_phase_fix(row) for row in basis_rows]) if rank < n else np.empty(
        (n, 0), dtype=np.complex128
    )
    residual = float(np.linalg.norm(rows @ target))
    scale = max(float(np.linalg.norm(rows)), 1.0)
    return InvariantSetResult(
        shifts=tuple(float(s) for s in shifts),
        dimension=n - rank,
        basis=basis,
        contains_target=residual <= RANK_TOL * scale,
        singular_values=tuple(float(s) for s in singular),
    )


@dataclass(frozen=True)
class InvariantSetSweep:
    """Grid scan of invariant_set_slice over per-control shift values.

    dimension_counts maps slice dimension to the number of grid nodes
    attaining it; max_dimension_slice is the full result at the first
    node attaining the maximum. target_slice evaluates the canonical
    shifts <target|H_k|target>, the one choice guaranteed to keep the
    target itself inside the slice.
    """

    grids: tuple
    dimension_counts: dict
    max_dimension: int
    max_dimension_slice: InvariantSetResult
    target_slice: InvariantSetResult


def invariant_set_sweep(model, grid_points=50):
    """Scan invariant_set_slice over a grid per control.

    Each control's grid holds grid_points values spanning its spectrum
    widened by SWEEP_PAD on both sides, plus its eigenvalues.
    """
    if grid_points < 2:
        raise ValidationError(f"grid_points must be >= 2, got {grid_points}")
    if model.m == 0:
        raise PreconditionError("invariant set sweep needs at least one control")
    grids = []
    for hk in model.controls:
        eigenvalues = np.linalg.eigvalsh(hk)
        grid = np.linspace(eigenvalues[0] - SWEEP_PAD, eigenvalues[-1] + SWEEP_PAD, grid_points)
        grids.append(np.unique(np.concatenate([grid, eigenvalues])))
    counts = {}
    best = None
    for combo in itertools.product(*grids):
        result = invariant_set_slice(model, np.array(combo))
        counts[result.dimension] = counts.get(result.dimension, 0) + 1
        if best is None or result.dimension > best.dimension:
            best = result
    canonical = np.array(
        [float(np.real(np.vdot(model.target, hk @ model.target))) for hk in model.controls]
    )
    return InvariantSetSweep(
        grids=tuple(grids),
        dimension_counts=counts,
        max_dimension=best.dimension,
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
    if matrix.size:
        singular = np.linalg.svd(matrix, compute_uv=False)
        rank = int(np.sum(singular > RANK_TOL * max(singular[0], 1.0)))
    else:
        singular = np.array([])
        rank = 0
    return EscapeMatrixResult(
        matrix=matrix,
        full_rank=rank == model.n - 1,
        rank=rank,
        singular_values=tuple(float(s) for s in singular),
        completion=completion,
    )


def expected_escape_increment(model, law, state):
    """Mean instantaneous drift of the target overlap from an orthogonal state.

    Valid only when the target is an eigenvector of both the free
    Hamiltonian and the observable (those terms then vanish on the
    orthogonal complement) and the state is orthogonal to the target
    (|overlap| <= ORTHOGONAL_TOL).
    Returns the complex rate; a nonzero value certifies the state leaves
    the orthogonal set in mean.
    """
    state = require_state_vector(state, "state")
    law.require_matching(model)
    if eigenstate_eigenvalue(model.target, model.free_hamiltonian) is None:
        raise PreconditionError(
            "escape increment needs the target to be an eigenvector of the free Hamiltonian"
        )
    if eigenstate_eigenvalue(model.target, model.observable) is None:
        raise PreconditionError(
            "escape increment needs the target to be an eigenvector of the observable"
        )
    overlap = np.vdot(model.target, state)
    if abs(overlap) > ORTHOGONAL_TOL:
        raise PreconditionError(
            f"state must be orthogonal to the target, |overlap| = {abs(overlap):.3e}"
        )
    rate = 0.0 + 0.0j
    for gain, hk in zip(law.gains, model.controls):
        coupling = np.vdot(model.target, hk @ state)
        rate += gain * coupling.imag * coupling
    return -1j / model.hbar * rate
