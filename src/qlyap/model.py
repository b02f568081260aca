"""Problem definition containers: the measured system and the feedback law."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quantum import require_hermitian, require_state_vector, require_traceless_hermitian


def _frozen(arr):
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SystemModel:
    """An n-level system under continuous measurement with affine control.

    free_hamiltonian and every control generator must be Hermitian and
    traceless (within 1e-12); the observable must be Hermitian; the target
    must be a unit vector (within 1e-9). measurement_strength k >= 0 and
    hbar > 0. k = 0 (unobserved limit) is permitted here so degenerate
    reference dynamics can be built; file loading enforces k > 0.
    """

    free_hamiltonian: np.ndarray
    controls: tuple
    observable: np.ndarray
    target: np.ndarray
    measurement_strength: float
    hbar: float = 1.0

    def __post_init__(self):
        h0 = _frozen(require_traceless_hermitian(self.free_hamiltonian, "free_hamiltonian"))
        ctrls = tuple(
            _frozen(require_traceless_hermitian(c, f"controls[{i}]"))
            for i, c in enumerate(self.controls)
        )
        x = _frozen(require_hermitian(self.observable, "observable"))
        psi_f = _frozen(require_state_vector(self.target, "target"))

        n = psi_f.size
        for name, mat in [("free_hamiltonian", h0), ("observable", x)] + [
            (f"controls[{i}]", c) for i, c in enumerate(ctrls)
        ]:
            if mat.shape != (n, n):
                raise ValidationError(
                    f"{name}: shape {mat.shape} does not match system dimension {n}"
                )
        if not (self.measurement_strength >= 0.0 and np.isfinite(self.measurement_strength)):
            raise ValidationError(
                f"measurement_strength must be finite and >= 0, got {self.measurement_strength}"
            )
        if not (self.hbar > 0.0 and np.isfinite(self.hbar)):
            raise ValidationError(f"hbar must be finite and > 0, got {self.hbar}")

        object.__setattr__(self, "free_hamiltonian", h0)
        object.__setattr__(self, "controls", ctrls)
        object.__setattr__(self, "observable", x)
        object.__setattr__(self, "target", psi_f)
        object.__setattr__(self, "measurement_strength", float(self.measurement_strength))
        object.__setattr__(self, "hbar", float(self.hbar))

    @property
    def n(self):
        return self.target.size

    @property
    def m(self):
        return len(self.controls)

    def hamiltonian(self, controls_now):
        """H(u) = free_hamiltonian + sum_k u_k controls[k]."""
        u = np.asarray(controls_now, dtype=float)
        if u.shape != (self.m,):
            raise ValidationError(f"expected {self.m} control amplitudes, got shape {u.shape}")
        h = np.array(self.free_hamiltonian)
        for uk, hk in zip(u, self.controls):
            h = h + uk * hk
        return h


@dataclass(frozen=True)
class ControlLaw:
    """Feedback gains and the phase-lock tolerance of the control law.

    Construction only checks shape and finiteness: adversarial studies
    deliberately build laws with non-positive gains to watch the closed
    loop misbehave. Call require_positive_gains() (done by file loading
    and the CLI) to enforce the stabilizing-law invariant gains > 0.
    """

    gains: tuple
    phase_tol: float = 1e-12

    def __post_init__(self):
        g = tuple(float(x) for x in np.atleast_1d(np.asarray(self.gains, dtype=float)))
        if not all(np.isfinite(g)):
            raise ValidationError("gains must all be finite")
        if not (self.phase_tol > 0.0 and np.isfinite(self.phase_tol)):
            raise ValidationError(f"phase_tol must be finite and > 0, got {self.phase_tol}")
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "phase_tol", float(self.phase_tol))

    @property
    def m(self):
        return len(self.gains)

    def require_positive_gains(self):
        if any(g <= 0.0 for g in self.gains):
            raise ValidationError(f"gains must all be > 0, got {self.gains}")
        return self

    def require_matching(self, model):
        if len(self.gains) != model.m:
            raise ValidationError(
                f"law has {len(self.gains)} gains but the model has {model.m} controls"
            )
        return self
