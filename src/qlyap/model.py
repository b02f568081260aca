"""Problem definition containers: the measured system and the feedback law."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quantum import (
    as_complex_vector,
    require_hermitian,
    require_list,
    require_number,
    require_state_vector,
    require_traceless_hermitian,
)


def _frozen(arr):
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SystemModel:
    """An n-level system under continuous measurement with affine control.

    free_hamiltonian and every control generator must be Hermitian and
    traceless within 1e-12 times the operator's largest entry, with the
    controls in a list or tuple; the observable must be Hermitian; the
    target must be a unit vector (within 1e-9). measurement_strength k >= 0
    and hbar > 0. k = 0 (the no-measurement limit) is permitted here so
    degenerate reference dynamics can be built; file loading enforces k > 0.
    """

    free_hamiltonian: np.ndarray
    controls: tuple
    observable: np.ndarray
    target: np.ndarray
    measurement_strength: float
    hbar: float = 1.0

    def __post_init__(self):
        h0 = _frozen(require_traceless_hermitian(self.free_hamiltonian, "free_hamiltonian"))
        ctrls = require_list(self.controls, "controls", "matrices", require_traceless_hermitian)
        ctrls = tuple(_frozen(c) for c in ctrls)
        x = _frozen(require_hermitian(self.observable, "observable"))
        psi_f = _frozen(require_state_vector(self.target, "target"))

        n = psi_f.size
        for name, mat in [("free_hamiltonian", h0), ("observable", x)] + [
            (f"controls[{i}]", c) for i, c in enumerate(ctrls)
        ]:
            if mat.shape != (n, n):
                raise ValidationError(f"{name}: shape {mat.shape} does not match system dimension {n}")
        strength = require_number(self.measurement_strength, "measurement_strength", at_least=0.0)
        hbar = require_number(self.hbar, "hbar", above=0.0)

        object.__setattr__(self, "free_hamiltonian", h0)
        object.__setattr__(self, "controls", ctrls)
        object.__setattr__(self, "observable", x)
        object.__setattr__(self, "target", psi_f)
        object.__setattr__(self, "measurement_strength", strength)
        object.__setattr__(self, "hbar", hbar)

    @property
    def n(self):
        return self.target.size

    @property
    def m(self):
        return len(self.controls)

    def as_state(self, vec, name="state"):
        """Return vec as a complex vector, raising unless its dimension is n (any norm)."""
        psi = as_complex_vector(vec, name)
        if psi.size != self.n:
            raise ValidationError(f"{name}: dimension {psi.size} does not match model dimension {self.n}")
        return psi

    def require_start(self, vec, name="psi0"):
        """Return vec as a complex unit vector of dimension n."""
        return self.as_state(require_state_vector(vec, name), name)

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

    Construction checks only that the gains are a list or tuple of finite
    numbers, since adversarial studies build laws with non-positive gains
    to watch the closed loop misbehave. Call require_positive_gains() (done by file
    loading and the CLI) to enforce the stabilizing-law invariant gains > 0.
    """

    gains: tuple
    phase_tol: float = 1e-12

    def __post_init__(self):
        gains = require_list(self.gains, "gains", "numbers", require_number)
        tol = require_number(self.phase_tol, "phase_tol", above=0.0)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "phase_tol", tol)

    @property
    def m(self):
        return len(self.gains)

    def require_positive_gains(self):
        for k, g in enumerate(self.gains):
            require_number(g, f"gains[{k}]", above=0.0)
        return self

    def require_matching(self, model):
        if len(self.gains) != model.m:
            raise ValidationError(
                f"law has {len(self.gains)} gains but the model has {model.m} controls"
            )
        return self
