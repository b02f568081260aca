"""State and operator primitives for finite-dimensional quantum systems.

States are complex unit vectors in C^n, observables are n x n Hermitian
matrices, both held as plain numpy arrays. Physical states are identified
up to a global phase, so distances and membership tests are phase
invariant. Everything here is a pure function over those arrays, beside
the rules every argument meets, one per kind (number with optional bounds,
integer, list), so a file field, a CLI flag and a library argument fail alike.
Every operator tolerance (RANK_TOL, the one rule for "zero" in a structural
check, and those of the validation rules) is a fraction of operator_size over
the operators a matrix is built from, so no check depends on units.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

STATE_NORM_TOL = 1e-9
RANK_TOL = 1e-9
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EXPECTATION_IMAG_TOL = 1e-10
# built once: require_number runs on every entry of a definition file
_NUMBER_TYPES = (int, float, np.integer, np.floating)


def require_number(value, name, above=None, at_least=None, below=None):
    """Return value as a float, raising unless it is a finite int or float (not a bool).

    Each bound given must hold too: value > above, value >= at_least, value < below.
    above and below together are one open interval, with one message for either side.
    """
    if value.__class__ is float:  # the common case, spared the type tests that cost the most here
        number = value
    elif isinstance(value, bool) or not isinstance(value, _NUMBER_TYPES):
        raise ValidationError(f"{name}: expected a number, got {value!r}")
    else:
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{name}: expected a finite number, got {value!r}")
    if above is not None and below is not None and not above < number < below:
        raise ValidationError(f"{name}: must lie in ({above:g}, {below:g}), got {number!r}")
    if above is not None and number <= above:
        raise ValidationError(f"{name}: must be > {above:g}, got {number!r}")
    if at_least is not None and number < at_least:
        raise ValidationError(f"{name}: must be >= {at_least:g}, got {number!r}")
    if below is not None and number >= below:
        raise ValidationError(f"{name}: must be < {below:g}, got {number!r}")
    return number


def require_int(value, name, minimum=0):
    """Return value as an int, raising unless it is an integer >= minimum (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_list(value, name, what, check):
    """Return tuple(check(v, f"{name}[{k}]") for each entry v), raising unless value is a list or tuple.

    A numpy array is not a list here. Callers refuse an empty list themselves.
    """
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name}: expected a list of {what}, got {value!r}")
    checked = []
    for k, v in enumerate(value):  # a loop: before Python 3.12 a comprehension adds a frame per call
        checked.append(check(v, f"{name}[{k}]"))
    return tuple(checked)


def _complex_array(value, name):
    try:
        return np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError):  # not numbers, or ragged
        raise ValidationError(f"{name}: expected numbers, got {type(value).__name__}") from None


def _require_finite(arr, name):
    finite = np.isfinite(arr)
    if not finite.all():
        index = tuple(np.argwhere(~finite)[0])
        raise ValidationError(f"{name}[{', '.join(map(str, index))}]: must be finite, got {arr[index]}")


def operator_size(*ops):
    """The largest real or imaginary part of an entry of ops (0.0 for none): the scale of every tolerance."""
    # parts, not |entry|: they cannot overflow, so a huge operator never makes its own deviation negligible
    parts = np.array(ops, dtype=np.complex128).view(np.float64)  # a copy, so abs works in place
    return float(np.abs(parts, out=parts).max(initial=0.0))


def negligible(values, size):
    """values <= RANK_TOL * size (elementwise): a value is zero beside operators of that size."""
    return values <= RANK_TOL * size


def as_complex_vector(vec, name="state"):
    """Coerce to a finite 1-D complex128 array without normalizing."""
    arr = _complex_array(vec, name)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError(
            f"{name}: expected a complex vector of length >= 2, got shape {arr.shape}"
        )
    _require_finite(arr, name)
    return arr


def require_state_vector(vec, name="state"):
    """Return vec as a complex array, raising unless finite with norm 1 within STATE_NORM_TOL."""
    arr = as_complex_vector(vec, name)
    # entries near the float limit overflow to an inf norm, which fails below
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValidationError(f"{name}: norm {norm:.12g} is not 1 within {STATE_NORM_TOL:g}")
    return arr


def require_hermitian(mat, name="operator"):
    """Return mat as a complex square array, raising unless finite and Hermitian (HERMITIAN_TOL * operator_size)."""
    arr = _complex_array(mat, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name}: expected a square matrix, got shape {arr.shape}")
    _require_finite(arr, name)
    with np.errstate(over="ignore"):
        dev = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    bound = HERMITIAN_TOL * operator_size(arr)
    if dev > bound:
        raise ValidationError(f"{name}: not Hermitian within {bound:.3g} (max deviation {dev:.3g})")
    return arr


def require_traceless_hermitian(mat, name="operator"):
    """Hermitian check plus |trace| <= TRACE_TOL * operator_size (membership in i*su(n) directions)."""
    arr = require_hermitian(mat, name)
    # summed as Python complex numbers: a sum of huge entries is inf, or nan where
    # +inf and -inf partial sums meet, with no numpy warning to silence
    tr = sum(arr.diagonal().tolist())
    bound = TRACE_TOL * operator_size(arr)
    if not abs(tr) <= bound:
        raise ValidationError(f"{name}: trace {tr:.3g} is not 0 within {bound:.3g}")
    return arr


def normalize(vec):
    """vec / ||vec||. Raises when the norm is too small to divide by safely."""
    arr = as_complex_vector(vec)
    norm = float(np.linalg.norm(arr))
    if norm < 1e-12:
        raise ValidationError(f"cannot normalize a vector of norm {norm:.3g}")
    return arr / norm


def expectation_value(state, op):
    """<state|op|state> as a real number.

    The imaginary part of the raw quadratic form must be at most
    EXPECTATION_IMAG_TOL * operator_size(op) (anything larger indicates a
    non-Hermitian operator or a broken state) and is discarded.
    """
    psi = as_complex_vector(state)
    mat = np.asarray(op, dtype=np.complex128)
    if mat.shape != (psi.size, psi.size):
        raise ValidationError(
            f"operator shape {mat.shape} does not match state dimension {psi.size}"
        )
    raw = complex(np.vdot(psi, mat @ psi))
    if abs(raw.imag) > EXPECTATION_IMAG_TOL * operator_size(mat):
        raise ValidationError(
            f"expectation value has imaginary part {raw.imag:.3g}; operator is not Hermitian enough"
        )
    return raw.real


def _overlap(state, target):
    """|<target|state>|, raising unless both are finite complex vectors of one dimension."""
    psi = as_complex_vector(state)
    phi = as_complex_vector(target, "target")
    if phi.size != psi.size:
        raise ValidationError("state and target dimensions differ")
    return abs(np.vdot(phi, psi))


def fidelity(state, target):
    """|<target|state>|^2."""
    return float(_overlap(state, target) ** 2)


def equivalence_distance(state, target):
    """min over phases phi of ||state - e^{i phi} target||.

    Closed form sqrt(2 - 2 |<target|state>|) for unit vectors; the value
    lies in [0, sqrt(2)] and is invariant under a phase change of either
    argument.
    """
    return float(np.sqrt(max(2.0 - 2.0 * _overlap(state, target), 0.0)))


def eigenstate_eigenvalue(state, op):
    """The eigenvalue of op at state, or None when state is not an eigenvector.

    The residual ||op state - <op> state|| must be negligible beside
    operator_size(op), which holds in any units. The residual is invariant
    under spectral shifts op -> op + c*I, which move the returned eigenvalue by c.
    """
    psi = as_complex_vector(state)
    mat = np.asarray(op, dtype=np.complex128)
    lam = expectation_value(psi, mat)
    if negligible(float(np.linalg.norm(mat @ psi - lam * psi)), operator_size(mat)):
        return float(lam)
    return None


def orthonormal_completion(first):
    """Orthonormal basis whose first vector is `first`.

    The remaining vectors come from Gram-Schmidt over the standard basis
    in index order, skipping near-dependent candidates, so the completion
    is deterministic.
    """
    v0 = require_state_vector(first, "first")
    n = v0.size
    basis = [v0]
    for j in range(n):
        if len(basis) == n:
            break
        cand = np.zeros(n, dtype=np.complex128)
        cand[j] = 1.0
        for b in basis:
            cand = cand - np.vdot(b, cand) * b
        norm = float(np.linalg.norm(cand))
        if norm > 1e-8:
            basis.append(cand / norm)
    return np.stack(basis, axis=1)
