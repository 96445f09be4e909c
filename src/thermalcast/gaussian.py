"""Gaussian states as covariance matrices in shot-noise units.

Conventions used throughout the package:

* Shot-noise units (SNU): the vacuum state has quadrature variance 1, so the
  vacuum covariance matrix is the identity.
* Quadrature ordering is (x1, p1, x2, p2, ...); mode ``m`` occupies rows and
  columns ``2m`` and ``2m + 1``.
* The symplectic form is the direct sum of [[0, 1], [-1, 0]] blocks.
* Beamsplitter sign convention (the single source of truth for every
  topology built on top of this module): with transmittance ``eta``,

      transmitted = sqrt(eta) * signal + sqrt(1 - eta) * ancilla
      reflected   = -sqrt(1 - eta) * signal + sqrt(eta) * ancilla

  applied identically to both quadratures. The transmitted beam lands in the
  slot of ``mode_a``, the reflected beam in the slot of ``mode_b``.

Operations work on stacks: (N, 2n, 2n) arrays of N states, one per row.
The one-state functions, which take plain values, are N = 1 calls into them.
A stage that can fail on one row records an exception in that row's slot
of an ``errors`` list (``None`` while the row is good) instead of raising,
so a bad row never spoils the others. Stages check, kernels compute: a stage
first runs :func:`positive_definite` on the largest block it reads, failing each
row without a Cholesky factor and setting it to the identity; the kernels under
it take that clean stack, check nothing, and never raise or warn. All operations are pure.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError, UnphysicalStateError

# Relative tolerance for the symmetry check at construction time.
SYMMETRY_TOL = 1e-12

# Reported symplectic eigenvalues this far below 1 are treated as
# floating-point noise and read as exactly 1.
SYMPLECTIC_TOL = 1e-9

# Largest variance in SNU. Up to here discord and MI stay within 2e-9 bits of
# a 60-digit reference, and all arithmetic stays far from float overflow.
MAX_VARIANCE = 1e6


@dataclass(frozen=True)
class CovarianceMatrix:
    """A zero-mean Gaussian state: real symmetric 2n x 2n second-moment matrix.

    The wrapped array must be finite; it is symmetrized once and frozen at
    construction. A non-finite entry raises :class:`NumericFailureError`.
    Scenario builds cannot produce one, since ``ScenarioParams`` caps every
    variance; the check guards matrices built by hand.
    Physicality (the uncertainty relation) is deliberately not enforced
    here; use :func:`validate_physicality`.
    """

    data: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.data).astype(float, casting="same_kind", copy=False)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"covariance matrix must be a real array: {exc}") from None
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidArgumentError(f"covariance matrix must be square, got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[0] % 2 != 0:
            raise InvalidArgumentError(f"covariance matrix must be 2n x 2n with n >= 1, got {arr.shape[0]} rows")
        if not np.isfinite(arr).all():
            raise NumericFailureError("covariance matrix has non-finite entries")
        scale = max(1.0, float(np.abs(arr).max()))
        asym = float(np.abs(arr - arr.T).max())
        if asym > SYMMETRY_TOL * scale:
            raise InvalidArgumentError(f"covariance matrix is not symmetric: max asymmetry {asym:.3e}")
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_modes(self) -> int:
        return self.data.shape[0] // 2


def check_state(state) -> np.ndarray:
    """``state.data`` of a :class:`CovarianceMatrix`; anything else raises: a bare array skips its checks."""
    if not isinstance(state, CovarianceMatrix):
        raise InvalidArgumentError(f"state must be a CovarianceMatrix, got {type(state).__name__}")
    return state.data


@cache
def _omega(n_modes: int) -> np.ndarray:
    """The symplectic form for n modes, read-only: one matrix per mode count serves every stack."""
    mat = np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]])
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class PhysicalityReport:
    """Outcome of :func:`validate_physicality` with named diagnostics."""

    ok: bool
    issues: tuple[str, ...]
    min_symplectic: float | None


def flag_rows(errors: list, mask: np.ndarray, make) -> None:
    """Record ``make(i)`` as the failure of each row i in ``mask`` that has none yet."""
    for i in np.flatnonzero(mask):
        if errors[i] is None:
            errors[i] = make(i)


def positive_definite(stack: np.ndarray, label: str, errors: list) -> np.ndarray:
    """Fail each row without a Cholesky factor; return the stack with every failed row set to I.

    One stacked call clears a good stack, which comes back uncopied; only
    when it raises are the rows factored one by one.
    """
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        for i, gamma in enumerate(stack):
            try:
                np.linalg.cholesky(gamma)
            except np.linalg.LinAlgError:
                errors[i] = errors[i] or NumericFailureError(f"{label} is not positive definite")
    if not any(errors):
        return stack
    clean = stack.copy()
    clean[[e is not None for e in errors]] = np.eye(stack.shape[-1])
    return clean


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)  # True is no count


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def run_one(stage, data: np.ndarray, *args):
    """Run ``stage(stack, *args, errors)`` on one matrix as an N = 1 stack; raise its failure."""
    errors = [None]
    out = stage(data[None], *args, errors)
    if errors[0] is not None:
        raise errors[0]
    return out[0]


def epr_stack(nu: np.ndarray) -> np.ndarray:
    """Two-mode squeezed vacua, (N, 4, 4), for local variances ``nu`` (N,)."""
    z = np.sqrt(nu * nu - 1.0)
    out = nu[:, None, None] * np.eye(4)
    out[:, 0, 2] = out[:, 2, 0] = z
    out[:, 1, 3] = out[:, 3, 1] = -z
    return out


def thermal_stack(variance: np.ndarray) -> np.ndarray:
    """Single thermal modes diag(V, V), (N, 2, 2), for variances (N,)."""
    return variance[:, None, None] * np.eye(2)


def direct_sum(*stacks: np.ndarray) -> np.ndarray:
    """Row-wise direct sum of stacks; later stacks' modes come last."""
    dims = np.cumsum([0] + [s.shape[-1] for s in stacks])
    out = np.zeros((len(stacks[0]), dims[-1], dims[-1]))
    for s, lo, hi in zip(stacks, dims, dims[1:]):
        out[:, lo:hi, lo:hi] = s
    return out


def beamsplitter_stack(stack: np.ndarray, mode_a: int, mode_b: int,
                       eta: np.ndarray) -> np.ndarray:
    """Gamma' = S Gamma S^T per row, S the module docstring's mix of two modes at ``eta``."""
    t, r = np.sqrt(eta)[:, None, None], np.sqrt(1.0 - eta)[:, None, None]
    a, b = slice(2 * mode_a, 2 * mode_a + 2), slice(2 * mode_b, 2 * mode_b + 2)
    out = stack.copy()
    ra, rb = stack[:, a, :], stack[:, b, :]
    out[:, a, :], out[:, b, :] = t * ra + r * rb, t * rb - r * ra
    ca, cb = out[:, :, a].copy(), out[:, :, b].copy()
    out[:, :, a], out[:, :, b] = t * ca + r * cb, t * cb - r * ca
    return (out + out.swapaxes(1, 2)) / 2.0


def select_modes(data: np.ndarray, keep) -> np.ndarray:
    """Principal submatrices of one matrix or of a stack on the kept modes, in order.

    The one home of the mode-index rule: distinct integers in [0, n).
    """
    n = data.shape[-1] // 2
    keep = list(keep)
    if len(keep) == 0:
        raise InvalidArgumentError("must keep at least one mode")
    for m in keep:
        if not (_is_integer(m) and 0 <= m < n):
            raise InvalidArgumentError(f"mode index {m!r} is not an integer in [0, {n})")
    if len(set(keep)) != len(keep):
        raise InvalidArgumentError(f"duplicate mode index in {keep}")
    idx = np.array([q for m in keep for q in (2 * m, 2 * m + 1)])
    return data[..., idx[:, None], idx]


def make_vacuum(n_modes: int) -> CovarianceMatrix:
    """The n-mode vacuum state: 2n x 2n identity."""
    if not (_is_integer(n_modes) and n_modes >= 1):
        raise InvalidArgumentError(f"n_modes must be an integer >= 1, got {n_modes!r}")
    return CovarianceMatrix(np.eye(2 * n_modes))


def check_variance(label: str, value: float) -> None:
    """Raise unless ``value`` is a real number in [1, MAX_VARIANCE] SNU; messages open with ``label``."""
    if not _is_real(value):
        raise InvalidArgumentError(f"{label} must be a real number, got {value!r}")
    if value < 1.0:
        raise UnphysicalStateError(f"{label} must be >= 1 SNU, got {value}")
    if not value <= MAX_VARIANCE:  # also true for nan
        raise InvalidArgumentError(f"{label} must be <= {MAX_VARIANCE:g} SNU, got {value!r}")


def make_thermal(variance: float) -> CovarianceMatrix:
    """A single thermal mode diag(V, V); V = 1 is the vacuum."""
    check_variance("thermal variance", variance)
    return CovarianceMatrix(thermal_stack(np.array([float(variance)]))[0])


def make_epr(nu: float) -> CovarianceMatrix:
    """A two-mode squeezed vacuum of local variance nu.

    Block form [[nu*I2, z*Z2], [z*Z2, nu*I2]] with z = sqrt(nu^2 - 1) and
    Z2 = diag(1, -1). Each single-mode reduction is thermal(nu); the joint
    state is pure.
    """
    check_variance("EPR variance", nu)
    return CovarianceMatrix(epr_stack(np.array([float(nu)]))[0])


def tensor(a: CovarianceMatrix, b: CovarianceMatrix) -> CovarianceMatrix:
    """Direct sum of two states; mode counts add, b's modes come last."""
    return CovarianceMatrix(direct_sum(check_state(a)[None], check_state(b)[None])[0])


def apply_beamsplitter(state: CovarianceMatrix, mode_a: int, mode_b: int,
                       transmittance: float) -> CovarianceMatrix:
    """Mix two modes of one state on a beamsplitter: Gamma' = S Gamma S^T."""
    select_modes(check_state(state), [mode_a, mode_b])
    if not (_is_real(transmittance) and 0.0 <= transmittance <= 1.0):
        raise InvalidArgumentError(f"transmittance must lie in [0, 1], got {transmittance!r}")
    return CovarianceMatrix(beamsplitter_stack(
        state.data[None], mode_a, mode_b, np.array([float(transmittance)]))[0])


def reduce(state: CovarianceMatrix, keep: list[int] | tuple[int, ...]) -> CovarianceMatrix:
    """Principal submatrix on the kept modes, in the given order.

    Serves both as partial trace (drop the unlisted modes) and as mode
    permutation (list all modes in a new order).
    """
    return CovarianceMatrix(select_modes(check_state(state), keep))


def symplectic_spectrum(stack: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues per row, (N, n), descending: |eigenvalues| of Omega Gamma.

    Each occurs twice as +/-x and is kept once; one mode needs only
    sqrt(det Gamma). Every row must be positive definite; the caller checks.
    """
    n = stack.shape[-1] // 2
    if n == 1:
        # a matrix singular to rounding can factor and still round to det < 0
        det = stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]
        return np.sqrt(np.maximum(det, 0.0))[:, None]
    # conjugate pairs have bit-identical modulus; keep one per pair
    return np.sort(np.abs(np.linalg.eigvals(_omega(n) @ stack)), axis=-1)[:, ::-2]


def symplectic_eigenvalues(state: CovarianceMatrix) -> np.ndarray:
    """The n symplectic eigenvalues of a state, in descending order.

    Values within ``SYMPLECTIC_TOL`` below 1 read as 1, so pure states report exactly 1.
    """
    vals = symplectic_spectrum(run_one(positive_definite, check_state(state), "covariance matrix")[None])[0]
    return np.where((vals < 1.0) & (vals > 1.0 - SYMPLECTIC_TOL), 1.0, vals)


def _unphysical(gamma: np.ndarray, low: float) -> PhysicalityReport:
    errors = [None]
    positive_definite(gamma[None], "covariance matrix", errors)
    if errors[0] is not None:
        return PhysicalityReport(ok=False, min_symplectic=None, issues=(
            f"not positive definite: min eigenvalue {np.linalg.eigvalsh(gamma)[0]:.6g}",))
    min_sympl = float(symplectic_spectrum(gamma[None])[0, -1])
    return PhysicalityReport(ok=False, min_symplectic=min_sympl, issues=(
        f"symplectic eigenvalue below shot noise: {min_sympl:.15g} "
        f"(Gamma + i Omega has eigenvalue {low:.3g})",))


def physicality_stack(stack: np.ndarray) -> list[PhysicalityReport]:
    """Test the uncertainty relation Gamma + i Omega >= 0 on every row.

    One stacked Hermitian eigensolve decides; it implies Gamma > 0 and every
    symplectic eigenvalue >= 1 (Simon, Mukunda & Dutta, PRA 49, 1567 (1994)).
    Its smallest eigenvalue may dip to -2 * dim * eps * lambda_max by rounding.
    Only a failed row is looked at again: :func:`positive_definite` tells a Gamma
    that is not positive definite from one with a symplectic eigenvalue below
    shot noise; ``min_symplectic`` is set on a positive-definite failure only.
    """
    dim = stack.shape[-1]
    eigs = np.linalg.eigvalsh(stack + 1j * _omega(dim // 2))
    reports = [PhysicalityReport(ok=True, issues=(), min_symplectic=None)] * len(stack)
    for i in np.flatnonzero(~(eigs[:, 0] >= -2.0 * dim * np.finfo(float).eps * eigs[:, -1])):
        reports[i] = _unphysical(stack[i], eigs[i, 0])
    return reports


def validate_physicality(state: CovarianceMatrix) -> PhysicalityReport:
    """The :func:`physicality_stack` report of one state; failure is reported, not raised."""
    return physicality_stack(check_state(state)[None])[0]
