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

Every operation takes one matrix and raises its first failure. Stages check, kernels compute: a
stage first factors the largest block it reads (:func:`_cholesky`, which raises "<label> is not
positive definite"), and the kernels under it check nothing and never raise or warn. All
operations are pure; only the sweep's closed forms stack points, failing rows by :func:`flag_rows`.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError, UnphysicalStateError

# Relative tolerance for the symmetry check at construction time.
SYMMETRY_TOL = 1e-12

# Largest variance in SNU. Up to here one-state discord stays within 2e-9 bits of a 60-digit
# reference, CMI and MI within their contract, and all arithmetic far from float overflow.
MAX_VARIANCE = 1e6


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """A zero-mean Gaussian state: real symmetric 2n x 2n second-moment matrix.

    The wrapped array must be finite; it is symmetrized once and frozen at
    construction. A non-finite entry raises :class:`NumericFailureError`.
    Scenario builds cannot produce one, since ``ScenarioParams`` caps every
    variance; the check guards matrices built by hand.
    Physicality (the uncertainty relation) is deliberately not enforced
    here; use :func:`validate_physicality`.

    ``factor`` is a read-only square-root factor F (F F^T is ``data`` to rounding) that the state builders carry; a
    state made from an array has none. States compare and hash by identity: ``==`` on arrays has no single truth value.
    """

    data: np.ndarray
    factor: np.ndarray | None = field(default=None, init=False, repr=False)

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
        half = float(np.abs(arr / 2.0 - arr.T / 2.0).max())  # halves: arr - arr.T can overflow
        if half > SYMMETRY_TOL * scale / 2.0:
            raise InvalidArgumentError(f"covariance matrix is not symmetric: max asymmetry {2.0 * half:.3e}")
        arr = arr / 2.0 + arr.T / 2.0  # halving first: no overflow near the float limit, exact for normal floats
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
    """The symplectic form for n modes, read-only: one matrix per mode count serves every call."""
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


def _cholesky(data: np.ndarray, label: str) -> np.ndarray:
    """The Cholesky factor L of one matrix; raise "<label> is not positive definite" without one."""
    try:
        return np.linalg.cholesky(data)
    except np.linalg.LinAlgError:
        raise NumericFailureError(f"{label} is not positive definite") from None


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)  # True is no count


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def mix_rows(rows: np.ndarray, mode_a: int, mode_b: int, eta: float) -> np.ndarray:
    """S X, S the module docstring's mix of two modes at ``eta``: a factor's update, and half of Gamma's."""
    t, r = np.sqrt(eta), np.sqrt(1.0 - eta)
    a, b = slice(2 * mode_a, 2 * mode_a + 2), slice(2 * mode_b, 2 * mode_b + 2)
    out = rows.copy()
    out[a], out[b] = t * rows[a] + r * rows[b], t * rows[b] - r * rows[a]
    return out


def _mode_columns(n: int, keep) -> np.ndarray:
    """Quadrature indices 2m, 2m + 1 of each kept mode m; the one mode-index rule: distinct integers in [0, n)."""
    modes = list(keep) if np.iterable(keep) else []
    if not modes:
        raise InvalidArgumentError(f"keep must be an iterable of at least one mode index, got {keep!r}")
    for m in modes:
        if not (_is_integer(m) and 0 <= m < n):
            raise InvalidArgumentError(f"mode index {m!r} is not an integer in [0, {n})")
    if len(set(modes)) != len(modes):
        raise InvalidArgumentError(f"duplicate mode index in {modes}")
    return np.array([q for m in modes for q in (2 * m, 2 * m + 1)])


def select_modes(data: np.ndarray, keep) -> np.ndarray:
    """Principal submatrix of one matrix on the kept modes, in order."""
    idx = _mode_columns(len(data) // 2, keep)
    return data[idx[:, None], idx]


def make_vacuum(n_modes: int) -> CovarianceMatrix:
    """The n-mode vacuum state: 2n x 2n identity."""
    if not (_is_integer(n_modes) and n_modes >= 1):
        raise InvalidArgumentError(f"n_modes must be an integer >= 1, got {n_modes!r}")
    try:
        eye = np.eye(2 * n_modes)
    except ValueError:  # numpy refuses a dimension past its index range before it allocates
        raise InvalidArgumentError(f"n_modes {n_modes} is past numpy's largest array dimension") from None
    return _with_factor(eye, eye)


def check_variance(label: str, value: float) -> None:
    """Raise unless ``value`` is a real number in [1, MAX_VARIANCE] SNU; messages open with ``label``."""
    if not _is_real(value):
        raise InvalidArgumentError(f"{label} must be a real number, got {value!r}")
    if value < 1.0:
        raise UnphysicalStateError(f"{label} must be >= 1 SNU, got {value!r}")
    if not value <= MAX_VARIANCE:  # also true for nan
        raise InvalidArgumentError(f"{label} must be <= {MAX_VARIANCE:g} SNU, got {value!r}")


def check_transmittance(label: str, value: float) -> None:
    """Raise unless ``value`` is a real number in [0, 1]; the message opens with ``label``."""
    if not (_is_real(value) and 0.0 <= value <= 1.0):
        raise InvalidArgumentError(f"{label} must lie in [0, 1], got {value!r}")


def make_thermal(variance: float) -> CovarianceMatrix:
    """A single thermal mode diag(V, V); V = 1 is the vacuum."""
    check_variance("thermal variance", variance)
    return _with_factor(float(variance) * np.eye(2), np.sqrt(float(variance)) * np.eye(2))


def make_epr(nu: float) -> CovarianceMatrix:
    """A two-mode squeezed vacuum of local variance nu.

    Block form [[nu*I2, z*Z2], [z*Z2, nu*I2]] with z = sqrt(nu^2 - 1) and
    Z2 = diag(1, -1). Each single-mode reduction is thermal(nu); the joint
    state is pure; its factor is a balanced splitter on two squeezed vacua.
    """
    check_variance("EPR variance", nu)
    nu = float(nu)
    z, w = np.sqrt(nu * nu - 1.0), nu + np.sqrt(nu * nu - 1.0)  # w = e^2r, cosh 2r = nu: variances 1/w, w and w, 1/w
    return _with_factor(np.array([[nu, 0.0, z, 0.0], [0.0, nu, 0.0, -z], [z, 0.0, nu, 0.0], [0.0, -z, 0.0, nu]]),
                        mix_rows(np.diag(np.sqrt([1.0 / w, w, w, 1.0 / w])), 0, 1, 0.5))


def _direct_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.vstack([np.hstack([x, np.zeros((len(x), y.shape[1]))]), np.hstack([np.zeros((len(y), x.shape[1])), y])])


def tensor(a: CovarianceMatrix, b: CovarianceMatrix) -> CovarianceMatrix:
    """Direct sum of two states; mode counts add, b's modes come last. It carries a factor when both do."""
    x, y, both = check_state(a), check_state(b), a.factor is not None and b.factor is not None
    return _with_factor(_direct_sum(x, y), _direct_sum(a.factor, b.factor) if both else None)


def apply_beamsplitter(state: CovarianceMatrix, mode_a: int, mode_b: int,
                       transmittance: float) -> CovarianceMatrix:
    """Mix two modes of one state on a beamsplitter: Gamma' = S Gamma S^T, which ``CovarianceMatrix`` symmetrizes."""
    select_modes(check_state(state), [mode_a, mode_b])
    check_transmittance("transmittance", transmittance)
    eta = float(transmittance)
    with np.errstate(over="ignore", invalid="ignore"):  # a mix past the float range is refused as non-finite
        out = mix_rows(mix_rows(state.data, mode_a, mode_b, eta).T, mode_a, mode_b, eta)  # (S Gamma S^T)^T
        return _with_factor(out, None if state.factor is None else mix_rows(state.factor, mode_a, mode_b, eta))  # S F


def _with_factor(data: np.ndarray, factor: np.ndarray | None) -> CovarianceMatrix:
    """A state of ``data`` carrying ``factor`` (F F^T is data, to rounding) read-only, unless it is None."""
    state = CovarianceMatrix(data)
    if factor is not None:
        factor.setflags(write=False)
        object.__setattr__(state, "factor", factor)
    return state


def reduce(state: CovarianceMatrix, keep: list[int] | tuple[int, ...]) -> CovarianceMatrix:
    """Principal submatrix on the kept modes, in the given order; a carried factor keeps their rows.

    Serves both as partial trace (drop the unlisted modes) and as mode
    permutation (list all modes in a new order).
    """
    data = select_modes(check_state(state), keep)
    return _with_factor(data, None if state.factor is None else state.factor[_mode_columns(len(state.data) // 2, keep)])


def symplectic_spectrum(factor: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Williamson stage on the Cholesky factor L of Gamma: spectrum (n,) descending, and the rounding
    tolerance and verdict of the smallest symplectic eigenvalue.

    i L^T Omega L is Hermitian with eigenvalues +/-nu_k (Weedbrook et al., RMP 84, 621 (2012)); one
    mode has nu = L_00 L_11. A perturbation E of Gamma moves nu_k by nu_k w^H E w, where u_k is the unit
    eigenvector of +nu_k and w = L^-T u_k = i Omega L u_k / nu_k, so nu_k |w|^2 = |L u_k|^2 / nu_k >= 1.
    Building, factoring and solving each perturb Gamma by about dim eps tr Gamma (tr Gamma = |L|_F^2),
    so tol_k = 2 dim eps tr Gamma |L u_k|^2 / nu_k: a dim mode beside a bright one keeps its own
    tolerance. Values within tol_k of 1 read as 1, but a tol_k of 1 or more bounds nothing, so that
    value stays as computed and a matrix singular to rounding keeps its nu ~ 0. The verdict
    nu_min >= 1 is then Gamma + i Omega >= 0 (Simon, Mukunda & Dutta, PRA 49, 1567 (1994)).
    """
    dim, n = len(factor), len(factor) // 2
    if n == 1:  # L^T Omega L = det(L) Omega, whose +1 eigenvector is (1, -i) / sqrt(2)
        nu, vecs = np.array([factor[0, 0] * factor[1, 1]]), np.array([[1.0], [-1.0j]]) / np.sqrt(2.0)
    else:  # eigh ascends, -nu_1 .. -nu_n, nu_n .. nu_1: the upper half
        vals, vecs = np.linalg.eigh(1j * (factor.T @ _omega(n) @ factor))
        nu, vecs = vals[n:], vecs[:, n:]
    with np.errstate(over="ignore", divide="ignore"):  # only hand-built extremes; inf snaps nothing
        gain = (np.abs(factor @ vecs) ** 2).sum(axis=0) / nu  # nu_k |w|^2
        tol = 2.0 * dim * np.finfo(float).eps * (factor * factor).sum() * gain
    nu = np.where((np.abs(nu - 1.0) <= tol) & (tol < 1.0), 1.0, nu)
    low = nu.argmin()
    return -np.sort(-nu), tol[low], nu[low] >= 1.0


def symplectic_eigenvalues(state: CovarianceMatrix) -> np.ndarray:
    """The n symplectic eigenvalues of a state, in descending order; pure states report exactly 1."""
    return symplectic_spectrum(_cholesky(check_state(state), "covariance matrix"))[0]


def validate_physicality(state: CovarianceMatrix) -> PhysicalityReport:
    """Judge one state: positive definite, then the verdict of :func:`symplectic_spectrum`.

    Failure is reported, not raised: the report says which test failed, and ``min_symplectic``
    is set on a shot-noise failure only.
    """
    data = check_state(state)
    try:
        nu, tol, ok = symplectic_spectrum(_cholesky(data, "covariance matrix"))
    except NumericFailureError:
        return PhysicalityReport(ok=False, min_symplectic=None, issues=(
            f"not positive definite: min eigenvalue {np.linalg.eigvalsh(data)[0]:.6g}",))
    if ok:
        return PhysicalityReport(ok=True, issues=(), min_symplectic=None)
    return PhysicalityReport(ok=False, min_symplectic=float(nu[-1]), issues=(
        f"symplectic eigenvalue below shot noise: {nu[-1]:.15g} (tolerance {tol:.3g})",))
