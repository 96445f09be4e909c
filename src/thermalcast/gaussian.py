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

All operations are pure functions on immutable values; nothing here caches
or mutates shared state, so parallel evaluation over parameter grids is safe.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError, UnphysicalStateError

# Relative tolerance for the symmetry check at construction time.
SYMMETRY_TOL = 1e-12

# Symplectic eigenvalues this far below 1 are treated as floating-point noise
# and clamped to exactly 1; larger violations fail physicality.
SYMPLECTIC_TOL = 1e-9


@dataclass(frozen=True)
class CovarianceMatrix:
    """A zero-mean Gaussian state: real symmetric 2n x 2n second-moment matrix.

    The wrapped array must be finite; it is symmetrized once and frozen at
    construction. A non-finite entry, which is how an overflow shows up,
    raises :class:`NumericFailureError`.
    Physicality (positive definiteness, symplectic spectrum above shot noise)
    is deliberately not enforced here; use :func:`validate_physicality`.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidArgumentError(f"covariance matrix must be square, got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[0] % 2 != 0:
            raise InvalidArgumentError(f"covariance matrix must be 2n x 2n with n >= 1, got {arr.shape[0]} rows")
        if not np.isfinite(arr).all():
            raise NumericFailureError("covariance overflowed: the matrix has non-finite entries")
        # halve first, so entries near the float maximum cannot overflow
        half = arr / 2.0
        scale = max(1.0, float(np.abs(arr).max()))
        asym = 2.0 * float(np.abs(half - half.T).max())
        if asym > SYMMETRY_TOL * scale:
            raise InvalidArgumentError(f"covariance matrix is not symmetric: max asymmetry {asym:.3e}")
        arr = half + half.T
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_modes(self) -> int:
        return self.data.shape[0] // 2

    def mode_slice(self, mode: int) -> slice:
        """Row/column slice of one mode's (x, p) pair."""
        if not 0 <= mode < self.n_modes:
            raise InvalidArgumentError(f"mode index {mode} out of range for {self.n_modes} modes")
        return slice(2 * mode, 2 * mode + 2)


@dataclass(frozen=True)
class SymplecticForm:
    """The symplectic form Omega for n modes: direct sum of [[0,1],[-1,0]]."""

    n_modes: int
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_modes < 1:
            raise InvalidArgumentError("n_modes must be >= 1")
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        mat = np.kron(np.eye(self.n_modes), block)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class BeamsplitterSpec:
    """Two target modes and a transmittance; defines a passive symplectic mix.

    ``mode_a`` receives the transmitted beam, ``mode_b`` the reflected one.
    """

    mode_a: int
    mode_b: int
    transmittance: float

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise InvalidArgumentError("beamsplitter modes must differ")
        if self.mode_a < 0 or self.mode_b < 0:
            raise InvalidArgumentError("mode indices must be non-negative")
        if not 0.0 <= self.transmittance <= 1.0:
            raise InvalidArgumentError(f"transmittance must lie in [0, 1], got {self.transmittance}")


@dataclass(frozen=True)
class PhysicalityReport:
    """Outcome of :func:`validate_physicality` with named diagnostics."""

    ok: bool
    issues: tuple[str, ...]
    min_symplectic: float | None

    def __bool__(self) -> bool:
        return self.ok


def make_vacuum(n_modes: int) -> CovarianceMatrix:
    """The n-mode vacuum state: 2n x 2n identity."""
    if n_modes < 1:
        raise InvalidArgumentError("n_modes must be >= 1")
    return CovarianceMatrix(np.eye(2 * n_modes))


def make_thermal(variance: float) -> CovarianceMatrix:
    """A single thermal mode diag(V, V); V = 1 is the vacuum."""
    if variance < 1.0:
        raise UnphysicalStateError(f"thermal variance must be >= 1 SNU, got {variance}")
    return CovarianceMatrix(np.diag([float(variance), float(variance)]))


def make_epr(nu: float) -> CovarianceMatrix:
    """A two-mode squeezed vacuum of local variance nu.

    Block form [[nu*I2, z*Z2], [z*Z2, nu*I2]] with z = sqrt(nu^2 - 1) and
    Z2 = diag(1, -1). Each single-mode reduction is thermal(nu); the joint
    state is pure.
    """
    if nu < 1.0:
        raise UnphysicalStateError(f"EPR variance must be >= 1 SNU, got {nu}")
    nu = float(nu)
    z = np.sqrt(nu * nu - 1.0)
    mat = np.zeros((4, 4))
    mat[0, 0] = mat[1, 1] = mat[2, 2] = mat[3, 3] = nu
    mat[0, 2] = mat[2, 0] = z
    mat[1, 3] = mat[3, 1] = -z
    return CovarianceMatrix(mat)


def tensor(a: CovarianceMatrix, b: CovarianceMatrix) -> CovarianceMatrix:
    """Direct sum of two states; mode counts add, b's modes come last."""
    na, nb = a.data.shape[0], b.data.shape[0]
    out = np.zeros((na + nb, na + nb))
    out[:na, :na] = a.data
    out[na:, na:] = b.data
    return CovarianceMatrix(out)


def apply_beamsplitter(state: CovarianceMatrix, bs: BeamsplitterSpec) -> CovarianceMatrix:
    """Mix two modes of a state on a beamsplitter: Gamma' = S Gamma S^T.

    S is the identity outside the target modes and acts on each quadrature
    pair as the orthogonal rotation fixed in the module docstring: the
    transmitted combination (amplitude sqrt(eta) on ``mode_a``) replaces
    ``mode_a``, the reflected combination replaces ``mode_b``.

    Args:
        state: input state.
        bs: target modes and transmittance.

    Returns:
        The transformed state, same mode count and ordering.
    """
    n = state.n_modes
    if bs.mode_a >= n or bs.mode_b >= n:
        raise InvalidArgumentError(
            f"beamsplitter modes ({bs.mode_a}, {bs.mode_b}) out of range for {n} modes")
    t = np.sqrt(bs.transmittance)
    r = np.sqrt(1.0 - bs.transmittance)
    s = np.eye(2 * n)
    for q in (0, 1):
        ia, ib = 2 * bs.mode_a + q, 2 * bs.mode_b + q
        s[ia, ia] = t
        s[ia, ib] = r
        s[ib, ia] = -r
        s[ib, ib] = t
    # an overflow here becomes non-finite entries, which CovarianceMatrix rejects
    with np.errstate(over="ignore", invalid="ignore"):
        out = s @ state.data @ s.T
    return CovarianceMatrix(out)


def reduce(state: CovarianceMatrix, keep: list[int] | tuple[int, ...]) -> CovarianceMatrix:
    """Principal submatrix on the kept modes, in the given order.

    Serves both as partial trace (drop the unlisted modes) and as mode
    permutation (list all modes in a new order).
    """
    n = state.n_modes
    keep = list(keep)
    if len(keep) == 0:
        raise InvalidArgumentError("must keep at least one mode")
    if len(set(keep)) != len(keep):
        raise InvalidArgumentError(f"duplicate mode index in {keep}")
    for m in keep:
        if not 0 <= m < n:
            raise InvalidArgumentError(f"mode index {m} out of range for {n} modes")
    idx = np.concatenate([(2 * m, 2 * m + 1) for m in keep]).astype(int)
    return CovarianceMatrix(state.data[np.ix_(idx, idx)])


def symplectic_eigenvalues(state: CovarianceMatrix) -> np.ndarray:
    """The n symplectic eigenvalues of a state, in descending order.

    These are the absolute values of the eigenvalues of i*Omega*Gamma (each
    occurs twice as +/-x; each is returned once). A physical state has all
    of them >= 1. Values within ``SYMPLECTIC_TOL`` below 1 are clamped up to
    exactly 1 so that entropy terms of pure constructions vanish cleanly.
    """
    gamma = state.data
    n = state.n_modes
    if n == 1:
        # one mode: x = sqrt(det Gamma), no eigensolve needed
        det = gamma[0, 0] * gamma[1, 1] - gamma[0, 1] * gamma[1, 0]
        if det < 0.0:
            raise NumericFailureError(f"negative single-mode determinant {det:.3e}")
        vals = np.array([np.sqrt(det)])
    else:
        omega = SymplecticForm(n).matrix
        try:
            eig = np.linalg.eigvals(omega @ gamma)
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"eigensolve failed: {exc}") from exc
        # conjugate pairs have bit-identical modulus; keep one per pair
        vals = np.sort(np.abs(eig))[::-1][::2].copy()
    vals[(vals < 1.0) & (vals > 1.0 - SYMPLECTIC_TOL)] = 1.0
    return np.sort(vals)[::-1]


def validate_physicality(state: CovarianceMatrix) -> PhysicalityReport:
    """Check symmetry, positive definiteness and the shot-noise bound.

    Failure is reported, not raised; diagnostics name each violated
    condition together with the offending value.
    """
    gamma = state.data
    issues: list[str] = []
    scale = max(1.0, float(np.abs(gamma).max()))
    asym = float(np.abs(gamma - gamma.T).max())
    if asym > SYMMETRY_TOL * scale:
        issues.append(f"not symmetric: max asymmetry {asym:.3e}")
    try:
        min_eig = float(np.linalg.eigvalsh(gamma).min())
        if min_eig <= 0.0:
            issues.append(f"not positive definite: min eigenvalue {min_eig:.6g}")
    except np.linalg.LinAlgError as exc:
        issues.append(f"eigenvalues unavailable: {exc}")
    min_sympl: float | None = None
    try:
        min_sympl = float(symplectic_eigenvalues(state).min())
        if min_sympl < 1.0 - SYMPLECTIC_TOL:
            issues.append(f"symplectic eigenvalue below shot noise: {min_sympl:.6g}")
    except NumericFailureError as exc:
        issues.append(f"symplectic spectrum unavailable: {exc}")
    return PhysicalityReport(ok=not issues, issues=tuple(issues), min_symplectic=min_sympl)
