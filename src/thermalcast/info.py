"""Entropies, mutual information and Gaussian discord on covariance matrices.

Two entropy notions coexist here and must not be mixed up:

* :func:`shannon_entropy` is the differential entropy of the Gaussian
  quadrature distribution. Its absolute value carries a (2*pi*e) offset per
  quadrature; the offset cancels in every information difference we form.
* :func:`von_neumann_entropy` is the quantum entropy from the symplectic
  spectrum. Discord is built from this one.

Everything is reported in bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError, UnphysicalStateError
from .gaussian import SYMPLECTIC_TOL, CovarianceMatrix, reduce, symplectic_eigenvalues

_LN2 = float(np.log(2.0))

# Negative information values within this of zero clamp to 0; beyond it they
# raise. Also the agreement tolerance for the two CMI evaluation routes.
CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class Partition:
    """Disjoint mode groups (A, B, S) inside one multimode state.

    S may be empty (plain mutual information); A and B may not.
    """

    subsystem_a: tuple[int, ...]
    subsystem_b: tuple[int, ...]
    subsystem_s: tuple[int, ...] = ()

    def __post_init__(self):
        a = tuple(int(m) for m in self.subsystem_a)
        b = tuple(int(m) for m in self.subsystem_b)
        s = tuple(int(m) for m in self.subsystem_s)
        object.__setattr__(self, "subsystem_a", a)
        object.__setattr__(self, "subsystem_b", b)
        object.__setattr__(self, "subsystem_s", s)
        if not a or not b:
            raise InvalidArgumentError("subsystems A and B must be non-empty")
        combined = a + b + s
        if len(set(combined)) != len(combined):
            raise InvalidArgumentError(f"partition groups overlap: A={a}, B={b}, S={s}")


@dataclass(frozen=True)
class HomodyneProjector:
    """A quadrature direction for homodyne detection.

    ``angle`` 0 measures x, pi/2 measures p. The projector onto the measured
    direction is the rank-1 symmetric matrix x x^T with x = (cos a, sin a).
    """

    angle: float

    def __post_init__(self):
        if not 0.0 <= self.angle < np.pi:
            raise InvalidArgumentError(f"homodyne angle must lie in [0, pi), got {self.angle}")

    @property
    def direction(self) -> np.ndarray:
        return np.array([np.cos(self.angle), np.sin(self.angle)])

    @property
    def matrix(self) -> np.ndarray:
        x = self.direction
        return np.outer(x, x)


@dataclass(frozen=True)
class DiscordResult:
    """Gaussian discord D(B|A) together with the terms behind it."""

    value: float
    angle: float
    entropy_a: float
    entropy_joint: float
    conditional_entropy: float


def _logdet(gamma: np.ndarray, label: str) -> float:
    """log2-determinant; non-positive det is a hard error."""
    sign, logdet = np.linalg.slogdet(gamma)
    if sign <= 0.0:
        raise NumericFailureError(f"non-positive determinant for {label}")
    return float(logdet / _LN2)


def shannon_entropy(state: CovarianceMatrix) -> float:
    """Differential entropy of the quadrature distribution, in bits.

    H = (1/2) * log((2 pi e)^d * det Gamma) with d the full quadrature
    dimension (two per mode). Single vacuum mode: log2(2 pi e) ~ 4.094342.
    """
    dim = state.data.shape[0]
    return 0.5 * (dim * float(np.log(2.0 * np.pi * np.e) / _LN2) + _logdet(state.data, "state"))


def _g(x: np.ndarray) -> np.ndarray:
    # thermal-spectrum entropy term; x = 1 contributes exactly 0 (0 log 0 := 0)
    xp = (x + 1.0) / 2.0
    xm = (x - 1.0) / 2.0
    out = xp * np.log(xp)
    mask = xm > 0.0
    out[mask] -= xm[mask] * np.log(xm[mask])
    return out / _LN2


def von_neumann_entropy(state: CovarianceMatrix) -> float:
    """Quantum entropy from the symplectic spectrum, in bits.

    Zero for pure states (vacuum, EPR); thermal(2) gives ~1.377444.
    Raises unphysical-state if any symplectic eigenvalue sits below shot
    noise by more than the clamp tolerance.
    """
    eigs = symplectic_eigenvalues(state)
    low = float(eigs.min())
    if low < 1.0 - SYMPLECTIC_TOL:
        raise UnphysicalStateError(f"symplectic eigenvalue {low:.6g} below shot noise")
    return float(np.sum(_g(eigs)))


def _clamp_info(value: float, label: str) -> float:
    if value < -CLAMP_TOL:
        raise NumericFailureError(f"{label} = {value:.3e} is negative beyond tolerance")
    return 0.0 if value < 0.0 else value


def conditional_mutual_information(state: CovarianceMatrix, p: Partition) -> float:
    """I(A:B|S) in bits, S non-empty.

    Evaluated two independent ways and cross-checked to ``CLAMP_TOL``:

    * half the log of det(Gamma_AS) det(Gamma_BS) / (det(Gamma_S)
      det(Gamma_ABS)), the value returned;
    * half the log of det(Gamma_A|S) det(Gamma_B|S) / det(Gamma_AB|S), from
      the Schur complement Gamma_AB|S = Gamma_AB - C Gamma_S^-1 C^T, whose
      diagonal blocks are Gamma_A|S and Gamma_B|S.

    Disagreement between the routes, or a non-positive determinant, raises
    a numeric failure rather than returning a junk value.
    """
    if not p.subsystem_s:
        raise InvalidArgumentError("conditioning set S is empty; use mutual_information")
    g_as = reduce(state, p.subsystem_a + p.subsystem_s)
    g_bs = reduce(state, p.subsystem_b + p.subsystem_s)
    g_s = reduce(state, p.subsystem_s)
    g_abs = reduce(state, p.subsystem_a + p.subsystem_b + p.subsystem_s)

    from_dets = 0.5 * (
        _logdet(g_as.data, "Gamma_AS") + _logdet(g_bs.data, "Gamma_BS")
        - _logdet(g_s.data, "Gamma_S") - _logdet(g_abs.data, "Gamma_ABS"))
    n_a, n_ab = 2 * len(p.subsystem_a), 2 * len(p.subsystem_a + p.subsystem_b)
    cross = g_abs.data[:n_ab, n_ab:]
    cond = g_abs.data[:n_ab, :n_ab] - cross @ np.linalg.solve(g_s.data, cross.T)
    from_schur = 0.5 * (
        _logdet(cond[:n_a, :n_a], "Gamma_A|S") + _logdet(cond[n_a:, n_a:], "Gamma_B|S")
        - _logdet(cond, "Gamma_AB|S"))
    if abs(from_dets - from_schur) > CLAMP_TOL:
        raise NumericFailureError(
            f"CMI routes disagree: {from_dets!r} (determinants) vs {from_schur!r} (Schur complements)")
    return _clamp_info(from_dets, "conditional mutual information")


def mutual_information(state: CovarianceMatrix, p: Partition) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) in bits; requires an empty S."""
    if p.subsystem_s:
        raise InvalidArgumentError("mutual_information takes an empty conditioning set")
    h_a = shannon_entropy(reduce(state, p.subsystem_a))
    h_b = shannon_entropy(reduce(state, p.subsystem_b))
    h_ab = shannon_entropy(reduce(state, p.subsystem_a + p.subsystem_b))
    return _clamp_info(h_a + h_b - h_ab, "mutual information")


def homodyne_condition(state: CovarianceMatrix, measured_mode: int,
                       proj: HomodyneProjector) -> CovarianceMatrix:
    """State of the remaining modes after homodyning one mode.

    Schur-complement update Gamma_rest - C (X Gamma_m X)^+ C^T. The
    pseudo-inverse of the rank-1 piece is closed-form: with x the measured
    direction and q = x^T Gamma_m x, it is x x^T / q. No SVD, no rank
    tolerance.

    Args:
        state: at least two modes.
        measured_mode: which mode is detected (and removed).
        proj: quadrature direction of the detection.

    Returns:
        Covariance of the remaining modes, original relative order.
    """
    n = state.n_modes
    if not 0 <= measured_mode < n:
        raise InvalidArgumentError(f"measured mode {measured_mode} out of range for {n} modes")
    if n < 2:
        raise InvalidArgumentError("conditioning requires at least one unmeasured mode")
    rest = [m for m in range(n) if m != measured_mode]
    rest_idx = np.concatenate([(2 * m, 2 * m + 1) for m in rest]).astype(int)
    meas = state.mode_slice(measured_mode)
    x = proj.direction
    q = float(x @ state.data[meas, meas] @ x)
    if q <= 0.0:
        raise NumericFailureError(f"measured quadrature variance {q:.6g} is not positive")
    cx = state.data[rest_idx, meas] @ x
    return CovarianceMatrix(state.data[np.ix_(rest_idx, rest_idx)] - np.outer(cx, cx) / q)


def _best_homodyne_angle(pair: CovarianceMatrix) -> float:
    """Homodyne angle on mode 0 that minimizes the conditional det of mode 1.

    With A, B the diagonal blocks and C the cross block, a readout along x
    leaves mode 1 with det B - x^T C adj(B) C^T x / x^T A x. The minimizer
    is the top generalized eigenvector of (C adj(B) C^T, A), found as an
    ordinary symmetric eigenproblem after whitening by the Cholesky factor
    of A. The direction is reported as an angle in [0, pi).
    """
    a, b, c = pair.data[0:2, 0:2], pair.data[2:4, 2:4], pair.data[0:2, 2:4]
    adj_b = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]])
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NumericFailureError("measured mode's block is not positive definite") from None
    whiten = np.linalg.inv(low)
    _, vecs = np.linalg.eigh(whiten @ c @ adj_b @ c.T @ whiten.T)
    x = whiten.T @ vecs[:, -1]
    angle = float(np.arctan2(x[1], x[0]) % np.pi)
    # a direction a rounding error short of pi is the line at angle 0
    return 0.0 if angle >= np.pi else angle


def gaussian_discord(state: CovarianceMatrix, a_mode: int, b_mode: int) -> DiscordResult:
    """Gaussian discord D(B|A): A is homodyned, B is inferred.

    D = S(Gamma_A) - S(Gamma_AB) + min over homodyne angle of S(Gamma_B|x_A),
    all von Neumann. The minimum over homodyne angles in [0, pi) is taken in
    closed form (see :func:`_best_homodyne_angle`), and B is conditioned
    once, at that angle, which ``angle`` reports in [0, pi). States whose
    blocks are proportional to the identity have an angle-free conditional
    entropy, so the reported angle is then arbitrary.
    """
    pair = reduce(state, [a_mode, b_mode])
    s_a = von_neumann_entropy(reduce(pair, [0]))
    s_ab = von_neumann_entropy(pair)
    angle = _best_homodyne_angle(pair)
    s_cond = von_neumann_entropy(homodyne_condition(pair, 0, HomodyneProjector(angle)))
    value = _clamp_info(s_a - s_ab + s_cond, "discord")
    return DiscordResult(value=value, angle=angle, entropy_a=s_a,
                         entropy_joint=s_ab, conditional_entropy=s_cond)
