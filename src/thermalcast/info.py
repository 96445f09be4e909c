"""Entropies, mutual information and Gaussian discord on covariance matrices.

Two entropy notions coexist here and must not be mixed up:

* :func:`shannon_entropy` is the differential entropy of the Gaussian
  quadrature distribution. Its absolute value carries a (2*pi*e) offset per
  quadrature; the offset cancels in every information difference we form.
* :func:`von_neumann_entropy` is the quantum entropy from the symplectic
  spectrum. Discord is built from this one.

Everything is reported in bits. Each measure has a stacked form that
takes an (N, 2n, 2n) stack and a per-row ``errors`` list (see
:mod:`thermalcast.gaussian`), and a one-state form that is its N = 1 call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError, UnphysicalStateError
from .gaussian import (CovarianceMatrix, _is_real, flag_rows, physicality_stack, positive_definite,
                       run_one, select_modes, symplectic_spectrum)

_LN2 = float(np.log(2.0))
_LOG2_2PIE = float(np.log(2.0 * np.pi * np.e) / _LN2)

# Negative information values within this of zero clamp to 0; beyond it they
# raise. Also the agreement tolerance for the two CMI evaluation routes.
CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class Partition:
    """Disjoint mode groups (A, B, S) inside one multimode state.

    S may be empty (plain mutual information); A and B may not. Each index
    is checked where a measure selects it (:func:`select_modes`).
    """

    subsystem_a: tuple[int, ...]
    subsystem_b: tuple[int, ...]
    subsystem_s: tuple[int, ...] = ()

    def __post_init__(self):
        a, b, s = tuple(self.subsystem_a), tuple(self.subsystem_b), tuple(self.subsystem_s)
        object.__setattr__(self, "subsystem_a", a)
        object.__setattr__(self, "subsystem_b", b)
        object.__setattr__(self, "subsystem_s", s)
        if not a or not b:
            raise InvalidArgumentError("subsystems A and B must be non-empty")
        combined = a + b + s
        if len(set(combined)) != len(combined):
            raise InvalidArgumentError(f"partition groups overlap: A={a}, B={b}, S={s}")


@dataclass(frozen=True)
class DiscordResult:
    """Gaussian discord D(B|A) together with the terms behind it."""

    value: float
    angle: float
    entropy_a: float
    entropy_joint: float
    conditional_entropy: float


def _log2det(stack: np.ndarray, label: str, errors: list) -> np.ndarray:
    """log2-determinant per row; det <= 0, left by a block singular to rounding
    that still factors, fails the row and reads 0."""
    sign, logdet = np.linalg.slogdet(stack)
    flag_rows(errors, sign <= 0.0, lambda i: NumericFailureError(f"{label} is not positive definite"))
    return np.where(sign > 0.0, logdet / _LN2, 0.0)


def _shannon(stack: np.ndarray, errors: list) -> np.ndarray:
    return 0.5 * (stack.shape[-1] * _LOG2_2PIE + _log2det(stack, "state", errors))


def shannon_entropy(state: CovarianceMatrix) -> float:
    """Differential entropy of the quadrature distribution, in bits.

    H = (1/2) * log((2 pi e)^d * det Gamma) with d the full quadrature
    dimension (two per mode). Single vacuum mode: log2(2 pi e) ~ 4.094342.
    """
    return float(run_one(_shannon, run_one(positive_definite, state.data, "state")))


def _g(eigs: np.ndarray) -> np.ndarray:
    # entropy of each row's symplectic spectrum; values up to 1 add exactly 0 (0 log 0 := 0)
    x = np.maximum(eigs, 1.0)
    xp = (x + 1.0) / 2.0
    xm = (x - 1.0) / 2.0
    out = xp * np.log(xp)
    mask = xm > 0.0
    out[mask] -= xm[mask] * np.log(xm[mask])
    return (out / _LN2).sum(axis=-1)


def _von_neumann(stack: np.ndarray, errors: list) -> np.ndarray:
    """Entropy of every positive-definite row; a row that fails :func:`physicality_stack` fails."""
    eigs = symplectic_spectrum(stack)
    flag_rows(errors, [not r.ok for r in physicality_stack(stack)], lambda i: UnphysicalStateError(
        f"symplectic eigenvalue {eigs[i, -1]:.15g} below shot noise"))
    return _g(eigs)


def von_neumann_entropy(state: CovarianceMatrix) -> float:
    """Quantum entropy from the symplectic spectrum, in bits; unphysical spectra raise.

    Zero for pure states (vacuum, EPR); thermal(2) gives ~1.377444.
    """
    return float(run_one(_von_neumann, run_one(positive_definite, state.data, "covariance matrix")))


def _clamp_info(values: np.ndarray, label: str, errors: list) -> np.ndarray:
    """Clamp dust below zero to 0 and fail rows below ``-CLAMP_TOL``; failed rows read nan."""
    flag_rows(errors, values < -CLAMP_TOL, lambda i: NumericFailureError(
        f"{label} = {values[i]:.3e} is negative beyond tolerance"))
    values = np.where(values < 0.0, 0.0, values)
    values[np.array([e is not None for e in errors], dtype=bool)] = np.nan
    return values


def cmi_stack(stack: np.ndarray, p: Partition, errors: list) -> np.ndarray:
    """I(A:B|S) in bits for every row, S non-empty.

    Evaluated two independent ways and cross-checked to ``CLAMP_TOL``:

    * half the log of det(Gamma_AS) det(Gamma_BS) / (det(Gamma_S)
      det(Gamma_ABS)), the value returned;
    * half the log of det(Gamma_A|S) det(Gamma_B|S) / det(Gamma_AB|S), from
      the Schur complement Gamma_AB|S = Gamma_AB - C Gamma_S^-1 C^T, whose
      diagonal blocks are Gamma_A|S and Gamma_B|S.

    Gamma_ABS is checked first; every block above is a principal submatrix
    of it. A row whose Gamma_ABS is not positive definite, or whose routes
    disagree, reads nan and gets a :class:`NumericFailureError` in ``errors``.
    """
    a, b, s = p.subsystem_a, p.subsystem_b, p.subsystem_s
    if not s:
        raise InvalidArgumentError("conditioning set S is empty; use mutual_information")
    g_abs = positive_definite(select_modes(stack, a + b + s), "Gamma_ABS", errors)
    from_dets = 0.5 * (
        _log2det(select_modes(stack, a + s), "Gamma_AS", errors)
        + _log2det(select_modes(stack, b + s), "Gamma_BS", errors)
        - _log2det(select_modes(stack, s), "Gamma_S", errors) - _log2det(g_abs, "Gamma_ABS", errors))
    n_a, n_ab = 2 * len(a), 2 * len(a + b)
    cross = g_abs[:, :n_ab, n_ab:]
    cond = g_abs[:, :n_ab, :n_ab] - cross @ np.linalg.solve(g_abs[:, n_ab:, n_ab:], cross.swapaxes(1, 2))
    from_schur = 0.5 * (
        _log2det(cond[:, :n_a, :n_a], "Gamma_A|S", errors)
        + _log2det(cond[:, n_a:, n_a:], "Gamma_B|S", errors)
        - _log2det(cond, "Gamma_AB|S", errors))
    flag_rows(errors, np.abs(from_dets - from_schur) > CLAMP_TOL, lambda i: NumericFailureError(
        f"CMI routes disagree: {float(from_dets[i])!r} (determinants) vs "
        f"{float(from_schur[i])!r} (Schur complements)"))
    return _clamp_info(from_dets, "conditional mutual information", errors)


def conditional_mutual_information(state: CovarianceMatrix, p: Partition) -> float:
    """I(A:B|S) in bits of one state; :func:`cmi_stack` on N = 1, raising its failure."""
    return float(run_one(cmi_stack, state.data, p))


def mi_stack(stack: np.ndarray, p: Partition, errors: list) -> np.ndarray:
    """I(A:B) = H(A) + H(B) - H(AB) in bits for every row; requires an empty S."""
    if p.subsystem_s:
        raise InvalidArgumentError("mutual_information takes an empty conditioning set")
    g_ab = positive_definite(select_modes(stack, p.subsystem_a + p.subsystem_b), "Gamma_AB", errors)
    n_a = 2 * len(p.subsystem_a)
    value = (_shannon(g_ab[:, :n_a, :n_a], errors) + _shannon(g_ab[:, n_a:, n_a:], errors)
             - _shannon(g_ab, errors))
    return _clamp_info(value, "mutual information", errors)


def mutual_information(state: CovarianceMatrix, p: Partition) -> float:
    """I(A:B) in bits of one state; :func:`mi_stack` on N = 1, raising its failure."""
    return float(run_one(mi_stack, state.data, p))


def _homodyne(stack: np.ndarray, measured_mode: int, angles: np.ndarray) -> np.ndarray:
    """Remaining modes of every row after homodyning one mode at the row's angle.

    Schur-complement update Gamma_rest - C (X Gamma_m X)^+ C^T, where the
    pseudo-inverse of the rank-1 piece is x x^T / q for the measured
    direction x and q = x^T Gamma_m x > 0, as every row must be positive definite.
    """
    n = stack.shape[-1] // 2
    if n < 2:
        raise InvalidArgumentError("conditioning requires at least one unmeasured mode")
    # the unmeasured modes in their original order, then the measured one
    g = select_modes(stack, [m for m in range(n) if m != measured_mode] + [measured_mode])
    m = 2 * n - 2
    x = np.stack([np.cos(angles), np.sin(angles)], axis=-1)[:, :, None]
    q = x.swapaxes(1, 2) @ g[:, m:, m:] @ x
    cx = g[:, :m, m:] @ x
    return g[:, :m, :m] - cx * cx.swapaxes(1, 2) / q


def homodyne_condition(state: CovarianceMatrix, measured_mode: int,
                       angle: float) -> CovarianceMatrix:
    """State of the remaining modes after homodyning one mode, in their original order.

    ``angle`` in [0, pi) picks the measured quadrature: 0 measures x, pi/2 measures p.
    """
    if not (_is_real(angle) and 0.0 <= angle < np.pi):
        raise InvalidArgumentError(f"homodyne angle must lie in [0, pi), got {angle!r}")
    gamma = run_one(positive_definite, state.data, "covariance matrix")
    return CovarianceMatrix(_homodyne(gamma[None], measured_mode, np.array([float(angle)]))[0])


def _best_homodyne_angle(pair: np.ndarray) -> np.ndarray:
    """Homodyne angle on mode 0 of every row that minimizes the conditional det of mode 1.

    With A, B the diagonal blocks and C the cross block, a readout along x
    leaves mode 1 with det B - x^T C adj(B) C^T x / x^T A x. The minimizer
    is the top generalized eigenvector of (C adj(B) C^T, A), found as an
    ordinary symmetric eigenproblem after whitening by the Cholesky factor
    L of A, so every pair must be positive definite. The direction is
    reported as an angle in [0, pi).
    """
    a, b, c = pair[:, 0:2, 0:2], pair[:, 2:4, 2:4], pair[:, 0:2, 2:4]
    whiten = np.linalg.inv(np.linalg.cholesky(a))  # L^-1
    adj_b = np.stack([b[:, 1, 1], -b[:, 0, 1], -b[:, 1, 0], b[:, 0, 0]], axis=-1).reshape(-1, 2, 2)
    _, vecs = np.linalg.eigh(whiten @ c @ adj_b @ c.swapaxes(1, 2) @ whiten.swapaxes(1, 2))
    x = (whiten.swapaxes(1, 2) @ vecs[:, :, -1:])[:, :, 0]
    angle = np.arctan2(x[:, 1], x[:, 0]) % np.pi
    # a direction a rounding error short of pi is the line at angle 0
    return np.where(angle >= np.pi, 0.0, angle)


def discord_stack(stack: np.ndarray, a_mode: int, b_mode: int, errors: list) -> DiscordResult:
    """Gaussian discord D(B|A) of every row: A is homodyned, B is inferred.

    D = S(Gamma_A) - S(Gamma_AB) + min over homodyne angle of S(Gamma_B|x_A),
    all von Neumann. The minimum over homodyne angles in [0, pi) is taken in
    closed form (see :func:`_best_homodyne_angle`), and B is conditioned
    once, at that angle. The pair is checked and judged physical (then so are
    its reduction and conditioned state); the computed conditioned state gets
    its own check. Every field of the result is an (N,) array; a failed row's value is nan.
    """
    pair = positive_definite(select_modes(stack, [a_mode, b_mode]), "covariance matrix", errors)
    s_a = _g(symplectic_spectrum(pair[:, 0:2, 0:2]))
    s_ab = _von_neumann(pair, errors)
    angle = _best_homodyne_angle(pair)
    cond = positive_definite(_homodyne(pair, 0, angle), "covariance matrix", errors)
    s_cond = _g(symplectic_spectrum(cond))
    value = _clamp_info(s_a - s_ab + s_cond, "discord", errors)
    return DiscordResult(value=value, angle=angle, entropy_a=s_a, entropy_joint=s_ab,
                         conditional_entropy=s_cond)


def gaussian_discord(state: CovarianceMatrix, a_mode: int, b_mode: int) -> DiscordResult:
    """Discord of one state; :func:`discord_stack` on N = 1, raising its failure.

    ``angle`` is in [0, pi). States whose blocks are proportional to the
    identity have an angle-free conditional entropy, so the reported angle
    is then arbitrary.
    """
    errors = [None]
    rows = discord_stack(state.data[None], a_mode, b_mode, errors)
    if errors[0] is not None:
        raise errors[0]
    return DiscordResult(**{name: float(v[0]) for name, v in vars(rows).items()})
