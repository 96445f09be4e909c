"""Entropies, mutual information and Gaussian discord on covariance matrices.

Two entropy notions coexist here and must not be mixed up:

* :func:`shannon_entropy` is the differential entropy of the Gaussian
  quadrature distribution. Its absolute value carries a (2*pi*e) offset per
  quadrature; the offset cancels in every information difference we form.
* :func:`von_neumann_entropy` is the quantum entropy from the symplectic
  spectrum. Discord is built from this one.

Everything is reported in bits. Each measure takes one state and raises its
first failure; only :func:`pair_measures`, the sweep's closed form, stacks points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError, UnphysicalStateError
from .gaussian import (CovarianceMatrix, _cholesky, _is_real, _mode_columns, check_state, flag_rows, select_modes,
                       symplectic_spectrum)

_LN2 = float(np.log(2.0))
_LOG2_2PIE = float(np.log(2.0 * np.pi * np.e) / _LN2)

# Negative information values within this of zero clamp to 0; beyond it they
# raise. Also the accuracy to which a state's entries must fix its CMI and MI.
CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class Partition:
    """Disjoint mode groups (A, B, S) inside one multimode state.

    Each group is a sequence of mode indices. S may be empty (plain mutual
    information); A and B may not. Each index is checked where a measure
    selects it (:func:`select_modes`).
    """

    subsystem_a: tuple[int, ...]
    subsystem_b: tuple[int, ...]
    subsystem_s: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("subsystem_a", "subsystem_b", "subsystem_s"):
            group = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(group))
                hash(getattr(self, name))  # a group of lists would fail the overlap check below
            except TypeError:
                raise InvalidArgumentError(f"{name} must be a sequence of mode indices, got {group!r}") from None
        a, b, s = self.subsystem_a, self.subsystem_b, self.subsystem_s
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


def _groups(p) -> tuple[tuple[int, ...], ...]:
    """(A, B, S) of a :class:`Partition`; anything else raises, naming its type."""
    if not isinstance(p, Partition):
        raise InvalidArgumentError(f"partition must be a Partition, got {type(p).__name__}")
    return p.subsystem_a, p.subsystem_b, p.subsystem_s


def _log2det(rows: np.ndarray) -> float:
    """log2 det(F F^T) for rows F of a square-root factor: 2 sum log2 |R_ii|, R from the QR of F^T with its rows
    (F's columns) sorted by decreasing norm, so each errs relative to its own scale. No rows give 0."""
    order = np.argsort(-(rows * rows).sum(axis=0), kind="stable")
    return 2.0 * np.log2(np.abs(np.diagonal(np.linalg.qr(rows[:, order].T, mode="r")))).sum()


def shannon_entropy(state: CovarianceMatrix) -> float:
    """Differential entropy of the quadrature distribution, in bits.

    H = (1/2) * log((2 pi e)^d * det Gamma) with d the full quadrature
    dimension (two per mode). Single vacuum mode: log2(2 pi e) ~ 4.094342.
    The log-determinant reads the state's carried factor, else its Cholesky factor.
    """
    data = check_state(state)
    factor = _cholesky(data, "state")
    return float(0.5 * (len(data) * _LOG2_2PIE + _log2det(factor if state.factor is None else state.factor)))


def _g(eigs: np.ndarray) -> np.ndarray:
    # entropy of each symplectic eigenvalue; values up to 1 give exactly 0 (0 log 0 := 0).
    # With xm = (v - 1)/2, (xm + 1) log(xm + 1) - xm log xm = log1p(xm) + xm log1p(1/xm):
    # no two large terms cancel for a bright mode
    xm = (np.maximum(eigs, 1.0) - 1.0) / 2.0
    out = np.log1p(xm)
    mask = xm > 0.0
    out[mask] += xm[mask] * np.log1p(1.0 / xm[mask])
    return out / _LN2


def _physical_spectrum(factor: np.ndarray) -> np.ndarray:
    """Spectrum from the Cholesky factor; a state that fails the shot-noise verdict raises."""
    eigs, _, ok = symplectic_spectrum(factor)
    if not ok:
        raise UnphysicalStateError(f"symplectic eigenvalue {eigs[-1]:.15g} below shot noise")
    return eigs


def von_neumann_entropy(state: CovarianceMatrix) -> float:
    """Quantum entropy from the symplectic spectrum, in bits; unphysical spectra raise.

    Zero for pure states (vacuum, EPR); thermal(2) gives ~1.377444.
    """
    return float(_g(_physical_spectrum(_cholesky(check_state(state), "covariance matrix"))).sum())


def _clamp_info(value: float, label: str) -> float:
    """Clamp dust below zero to 0; below ``-CLAMP_TOL`` raise."""
    if value < -CLAMP_TOL:
        raise NumericFailureError(f"{label} = {value:.3e} is negative beyond tolerance")
    return 0.0 if value < 0.0 else float(value)


def _information(state: CovarianceMatrix, p: Partition, label: str) -> float:
    """I(A:B|S) in bits, S possibly empty: the one body of both public information measures."""
    data, (a, b, s) = check_state(state), _groups(p)
    g_abs, block = select_modes(data, a + b + s), "Gamma_ABS" if s else "Gamma_AB"
    rows, kappa = _cholesky(g_abs, block), 1.0
    if state.factor is None:
        kappa = np.linalg.cond(g_abs)
    else:
        rows = state.factor[_mode_columns(len(data) // 2, a + b + s)]
    n_a, n_ab, dim = 2 * len(a), 2 * len(a + b), len(rows)
    logdets = [_log2det(rows[part]) for part in (np.r_[:n_a, n_ab:dim], np.s_[n_a:], np.s_[n_ab:], np.s_[:])]
    # the README's accuracy contract: a carried factor keeps the brightness in its columns' scales, which its QR
    # does not see, so kappa is 1 there
    spread = np.finfo(float).eps / 2.0 * ((2 * dim + 4 * len(s)) * dim * kappa / _LN2 + np.abs(logdets).sum())
    if not spread <= CLAMP_TOL:
        raise NumericFailureError(f"{block} has condition number {kappa:.3g}, so its float64 entries fix {label} "
                                  f"to {spread:.3g} bits, not {CLAMP_TOL:g}")
    return _clamp_info(0.5 * (logdets[0] + logdets[1] - logdets[2] - logdets[3]), label)


def conditional_mutual_information(state: CovarianceMatrix, p: Partition) -> float:
    """I(A:B|S) in bits of one state: half the log of det(Gamma_AS) det(Gamma_BS) / (det(Gamma_S) det(Gamma_ABS)).

    S may be empty (det of nothing is 1): that is :func:`mutual_information`. Gamma_ABS is checked first. Each
    log-det comes from the QR of rows of a square-root factor: the state's carried one, else Gamma_ABS's Cholesky
    factor. A Gamma_ABS that is not positive definite, or whose condition number lets its float64 entries move the
    value past ``CLAMP_TOL`` (the README's contract), raises :class:`NumericFailureError`.
    """
    return _information(state, p, "conditional mutual information")


def mutual_information(state: CovarianceMatrix, p: Partition) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) in bits of one state: :func:`conditional_mutual_information` given nothing.

    A non-empty S raises: this name promises no conditioning.
    """
    check_state(state)
    if _groups(p)[2]:
        raise InvalidArgumentError("mutual_information takes an empty conditioning set")
    return _information(state, p, "mutual information")


def _homodyne(data: np.ndarray, measured_mode: int, angle: float) -> np.ndarray:
    """Remaining modes after homodyning one mode at ``angle``.

    Schur-complement update Gamma_rest - C (X Gamma_m X)^+ C^T, where the
    pseudo-inverse of the rank-1 piece is x x^T / q for the measured
    direction x and q = x^T Gamma_m x > 0, as the state must be positive definite.
    """
    n = len(data) // 2
    if n < 2:
        raise InvalidArgumentError("conditioning requires at least one unmeasured mode")
    # the unmeasured modes in their original order, then the measured one
    g = select_modes(data, [m for m in range(n) if m != measured_mode] + [measured_mode])
    m = 2 * n - 2
    x = np.array([[np.cos(angle)], [np.sin(angle)]])
    q = x.T @ g[m:, m:] @ x
    cx = g[:m, m:] @ x
    return g[:m, :m] - cx * cx.T / q


def homodyne_condition(state: CovarianceMatrix, measured_mode: int,
                       angle: float) -> CovarianceMatrix:
    """State of the remaining modes after homodyning one mode, in their original order.

    ``angle`` in [0, pi) picks the measured quadrature: 0 measures x, pi/2 measures p.
    """
    if not (_is_real(angle) and 0.0 <= angle < np.pi):
        raise InvalidArgumentError(f"homodyne angle must lie in [0, pi), got {angle!r}")
    data = check_state(state)
    select_modes(data, [measured_mode])  # first: _homodyne compares it with each mode index
    _cholesky(data, "covariance matrix")
    return CovarianceMatrix(_homodyne(data, measured_mode, float(angle)))


def _best_homodyne_angle(pair: np.ndarray, factor: np.ndarray) -> float:
    """Homodyne angle on mode 0 of the pair that minimizes the conditional det of mode 1.

    With A, B the diagonal blocks and C the cross block, a readout along x leaves mode 1 with
    det B - x^T C adj(B) C^T x / x^T A x. The minimizer is the top generalized eigenvector of
    (C adj(B) C^T, A): x = W^T v, W = adj(L_A) = det(L_A) L_A^-1 for L_A the leading block of the
    pair's Cholesky ``factor``, and v = (cos phi, sin phi), phi = atan2(2 M_01, M_00 - M_11) / 2, the
    top eigenvector of the symmetric 2 x 2 M = W C adj(B) C^T W^T. It is reported in [0, pi).
    """
    b, c, l_a = pair[2:4, 2:4], pair[0:2, 2:4], factor[0:2, 0:2]
    whiten = np.array([[l_a[1, 1], -l_a[0, 1]], [-l_a[1, 0], l_a[0, 0]]])
    adj_b = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]])
    m = whiten @ c @ adj_b @ c.T @ whiten.T
    phi = 0.5 * np.arctan2(2.0 * m[0, 1], m[0, 0] - m[1, 1])
    x0, x1 = l_a[1, 1] * np.cos(phi) - l_a[1, 0] * np.sin(phi), l_a[0, 0] * np.sin(phi)  # W^T v
    angle = np.arctan2(x1, x0) % np.pi
    # a direction a rounding error short of pi is the line at angle 0
    return 0.0 if angle >= np.pi else float(angle)


def pair_measures(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, errors: dict) -> dict:
    """CMI, MI and discord D(B|A) in bits from :func:`~thermalcast.scenarios.pair_entries`, per key of ``errors``.

    With q = c^2 / d, MI = log2(1 + q) as sent and CMI given E; the pair's spectrum is that of [[a, c], [c, b]],
    and homodyning A leaves B with b / sqrt(1 + q) at every angle. A non-finite cell is nan and fails its row.
    """
    q = c * c / d
    info = np.log1p(q) / _LN2
    a, b, q = a[0], b[0], q[0]
    # nu_1 = (a + b) / 2 + hypot((a - b) / 2, c) and nu_2 = d / nu_1, each free of cancellation
    big, half_gap = np.maximum(a, b), np.abs(a - b) / 2.0
    nu_1 = big + (np.hypot(half_gap, c[0]) - half_gap)
    terms = _g(np.stack([a, b / np.sqrt(1.0 + q), nu_1, np.minimum(a, b) * (big / nu_1) / (1.0 + q)]))
    # (S(A) + S(B|x_A)) - S(AB), rounding dust clamped to 0; at c = 0 both sums add the same two terms
    measures = {"cmi": info[1], "mi": info[0], "discord": np.maximum(terms[0] + terms[1] - (terms[2] + terms[3]), 0.0)}
    for name, name_errors in errors.items():
        values, bad = measures[name], ~np.isfinite(measures[name])
        flag_rows(name_errors, bad, lambda i: NumericFailureError(f"{name} = {values[i]} is not finite"))
        values[bad] = np.nan
    return {name: measures[name] for name in errors}


def gaussian_discord(state: CovarianceMatrix, a_mode: int, b_mode: int) -> DiscordResult:
    """Gaussian discord D(B|A) of one state: A is homodyned, B is inferred.

    D = S(Gamma_A) - S(Gamma_AB) + min over homodyne angle of S(Gamma_B|x_A), all von Neumann. The
    minimum over angles in [0, pi) is taken in closed form (see :func:`_best_homodyne_angle`), and B is
    conditioned once, at that angle, which is reported in [0, pi); where every block is proportional to
    the identity, the conditional entropy is angle-free and the angle arbitrary. The pair is factored
    once and judged physical, so A is too (its factor is the pair's leading block); the conditioned
    state gets its own check.
    """
    pair = select_modes(check_state(state), [a_mode, b_mode])
    factor = _cholesky(pair, "covariance matrix")
    eigs_ab = _physical_spectrum(factor)
    angle = _best_homodyne_angle(pair, factor)
    cond = _cholesky(_homodyne(pair, 0, angle), "covariance matrix")
    one_mode = [symplectic_spectrum(f)[0][0] for f in (factor[0:2, 0:2], cond)]
    terms = _g(np.concatenate([eigs_ab, one_mode]))
    s_ab, s_a, s_cond = terms[0] + terms[1], terms[2], terms[3]
    return DiscordResult(value=_clamp_info(s_a - s_ab + s_cond, "discord"), angle=angle,
                         entropy_a=float(s_a), entropy_joint=float(s_ab), conditional_entropy=float(s_cond))
