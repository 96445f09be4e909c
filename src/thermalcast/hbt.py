"""Intensity-correlation statistics: the protocol's thermality gate.

Receivers verify that the broadcast is thermal by checking g2(0) > 1 on
their intensity data (photon bunching). This module simulates that check:
draw quadrature samples from a covariance matrix, form per-sample
intensities, estimate the normalized intensity correlation with a jackknife
error bar, and compare against the exact Gaussian-moment value.

Quadrature sampling is the only randomness in the package; samples are a
read-only (n_samples, 2n) array. The generator is counter-based and named by
``GENERATOR_ID`` in every output, so a seed pins the byte stream on any platform.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, UndefinedResultError
from .gaussian import CovarianceMatrix, _is_integer, positive_definite, reduce, run_one, select_modes

GENERATOR_ID = "philox4x64/v2"

# Delete-one-block jackknife; block count fixed so error bars are
# reproducible and comparable across runs.
JACKKNIFE_BLOCKS = 100

# Below this the jackknife blocks get too thin to trust.
MIN_G2_SAMPLES = 1000

# Rows per draw: ten million rows of a 3-mode state already take 480 MB.
MAX_SAMPLES = 10_000_000

# OpenBLAS runs a gemm of rows * d * d <= 65536 * GEMM_MULTITHREAD_THRESHOLD (4) on the calling thread
_ONE_THREAD_GEMM = 2 ** 18

VERDICT_THERMAL = "thermal"
VERDICT_NOT_THERMAL = "not-thermal"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class G2Report:
    """Outcome of one g2(0) check; the caller's seed and ``GENERATOR_ID`` reproduce it."""

    g2_estimate: float
    std_error: float
    g2_analytic: float | None
    n_samples: int
    verdict: str


def sample_quadratures(state: CovarianceMatrix, n_samples: int, seed: int) -> np.ndarray:
    """Draw zero-mean Gaussian quadrature samples with covariance Gamma.

    Rows are standard normals from one Philox stream, derived from
    ``SeedSequence(seed, spawn_key=(0,))``, times the transposed Cholesky
    factor of Gamma. They are drawn and transformed in row blocks that keep
    BLAS on the calling thread, with the bytes of one whole-array product.

    Args:
        state: covariance to sample from; must factor (positive definite).
        n_samples: number of rows, from 2 to ``MAX_SAMPLES``.
        seed: 64-bit stream seed.

    Returns:
        A read-only (n_samples, 2n) array, columns in quadrature order.
    """
    if not (_is_integer(n_samples) and 2 <= n_samples <= MAX_SAMPLES):
        raise InvalidArgumentError(f"need 2 to {MAX_SAMPLES} samples, got {n_samples!r}")
    if not (_is_integer(seed) and 0 <= seed < 2 ** 64):
        raise InvalidArgumentError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    try:
        factor = np.linalg.cholesky(state.data)
    except np.linalg.LinAlgError:
        run_one(positive_definite, state.data, "covariance matrix")  # words the failure
        raise
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(0,))
    rng = np.random.Generator(np.random.Philox(seq))
    dim = factor.shape[0]
    # near-equal blocks, never of one row: numpy sends that to gemv, which rounds differently
    n_blocks = min(-(-n_samples // max(_ONE_THREAD_GEMM // dim ** 2, 1)), n_samples // 2)
    bounds = np.arange(n_blocks + 1) * n_samples // n_blocks
    buffer = np.empty((-(-n_samples // n_blocks), dim))
    samples = np.empty((n_samples, dim))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        block = rng.standard_normal(out=buffer[:stop - start])
        np.matmul(block, factor.T, out=samples[start:stop])
    samples.setflags(write=False)
    return samples


def intensity(samples: np.ndarray, mode: int) -> np.ndarray:
    """Per-sample photon-number estimate of one mode.

    (x^2 + p^2 - 2) / 4: the 2 removes one vacuum unit per quadrature and
    the 4 converts SNU variance to photon number, so the mean is (V - 1)/2
    for a thermal mode of variance V and 0 for vacuum.
    """
    if samples.ndim != 2 or samples.shape[1] % 2:
        raise InvalidArgumentError(f"samples must be an (n, 2k) array, got shape {samples.shape}")
    n_modes = samples.shape[1] // 2
    if not (_is_integer(mode) and 0 <= mode < n_modes):
        raise InvalidArgumentError(f"mode {mode!r} is not an integer in [0, {n_modes})")
    x, p = samples[:, 2 * mode:2 * mode + 2].T
    return (x * x + p * p - 2.0) / 4.0


def _jackknife_error(leave_out_estimates: np.ndarray) -> float:
    b = len(leave_out_estimates)
    centered = leave_out_estimates - leave_out_estimates.mean()
    return float(np.sqrt((b - 1) / b * np.sum(centered ** 2)))


def _mean_is_noise(series: np.ndarray, mean: float) -> bool:
    # mean indistinguishable from zero at 3 sigma: no photons; ddof=1 deviation as np.std forms it
    centered = series - mean
    centered *= centered
    se_mean = np.sqrt(np.sum(centered) / (series.size - 1)) / np.sqrt(series.size)
    return mean <= 3.0 * se_mean


def _verdict(conclusive: bool, estimate: float, std_error: float) -> str:
    if not conclusive:
        return VERDICT_INCONCLUSIVE
    if estimate - 3.0 * std_error > 1.0:
        return VERDICT_THERMAL
    return VERDICT_NOT_THERMAL


def g2_cross_estimate(samples: np.ndarray, mode_a: int, mode_b: int) -> G2Report:
    """Estimate g2(0) between two modes: <I_a I_b> / (<I_a><I_b>).

    The standard error comes from a delete-one-block jackknife with
    ``JACKKNIFE_BLOCKS`` blocks. A mean intensity consistent with zero at 3
    sigma makes the ratio meaningless; that yields the inconclusive
    verdict, never an exception. The analytic field is left unset; compare
    against :func:`g2_analytic` or use :func:`thermality_check`.
    """
    n = len(samples)
    if n < MIN_G2_SAMPLES:
        raise InvalidArgumentError(f"g2 estimation needs >= {MIN_G2_SAMPLES} samples, got {n}")
    if mode_a == mode_b:
        raise InvalidArgumentError("cross-correlation needs two distinct modes")
    i_a = intensity(samples, mode_a)
    i_b = intensity(samples, mode_b)
    mean_a, mean_b = i_a.mean(), i_b.mean()
    conclusive = not (_mean_is_noise(i_a, mean_a) or _mean_is_noise(i_b, mean_b))
    prod = i_a * i_b
    # np.array_split's blocks: the first n % B hold one row more than the rest
    size, extra = divmod(n, JACKKNIFE_BLOCKS)
    starts = np.arange(JACKKNIFE_BLOCKS) * size + np.minimum(np.arange(JACKKNIFE_BLOCKS), extra)
    # block sums per row: stacking the rows first would copy 3n floats
    sums = np.array([np.add.reduceat(row, starts) for row in (prod, i_a, i_b)])
    rest = n - np.diff(starts, append=n)
    with np.errstate(divide="ignore", invalid="ignore"):
        estimate = float(prod.mean() / (mean_a * mean_b))
        ab, a, b = (sums.sum(axis=1, keepdims=True) - sums) / rest
        std_error = _jackknife_error(ab / (a * b))
    return G2Report(g2_estimate=estimate, std_error=std_error, g2_analytic=None,
                    n_samples=n, verdict=_verdict(conclusive, estimate, std_error))


def g2_analytic(state: CovarianceMatrix, mode_a: int, mode_b: int) -> float:
    """Exact g2(0) from the covariance matrix via fourth Gaussian moments.

    Pairs of quadratures expand by Isserlis' theorem:
    E[u^2 v^2] = G_uu G_vv + 2 G_uv^2. The modes must be distinct and in range.
    """
    gamma = select_modes(state.data, [mode_a, mode_b])
    raw = 0.0
    for u in (0, 1):
        for v in (2, 3):
            raw += gamma[u, u] * gamma[v, v] + 2.0 * gamma[u, v] ** 2
    trace_a = gamma[0, 0] + gamma[1, 1]
    trace_b = gamma[2, 2] + gamma[3, 3]
    mean_prod = (raw - 2.0 * trace_a - 2.0 * trace_b + 4.0) / 16.0
    nbar_a = (trace_a - 2.0) / 4.0
    nbar_b = (trace_b - 2.0) / 4.0
    # a mode that is vacuum up to rounding leaves +/-1e-16 of dust in the
    # trace; dividing by that would amplify noise, not report physics
    if nbar_a <= 1e-12 or nbar_b <= 1e-12:
        raise UndefinedResultError("zero mean intensity, g2 is undefined")
    return mean_prod / (nbar_a * nbar_b)


def thermality_check(state: CovarianceMatrix, mode_a: int, mode_b: int,
                     n_samples: int, seed: int) -> G2Report:
    """Sample, estimate the cross g2 and attach the analytic value.

    This is the protocol's gate in one call: the verdict field says whether
    the sampled data certifies bunching (estimate minus three error bars
    above 1). Only the (mode_a, mode_b) marginal is sampled. A Gaussian
    marginal is the principal submatrix, so this is exact in distribution
    and draws four columns per sample however many modes the state has.
    """
    pair = reduce(state, [mode_a, mode_b])
    samples = sample_quadratures(pair, n_samples, seed)
    report = g2_cross_estimate(samples, 0, 1)
    try:
        exact = g2_analytic(pair, 0, 1)
    except UndefinedResultError:
        exact = None
    return replace(report, g2_analytic=exact)
