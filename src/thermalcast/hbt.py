"""Intensity-correlation statistics: the protocol's thermality gate.

Receivers verify that the broadcast is thermal by checking g2(0) > 1 on
their intensity data (photon bunching). This module simulates that check:
draw quadrature samples from a covariance matrix, form per-sample
intensities, estimate the normalized intensity correlation with a jackknife
error bar, and compare against the exact Gaussian-moment value.

Sampling is the only randomness in the package, and this module owns its one stream rule: block k of point j
draws from ``SFC64(SeedSequence(seed, spawn_key=(j, k)))``, j a sweep point's index in its range and 0 for a
one-pair draw. ``GENERATOR_ID`` names the generator in every g2 output, so (seed, point) pins the bytes on any
platform and any number of CPUs. ``sample_quadratures`` stores the rows and ``thermality_check`` sums each as drawn,
on blocks that keep BLAS on one thread; ``g2_pairs`` (sweeps, ``g2check``'s one point too) forms a pair's intensities
on its own blocks. A g2 run draws ``_REPORT_POINTS`` points at a time and reports each chunk as soon as it is drawn.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError, UndefinedResultError
from .gaussian import CovarianceMatrix, _cholesky, _is_integer, _mode_columns, check_state, flag_rows, select_modes

GENERATOR_ID = "sfc64/v7"

# Delete-one-block jackknife; block count fixed so error bars are
# reproducible and comparable across runs.
JACKKNIFE_BLOCKS = 100

# Below this the jackknife blocks get too thin to trust.
MIN_G2_SAMPLES = 1000

# Rows per draw: ten million rows of a 3-mode state already take 480 MB.
MAX_SAMPLES = 10_000_000

# Largest |entry| g2 takes. A mode with entries up to C has E[I^2] <= (8 C^2 + (2 C)^2) / 16 = 3 C^2 / 4, so MAX_SAMPLES
# rows sum I_a, I_b or I_a I_b to at most a quarter of the float range at C^2 = max / (3 MAX_SAMPLES), C = 2.45e150.
_MAX_G2_ENTRY = float(np.sqrt(np.finfo(float).max / (3 * MAX_SAMPLES)))
_NOT_FINITE = f"samples hold nan, inf or a variance past {_MAX_G2_ENTRY:.3g}"

# g2 is undefined where a mean photon number is at most this: rounding leaves a vacuum mode +/-1e-16 of
# dust, and dividing by that would amplify noise, not report physics.
_VACUUM_PHOTONS = 1e-12

# OpenBLAS runs a gemm of rows * d * d <= 65536 * GEMM_MULTITHREAD_THRESHOLD (4) on the calling thread
_ONE_THREAD_GEMM = 2 ** 18

_REPORT_POINTS = 2 ** 7  # points per g2 chunk: each of its (points, 3, JACKKNIFE_BLOCKS) temporaries is 0.3 MB

# Threads per draw: the CPUs this process may run on when imported; ``taskset`` narrows them
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

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

    Row block k holds standard normals from its own SFC64 stream, ``SeedSequence(seed, spawn_key=(0, k))``
    (point 0 of the stream rule), times the transposed Cholesky factor of Gamma. Blocks are small enough to keep
    each BLAS product on one thread and go to one thread per usable CPU; the bytes never depend on how many.

    Args:
        state: a ``CovarianceMatrix`` that factors (positive definite).
        n_samples: number of rows, from 2 to ``MAX_SAMPLES`` (g2 needs ``MIN_G2_SAMPLES``).
        seed: stream seed, an integer in [0, 2^64).

    Returns:
        A read-only (n_samples, 2n) array, columns in quadrature order.
    """
    _check_draw(n_samples, [(seed, 0)], 2)
    factor = _cholesky(check_state(state), "covariance matrix")
    samples = np.empty((n_samples, len(factor)))
    rows = _layout(n_samples, _ONE_THREAD_GEMM // len(factor) ** 2)[0]
    _draw(rows, [(seed, 0)], len(factor), lambda i, start, rng, vals: np.matmul(  # the normals row by row, times F^T
        rng.standard_normal(out=vals).reshape(-1, len(factor)), factor.T, out=samples[start:start + vals.shape[1]]))
    samples.setflags(write=False)
    return samples


def _check_draw(n_samples: int, keys, least: int) -> None:
    """The one sample-count rule, ``least`` to ``MAX_SAMPLES``, then the one seed rule; sweep configs share both."""
    if not (_is_integer(n_samples) and least <= n_samples <= MAX_SAMPLES):
        raise InvalidArgumentError(f"need an integer from {least} to {MAX_SAMPLES} samples, got {n_samples!r}")
    for seed, _ in keys:
        if not (_is_integer(seed) and 0 <= seed < 2 ** 64):
            raise InvalidArgumentError(f"seed must be a non-negative integer below 2^64, got {seed!r}")


def _layout(n_samples: int, block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds of near-equal row blocks of at most ``block`` rows, the piece bounds and the jackknife bounds.

    The jackknife blocks are ``np.array_split``'s, the first n % B one row longer. Pieces, the unit that
    every g2 route sums by, are the jackknife blocks cut at the row-block bounds.
    """
    # never a block of one row: the general route's product would go to gemv, which rounds differently
    n_blocks = min(-(-n_samples // max(block, 1)), n_samples // 2)
    rows = np.arange(n_blocks + 1) * n_samples // n_blocks
    size, extra = divmod(n_samples, JACKKNIFE_BLOCKS)
    jack = np.arange(JACKKNIFE_BLOCKS + 1) * size + np.minimum(np.arange(JACKKNIFE_BLOCKS + 1), extra)
    merged = np.sort(np.concatenate([rows, jack]))  # not np.union1d: its np.unique imports numpy.ma, about 10 ms
    return rows, merged[np.diff(merged, prepend=-1) > 0], jack


def _draw(rows: np.ndarray, keys, width: int, sink) -> None:
    """Hand draw i's rows [rows[k], rows[k + 1]) and SFC64(SeedSequence(seed, spawn_key=(point, k))), keys[i] = (seed,
    point), to one of up to ``_CPUS`` threads, the caller among them, which take the (i, k) in order. Each allocates
    ``width`` rows of scratch once and calls ``sink(i, start, rng, vals)`` per block, ``vals`` a contiguous (width,
    stop - start) view of it; the first failure raises."""
    items, failures = iter([(i, *key, k) for i, key in enumerate(keys) for k in range(len(rows) - 1)]), []

    def work():  # numpy drops the GIL in the draws and the arithmetic
        try:
            scratch = np.empty(width * np.diff(rows).max())
            for i, seed, point, k in items:
                seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(point, k))
                vals = scratch[:width * (rows[k + 1] - rows[k])].reshape(width, -1)
                sink(i, rows[k], np.random.Generator(np.random.SFC64(seq)), vals)
        except Exception as exc:
            failures.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(min(_CPUS, len(keys) * (len(rows) - 1)) - 1)]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()
    if failures:
        raise failures[0]


def _check_samples(samples: np.ndarray, *modes: int) -> np.ndarray:
    if not isinstance(samples, np.ndarray):
        raise InvalidArgumentError(f"samples must be a numpy array, got {type(samples).__name__}")
    if samples.ndim != 2 or samples.shape[1] % 2 or samples.dtype.kind != "f":  # ints would square past int64
        raise InvalidArgumentError(f"samples must be an (n, 2k) array of floats, got shape {samples.shape} "
                                   f"{samples.dtype}")
    return _mode_columns(samples.shape[1] // 2, modes)


def _intensities(quads: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rule of :func:`intensity` on each (x, p) row pair of ``quads``, squared in place, into out's first rows."""
    head = out[:len(quads) // 2]
    np.square(quads, out=quads)
    np.add(quads[0::2], quads[1::2], out=head)
    head -= 2.0
    head /= 4.0
    return out


def intensity(samples: np.ndarray, mode: int) -> np.ndarray:
    """Per-sample photon-number estimate of one mode.

    (x^2 + p^2 - 2) / 4, rounded in that order: the 2 removes one vacuum unit
    per quadrature and the 4 converts SNU variance to photon number, so the
    mean is (V - 1)/2 for a thermal mode of variance V and 0 for vacuum. A
    sample that squares past the float range, or holds nan or inf, raises
    :class:`NumericFailureError`.
    """
    cols = _check_samples(samples, mode)
    with np.errstate(over="ignore"):  # an overflow shows in the result, refused below
        out = _intensities(samples[:, cols].T, np.empty((1, len(samples))))[0]
    if not np.isfinite(out).all():
        raise NumericFailureError(f"intensity not finite: {_NOT_FINITE}")
    return out


def _piece_sums(vals, start, cuts, pieces) -> None:
    """Per piece of the row block from row ``start``, the sums of ``vals``' rows I_a, I_b and I_a I_b (formed here)."""
    first, last = np.searchsorted(cuts, [start, start + vals.shape[1]])
    np.multiply(vals[0], vals[1], out=vals[2])
    np.add.reduceat(vals, cuts[first:last] - start, axis=1, out=pieces[:, first:last])


def _report(pieces: np.ndarray, cuts: np.ndarray, bounds: np.ndarray, exact: list) -> list:
    """Each point's report, ``exact`` its g2_analytic, from a chunk's (N, 3, P) stack of its three sums per piece."""
    n, counts = int(bounds[-1]), np.diff(bounds)
    sums = np.add.reduceat(pieces, np.searchsorted(cuts, bounds[:-1]), axis=2)  # [i, :, j]: point i's block j sums
    totals = sums.sum(axis=2)
    means = totals / n
    with np.errstate(divide="ignore", invalid="ignore"):  # a failed point's zero sums read nan; it reports None
        estimates = means[:, 2] / (means[:, 0] * means[:, 1])
        held = (totals[:, :, None] - sums) / (n - counts)  # [i, :, j]: point i's means without block j
        held[:, 2] /= held[:, 0] * held[:, 1]  # and the ratio; one jackknife gives the error of all three
        errors = np.sqrt((JACKKNIFE_BLOCKS - 1) / JACKKNIFE_BLOCKS
                         * np.sum((held - held.mean(axis=2, keepdims=True)) ** 2, axis=2))
        # 2 where a mean is within 3 errors of 0 (noise), else 1 where the estimate is 3 errors above 1, else 0
        kinds = np.where(np.any(means[:, :2] <= 3.0 * errors[:, :2], axis=1), 2, estimates - 3.0 * errors[:, 2] > 1.0)
    return [G2Report(estimate, error, value, n, (VERDICT_NOT_THERMAL, VERDICT_THERMAL, VERDICT_INCONCLUSIVE)[kind])
            for estimate, error, value, kind in zip(estimates.tolist(), errors[:, 2].tolist(), exact, kinds.tolist())]


def g2_cross_estimate(samples: np.ndarray, mode_a: int, mode_b: int) -> G2Report:
    """Estimate g2(0) between two modes: <I_a I_b> / (<I_a><I_b>).

    The standard error comes from a delete-one-block jackknife with ``JACKKNIFE_BLOCKS`` blocks. A mean intensity
    within three of its own jackknife errors of zero makes the ratio meaningless; that yields the inconclusive verdict,
    never an exception. The analytic field is left unset; compare against :func:`g2_analytic` or use
    :func:`thermality_check`. The sums run by the sampler's row blocks and go through the same report as
    :func:`thermality_check`'s, so both give the same bits for the same draw.
    """
    cols = _check_samples(samples, mode_a, mode_b)  # first: len() of a non-array can raise
    n = len(samples)
    _check_draw(n, [], MIN_G2_SAMPLES)
    rows, cuts, bounds = _layout(n, _ONE_THREAD_GEMM // samples.shape[1] ** 2)
    pieces, scratch = np.empty((3, len(cuts) - 1)), np.empty((3, np.diff(rows).max()))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the sums, refused below
        for start, stop in zip(rows, rows[1:]):
            _piece_sums(_intensities(samples[start:stop, cols].T, scratch[:, :stop - start]), start, cuts, pieces)
    if not np.isfinite(pieces).all():  # checked on the sums, not by another pass over the samples
        raise NumericFailureError(f"g2 sums not finite: {_NOT_FINITE}")
    return _report(pieces[None], cuts, bounds, [None])[0]


def _g2_sums(n_samples: int, keys, errors: list, exact: list, block: int, width: int, fill) -> list:
    """Each keyed pair's blocks of at most ``block`` rows to piece sums: a report with its ``exact`` value (None if
    failed in ``errors``: not drawn). ``fill(i, rng, vals)`` takes ``width`` rows, returns 3, I_a first."""
    _check_draw(n_samples, keys, MIN_G2_SAMPLES)
    rows, cuts, bounds = _layout(n_samples, block)

    def sink(i, start, rng, vals):  # ``first`` and ``pieces`` are the chunk being drawn
        errors[first + i] or _piece_sums(fill(first + i, rng, vals), start, cuts, pieces[i])

    reports = []
    for first in range(0, len(keys), _REPORT_POINTS):  # each chunk in one pool, then reported: one chunk's sums held
        pieces = np.zeros((len(keys[first:first + _REPORT_POINTS]), 3, len(cuts) - 1))  # a failed row's stay 0
        _draw(rows, keys[first:first + _REPORT_POINTS], width, sink)
        reports += _report(pieces, cuts, bounds, exact[first:first + _REPORT_POINTS])
    return [None if exc else report for exc, report in zip(errors, reports)]


def _flag_huge(stack: np.ndarray, errors: list) -> None:
    """Fail each row of ``stack`` holding an entry past ``_MAX_G2_ENTRY`` in magnitude."""
    peak = np.abs(stack).reshape(len(stack), -1).max(axis=1)
    flag_rows(errors, peak > _MAX_G2_ENTRY, lambda i: NumericFailureError(
        f"variance {peak[i]:.6g} is past {_MAX_G2_ENTRY:.3g}, where the g2 sums overflow"))


def g2_pairs(pairs: np.ndarray, n_samples: int, keys, errors: list) -> list:
    """:func:`thermality_check` for the pairs [[a I, c I], [c I, b I]] of an (N, 4) stack of (a, b, c, d = ab - c^2),
    row i on the streams of (seed, point) ``keys[i]``, failing a row that is not positive definite, or whose a, b, c
    or B variance as drawn, (c^2 + d) / a, is past the g2 range; g2_analytic is 1 + c^2 / ((a - 1)(b - 1)) or None.
    Turned by z_a's phase, z = x + i p gives the intensities the law of I_a = (a/2) E - 1/2 and I_b = (mu sqrt(E) +
    sigma n1)^2 + (sigma n2)^2 - 1/2, mu = c / sqrt(2a), sigma = sqrt(d / a) / 2, E ~ Exp(1), n1, n2 ~ N(0, 1), drawn in
    turn from the same substreams."""
    a, c, d = pairs[:, 0], pairs[:, 2], pairs[:, 3]
    flag_rows(errors, ~(np.isfinite(pairs).all(axis=1) & (a > 0) & (d > 0)),
              lambda i: NumericFailureError("covariance matrix is not positive definite"))
    _flag_huge(pairs[:, :3], errors)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # failed rows draw nothing
        _flag_huge(((c * c + d) / a)[:, None], errors)  # an overflow reads inf, past the range
        coefs = np.stack([a / 2.0, c / np.sqrt(2.0 * a), np.sqrt(d / a) / 2.0], axis=1)
        exact = _exact_g2(pairs[:, [0, 0, 1, 1]], pairs[:, [2, 2]])

    def fill(i, rng, vals):  # rows E, then I_b, n1 and n2, formed in place
        half_a, mu, sigma = coefs[i]
        rng.standard_exponential(out=vals[0])
        np.multiply(rng.standard_normal(out=vals[2:4]), sigma, out=vals[2:4])
        np.multiply(np.sqrt(vals[0], out=vals[1]), mu, out=vals[1])
        vals[1] += vals[2]
        np.square(vals[1::2], out=vals[1::2])
        vals[1] += vals[3]
        vals[0] *= half_a
        vals[:2] -= 0.5
        return vals[:3]

    return _g2_sums(n_samples, keys, errors, exact, 2 ** 15, 4, fill)  # 4 rows of 2^15 per thread: 1 MiB, within L2


def _exact_g2(diagonal: np.ndarray, cross: np.ndarray) -> list:
    """1 + cross / (excess_a excess_b) per row of ``diagonal``, (G_xx, G_pp) of mode a then b, and ``cross``, the cross
    block C: excess = (G_xx - 1) + (G_pp - 1), cross = 2 ||C||^2; None at excess / 4 <= ``_VACUUM_PHOTONS`` photons."""
    excess = (diagonal[:, 0::2] - 1.0) + (diagonal[:, 1::2] - 1.0)
    return [None if min(e_a, e_b) / 4.0 <= _VACUUM_PHOTONS else 1.0 + x / (e_a * e_b)
            for (e_a, e_b), x in zip(excess.tolist(), (2.0 * np.square(cross).sum(axis=1)).tolist())]


def _pair_g2(state: CovarianceMatrix, mode_a: int, mode_b: int) -> tuple[np.ndarray, float | None]:
    """The (mode_a, mode_b) matrix of ``state`` and its ``_exact_g2``; one past the g2 range fails as in the stacks."""
    gamma, errors = select_modes(check_state(state), [mode_a, mode_b]), [None]
    _flag_huge(gamma[None], errors)
    if errors[0]:
        raise errors[0]
    return gamma, _exact_g2(np.diagonal(gamma)[None], gamma[:2, 2:].reshape(1, 4))[0]


def g2_analytic(state: CovarianceMatrix, mode_a: int, mode_b: int) -> float:
    """Exact g2(0) from fourth Gaussian moments: 1 + 2 ||C||^2 / (excess_a excess_b) by Isserlis' theorem, C the pair's
    cross block and excess = (G_xx - 1) + (G_pp - 1) per mode, within a few ulps of the exact value of the stored
    entries, dim pairs too. The modes must be distinct and in range, each with over ``_VACUUM_PHOTONS`` photons.
    """
    exact = _pair_g2(state, mode_a, mode_b)[1]
    if exact is None:
        raise UndefinedResultError("zero mean intensity, g2 is undefined")
    return exact


def thermality_check(state: CovarianceMatrix, mode_a: int, mode_b: int,
                     n_samples: int, seed: int) -> G2Report:
    """Sample, estimate the cross g2 and attach the analytic value.

    This is the protocol's gate in one call: the verdict field says whether
    the sampled data certifies bunching (estimate minus three error bars
    above 1). Only the (mode_a, mode_b) marginal is sampled. A Gaussian
    marginal is the principal submatrix, so this is exact in distribution
    and draws four columns per sample however many modes the state has.
    """
    pair, exact = _pair_g2(state, mode_a, mode_b)  # before the draw: its range check is the one the draw needs
    factor = _cholesky(pair, "covariance matrix")

    def fill(i, rng, vals):  # three rows for the sums, then N and L N^T: the quadratures as contiguous rows
        normals = rng.standard_normal(out=vals[3:7].reshape(-1, 4))
        return _intensities(np.matmul(factor, normals.T, out=vals[7:]), vals[:3])

    return _g2_sums(n_samples, [(seed, 0)], [None], [exact], _ONE_THREAD_GEMM // 4 ** 2, 11, fill)[0]
