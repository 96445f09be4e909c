"""Sampling determinism and intensity-correlation estimates."""
import json
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import thermalcast.hbt as hbt
from thermalcast.cli import main
from thermalcast.scenarios import pair_entries
from thermalcast import (CovarianceMatrix, G2Report, InvalidArgumentError,
                         NumericFailureError, ScenarioParams,
                         UndefinedResultError, build_scenario,
                         g2_analytic, g2_cross_estimate, intensity,
                         make_epr, make_thermal, make_vacuum, reduce, sample_quadratures,
                         tensor, thermality_check,
                         VERDICT_INCONCLUSIVE, VERDICT_NOT_THERMAL, VERDICT_THERMAL)


def broadcast_state(nu=2.0, eta_ab=0.5):
    return build_scenario("basic", ScenarioParams(nu=nu, eta_ab=eta_ab)).state


# ---------------------------------------------------------------------------
# Sampling


def test_sampling_is_deterministic():
    state = broadcast_state()
    first = sample_quadratures(state, 2000, seed=42)
    second = sample_quadratures(state, 2000, seed=42)
    assert np.array_equal(first, second)
    other = sample_quadratures(state, 2000, seed=43)
    assert not np.array_equal(first, other)


def test_shard_plan_and_shape():
    # a (n_samples, 2n) read-only record; row blocks draw from their own substreams
    run = sample_quadratures(broadcast_state(), 1000, seed=7)
    assert run.shape == (1000, 6)
    assert not run.flags.writeable
    again = sample_quadratures(broadcast_state(), 1000, seed=7)
    assert np.array_equal(run, again)


def block_normals(n, d, seed):
    # the sampler's near-equal row blocks, block k from SFC64(SeedSequence(seed, spawn_key=(0, k)))
    n_blocks = min(-(-n // max(2 ** 18 // d ** 2, 1)), n // 2)
    bounds = np.arange(n_blocks + 1) * n // n_blocks
    streams = (np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(0, k))))
               for k in range(n_blocks))
    return np.vstack([rng.standard_normal((stop - start, d))
                      for rng, start, stop in zip(streams, bounds, bounds[1:])])


def test_sampling_stream_is_pinned():
    # each row block's substream, stacked, times L^T
    state = build_scenario("full", ScenarioParams(nu=3.0, eta_th=0.8, v_th=2.0, eta_th_a=0.9,
                                                  v_alpha=1.5, eta_th_b=0.7, v_beta=2.5)).state
    pair = reduce(state, [1, 2])
    # the last four span several row blocks and end one row past a block bound
    # (1820 rows of 12 columns, 16384 rows of 4 columns)
    for st, n, seed in ((state, 1000, 0), (state, 2001, 2 ** 64 - 1), (state, 1821, 5),
                        (state, 5461, 6), (pair, 16_385, 7), (pair, 100_001, 8)):
        d = st.data.shape[0]
        expected = block_normals(n, d, seed) @ np.linalg.cholesky(st.data).T
        got = sample_quadratures(st, n, seed=seed)
        assert got.tobytes() == expected.tobytes()


def test_sampling_stream_matches_committed_literals():
    # the vacuum's Cholesky factor is exactly I, so these are the raw normals;
    # a numpy release that reseeds SFC64 or changes its ziggurat breaks this
    run = sample_quadratures(make_vacuum(1), 3, seed=0)
    assert run.tolist() == [[0.44910368521775595, -0.9300081152403062],
                            [-0.7069444728572523, -1.116520311522898],
                            [-0.49674855411347507, 0.6101738405301317]]


def test_adjacent_seeds_draw_uncorrelated_columns():
    # streams are separated only by SeedSequence: seeds k and k + 1 must not correlate
    n = 100_000
    runs = np.hstack([sample_quadratures(make_vacuum(2), n, seed=k) for k in (0, 1)])
    corr = np.corrcoef(runs.T)
    assert np.all(np.abs(corr[~np.eye(8, dtype=bool)]) <= 5.0 / np.sqrt(n))


def test_adjacent_blocks_draw_uncorrelated_rows():
    # substreams (0, k) and (0, k + 1) of one seed must not correlate; a 1-mode
    # vacuum takes 65,536-row blocks, so these are blocks 0 and 1
    n = 65_536
    first, second = np.split(sample_quadratures(make_vacuum(1), 2 * n, seed=0), 2)
    corr = np.corrcoef(np.hstack([first, second]).T)
    assert np.all(np.abs(corr[~np.eye(4, dtype=bool)]) <= 5.0 / np.sqrt(n))


def test_sampling_bytes_do_not_depend_on_the_cpu_count(monkeypatch):
    full = build_scenario("full", ScenarioParams(nu=3.0, eta_th=0.8, v_th=2.0)).state
    for state, n in ((reduce(full, [1, 2]), 1_000_000), (full, 200_000)):
        default = sample_quadratures(state, n, seed=4)
        for cpus in (1, 3):
            monkeypatch.setattr(hbt, "_CPUS", cpus)
            assert sample_quadratures(state, n, seed=4).tobytes() == default.tobytes()
        monkeypatch.undo()


def test_sampling_raises_a_failure_in_any_block(monkeypatch):
    # the third product fails, on whichever thread runs it; no partial array comes back
    calls = []
    matmul = np.matmul

    def failing_matmul(a, b, **kwargs):
        calls.append(a.shape)
        if len(calls) == 3:
            raise MemoryError("block 3")
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", failing_matmul)
    for cpus in (1, 2):
        calls.clear()
        monkeypatch.setattr(hbt, "_CPUS", cpus)
        with pytest.raises(MemoryError, match="block 3"):
            sample_quadratures(make_vacuum(2), 200_000, seed=1)


def test_sampling_keeps_each_product_under_the_one_thread_bound(monkeypatch):
    # OpenBLAS keeps a gemm of rows * d * d <= 2**18 on the calling thread;
    # a one-row product goes to gemv, which rounds differently
    calls = []
    matmul = np.matmul

    def recording_matmul(a, b, **kwargs):
        calls.append(a.shape)
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    full = build_scenario("full", ScenarioParams(nu=3.0, eta_th=0.8, v_th=2.0)).state
    for state, n in ((reduce(full, [1, 2]), 1_000_000), (full, 200_000)):
        calls.clear()
        sample_quadratures(state, n, seed=1)
        d = state.data.shape[0]
        assert all(rows * d * d <= 2 ** 18 for rows, _ in calls)
        assert all(rows > 1 for rows, _ in calls)
        assert sum(rows for rows, _ in calls) == n


def test_sampling_factors_the_state_once(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    sample_quadratures(make_epr(2.0), 1000, 1)
    assert len(calls) == 1


def test_sample_moments_track_the_state():
    state = broadcast_state(nu=10.0)
    n = 100_000
    run = sample_quadratures(state, n, seed=3)
    # sample mean of a zero-mean Gaussian: sd = sqrt(variance / n)
    mean_sd = np.sqrt(np.diag(state.data) / n)
    assert np.all(np.abs(run.mean(axis=0)) <= 4.0 * mean_sd)
    # covariance entries: estimator sd = sqrt((G_ii G_jj + G_ij^2) / n)
    hat = run.T @ run / n
    g = state.data
    entry_sd = np.sqrt((np.outer(np.diag(g), np.diag(g)) + g * g) / n)
    assert np.all(np.abs(hat - g) <= 4.0 * entry_sd)


def test_sampling_argument_errors():
    state = make_thermal(2.0)
    with pytest.raises(InvalidArgumentError):
        sample_quadratures(state, 1, seed=0)
    with pytest.raises(InvalidArgumentError):
        sample_quadratures(state, 100, seed=-1)
    with pytest.raises(InvalidArgumentError):
        sample_quadratures(state, 100, seed=2 ** 64)


def test_seeds_and_counts_must_be_integers():
    # a float seed used to run silently as its integer part
    state = make_thermal(2.0)
    with pytest.raises(InvalidArgumentError, match="got 1.5"):
        sample_quadratures(state, 100, seed=1.5)
    with pytest.raises(InvalidArgumentError, match="got True"):
        sample_quadratures(state, 100, seed=True)
    with pytest.raises(InvalidArgumentError, match="got 2.5"):
        sample_quadratures(state, 2.5, seed=1)
    with pytest.raises(InvalidArgumentError, match="got 2.7"):
        thermality_check(broadcast_state(), 0, 1, 2000, seed=2.7)
    assert np.array_equal(sample_quadratures(state, 10, seed=np.uint64(3)),
                          sample_quadratures(state, 10, seed=3))


def test_hbt_entry_points_refuse_a_bare_matrix():
    # Cholesky reads only the lower triangle: this array used to sample covariance 2 I
    lopsided = np.array([[2.0, 5.0], [0.0, 2.0]])
    with pytest.raises(InvalidArgumentError, match="CovarianceMatrix, got ndarray"):
        sample_quadratures(lopsided, 1000, 1)
    with pytest.raises(InvalidArgumentError, match="CovarianceMatrix, got list"):
        sample_quadratures([[1.0, 0.0], [0.0, 1.0]], 1000, 1)
    two_modes = np.eye(4) * 3.0
    with pytest.raises(InvalidArgumentError, match="CovarianceMatrix, got ndarray"):
        g2_analytic(two_modes, 0, 1)
    with pytest.raises(InvalidArgumentError, match="CovarianceMatrix, got ndarray"):
        thermality_check(two_modes, 0, 1, 2000, seed=1)


def test_sampling_rejects_indefinite_matrix():
    flat = CovarianceMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(NumericFailureError):
        sample_quadratures(flat, 100, seed=0)


# ---------------------------------------------------------------------------
# Intensity


def test_intensity_mean_tracks_occupation():
    # mean photon number of a symmetric thermal mode is (V - 1) / 2
    for variance, expected in ((3.0, 1.0), (1040.0, 519.5)):
        run = sample_quadratures(make_thermal(variance), 50_000, seed=11)
        i_m = intensity(run, 0)
        sd = i_m.std(ddof=1) / np.sqrt(len(run))
        assert abs(i_m.mean() - expected) <= 4.0 * sd
    vac = intensity(sample_quadratures(make_vacuum(1), 50_000, seed=11), 0)
    assert abs(vac.mean()) <= 4.0 * vac.std(ddof=1) / np.sqrt(50_000)


def test_intensity_mode_out_of_range():
    run = sample_quadratures(make_vacuum(1), 100, seed=0)
    with pytest.raises(InvalidArgumentError):
        intensity(run, 1)


def test_intensity_needs_two_columns_per_mode():
    # a 1-D array used to end in a bare IndexError, an odd column count to drop a column
    for samples in (np.zeros(5000), np.zeros((5000, 5))):
        with pytest.raises(InvalidArgumentError, match=rf"got shape \({samples.shape[0]},"):
            intensity(samples, 0)
        with pytest.raises(InvalidArgumentError, match="must be an \\(n, 2k\\) array"):
            g2_cross_estimate(samples, 0, 1)
    with pytest.raises(InvalidArgumentError, match="mode index 0.5 is not an integer"):
        intensity(np.zeros((100, 4)), 0.5)
    # a list used to end in a bare AttributeError on .ndim
    rows = np.zeros((5000, 4)).tolist()
    with pytest.raises(InvalidArgumentError, match="numpy array, got list"):
        intensity(rows, 0)
    with pytest.raises(InvalidArgumentError, match="numpy array, got list"):
        g2_cross_estimate(rows, 0, 1)
    with pytest.raises(InvalidArgumentError, match="numpy array, got NoneType"):
        g2_cross_estimate(None, 0, 1)


@pytest.mark.parametrize("dtype", [object, np.int64, complex])
def test_samples_must_hold_floats(dtype):
    # an object array used to end in a UFuncTypeError, and integers square past int64 without a word
    samples = np.zeros((5000, 4), dtype=dtype)
    for call in (lambda: intensity(samples, 0), lambda: g2_cross_estimate(samples, 0, 1)):
        with pytest.raises(InvalidArgumentError, match=rf"array of floats, got shape \(5000, 4\) {np.dtype(dtype)}$"):
            call()


@pytest.mark.parametrize("value", [1e200, np.inf, np.nan])
def test_cross_estimate_refuses_samples_whose_sums_are_not_finite(value):
    # 1e200 used to overflow with a RuntimeWarning (intensity then returned inf); nan and inf gave a nan ratio
    # without a word
    samples = np.ones((5000, 4))
    samples[1234, 2] = value
    for call in (lambda: g2_cross_estimate(samples, 0, 1), lambda: intensity(samples, 1)):
        with pytest.raises(NumericFailureError, match=re.escape(f"variance past {hbt._MAX_G2_ENTRY:.3g}") + "$"):
            call()


# ---------------------------------------------------------------------------
# Analytic g2


def test_analytic_cross_independent_is_one():
    state = tensor(make_thermal(3.0), make_thermal(7.0))
    assert g2_analytic(state, 0, 1) == 1.0


def test_analytic_cross_broadcast_is_two():
    # the split arms inherit the source's thermal statistics exactly
    for nu, eta in ((2.0, 0.5), (10.0, 0.3), (1040.0, 0.8)):
        value = g2_analytic(broadcast_state(nu, eta), 1, 2)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert 1.0 < value <= 2.0 + 1e-12


def test_analytic_needs_photons():
    with pytest.raises(UndefinedResultError):
        g2_analytic(make_vacuum(2), 0, 1)


def test_analytic_needs_two_modes():
    with pytest.raises(InvalidArgumentError):
        g2_analytic(make_thermal(2.0), 0, 0)


def isserlis_g2(gamma):
    # E[I_a I_b] / (E[I_a] E[I_b]) of the stored entries in rationals, by E[u^2 v^2] = G_uu G_vv + 2 G_uv^2
    g = [[Fraction(x) for x in row] for row in gamma.tolist()]
    raw = sum(g[u][u] * g[v][v] + 2 * g[u][v] ** 2 for u in (0, 1) for v in (2, 3))
    trace_a, trace_b = g[0][0] + g[1][1], g[2][2] + g[3][3]
    return (raw - 2 * trace_a - 2 * trace_b + 4) / ((trace_a - 2) * (trace_b - 2))


def test_analytic_is_within_four_ulps_of_the_stored_entries():
    # dim pairs a = b = 1 + 2 delta, c = delta, whose g2 is 1.25 to rounding: expanding the moments in floats
    # cancelled to 1.110 at delta = 1e-8 and to 0.0 at 1e-10; then states I + M M^T, dim to bright, of no pair form
    rng = np.random.default_rng(5)
    dim = [np.kron([[1 + 2 * delta, delta], [delta, 1 + 2 * delta]], np.eye(2)) for delta in 10.0 ** -np.arange(2, 11)]
    general = [np.eye(4) + m @ m.T for m in rng.standard_normal((40, 4, 4)) * 10.0 ** rng.uniform(-5, 3, (40, 1, 1))]
    for gamma in dim + general:
        state = CovarianceMatrix(gamma)
        value, exact = g2_analytic(state, 0, 1), isserlis_g2(state.data)
        assert type(value) is float
        assert abs(Fraction(value) - exact) <= 4 * Fraction(np.finfo(float).eps) * exact


# ---------------------------------------------------------------------------
# Estimated g2


def test_cross_estimate_flags_broadcast_as_thermal():
    run = sample_quadratures(broadcast_state(), 100_000, seed=5)
    report = g2_cross_estimate(run, 1, 2)
    assert report.verdict == VERDICT_THERMAL
    assert abs(report.g2_estimate - 2.0) <= 3.0 * report.std_error
    assert report.n_samples == 100_000


def test_cross_estimate_independent_modes_read_one():
    state = tensor(make_thermal(5.0), make_thermal(5.0))
    for seed in range(5):
        report = g2_cross_estimate(sample_quadratures(state, 50_000, seed=seed), 0, 1)
        assert report.verdict != VERDICT_THERMAL
        assert abs(report.g2_estimate - 1.0) <= 4.0 * report.std_error


def test_cross_estimate_coherent_source_is_inconclusive():
    # a nu = 1 source leaves vacuum at both receivers: no photons, no verdict
    run = sample_quadratures(broadcast_state(nu=1.0), 10_000, seed=9)
    assert g2_cross_estimate(run, 1, 2).verdict == VERDICT_INCONCLUSIVE


def test_estimate_argument_errors():
    run = sample_quadratures(broadcast_state(), 500, seed=0)
    with pytest.raises(InvalidArgumentError):
        g2_cross_estimate(run, 1, 2)
    big = sample_quadratures(broadcast_state(), 1000, seed=0)
    with pytest.raises(InvalidArgumentError):
        g2_cross_estimate(big, 1, 1)


def reference_g2(samples, mode_a, mode_b):
    # plain two-pass estimator: whole-array intensities, np.array_split blocks, a two-pass delete-one-block
    # jackknife of each leave-one-out quantity for both the error bar and the noise test
    n = len(samples)
    i_a, i_b = ((samples[:, 2 * m] ** 2 + samples[:, 2 * m + 1] ** 2 - 2.0) / 4.0 for m in (mode_a, mode_b))
    estimate = np.mean(i_a * i_b) / (i_a.mean() * i_b.mean())
    blocks = [np.array_split(x, hbt.JACKKNIFE_BLOCKS) for x in (i_a * i_b, i_a, i_b)]
    sums = np.array([[block.sum() for block in split] for split in blocks])
    rest = n - np.array([len(block) for block in blocks[0]])
    ab, a, b = (sums.sum(axis=1, keepdims=True) - sums) / rest

    def jackknife(held):
        return np.sqrt((len(held) - 1) / len(held) * np.sum((held - held.mean()) ** 2))

    std_error = jackknife(ab / (a * b))
    if any(i.mean() <= 3.0 * jackknife(held) for i, held in ((i_a, a), (i_b, b))):
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_THERMAL if estimate - 3.0 * std_error > 1.0 else VERDICT_NOT_THERMAL
    # condition number of the three sums: a mean near zero makes the ratio sensitive to their rounding
    kappa = sum(np.abs(x).sum() / abs(x.sum()) for x in (i_a * i_b, i_a, i_b))
    return estimate, std_error, verdict, kappa


@pytest.mark.parametrize("n", [1000, 1001, 199_999, 200_000])
def test_cross_estimate_matches_a_two_pass_reference(n):
    # a thermal mode of variance v has mean I = (v - 1) / 2 and sd(I) = v / 2, so the near-vacuum
    # modes sit at the 3 sigma noise boundary, mean I = 3 sd(I) / sqrt(n)
    v = 1.0 / (1.0 - 3.0 / np.sqrt(n))
    states = (broadcast_state(), tensor(make_thermal(3.0), tensor(make_thermal(5.0), make_thermal(5.0))),
              tensor(make_vacuum(1), tensor(make_thermal(v), make_thermal(v))))
    verdicts = []
    for state in states:
        verdicts.append([])
        for sampled, modes in ((state, (1, 2)), (reduce(state, [1, 2]), (0, 1))):
            for seed in (1, 2, 3):
                samples = sample_quadratures(sampled, n, seed)
                report = g2_cross_estimate(samples, *modes)
                estimate, std_error, verdict, kappa = reference_g2(samples, *modes)
                # 1e-14 whenever the sums are well conditioned (kappa <= 8 for the first two states)
                bound = max(1e-14, 4.0 * np.finfo(float).eps * kappa)
                assert abs(report.g2_estimate - estimate) <= bound * abs(estimate)
                assert report.std_error == pytest.approx(std_error, rel=1e-12)
                assert report.verdict == verdict
                verdicts[-1].append(verdict)
    assert set(verdicts[0]) <= {VERDICT_THERMAL, VERDICT_NOT_THERMAL} and VERDICT_THERMAL in verdicts[0]
    assert set(verdicts[1]) == {VERDICT_NOT_THERMAL}
    assert set(verdicts[2]) == {VERDICT_INCONCLUSIVE, VERDICT_NOT_THERMAL}


def test_cross_estimate_holds_no_sample_length_temporaries():
    # the whole-array estimator peaked at 24 MB here, beside the 32 MB sample array
    samples = sample_quadratures(reduce(broadcast_state(), [1, 2]), 1_000_000, seed=1)
    tracemalloc.start()
    try:
        g2_cross_estimate(samples, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_error_bar_shrinks_with_samples():
    state = broadcast_state(nu=10.0)
    devs = {}
    for n in (10_000, 100_000):
        report = g2_cross_estimate(sample_quadratures(state, n, seed=2), 1, 2)
        assert abs(report.g2_estimate - 2.0) <= 3.0 * report.std_error
        devs[n] = report.std_error
    assert devs[100_000] < devs[10_000]


def test_thermality_check_end_to_end():
    report = thermality_check(broadcast_state(), 1, 2, n_samples=100_000, seed=1)
    assert isinstance(report, G2Report)
    assert report.g2_analytic == pytest.approx(2.0, abs=1e-12)
    assert report.verdict == VERDICT_THERMAL


def test_thermality_check_coherent_source_has_no_analytic():
    report = thermality_check(broadcast_state(nu=1.0), 1, 2, n_samples=2000, seed=1)
    assert report.g2_analytic is None
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_thermality_check_samples_only_the_receiver_pair(monkeypatch):
    # the fused stage and the stored route sum the same pieces of the same draw, on any number of threads, so both
    # routes move together; the counts take one row block, end one row past a block bound, and straddle 2^18 / 16
    # rows per block
    state = build_scenario("full", ScenarioParams(nu=5.0, eta_ab=0.4, eta_th=0.8, v_th=2.0,
                                                  eta_th_a=0.9, eta_th_b=0.7, v_beta=3.0)).state
    a, b = 3, 2
    for n in (1000, 1001, 16_385, 54_321, 199_999, 200_000, 1_000_000, 1_000_001):
        pair = sample_quadratures(reduce(state, [a, b]), n, seed=8)
        expected = g2_cross_estimate(pair, 0, 1)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(hbt, "_CPUS", cpus)
            report = thermality_check(state, a, b, n_samples=n, seed=8)
            assert report.g2_estimate == expected.g2_estimate
            assert report.std_error == expected.std_error
            assert report.verdict == expected.verdict
            assert report.n_samples == n
            assert report.g2_analytic == g2_analytic(state, a, b)


def test_thermality_check_stores_no_sample_array(monkeypatch):
    # storing the 1M x 4 draw and then estimating peaked at 32.5 MB
    monkeypatch.setattr(hbt, "_CPUS", 2)
    state = broadcast_state()
    tracemalloc.start()
    try:
        thermality_check(state, 1, 2, n_samples=1_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def takes_every_block_once(monkeypatch, stage, pairs):
    # more threads than cores, switching every microsecond: a block lost or taken twice changes the sums
    monkeypatch.setattr(hbt, "_CPUS", 1)
    expected = stage(pairs, 40_000, [(1, 0), (2, 0), (3, 0), (4, 0)], [None] * 4)
    monkeypatch.setattr(hbt, "_CPUS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reports = stage(pairs, 40_000, [(1, 0), (2, 0), (3, 0), (4, 0)], [None] * 4)
    finally:
        sys.setswitchinterval(interval)
    assert reports == expected


def test_thermality_check_takes_every_block_once_under_thread_switches(monkeypatch):
    def stage(states, n_samples, keys, errors):
        return [thermality_check(state, 1, 2, n_samples, seed) for state, (seed, _) in zip(states, keys)]

    takes_every_block_once(monkeypatch, stage, [broadcast_state(nu) for nu in (2.0, 3.0, 5.0, 8.0)])


def test_g2_pairs_takes_every_block_once_under_thread_switches(monkeypatch):
    pairs = np.stack([entries_of(nu=nu) for nu in (2.0, 3.0, 5.0, 8.0)])
    takes_every_block_once(monkeypatch, hbt.g2_pairs, pairs)


def test_thermality_check_refuses_a_pair_that_does_not_factor(monkeypatch):
    # modes 1 and 2 are not positive definite together, though mode 0 is fine: the check names the pair and draws nothing
    monkeypatch.setattr(hbt, "_draw", lambda *args: pytest.fail("a block was drawn"))
    state = CovarianceMatrix(np.diag([2.0, 2.0, 1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(NumericFailureError, match="^covariance matrix is not positive definite$"):
        thermality_check(state, 1, 2, n_samples=2000, seed=4)


# ---------------------------------------------------------------------------
# The pair kernel: a receiver pair [[a I, c I], [c I, b I]] drawn from one exponential and two normals per row


def entries_of(**params):
    # the receivers' (a, b, c, d) at the source, as the sweep and g2check take them
    return np.array([entry[0] for entry in pair_entries(ScenarioParams(**params))])


def pair_state(entries):
    a, b, c, _ = entries
    return CovarianceMatrix(np.kron([[a, c], [c, b]], np.eye(2)))


PAIR_CASES = [
    ("basic", dict(nu=2.0, eta_ab=0.5)),
    ("thermal_channel", dict(nu=5.0, eta_ab=0.3, eta_th=0.7, v_th=2.0)),
    # a vacuum source: c = 0, the receivers hold only their channels' noise
    ("full", dict(nu=1.0, eta_th_a=0.5, v_alpha=3.0, eta_th_b=0.6, v_beta=2.0)),
    # a dim pair: a = 1.1, a mean of 0.05 photons at A
    ("basic", dict(nu=2.0, eta_ab=0.9)),
    ("full", dict(nu=1e3, eta_ab=0.4, eta_th=0.8, v_th=2.0, eta_th_a=0.9, v_alpha=1.5, eta_th_b=0.7, v_beta=2.5)),
]


@pytest.mark.parametrize("scenario,params", PAIR_CASES)
def test_g2_pairs_is_exact_in_distribution(scenario, params, monkeypatch):
    # the five pooled sample means against Isserlis' theorem, each report against g2_analytic, and the mean error
    # bar against the four-normal route's over the same 40 seeds (one seed's jackknife error scatters by ~7%)
    entries = entries_of(**params)
    a, b, c, _ = entries
    if scenario == "full" and params["nu"] == 1.0:
        assert c == 0.0
    state, k, n = pair_state(entries), 40, 10_000
    # the three sums the estimator keeps, from its pieces; the squares from the intensities it sums them from
    totals, squares, report, piece_sums = [], [], hbt._report, hbt._piece_sums
    monkeypatch.setattr(hbt, "_report",
                        lambda pieces, *rest: totals.extend(pieces.sum(axis=-1)) or report(pieces, *rest))
    monkeypatch.setattr(hbt, "_piece_sums",
                        lambda vals, *rest: squares.append(np.sum(vals[:2] ** 2, axis=1)) or piece_sums(vals, *rest))
    reports = hbt.g2_pairs(np.tile(entries, (k, 1)), n, [(s, 0) for s in range(k)], [None] * k)
    means = np.concatenate([np.sum(totals, axis=0), np.sum(squares, axis=0)]) / (k * n)
    # E[I_a], E[I_b], E[I_a I_b], E[I_a^2], E[I_b^2] with I = (x^2 + p^2 - 2) / 4
    exact = np.array([(a - 1) / 2, (b - 1) / 2, (a * b + c * c - a - b + 1) / 4,
                      (2 * a * a - 2 * a + 1) / 4, (2 * b * b - 2 * b + 1) / 4])
    # standard errors from the spread of the same five terms on a four-normal draw
    ref = sample_quadratures(state, 100_000, seed=99)
    i_a, i_b = (ref[:, 0] ** 2 + ref[:, 1] ** 2 - 2) / 4, (ref[:, 2] ** 2 + ref[:, 3] ** 2 - 2) / 4
    errors = np.std([i_a, i_b, i_a * i_b, i_a ** 2, i_b ** 2], axis=1) / np.sqrt(k * n)
    assert np.all(np.abs(means - exact) <= 5.0 * errors)
    analytic = g2_analytic(state, 0, 1)
    assert all(abs(r.g2_estimate - analytic) <= 5.0 * r.std_error for r in reports)
    checks = [thermality_check(state, 0, 1, n, seed) for seed in range(k)]
    ratio = np.mean([r.std_error for r in reports]) / np.mean([r.std_error for r in checks])
    assert 0.9 <= ratio <= 1.1


# E[I_a^j I_b^k], j, k <= 2, as polynomials in a, b and c^2, derived by Isserlis' theorem (tests/make_g2_moments.py)
MOMENTS = {tuple(map(int, key.split())): terms
           for key, terms in json.loads(Path(__file__).with_name("g2_moments.json").read_text()).items()}


def delta_method_g2(entries, n):
    # g2 = m_ab / (m_a m_b) of the per-row means of (I_a, I_b, I_a I_b), and its delta-method standard error for n
    # rows, sqrt(grad^T S grad / n), S their covariance; in exact fractions of the entries until the root
    a, b, c, _ = map(Fraction, entries.tolist())
    moment = {key: sum(Fraction(coef) * a ** i * b ** j * (c * c) ** k for coef, i, j, k in terms)
              for key, terms in MOMENTS.items()}
    rows = [(1, 0), (0, 1), (1, 1)]
    mean = [moment[row] for row in rows]
    cov = [[moment[p + r, q + s] - moment[p, q] * moment[r, s] for r, s in rows] for p, q in rows]
    g2 = mean[2] / (mean[0] * mean[1])
    grad = [-g2 / mean[0], -g2 / mean[1], 1 / (mean[0] * mean[1])]
    return float(g2), float(sum(x * cov[i][j] * y for i, x in enumerate(grad) for j, y in enumerate(grad)) / n) ** 0.5


@pytest.mark.parametrize("case", [3, 2, 4], ids=["dim", "vacuum-source", "bright"])
def test_g2_pairs_error_bar_is_the_delta_method_error(case):
    # the jackknife error of k seeds' reports, on average, against sigma / sqrt(n) from the moments in closed form.
    # One seed's error scatters by about 1 / sqrt(2 (B - 1)) = 7%, so the mean of k is held to 4 of its standard
    # errors, taken from the seeds' own spread; 1/B for the (B - 1) / B factor, or no centring, moves it 10x or more
    entries, k, n = entries_of(**PAIR_CASES[case][1]), 40, 50_000
    g2, expected = delta_method_g2(entries, n)
    reports = hbt.g2_pairs(np.tile(entries, (k, 1)), n, [(7, i) for i in range(k)], [None] * k)
    errors = np.array([report.std_error for report in reports])
    assert reports[0].g2_analytic == pytest.approx(g2, rel=1e-12)
    assert abs(errors.mean() - expected) <= 4.0 * errors.std(ddof=1) / np.sqrt(k)


@pytest.mark.parametrize("scenario,params", PAIR_CASES)
def test_g2check_exact_value_is_g2_analytic_from_the_sampled_entries(scenario, params, capsys):
    # g2check prints 1 + c^2 / ((a - 1)(b - 1)) of the (a, b, c, d) it samples and builds no scenario matrix
    a, b, c, _ = entries_of(**params)
    exact = 1.0 + c * c / ((a - 1.0) * (b - 1.0))
    built = build_scenario(scenario, ScenarioParams(**params))
    assert exact == pytest.approx(g2_analytic(built.state, built.mode_index("A"), built.mode_index("B")), rel=1e-12)
    argv = [f"--{name.replace('_', '-')}={value!r}" for name, value in params.items()]
    assert main(["g2check", "--samples", "1000", "--seed", "1"] + argv) == 0
    assert f"g2 analytic: {exact:.6g}\n" in capsys.readouterr().out


def test_g2_pairs_fails_only_the_rows_that_are_not_positive_definite(monkeypatch):
    # a non-finite entry, a <= 0 or d <= 0 fails its row, which draws nothing; the others match their runs alone
    good = [1.5, 1.5, -0.5, 2.0]
    pairs = np.array([good, [np.nan, 1.5, -0.5, 2.0], [1.5, np.inf, -0.5, 2.0], [0.0, 1.5, 0.0, 0.0],
                      [-1.0, 1.5, -0.5, -1.75], [1.5, 1.5, -1.5, 0.0], [1.5, 1.0, 1.5, -0.75], [3.0, 3.0, -1.0, 8.0]])
    keys, errors, blocks = [(s, 0) for s in range(4, 4 + len(pairs))], [None] * len(pairs), []
    piece_sums = hbt._piece_sums
    monkeypatch.setattr(hbt, "_piece_sums", lambda vals, *rest: blocks.append(vals.shape) or piece_sums(vals, *rest))
    reports = hbt.g2_pairs(pairs, 2000, keys, errors)
    assert len(blocks) == 2  # 2000 rows are one block per pair
    for i in range(1, 7):
        assert reports[i] is None and isinstance(errors[i], NumericFailureError)
    for i in (0, 7):
        assert errors[i] is None
        assert reports[i] == hbt.g2_pairs(pairs[i:i + 1], 2000, [keys[i]], [None])[0]


def test_g2_pairs_reports_a_stack_as_its_one_point_calls(monkeypatch):
    # one report pass and three points more: a vacuum source closes the first pass and a row that fails before the
    # draw opens the second; each point's report equals its own draw on the same (seed, point), in passes, not per point
    cases = [entries_of(**params) for _, params in PAIR_CASES]
    n_points, seam = hbt._REPORT_POINTS + 3, hbt._REPORT_POINTS
    pairs = np.array([cases[i % len(cases)] for i in range(n_points)])
    pairs[seam - 1], pairs[seam] = entries_of(nu=1.0), [np.nan, 1.5, -0.5, 2.0]
    keys, errors, passes, report = [(11, i) for i in range(n_points)], [None] * n_points, [], hbt._report
    monkeypatch.setattr(hbt, "_report", lambda pieces, *rest: passes.append(len(pieces)) or report(pieces, *rest))
    reports = hbt.g2_pairs(pairs, hbt.MIN_G2_SAMPLES, keys, errors)
    assert passes == [hbt._REPORT_POINTS, 3]
    assert reports[seam - 1].g2_analytic is None and reports[seam] is None
    assert isinstance(errors[seam], NumericFailureError) and errors.count(None) == n_points - 1
    for i, key in enumerate(keys):
        assert reports[i] == hbt.g2_pairs(pairs[i:i + 1], hbt.MIN_G2_SAMPLES, [key], [None])[0]


def test_g2_pairs_attaches_g2_analytic_of_its_pair_state():
    # one exact rule: the pair kernel's value is g2_analytic's of [[a I, c I], [c I, b I]] to the bit, dim pairs too
    dim = [[1 + 2 * delta, 1 + 2 * delta, delta, (1 + delta) * (1 + 3 * delta)] for delta in 10.0 ** -np.arange(2, 11)]
    pairs = np.array(dim + [entries_of(**params) for _, params in PAIR_CASES if params.get("nu") != 1.0])
    reports = hbt.g2_pairs(pairs, 1000, [(2, i) for i in range(len(pairs))], [None] * len(pairs))
    for entries, report in zip(pairs, reports):
        value = g2_analytic(pair_state(entries), 0, 1)
        assert type(value) is float and report.g2_analytic == value


def test_g2_pairs_stream_matches_committed_literals(monkeypatch):
    # row block 0 of seed 0 draws E for its rows, then n1, then n2: the first three (I_a, I_b) of the basic pair
    # at nu = 2, eta_ab = 0.5, (a, b, c, d) = (1.5, 1.5, -0.5, 2); a change to the draw or its order breaks this
    blocks = []
    piece_sums = hbt._piece_sums
    monkeypatch.setattr(hbt, "_piece_sums",
                        lambda vals, *rest: blocks.append(vals[:2].copy()) or piece_sums(vals, *rest))
    a, b, c, d = entries_of(nu=2.0, eta_ab=0.5)
    assert (a, b, c, d) == (1.5, 1.5, -0.5, 2.0)
    hbt.g2_pairs(np.array([[a, b, c, d]]), 1000, [(0, 0)], [None])
    assert blocks[0][:, :3].T.tolist() == [[-0.2485984658551117, 0.4997642381308228],
                                           [0.9377043995874168, -0.07587977747260566],
                                           [-0.20290526017367244, -0.2787373795714636]]
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=0, spawn_key=(0, 0))))
    e = rng.standard_exponential(1000)
    n1, n2 = rng.standard_normal(2000).reshape(2, 1000)
    mu, sigma = c / np.sqrt(2.0 * a), np.sqrt(d / a) / 2.0
    i_b = (mu * np.sqrt(e) + sigma * n1) ** 2 + (sigma * n2) ** 2 - 0.5
    assert np.allclose(blocks[0], [a / 2.0 * e - 0.5, i_b], rtol=1e-12, atol=1e-15)


def test_g2_pairs_bytes_do_not_depend_on_the_cpu_count(monkeypatch):
    # the pair kernel's own near-equal blocks of at most 2^15 rows: 2^15 - 1 rows are one block, 2^15 + 1 are two
    entries = entries_of(nu=5.0, eta_ab=0.4, eta_th=0.8, v_th=2.0, eta_th_a=0.9, v_alpha=1.5)
    sizes, piece_sums = [], hbt._piece_sums
    monkeypatch.setattr(hbt, "_piece_sums", lambda vals, *rest: sizes.append(vals.shape[1]) or piece_sums(vals, *rest))
    for n, n_blocks in ((1000, 1), (32_767, 1), (32_769, 2), (200_000, 7), (1_000_001, 31)):
        sizes.clear()
        monkeypatch.setattr(hbt, "_CPUS", 1)
        expected = hbt.g2_pairs(entries[None], n, [(8, 0)], [None])[0]
        assert len(sizes) == n_blocks and max(sizes) <= 2 ** 15 and expected.n_samples == n
        for cpus in (2, 3):
            monkeypatch.setattr(hbt, "_CPUS", cpus)
            assert hbt.g2_pairs(entries[None], n, [(8, 0)], [None])[0] == expected


def test_g2_pairs_holds_only_its_per_thread_blocks(monkeypatch):
    # four rows of 2^15 per thread are 1 MiB; the general route's eleven rows of 2^14 would be 1.375 MiB
    monkeypatch.setattr(hbt, "_CPUS", 2)
    entries = entries_of(nu=2.0, eta_ab=0.5)
    hbt.g2_pairs(entries[None], 1000, [(1, 0)], [None])
    tracemalloc.start()
    try:
        hbt.g2_pairs(entries[None], 1_000_000, [(1, 0)], [None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_g2_pairs_holds_one_chunk_of_sums_at_a_time(monkeypatch):
    # each chunk of _REPORT_POINTS points is drawn and then reported, so the peak grows only by the reports kept;
    # holding every point's piece sums until the last draw grew it by about 2.4 KB per point
    monkeypatch.setattr(hbt, "_CPUS", 2)
    entries = entries_of(nu=2.0, eta_ab=0.5)
    hbt.g2_pairs(entries[None], 1000, [(1, 0)], [None])
    peaks = []
    for n_points in (250, 2000):
        pairs, keys, errors = np.tile(entries, (n_points, 1)), [(1, i) for i in range(n_points)], [None] * n_points
        tracemalloc.start()
        try:
            reports = hbt.g2_pairs(pairs, 1000, keys, errors)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(reports) == n_points and None not in reports
    assert peaks[1] - peaks[0] < 2 ** 20


@pytest.mark.parametrize("pair", [(1e-300, 1.0, 0.0, 1e-300), (1e150, 1e150, 0.0, 1e300), (5e-324, 1.0, 0.0, 5e-324)])
def test_g2_pairs_gives_extreme_accepted_pairs_a_finite_report(pair):
    # no factor divides by a root of d, or by anything else an accepted pair can make 0 or send past the float range
    report = hbt.g2_pairs(np.array([pair]), 10_000, [(3, 0)], [None])[0]
    assert np.isfinite(report.g2_estimate) and np.isfinite(report.std_error)


@pytest.mark.parametrize("pair", [(1.0, 1.0, 0.0, 1e308), (2.0, 2.0, 0.0, 1e300)])
def test_g2_refuses_a_pair_whose_drawn_b_variance_is_past_the_range(pair, monkeypatch):
    # a, b and c are in range, but B is drawn with variance (c^2 + d) / a: squaring its draws overflowed
    drawn = []
    piece_sums = hbt._piece_sums
    monkeypatch.setattr(hbt, "_piece_sums", lambda *args: drawn.append(1) or piece_sums(*args))
    errors = [None]
    assert hbt.g2_pairs(np.array([pair]), 10_000, [(5, 0)], errors) == [None] and not drawn
    variance = (pair[2] ** 2 + pair[3]) / pair[0]
    assert isinstance(errors[0], NumericFailureError)
    assert str(errors[0]) == f"variance {variance:.6g} is past 2.45e+150, where the g2 sums overflow"


@pytest.mark.parametrize("v", [1e154, 1e200])
def test_g2_refuses_a_pair_whose_sums_would_overflow(v, monkeypatch):
    # MAX_SAMPLES intensity products of a variance past about 2.45e150 can sum past the float range
    message = f"variance {v:g} is past 2.45e+150, where the g2 sums overflow"
    errors = [None]
    assert hbt.g2_pairs(np.array([[v, v, 0.0, 1e308]]), 10_000, [(5, 0)], errors) == [None]
    assert isinstance(errors[0], NumericFailureError) and str(errors[0]) == message
    monkeypatch.setattr(hbt, "_draw", lambda *args: pytest.fail("a block was drawn"))
    state = CovarianceMatrix(np.kron([[v, v / 2], [v / 2, v]], np.eye(2)))
    for check in (lambda: thermality_check(state, 0, 1, 10_000, 5), lambda: g2_analytic(state, 0, 1)):
        with pytest.raises(NumericFailureError, match=f"^{re.escape(message)}$"):
            check()
