"""Sampling determinism and intensity-correlation estimates."""
import numpy as np
import pytest

from thermalcast import (CovarianceMatrix, G2Report, InvalidArgumentError,
                         NumericFailureError, ScenarioParams,
                         UndefinedResultError, build_scenario,
                         g2_analytic, g2_cross_estimate, intensity,
                         make_epr, make_thermal, make_vacuum, reduce, sample_quadratures,
                         tensor, thermality_check,
                         VERDICT_INCONCLUSIVE, VERDICT_THERMAL)


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
    # no shard plan: one stream fills every row of a (n_samples, 2n) record
    run = sample_quadratures(broadcast_state(), 1000, seed=7)
    assert run.shape == (1000, 6)
    assert not run.flags.writeable
    again = sample_quadratures(broadcast_state(), 1000, seed=7)
    assert np.array_equal(run, again)


def test_sampling_stream_is_pinned():
    # one Philox stream from SeedSequence(seed, spawn_key=(0,)), rows times L^T
    state = build_scenario("full", ScenarioParams(nu=3.0, eta_th=0.8, v_th=2.0, eta_th_a=0.9,
                                                  v_alpha=1.5, eta_th_b=0.7, v_beta=2.5)).state
    pair = reduce(state, [1, 2])
    # the last four span several row blocks and end one row past a block bound
    # (1820 rows of 12 columns, 16384 rows of 4 columns)
    for st, n, seed in ((state, 1000, 0), (state, 2001, 2 ** 64 - 1), (state, 1821, 5),
                        (state, 5461, 6), (pair, 16_385, 7), (pair, 100_001, 8)):
        d = st.data.shape[0]
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
        normals = np.random.Generator(np.random.Philox(seq)).standard_normal((n, d))
        expected = normals @ np.linalg.cholesky(st.data).T
        got = sample_quadratures(st, n, seed=seed)
        assert got.tobytes() == expected.tobytes()


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
    with pytest.raises(InvalidArgumentError, match="mode 0.5 is not an integer"):
        intensity(np.zeros((100, 4)), 0.5)


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


def test_thermality_check_samples_only_the_receiver_pair():
    state = build_scenario("full", ScenarioParams(nu=5.0, eta_ab=0.4, eta_th=0.8, v_th=2.0,
                                                  eta_th_a=0.9, eta_th_b=0.7, v_beta=3.0)).state
    a, b = 3, 2
    report = thermality_check(state, a, b, n_samples=5000, seed=8)
    pair = sample_quadratures(reduce(state, [a, b]), 5000, seed=8)
    expected = g2_cross_estimate(pair, 0, 1)
    assert report.g2_estimate == expected.g2_estimate
    assert report.std_error == expected.std_error
    assert report.verdict == expected.verdict
    assert report.g2_analytic == g2_analytic(state, a, b)
