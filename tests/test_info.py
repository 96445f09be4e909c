"""Entropy, mutual information and discord against closed-form oracles."""
import math
import types

import numpy as np
import pytest

from thermalcast import (SCENARIO_NAMES, CovarianceMatrix, DiscordResult, InvalidArgumentError,
                         NumericFailureError, Partition, ThermalcastError, UnphysicalStateError,
                         build_scenario, conditional_mutual_information,
                         gaussian_discord, homodyne_condition,
                         make_epr, make_thermal, make_vacuum,
                         mutual_information, reduce, shannon_entropy,
                         ScenarioParams, tensor, von_neumann_entropy,
                         validate_physicality)
from thermalcast.info import _g, pair_measures
from thermalcast.scenarios import PARAM_NAMES, SCENARIO_PARAMS, VARIANCE_PARAMS, pair_entries


def g_term(x: float) -> float:
    # entropy of one thermal spectrum value, written out independently
    if x <= 1.0:
        return 0.0
    return (x + 1) / 2 * math.log2((x + 1) / 2) - (x - 1) / 2 * math.log2((x - 1) / 2)


def random_physical(n_modes: int, rng) -> CovarianceMatrix:
    # I + M M^T dominates the vacuum, hence is always a physical state;
    # unlike the broadcast states it has no x/p symmetry to hide behind
    m = rng.standard_normal((2 * n_modes, 2 * n_modes))
    return CovarianceMatrix(np.eye(2 * n_modes) + m @ m.T)


# ---------------------------------------------------------------------------
# Shannon entropy


def test_shannon_vacuum_and_thermal():
    assert shannon_entropy(make_vacuum(1)) == pytest.approx(math.log2(2 * math.pi * math.e), abs=1e-12)
    assert shannon_entropy(make_thermal(2.0)) == pytest.approx(
        math.log2(2 * math.pi * math.e) + 1.0, abs=1e-12)


def test_shannon_additive_over_products():
    a, b = make_thermal(3.0), make_epr(2.0)
    assert shannon_entropy(tensor(a, b)) == pytest.approx(
        shannon_entropy(a) + shannon_entropy(b), abs=1e-9)


def test_shannon_rejects_nonpositive_determinant():
    with pytest.raises(NumericFailureError):
        shannon_entropy(CovarianceMatrix(np.diag([1.0, -1.0])))


def test_measures_refuse_matrices_that_are_not_positive_definite():
    # -I has det > 0 in every even dimension: only a definiteness check sees it
    cases = ((von_neumann_entropy, -3.0 * np.eye(4), ()), (shannon_entropy, -np.eye(2), ()),
             (mutual_information, -np.eye(4), (Partition((0,), (1,)),)),
             (conditional_mutual_information, -np.eye(6), (Partition((0,), (1,), (2,)),)),
             (homodyne_condition, -np.eye(4), (0, 0.0)), (gaussian_discord, -np.eye(4), (0, 1)))
    for measure, gamma, args in cases:
        with pytest.raises(NumericFailureError, match="not positive definite"):
            measure(CovarianceMatrix(gamma), *args)


def test_each_stage_factors_its_largest_block_once(monkeypatch):
    # full states at 50 splitter ratios: each measure checks one block, first, and the
    # kernels underneath compute on it without a second factorization
    scenarios = [build_scenario("full", ScenarioParams(nu=3.0, eta_ab=eta, eta_th=0.8, v_th=2.0))
                 for eta in np.linspace(0.05, 0.95, 50)]
    calls = []
    real = np.linalg.cholesky

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    for scenario in scenarios:
        p = scenario.information_partition()
        counts = {}
        for name, measure, args in (("discord", gaussian_discord, (p.subsystem_a[0], p.subsystem_b[0])),
                                    ("mi", mutual_information, (Partition(p.subsystem_a, p.subsystem_b),)),
                                    ("cmi", conditional_mutual_information, (p,))):
            calls.clear()
            measure(scenario.state, *args)
            counts[name] = len(calls)
        # the pair, whose factor also whitens its A block, and the conditioned state
        assert counts["discord"] == 2
        assert counts["mi"] == counts["cmi"] == 1


# ---------------------------------------------------------------------------
# von Neumann entropy


def test_von_neumann_pure_states_are_zero():
    assert von_neumann_entropy(make_vacuum(2)) == 0.0
    # spectrum lands within float dust above 1; g grows like -eps*log(eps)
    assert von_neumann_entropy(make_epr(7.0)) <= 1e-7


def test_von_neumann_thermal_value():
    assert von_neumann_entropy(make_thermal(2.0)) == pytest.approx(g_term(2.0), abs=1e-12)
    assert g_term(2.0) == pytest.approx(1.5 * math.log2(1.5) + 0.5)


# g(v) in bits at the exact float v, from 50-digit arithmetic (mpmath)
G_REFERENCES = {1.05: 0.16956270984617355, 1040.0: 10.465062631608578, 1e6: 20.374263610212896,
                1e12: 40.30583217953731, 1e16: 53.59354455908676}


@pytest.mark.parametrize("v", list(G_REFERENCES))
def test_entropy_of_a_bright_mode_keeps_its_digits(v):
    # xp log xp - xm log xm cancelled two large terms: 3e-12 relative off at 1e6, 1.3e-5 at 1e12, 0.0 at 1e16
    expected = G_REFERENCES[v]
    assert abs(_g(np.array([v])) - expected) <= np.spacing(expected)
    # the public path adds the rounding of the symplectic eigenvalue, L00 * L11
    assert von_neumann_entropy(CovarianceMatrix(v * np.eye(2))) == pytest.approx(expected, rel=1e-14)


def test_von_neumann_additive_over_products():
    a, b = make_thermal(2.0), make_thermal(5.0)
    assert von_neumann_entropy(tensor(a, b)) == pytest.approx(
        von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-9)


@pytest.mark.parametrize("nu", [1040.0, 1e4, 1e5, 1e6])
def test_bright_pure_states_are_physical_and_nearly_pure(nu):
    # the spectrum lands within its rounding tolerance of 1, which grows with
    # brightness, and reads exactly 1 there, so the entropy is exactly 0
    states = [make_epr(nu)] + [build_scenario(name, ScenarioParams(nu=nu)).state
                               for name in ("basic", "thermal_channel", "full")]
    for state in states:
        assert validate_physicality(state).ok
        assert von_neumann_entropy(state) == 0.0


@pytest.mark.parametrize("name, noise", [
    ("thermal_channel", dict(v_th=1.05)),
    ("thermal_channel", dict(eta_th=0.7, v_th=1.05)),
    ("full", dict(eta_th=0.7, v_th=1.02, eta_th_a=0.6, v_alpha=1.05, eta_th_b=0.5, v_beta=1.08)),
    ("full", dict(eta_th=0.7, v_th=1.001, eta_th_a=0.6, v_alpha=1.0001, eta_th_b=0.5, v_beta=1.00001)),
])
def test_a_bright_source_leaves_the_noise_entropy_alone(name, noise):
    # beamsplitters keep the input spectrum: 1, 1 from EPR(1e6), then the noise variances and vacua.
    # The bright pair's rounding tolerance is wide; the noise modes must keep their own.
    state = build_scenario(name, ScenarioParams(nu=1e6, **noise)).state
    expected = sum(g_term(v) for key, v in noise.items() if key.startswith("v_"))
    assert von_neumann_entropy(state) == pytest.approx(expected, abs=1e-9)


def test_von_neumann_takes_the_physicality_verdict():
    # 1e-12 below shot noise fails validate_physicality, so it has no entropy
    # either, and the message tells its eigenvalue apart from 1
    state = CovarianceMatrix((1.0 - 1e-12) * np.eye(2))
    report = validate_physicality(state)
    assert not report.ok
    assert report.issues[0].startswith("symplectic eigenvalue below shot noise: 0.999999999999 ")
    with pytest.raises(UnphysicalStateError, match="^symplectic eigenvalue 0.999999999999 below shot noise$"):
        von_neumann_entropy(state)


def test_von_neumann_rejects_unphysical():
    with pytest.raises(UnphysicalStateError):
        von_neumann_entropy(CovarianceMatrix(np.diag([0.5, 0.5])))


# ---------------------------------------------------------------------------
# Partitions, CMI, MI


def test_partition_validation():
    with pytest.raises(InvalidArgumentError):
        Partition((0,), (0,))
    with pytest.raises(InvalidArgumentError):
        Partition((), (1,))
    with pytest.raises(InvalidArgumentError):
        Partition((0,), (1,), (1,))
    p = Partition((0,), (1,), (2,))
    with pytest.raises(InvalidArgumentError):
        conditional_mutual_information(make_vacuum(2), p)
    # a group that is no sequence of indices, or a partition that is no Partition, is named
    for groups, message in ((((0,), 1), "subsystem_b must be a sequence of mode indices, got 1"),
                            ((0, 1), "subsystem_a must be a sequence of mode indices, got 0"),
                            ((([0],), (1,)), r"subsystem_a must be a sequence of mode indices, got \(\[0\],\)")):
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            Partition(*groups)
    for measure in (conditional_mutual_information, mutual_information):
        with pytest.raises(InvalidArgumentError, match="^partition must be a Partition, got tuple$"):
            measure(make_vacuum(3), ((0,), (1,), (2,)))


def test_partition_indices_are_checked_where_modes_are_selected():
    # Partition((0.5,), (1,)) used to truncate 0.5 to mode 0 without a word
    state = tensor(make_epr(2.0), make_thermal(2.0))
    with pytest.raises(InvalidArgumentError, match="mode index 0.5 is not an integer"):
        mutual_information(state, Partition((0.5,), (1,)))
    with pytest.raises(InvalidArgumentError, match="mode index True is not an integer"):
        conditional_mutual_information(state, Partition((0,), (True,), (2,)))
    for measure in (lambda: homodyne_condition(state, 0.5, 0.0), lambda: gaussian_discord(state, 0, 1.0)):
        with pytest.raises(InvalidArgumentError, match="is not an integer"):
            measure()


def test_cmi_with_empty_s_is_mutual_information():
    # MI is CMI given nothing (H of no modes is 0): one body, so bit for bit, with or without a carried factor
    scenario = build_scenario("full", ScenarioParams(nu=1e6, eta_ab=0.6, eta_th=0.8, v_th=3.0, v_alpha=2.0))
    for state, pair in ((tensor(make_epr(2.0), make_thermal(2.0)), Partition((0,), (1,))),
                        (random_physical(3, np.random.default_rng(8)), Partition((2, 0), (1,))),
                        (scenario.state, Partition((3,), (2,)))):
        assert conditional_mutual_information(state, pair) == mutual_information(state, pair)
    # but the name mutual_information promises no conditioning
    with pytest.raises(InvalidArgumentError, match="^mutual_information takes an empty conditioning set$"):
        mutual_information(tensor(make_epr(2.0), make_thermal(2.0)), Partition((0,), (1,), (2,)))


def test_a_hand_built_matrix_that_cannot_fix_cmi_is_refused_by_its_condition_number():
    # the bright build's own matrix, without the factor it carries: kappa(Gamma_ABS) ~ 4 nu^2 lets its rounding
    # move CMI by far more than CLAMP_TOL, so it is refused, naming kappa and the spread the README derives
    built = build_scenario("basic", ScenarioParams(nu=1e6, eta_ab=0.3))
    p = built.information_partition()
    bare = CovarianceMatrix(built.state.data)
    assert built.state.factor is not None and bare.factor is None
    # kappa near 4 nu^2 for Gamma_ABS, near nu for Gamma_AB
    for measure, part, block, power in ((conditional_mutual_information, p, "Gamma_ABS", 12),
                                        (mutual_information, Partition(p.subsystem_a, p.subsystem_b), "Gamma_AB", 6)):
        with pytest.raises(NumericFailureError, match=rf"^{block} has condition number [0-9.]+e\+{power:02d}, so its "
                                                      r"float64 entries fix [a-z ]+ to [0-9.e+-]+ bits, not 1e-09$"):
            measure(bare, part)
    # the carried factor answers at the reference digits
    assert abs(conditional_mutual_information(built.state, p) - BRIGHT_REFERENCES[("basic", 1e6)][2]) <= 1e-13


@pytest.mark.parametrize("nu", [300.0, 1e3, 1e4, 1e6])
def test_a_bright_epr_pair_from_its_builder_answers_through_its_factor(nu):
    # make_epr carries its square-root factor, so MI = 1/2 log2(nu^2 nu^2 / 1) needs no condition number; the same
    # entries without the factor are refused by kappa(Gamma_AB) ~ 4 nu^2
    epr = make_epr(nu)
    assert mutual_information(epr, Partition((0,), (1,))) == pytest.approx(2.0 * math.log2(nu), rel=1e-12, abs=0.0)
    with pytest.raises(NumericFailureError, match="^Gamma_AB has condition number "):
        mutual_information(CovarianceMatrix(epr.data), Partition((0,), (1,)))
    assert tensor(CovarianceMatrix(epr.data), make_thermal(2.0)).factor is None  # a bare part leaves the whole bare


def test_cmi_with_uncorrelated_s_equals_mi():
    # S in a product with AB: conditioning changes nothing
    state = tensor(make_epr(3.0), make_thermal(4.0))
    cmi = conditional_mutual_information(state, Partition((0,), (1,), (2,)))
    mi = mutual_information(state, Partition((0,), (1,)))
    assert cmi == pytest.approx(mi, abs=1e-9)


@pytest.mark.parametrize("partition", [
    Partition((4, 1), (2,), (5, 0)),
    Partition((3, 0), (5, 1), (2, 4)),
])
def test_cmi_routes_agree_on_multimode_groups(partition):
    # two-mode groups listed out of order: the factor's rows are sliced by group, blocks wider than one mode,
    # and a slicing slip would miss the four entropies
    a, b, s = partition.subsystem_a, partition.subsystem_b, partition.subsystem_s
    rng = np.random.default_rng(5)
    for _ in range(100):
        state = random_physical(6, rng)
        entropies = (shannon_entropy(reduce(state, a + s)) + shannon_entropy(reduce(state, b + s))
                     - shannon_entropy(reduce(state, s)) - shannon_entropy(reduce(state, a + b + s)))
        got = conditional_mutual_information(state, partition)
        assert got == pytest.approx(max(entropies, 0.0), abs=1e-9)


def test_cmi_basic_broadcast_closed_form():
    # determinants by hand for nu=2, eta_ab=0.5: det(G_AS) = det(G_BS) = (3/2)^2,
    # det(G_S) = 4, det(G_ABS) = 1 (pure), so CMI = log2(81/64)/2 = 2 log2(3) - 3
    scenario = build_scenario("basic", ScenarioParams(nu=2.0, eta_ab=0.5))
    cmi = conditional_mutual_information(scenario.state, scenario.information_partition())
    assert cmi == pytest.approx(2 * math.log2(3.0) - 3.0, abs=1e-12)


def test_cmi_equals_mi_on_pure_broadcast():
    # with (E,B,A) jointly pure, conditioning on E adds nothing
    for nu, eta in ((2.0, 0.5), (10.0, 0.3), (100.0, 0.8)):
        scenario = build_scenario("basic", ScenarioParams(nu=nu, eta_ab=eta))
        p = scenario.information_partition()
        cmi = conditional_mutual_information(scenario.state, p)
        mi = mutual_information(scenario.state, Partition(p.subsystem_a, p.subsystem_b))
        assert cmi == pytest.approx(mi, abs=1e-9)


def test_mi_product_state_is_zero():
    state = tensor(make_thermal(2.0), make_thermal(7.0))
    assert mutual_information(state, Partition((0,), (1,))) <= 1e-12


def test_mi_symmetric_under_swap():
    scenario = build_scenario("basic", ScenarioParams(nu=2.0, eta_ab=0.5))
    ab = Partition((2,), (1,))
    ba = Partition((1,), (2,))
    assert mutual_information(scenario.state, ab) == pytest.approx(
        mutual_information(scenario.state, ba), abs=1e-12)


def test_coherent_source_has_no_correlations():
    scenario = build_scenario("basic", ScenarioParams(nu=1.0, eta_ab=0.37))
    p = scenario.information_partition()
    assert conditional_mutual_information(scenario.state, p) <= 1e-9
    assert mutual_information(scenario.state, Partition(p.subsystem_a, p.subsystem_b)) <= 1e-9
    assert gaussian_discord(scenario.state, p.subsystem_a[0], p.subsystem_b[0]).value <= 1e-9


def test_information_invariant_under_xp_relabeling():
    rng = np.random.default_rng(5)
    for _ in range(5):
        state = random_physical(3, rng)
        swap = [1, 0, 3, 2, 5, 4]
        swapped = CovarianceMatrix(state.data[np.ix_(swap, swap)])
        p = Partition((0,), (1,), (2,))
        assert conditional_mutual_information(swapped, p) == pytest.approx(
            conditional_mutual_information(state, p), abs=1e-9)
        assert gaussian_discord(swapped, 0, 1).value == pytest.approx(
            gaussian_discord(state, 0, 1).value, abs=1e-9)


# ---------------------------------------------------------------------------
# Homodyne conditioning


def test_projector_shape():
    for bad in (-0.1, math.pi):
        with pytest.raises(InvalidArgumentError):
            homodyne_condition(make_epr(2.0), 0, bad)


def test_homodyne_epr_conditional_variance():
    # measuring x on one EPR arm leaves the other with x-variance
    # nu - zeta^2/nu = 1/nu
    for nu in (2.0, 5.0, 30.0):
        left = homodyne_condition(make_epr(nu), 0, 0.0)
        assert left.data[0, 0] == pytest.approx(1.0 / nu, rel=1e-12)
        assert left.data[1, 1] == pytest.approx(nu)  # p untouched by an x readout


def test_homodyne_no_correlation_no_update():
    state = tensor(make_thermal(4.0), make_thermal(2.0))
    left = homodyne_condition(state, 1, 0.7)
    assert np.array_equal(left.data, make_thermal(4.0).data)


def test_homodyne_never_increases_variances():
    scenario = build_scenario("basic", ScenarioParams(nu=10.0, eta_ab=0.3))
    for theta in (0.0, 0.4, math.pi / 2, 2.0):
        left = homodyne_condition(scenario.state, 2, theta)
        kept = np.diag(scenario.state.data)[0:4]
        assert np.all(np.diag(left.data) <= kept + 1e-12)
        assert validate_physicality(left).ok


def test_homodyne_errors():
    with pytest.raises(InvalidArgumentError):
        homodyne_condition(make_thermal(2.0), 0, 0.0)
    with pytest.raises(InvalidArgumentError):
        homodyne_condition(make_epr(2.0), 2, 0.0)
    dead = CovarianceMatrix(np.diag([0.0, 1.0, 1.0, 1.0]))
    with pytest.raises(NumericFailureError):
        homodyne_condition(dead, 0, 0.0)


# ---------------------------------------------------------------------------
# Discord


def test_discord_product_state_is_zero():
    state = tensor(make_thermal(2.0), make_thermal(3.0))
    value = gaussian_discord(state, 0, 1).value
    assert 0.0 <= value <= 1e-12


def test_discord_needs_two_modes():
    with pytest.raises(InvalidArgumentError):
        gaussian_discord(make_epr(2.0), 1, 1)


def test_discord_basic_broadcast_closed_form():
    # B given an x readout of A has diag(3/2 - 1/6, 3/2), det = 2, so
    # D = g(3/2) - g(2) + g(sqrt(2)) term by term
    scenario = build_scenario("basic", ScenarioParams(nu=2.0, eta_ab=0.5))
    result = gaussian_discord(scenario.state, 2, 1)
    expected = g_term(1.5) - g_term(2.0) + g_term(math.sqrt(2.0))
    assert result.value == pytest.approx(expected, abs=1e-12)
    assert result.entropy_a == pytest.approx(g_term(1.5), abs=1e-12)
    assert result.entropy_joint == pytest.approx(g_term(2.0), abs=1e-12)
    assert result.conditional_entropy == pytest.approx(g_term(math.sqrt(2.0)), abs=1e-12)


def grid_discord(state: CovarianceMatrix) -> float:
    # brute-force minimum over the whole half-turn of homodyne angles
    thetas = np.linspace(0.0, math.pi, 40001)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)])
    a = state.data[0:2, 0:2]
    b = state.data[2:4, 2:4]
    c = state.data[2:4, 0:2]
    q = np.einsum("it,ij,jt->t", dirs, a, dirs)
    u = c @ dirs
    # det(B - u u^T / q) via the adjugate of B, one value per angle
    dets = (b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]) - (
        b[1, 1] * u[0] ** 2 - 2 * b[0, 1] * u[0] * u[1] + b[0, 0] * u[1] ** 2) / q
    # the entropy is increasing in the spectrum value, so minimize that
    spectra = np.sqrt(np.maximum(dets, 1.0))
    best = g_term(float(spectra.min()))
    grid_value = (von_neumann_entropy(reduce(state, [0]))
                  - von_neumann_entropy(state) + best)
    return max(grid_value, 0.0)


def test_discord_matches_dense_grid_on_generic_states():
    # the closed-form optimum against a brute-force sweep of [0, pi)
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = random_physical(2, rng)
        result = gaussian_discord(state, 0, 1)
        assert result.value == pytest.approx(grid_discord(state), abs=1e-6)
        assert 0.0 <= result.angle < math.pi


def test_discord_optimum_beyond_a_quarter_turn():
    # anisotropic pair with A's frame rotated by 2.4 rad: the best readout
    # of A lies along 2.4, outside [0, pi/2]
    rot = np.array([[math.cos(2.4), -math.sin(2.4)], [math.sin(2.4), math.cos(2.4)]])
    a = rot @ np.diag([4.0, 2.0]) @ rot.T
    cross = rot @ np.diag([2.0, -1.0])
    state = CovarianceMatrix(np.block([[a, cross], [cross.T, np.diag([3.0, 5.0])]]))
    assert validate_physicality(state).ok
    result = gaussian_discord(state, 0, 1)
    assert result.value == pytest.approx(grid_discord(state), abs=1e-6)
    assert 0.0 <= result.angle < math.pi
    assert result.angle == pytest.approx(2.4, abs=1e-9)


def test_discord_rejects_indefinite_measured_block():
    # det A > 0, but -A is no covariance: its entropy fails before any whitening
    state = CovarianceMatrix(np.block([[-2.0 * np.eye(2), np.zeros((2, 2))],
                                       [np.zeros((2, 2)), 2.0 * np.eye(2)]]))
    with pytest.raises(NumericFailureError):
        gaussian_discord(state, 0, 1)


def test_discord_boundary_angles_on_broadcast_states():
    # x/p-symmetric blocks make theta = 0 and pi/2 the candidate optima;
    # the optimizer must land within 1e-6 bits of the better one
    for nu, eta in ((2.0, 0.5), (10.0, 0.2), (1040.0, 0.7)):
        scenario = build_scenario("basic", ScenarioParams(nu=nu, eta_ab=eta))
        result = gaussian_discord(scenario.state, 2, 1)
        candidates = []
        for theta in (0.0, math.pi / 2):
            left = homodyne_condition(reduce(scenario.state, [2, 1]), 0, theta)
            candidates.append(von_neumann_entropy(left))
        best = result.entropy_a - result.entropy_joint + min(candidates)
        assert result.value == pytest.approx(max(best, 0.0), abs=1e-6)


# ---------------------------------------------------------------------------
# Failures of one-state measures name their cause


def _outcomes(measure, matrices, *args):
    # each matrix's value, or the exception its measure raised
    out = []
    for gamma in matrices:
        try:
            out.append(measure(CovarianceMatrix(gamma), *args))
        except ThermalcastError as exc:
            out.append(exc)
    return out


def test_mixed_batch_keeps_each_failure_in_its_row():
    rng = np.random.default_rng(3)
    good = [random_physical(3, rng).data for _ in range(3)]
    not_pd_a = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    not_pd_b = np.diag([1.0, 1.0, -2.0, 1.0, 1.0, 1.0])
    below_shot_noise = 0.5 * np.eye(6)
    # exactly singular: its Gamma_S has no inverse, so no solve may see it
    singular = np.zeros((6, 6))
    matrices = [good[0], not_pd_a, good[1], below_shot_noise, not_pd_b, good[2], singular]

    reports = [validate_physicality(CovarianceMatrix(g)) for g in matrices]
    assert [r.ok for r in reports] == [True, False, True, False, False, True, False]
    assert reports[1].issues == ("not positive definite: min eigenvalue -1",)
    assert reports[3].issues[0].startswith("symplectic eigenvalue below shot noise: 0.5")

    cmi = _outcomes(conditional_mutual_information, matrices, Partition((0,), (1,), (2,)))
    assert [str(e) if isinstance(e, Exception) else None for e in cmi] == [
        None, "Gamma_ABS is not positive definite", None, None,
        "Gamma_ABS is not positive definite", None, "Gamma_ABS is not positive definite"]
    mi = _outcomes(mutual_information, matrices, Partition((0,), (1,)))
    assert [isinstance(e, Exception) for e in mi] == [False, True, False, False, True, False, True]
    discord = _outcomes(gaussian_discord, matrices, 0, 1)
    assert [type(e).__name__ if isinstance(e, Exception) else None for e in discord] == [
        None, "NumericFailureError", None, "UnphysicalStateError", "NumericFailureError", None,
        "NumericFailureError"]
    assert str(discord[3]) == "symplectic eigenvalue 0.5 below shot noise"
    for value in cmi + mi + [d.value for d in discord if isinstance(d, DiscordResult)]:
        assert isinstance(value, Exception) or (math.isfinite(value) and value >= 0.0)


# ---------------------------------------------------------------------------
# Bright sources against 60-digit references

BRIGHT_PARAMS = {
    "basic": dict(eta_ab=0.3),
    "thermal_channel": dict(eta_ab=0.4, eta_th=0.7, v_th=5.0),
    "full": dict(eta_ab=0.6, eta_th=0.8, v_th=3.0, eta_th_a=0.9, eta_th_b=0.7,
                 v_alpha=2.0, v_beta=4.0),
}

# (discord D(B|A), MI, CMI) in bits of the whole network at the exact float parameters, in 80-digit
# arithmetic (mpmath); print_bright_references() in tests/make_bright_references.py prints them
BRIGHT_REFERENCES = {
    ("basic", 1040.0): (4.3294842797088415, 7.7746566309320687, 7.7746566309320687),
    ("basic", 1e4): (5.9609249556333053, 11.036572030591683, 11.036572030591683),
    ("basic", 1e6): (9.2827113732965442, 17.680033786910453, 17.680033786910453),
    ("thermal_channel", 1040.0): (4.1702759554767151, 7.4561517375827723, 0.056708060576440012),
    ("thermal_channel", 1e4): (5.800144044525755, 10.71500104663787, 0.056596476054796224),
    ("thermal_channel", 1e6): (9.12174915784026, 17.358109264398023, 0.056583657839041908),
    ("full", 1040.0): (3.5252768107164961, 6.7876265409537478, 0.02114170617458374),
    ("full", 1e4): (5.1539475821873374, 10.04467285467803, 0.021224426667145263),
    ("full", 1e6): (8.4754145435250218, 16.687573133165469, 0.021233944982116596),
}


def information_contract(state: CovarianceMatrix, p: Partition) -> float:
    # the README's accuracy contract for one-state CMI and MI, restated: eps/2 (D dim kappa / ln 2 + sum |log2 det|)
    # over the four blocks, D the sum of their dimensions, kappa = 1 for a carried factor, else kappa(Gamma_ABS)
    a, b, s = p.subsystem_a, p.subsystem_b, p.subsystem_s
    logdets = [np.linalg.slogdet(reduce(state, group).data)[1] / math.log(2.0) if group else 0.0
               for group in (a + s, b + s, s, a + b + s)]
    dims = [2 * len(group) for group in (a + s, b + s, s, a + b + s)]
    kappa = 1.0 if state.factor is not None else np.linalg.cond(reduce(state, a + b + s).data)
    return np.finfo(float).eps / 2.0 * (sum(dims) * dims[3] * kappa / math.log(2.0) + sum(map(abs, logdets)))


@pytest.mark.parametrize("name, nu", list(BRIGHT_REFERENCES))
def test_bright_sources_match_sixty_digit_references(name, nu):
    discord, mi, cmi = BRIGHT_REFERENCES[(name, nu)]
    scenario = build_scenario(name, ScenarioParams(nu=nu, **BRIGHT_PARAMS[name]))
    p = scenario.information_partition()
    got = gaussian_discord(scenario.state, p.subsystem_a[0], p.subsystem_b[0]).value
    assert got == pytest.approx(discord, abs=2e-9)
    # CMI and MI at the README's contract for a carried factor, under 1e-12 bits here
    for measure, part, expected in ((mutual_information, Partition(p.subsystem_a, p.subsystem_b), mi),
                                    (conditional_mutual_information, p, cmi)):
        got = measure(scenario.state, part)
        assert abs(got - expected) <= information_contract(scenario.state, part) < 1e-12, (part, got, expected)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_one_state_information_of_every_build_meets_its_contract(name):
    # 200 seeded builds, fields in SCENARIO_PARAMS order, variances log-uniform in [1, 1e6], transmittances uniform:
    # none is refused, and one-state CMI and MI on the carried factor stay within the README's contract of
    # pair_measures, which is itself within 1e-12 |value| + 1e-14 of 50-digit references
    rng, n = np.random.default_rng(180), 200
    params = [ScenarioParams(**{field: 10.0 ** rng.uniform(0.0, 6.0) if field in VARIANCE_PARAMS else rng.uniform()
                                for field in SCENARIO_PARAMS[name]}) for _ in range(n)]
    columns = types.SimpleNamespace(**{field: np.array([getattr(q, field) for q in params]) for field in PARAM_NAMES})
    closed = pair_measures(*pair_entries(columns), {"cmi": [None] * n, "mi": [None] * n})
    for i, q in enumerate(params):
        scenario = build_scenario(name, q)
        p = scenario.information_partition()
        for out, measure, part in (("cmi", conditional_mutual_information, p),
                                   ("mi", mutual_information, Partition(p.subsystem_a, p.subsystem_b))):
            gap = abs(measure(scenario.state, part) - closed[out][i])
            assert gap <= information_contract(scenario.state, part) + 1e-12 * closed[out][i] + 1e-14, (q, out, gap)
