"""Entropy, mutual information and discord against closed-form oracles."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from thermalcast import (CovarianceMatrix, InvalidArgumentError,
                         NumericFailureError, Partition, UnphysicalStateError,
                         build_scenario, conditional_mutual_information,
                         gaussian_discord, homodyne_condition,
                         make_epr, make_thermal, make_vacuum,
                         mutual_information, reduce, shannon_entropy,
                         ScenarioParams, tensor, von_neumann_entropy,
                         validate_physicality)
from thermalcast.gaussian import physicality_stack
from thermalcast.info import cmi_stack, discord_stack, mi_stack
from thermalcast.scenarios import build_stack, information_partition


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


def test_indefinite_row_fails_alone():
    stack = np.array([np.eye(6), -np.eye(6), 2.0 * np.eye(6)])
    errors = [None] * 3
    values = cmi_stack(stack, Partition((0,), (1,), (2,)), errors)
    assert [str(e) if e else None for e in errors] == [None, "Gamma_ABS is not positive definite", None]
    assert values[0] == values[2] == 0.0 and math.isnan(values[1])


def test_each_stage_factors_its_largest_block_once(monkeypatch):
    # a clean 50-row full stack: each stage checks one block, first, and the
    # kernels underneath compute on it without a second factorization
    params = {k: np.full(50, v) for k, v in vars(ScenarioParams(nu=3.0, eta_th=0.8, v_th=2.0)).items()}
    params["eta_ab"] = np.linspace(0.05, 0.95, 50)
    stack, labels = build_stack("full", SimpleNamespace(**params))
    p = information_partition(labels)
    calls = []
    real = np.linalg.cholesky

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    counts = {}
    for name, stage, args in (("discord", discord_stack, (p.subsystem_a[0], p.subsystem_b[0])),
                              ("mi", mi_stack, (Partition(p.subsystem_a, p.subsystem_b),)),
                              ("cmi", cmi_stack, (p,))):
        errors = [None] * 50
        calls.clear()
        stage(stack, *args, errors)
        assert errors == [None] * 50
        counts[name] = len(calls)
    # the pair, the whitening of its A block, the conditioned state
    assert counts["discord"] <= 3
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


def test_von_neumann_additive_over_products():
    a, b = make_thermal(2.0), make_thermal(5.0)
    assert von_neumann_entropy(tensor(a, b)) == pytest.approx(
        von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-9)


@pytest.mark.parametrize("nu, bound", [(1e4, 1e-6), (1e5, 1e-5), (1e6, 2e-3)])
def test_bright_pure_states_are_physical_and_nearly_pure(nu, bound):
    # the physicality test accepts these; the spectrum reads within ~eps nu^2
    # of 1, which a fixed 1e-9 shot-noise slack used to refuse
    states = [make_epr(nu)] + [build_scenario(name, ScenarioParams(nu=nu)).state
                               for name in ("basic", "thermal_channel", "full")]
    for state in states:
        assert validate_physicality(state).ok
        assert 0.0 <= von_neumann_entropy(state) < bound


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


def test_cmi_requires_conditioning_set():
    state = tensor(make_epr(2.0), make_thermal(2.0))
    with pytest.raises(InvalidArgumentError):
        conditional_mutual_information(state, Partition((0,), (1,)))
    with pytest.raises(InvalidArgumentError):
        mutual_information(state, Partition((0,), (1,), (2,)))


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
    # two-mode groups listed out of order: the Schur-complement route slices
    # blocks wider than one mode, and a slicing slip would trip its cross-check
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
# Stacked evaluation: failures stay in their own row


def _singles(stage, single, stack, *args):
    # the stacked stage and its N = 1 call, row by row
    errors = [None] * len(stack)
    values = stage(stack, *args, errors)
    values = getattr(values, "value", values)
    for gamma, value, err in zip(stack, values, errors):
        state = CovarianceMatrix(gamma)
        if err is None:
            alone = single(state, *args)
            assert value == getattr(alone, "value", alone)
        else:
            assert math.isnan(value)
            with pytest.raises(type(err)) as caught:
                single(state, *args)
            assert str(caught.value) == str(err)
    return errors


def test_mixed_batch_keeps_each_failure_in_its_row():
    rng = np.random.default_rng(3)
    good = [random_physical(3, rng).data for _ in range(3)]
    not_pd_a = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    not_pd_b = np.diag([1.0, 1.0, -2.0, 1.0, 1.0, 1.0])
    below_shot_noise = 0.5 * np.eye(6)
    # exactly singular: its Gamma_S has no inverse, so no stacked solve may see it
    singular = np.zeros((6, 6))
    stack = np.array([good[0], not_pd_a, good[1], below_shot_noise, not_pd_b, good[2], singular])

    reports = physicality_stack(stack)
    assert [r.ok for r in reports] == [True, False, True, False, False, True, False]
    assert reports[1].issues == ("not positive definite: min eigenvalue -1",)
    assert reports[3].issues[0].startswith("symplectic eigenvalue below shot noise: 0.5")
    assert [r == validate_physicality(CovarianceMatrix(g)) for r, g in zip(reports, stack)] == [True] * 7

    cmi = _singles(cmi_stack, conditional_mutual_information, stack, Partition((0,), (1,), (2,)))
    assert [str(e) if e else None for e in cmi] == [
        None, "Gamma_ABS is not positive definite", None, None,
        "Gamma_ABS is not positive definite", None, "Gamma_ABS is not positive definite"]
    mi = _singles(mi_stack, mutual_information, stack, Partition((0,), (1,)))
    assert [e is None for e in mi] == [True, False, True, True, False, True, False]
    discord = _singles(discord_stack, gaussian_discord, stack, 0, 1)
    assert [type(e).__name__ if e else None for e in discord] == [
        None, "NumericFailureError", None, "UnphysicalStateError", "NumericFailureError", None,
        "NumericFailureError"]
    assert str(discord[3]) == "symplectic eigenvalue 0.5 below shot noise"


# ---------------------------------------------------------------------------
# Bright sources against 60-digit references

BRIGHT_PARAMS = {
    "basic": dict(eta_ab=0.3),
    "thermal_channel": dict(eta_ab=0.4, eta_th=0.7, v_th=5.0),
    "full": dict(eta_ab=0.6, eta_th=0.8, v_th=3.0, eta_th_a=0.9, eta_th_b=0.7,
                 v_alpha=2.0, v_beta=4.0),
}

# (discord D(B|A), MI, CMI) in bits, from the closed-form blocks evaluated
# with 60-digit arithmetic (mpmath) at the exact float parameters
BRIGHT_REFERENCES = {
    ("basic", 1040.0): (4.3294842797088415, 7.7746566309320687, 7.7746566309320687),
    ("basic", 1e4): (5.9609249556333053, 11.036572030591683, None),
    ("basic", 1e6): (9.2827113732965442, 17.680033786910453, None),
    ("thermal_channel", 1040.0): (4.1702759554767151, 7.4561517375827723, 0.056708060576440012),
    ("thermal_channel", 1e4): (5.800144044525755, 10.71500104663787, None),
    ("thermal_channel", 1e6): (9.12174915784026, 17.358109264398023, None),
    ("full", 1040.0): (3.5252768107164961, 6.7876265409537478, 0.02114170617458374),
    ("full", 1e4): (5.1539475821873374, 10.04467285467803, None),
    ("full", 1e6): (8.4754145435250218, 16.687573133165469, None),
}


@pytest.mark.parametrize("name, nu", list(BRIGHT_REFERENCES))
def test_bright_sources_match_sixty_digit_references(name, nu):
    discord, mi, cmi = BRIGHT_REFERENCES[(name, nu)]
    scenario = build_scenario(name, ScenarioParams(nu=nu, **BRIGHT_PARAMS[name]))
    p = scenario.information_partition()
    got = gaussian_discord(scenario.state, p.subsystem_a[0], p.subsystem_b[0]).value
    assert got == pytest.approx(discord, abs=2e-9)
    got = mutual_information(scenario.state, Partition(p.subsystem_a, p.subsystem_b))
    assert got == pytest.approx(mi, abs=2e-9)
    if cmi is not None:
        assert conditional_mutual_information(scenario.state, p) == pytest.approx(cmi, abs=1e-9)
