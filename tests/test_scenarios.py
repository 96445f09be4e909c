"""Broadcast scenario builders: closed forms, limits, monotonic trends."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from thermalcast import (InvalidArgumentError, ScenarioParams,
                         UnphysicalStateError,
                         basic_closed_form, block_of, build_scenario,
                         conditional_mutual_information,
                         full_closed_form_blocks, gaussian_discord, reduce,
                         thermal_channel_closed_form, validate_physicality)
from thermalcast.scenarios import TRANSMITTANCE_PARAMS, VARIANCE_PARAMS

VARIANCES = (1.0, 2.0, 10.0, 500.0)
SPLITS = (0.0, 0.25, 0.5, 1.0)


def basic_info(nu, eta_ab, scenario_name="basic", **extra):
    scenario = build_scenario(scenario_name, ScenarioParams(nu=nu, eta_ab=eta_ab, **extra))
    p = scenario.information_partition()
    cmi = conditional_mutual_information(scenario.state, p)
    disc = gaussian_discord(scenario.state, p.subsystem_a[0], p.subsystem_b[0]).value
    return cmi, disc


def test_params_validation():
    with pytest.raises(UnphysicalStateError):
        ScenarioParams(nu=0.5)
    with pytest.raises(UnphysicalStateError):
        ScenarioParams(v_th=0.0)
    with pytest.raises(InvalidArgumentError):
        ScenarioParams(eta_ab=1.5)
    with pytest.raises(InvalidArgumentError):
        ScenarioParams(eta_th_b=-0.1)
    for name in ("nu", "eta_ab", "v_beta"):
        for bad in (float("nan"), float("inf"), -float("inf"), "x", "2", None, [2.0], 1j, True):
            with pytest.raises(InvalidArgumentError, match="finite"):
                ScenarioParams(**{name: bad})
    ceiling = ScenarioParams.MAX_VARIANCE
    for name in VARIANCE_PARAMS:
        assert getattr(ScenarioParams(**{name: ceiling}), name) == ceiling
        above = float(np.nextafter(ceiling, np.inf))
        with pytest.raises(InvalidArgumentError, match=rf"^{name} .* got {above!r}$"):
            ScenarioParams(**{name: above})
    # any real number meets the rules: an exact fraction is stored as a float,
    # and an int too large for a float is refused by the rule it breaks
    nu = ScenarioParams(nu=Fraction(3, 2)).nu
    assert nu == 1.5 and type(nu) is float
    with pytest.raises(InvalidArgumentError, match=r"^nu is a variance and must be <= 1e\+06 SNU"):
        ScenarioParams(nu=10**400)
    with pytest.raises(InvalidArgumentError, match=r"^eta_ab is a transmittance and must lie in \[0, 1\]"):
        ScenarioParams(eta_ab=10**400)


def test_overflowing_params_are_reported_unphysical():
    # finite, but far past the variance ceiling: rejected by name, never built
    with pytest.raises(InvalidArgumentError, match="^nu is a variance .* got 1e[+]200$"):
        ScenarioParams(nu=1e200)


def test_mode_labels_and_lookup():
    assert build_scenario("basic", ScenarioParams()).mode_labels == ("E", "B", "A")
    assert build_scenario("thermal_channel", ScenarioParams()).mode_labels == ("E", "V", "B", "A")
    full = build_scenario("full", ScenarioParams())
    assert full.mode_labels == ("E", "V", "B", "A", "V_a", "V_b")
    assert full.mode_index("V_b") == 5
    with pytest.raises(InvalidArgumentError):
        full.mode_index("Q")
    with pytest.raises(InvalidArgumentError):
        build_scenario("ring", ScenarioParams())


def test_partition_targets_receivers():
    scenario = build_scenario("thermal_channel", ScenarioParams())
    p = scenario.information_partition()
    assert p.subsystem_a == (scenario.mode_index("A"),)
    assert p.subsystem_b == (scenario.mode_index("B"),)
    assert p.subsystem_s == (scenario.mode_index("E"),)


def test_coherent_source_leaves_vacuum_receivers():
    # splitting the eta_ab factors leaves ulp dust on the diagonal, so
    # compare to within one float step rather than bitwise
    scenario = build_scenario("basic", ScenarioParams(nu=1.0, eta_ab=0.3))
    for label in ("B", "A"):
        assert block_of(scenario, label, label) == pytest.approx(np.eye(2), abs=1e-15)
    for row, col in (("E", "B"), ("E", "A"), ("B", "A")):
        assert block_of(scenario, row, col) == pytest.approx(np.zeros((2, 2)), abs=1e-15)


def test_basic_pinned_blocks():
    scenario = build_scenario("basic", ScenarioParams(nu=2.0, eta_ab=0.5))
    assert block_of(scenario, "B", "B") == pytest.approx(np.diag([1.5, 1.5]), abs=1e-15)
    assert block_of(scenario, "B", "A") == pytest.approx(np.diag([-0.5, -0.5]), abs=1e-15)
    assert block_of(scenario, "E", "E") == pytest.approx(np.diag([2.0, 2.0]), abs=1e-15)


def test_thermal_channel_pinned_idler_block():
    scenario = build_scenario("thermal_channel", ScenarioParams(nu=2.0, eta_th=0.5, v_th=3.0))
    assert block_of(scenario, "V", "V") == pytest.approx(np.diag([2.5, 2.5]), abs=1e-15)


def test_closed_forms_match_construction():
    # the acceptance suite grinds the dense grid; spot the corners here
    for nu, eta_ab in itertools.product(VARIANCES, SPLITS):
        params = ScenarioParams(nu=nu, eta_ab=eta_ab)
        gap = np.abs(basic_closed_form(params).data - build_scenario("basic", params).state.data)
        assert gap.max() <= 1e-12
    for eta_th, v_th in itertools.product(SPLITS, VARIANCES):
        params = ScenarioParams(nu=2.0, eta_ab=0.3, eta_th=eta_th, v_th=v_th)
        gap = np.abs(thermal_channel_closed_form(params).data
                     - build_scenario("thermal_channel", params).state.data)
        assert gap.max() <= 1e-12


def test_full_block_formulas_match_construction():
    pairs = {"e": ("E", "E"), "a": ("A", "A"), "b": ("B", "B"),
             "eb": ("E", "B"), "ea": ("E", "A"), "ab": ("A", "B")}
    for nu, eta, v in itertools.product((1.0, 2.0, 500.0), (0.0, 0.5, 1.0), (1.0, 10.0)):
        params = ScenarioParams(nu=nu, eta_ab=eta, eta_th=0.7, v_th=2.0,
                                eta_th_a=0.4, eta_th_b=0.6, v_alpha=v, v_beta=v)
        scenario = build_scenario("full", params)
        for key, (row, col) in pairs.items():
            gap = np.abs(full_closed_form_blocks(params)[key]
                         - block_of(scenario, row, col))
            assert gap.max() <= 1e-12, (key, nu, eta, v)


def test_transparent_channel_collapses_to_basic():
    # eta_th = 1 routes nothing into the ancilla: dropping the idler mode
    # must reproduce the channel-free build down to the last bit
    for nu, eta_ab, v_th in itertools.product((1.0, 2.0, 1040.0), (0.25, 0.5), (1.0, 500.0)):
        via_channel = build_scenario("thermal_channel", ScenarioParams(
            nu=nu, eta_ab=eta_ab, eta_th=1.0, v_th=v_th))
        direct = build_scenario("basic", ScenarioParams(nu=nu, eta_ab=eta_ab))
        kept = [via_channel.mode_index(m) for m in ("E", "B", "A")]
        assert np.array_equal(reduce(via_channel.state, kept).data, direct.state.data)


def test_opaque_channel_decouples_source():
    # eta_th = 0 swaps the signal into the ancilla: E keeps no correlations
    scenario = build_scenario("thermal_channel", ScenarioParams(nu=3.0, eta_th=0.0, v_th=2.0))
    assert np.array_equal(block_of(scenario, "E", "B"), np.zeros((2, 2)))
    assert np.array_equal(block_of(scenario, "E", "A"), np.zeros((2, 2)))


def test_transparent_local_channels_collapse_to_thermal_channel():
    params = ScenarioParams(nu=2.0, eta_ab=0.4, eta_th=0.6, v_th=5.0,
                            eta_th_a=1.0, eta_th_b=1.0, v_alpha=7.0, v_beta=3.0)
    full = build_scenario("full", params)
    slim = build_scenario("thermal_channel", params)
    assert np.array_equal(full.state.data[:8, :8], slim.state.data)


def test_every_build_is_physical():
    for nu, eta in itertools.product(VARIANCES, SPLITS):
        params = ScenarioParams(nu=nu, eta_ab=eta, eta_th=0.3, v_th=10.0,
                                eta_th_a=0.9, eta_th_b=0.1, v_alpha=2.0, v_beta=500.0)
        for name in ("basic", "thermal_channel", "full"):
            report = validate_physicality(build_scenario(name, params).state)
            assert report.ok, (name, nu, eta, report.issues)
    # bright states up to the ceiling: the old symplectic check rejected
    # pure basic states from nu ~ 2000 on
    rng = np.random.default_rng(6)
    top = np.log10(ScenarioParams.MAX_VARIANCE)
    for _ in range(150):
        params = ScenarioParams(**{name: 10 ** rng.uniform(0, top) for name in VARIANCE_PARAMS},
                                **{name: rng.uniform() for name in TRANSMITTANCE_PARAMS})
        for name in ("basic", "thermal_channel", "full"):
            report = validate_physicality(build_scenario(name, params).state)
            assert report.ok, (name, params, report.issues)


def test_balanced_split_symmetry():
    # swapping eta_ab for 1 - eta_ab relabels the receivers, so the
    # symmetric CMI cannot move
    for eta in (0.1, 0.3, 0.45):
        lo = basic_info(2.0, eta)[0]
        hi = basic_info(2.0, 1.0 - eta)[0]
        assert lo == pytest.approx(hi, abs=1e-12)


def test_brighter_source_strictly_raises_information():
    values = [basic_info(nu, 0.5) for nu in (1.0, 2.0, 10.0, 100.0, 1040.0)]
    cmis = [v[0] for v in values]
    discords = [v[1] for v in values]
    assert all(b > a for a, b in zip(cmis, cmis[1:]))
    assert all(b > a for a, b in zip(discords, discords[1:]))


def test_quieter_channel_raises_information():
    # with a vacuum ancilla, opening the channel can only help
    etas = np.linspace(0.1, 1.0, 10)
    values = [basic_info(2.0, 0.5, "thermal_channel", eta_th=e, v_th=1.0) for e in etas]
    cmis = [v[0] for v in values]
    discords = [v[1] for v in values]
    assert all(b > a for a, b in zip(cmis, cmis[1:]))
    assert all(b > a for a, b in zip(discords, discords[1:]))


def test_hotter_channel_never_lowers_discord():
    # CMI is not monotone in the ancilla temperature (it dips before the
    # injected noise starts carrying the source signature), discord is
    v_grid = (1.0, 2.0, 10.0, 100.0, 500.0)
    for eta_th in (0.25, 0.5, 0.75):
        values = [basic_info(2.0, 0.5, "thermal_channel", eta_th=eta_th, v_th=v)
                  for v in v_grid]
        discords = [v[1] for v in values]
        assert all(b >= a - 1e-12 for a, b in zip(discords, discords[1:]))
        assert values[-1][0] > values[0][0]
