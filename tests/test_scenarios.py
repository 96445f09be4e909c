"""Broadcast scenario builders: closed forms, limits, monotonic trends."""
import functools
import itertools
import types
from fractions import Fraction

import numpy as np
import pytest

from thermalcast import (InvalidArgumentError, ScenarioParams, ScenarioState,
                         UnphysicalStateError, make_vacuum,
                         basic_closed_form, block_of, build_scenario,
                         conditional_mutual_information,
                         full_closed_form_blocks, gaussian_discord, reduce,
                         thermal_channel_closed_form, validate_physicality)
from thermalcast import scenarios
from thermalcast.scenarios import (PARAM_NAMES, SCENARIO_NAMES, SCENARIO_PARAMS, TRANSMITTANCE_PARAMS,
                                   VARIANCE_PARAMS, pair_entries)

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


@pytest.mark.filterwarnings("error")
def test_builds_and_closed_forms_take_only_scenario_params():
    # a dict raised AttributeError, and a look-alike object skipped the domain rules: nu = 0.5 warned
    # from sqrt and built nan
    look_alike = types.SimpleNamespace(**{**vars(ScenarioParams()), "nu": 0.5})
    for params, kind in (({"nu": 2.0}, "dict"), (look_alike, "SimpleNamespace"), (None, "NoneType")):
        for build in [functools.partial(build_scenario, name) for name in ("basic", "thermal_channel", "full")] + [
                basic_closed_form, thermal_channel_closed_form, full_closed_form_blocks]:
            with pytest.raises(InvalidArgumentError, match=f"^params must be a ScenarioParams, got {kind}$"):
                build(params)


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
    # a bare array used to end in an AttributeError on n_modes
    with pytest.raises(InvalidArgumentError, match="^state must be a CovarianceMatrix, got ndarray$"):
        ScenarioState(np.eye(2), ("A",))
    # None used to raise a bare TypeError, and a str passed as one label per character
    for labels, kind in ((None, "NoneType"), ("A", "str"), (["A"], "list"), ((1,), "int")):
        with pytest.raises(InvalidArgumentError, match=f"^mode_labels must be a tuple of str, got {kind}$"):
            ScenarioState(make_vacuum(1), labels)


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
    # every block of the hand closed form, idler rows included, against the build
    for nu, eta, v in itertools.product((1.0, 2.0, 500.0), (0.0, 0.5, 1.0), (1.0, 10.0)):
        params = ScenarioParams(nu=nu, eta_ab=eta, eta_th=0.7, v_th=2.0,
                                eta_th_a=0.4, eta_th_b=0.6, v_alpha=v, v_beta=v)
        built = build_scenario("full", params).state.data
        gap = np.abs(scenarios._closed_form(params).data - built)
        assert gap.max() <= 1e-12 * np.abs(built).max(), (nu, eta, v, gap.max())


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_unread_parameters_are_ignored_bit_for_bit(name):
    # a topology is its slots of the one network with every field it does not read at the transparent default,
    # so moving those fields, to mid-range or to the edge of the domain, changes no bit of the build or closed form
    closed_form = {"basic": lambda p: basic_closed_form(p).data,
                   "thermal_channel": lambda p: thermal_channel_closed_form(p).data,
                   "full": lambda p: np.array(list(full_closed_form_blocks(p).values()))}[name]
    fields = {"nu": 3.0, "eta_ab": 0.3, "eta_th": 0.7, "v_th": 2.0, "eta_th_a": 0.4, "v_alpha": 5.0,
              "eta_th_b": 0.6, "v_beta": 7.0}
    read = {field: fields[field] for field in SCENARIO_PARAMS[name]}
    edge = {field: 0.0 if field in TRANSMITTANCE_PARAMS else 1e6 for field in PARAM_NAMES if field not in read}
    own = ScenarioParams(**read)
    for foreign in (ScenarioParams(**fields), ScenarioParams(**read, **edge)):
        for route in (lambda p: build_scenario(name, p).state.data, closed_form):
            assert np.array_equal(route(foreign), route(own)), (name, foreign)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_pair_entries_match_each_build_entry_by_entry(name):
    # one formula serves all three topologies: each draws only its own parameters over the whole domain, variances
    # log-uniform in [1, 1e6] and transmittances in [0, 1], a quarter of them at an edge; the rest stay transparent.
    # Row 0 is the receivers' A/B block of the build, row 1 its Schur complement of E; each entry is held to 1e-12
    # of the build's largest entry, and d = ab - c^2, a product of two entries, to 1e-12 of its square
    rng, n, top = np.random.default_rng(27), 200, ScenarioParams.MAX_VARIANCE
    params = {param: np.full(n, getattr(ScenarioParams, param)) for param in PARAM_NAMES}
    for param in SCENARIO_PARAMS[name]:
        if param in VARIANCE_PARAMS:
            lo, hi, values = 1.0, top, 10.0 ** rng.uniform(0.0, np.log10(top), n)
        else:
            lo, hi, values = 0.0, 1.0, rng.uniform(0.0, 1.0, n)
        edges = rng.choice(n, n // 4, replace=False)
        values[edges] = rng.choice([lo, hi], n // 4)
        params[param] = values
    entries = np.array(pair_entries(types.SimpleNamespace(**params)))  # (a, b, c, d) by (row, point)
    assert entries.shape == (4, 2, n)
    for i in range(n):
        built = build_scenario(name, ScenarioParams(**{param: float(params[param][i]) for param in PARAM_NAMES}))
        gamma, scale = built.state.data, np.abs(built.state.data).max()
        ab, e = ([k for label in labels for k in (2 * built.mode_index(label), 2 * built.mode_index(label) + 1)]
                 for labels in ("AB", "E"))
        given_e = gamma[np.ix_(ab, e)] @ np.linalg.solve(gamma[np.ix_(e, e)], gamma[np.ix_(e, ab)])
        for row, block in enumerate((gamma[np.ix_(ab, ab)], gamma[np.ix_(ab, ab)] - given_e)):
            a, b, c, d = entries[:, row, i]
            gap = np.abs(block - np.kron([[a, c], [c, b]], np.eye(2)))
            assert gap.max() <= 1e-12 * scale, (name, row, i, gap.max(), scale)
            ref = block[0, 0] * block[2, 2] - block[0, 2] ** 2
            assert abs(d - ref) <= 1e-12 * scale ** 2, (name, row, i, d, ref, scale)


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
