"""End-to-end acceptance gates, one printed verdict line per criterion.

Each test computes its own oracle, prints exactly one line of the form
``criterion N: PASS|FAIL - detail`` to the real stdout (bypassing capture)
and then asserts. The printed line is the human-readable audit trail; the
assertion is the machine gate.
"""
import itertools
import math
import sys
import time

import numpy as np

from thermalcast import (Partition, ScenarioParams, build_scenario,
                         basic_closed_form, conditional_mutual_information,
                         full_closed_form_blocks, g2_analytic,
                         g2_cross_estimate, gaussian_discord, make_epr,
                         make_thermal, mutual_information, reduce,
                         sample_quadratures, shannon_entropy, block_of,
                         symplectic_eigenvalues, tensor,
                         thermal_channel_closed_form, VERDICT_THERMAL)

ETA_GRID = np.linspace(0.01, 0.99, 99)
SPLIT_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
VAR_GRID = (1.0, 2.0, 10.0, 100.0, 500.0)


def _verdict_line(number: int, ok: bool, detail: str):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {state} - {detail}", file=sys.__stdout__)


def _g(x: float) -> float:
    if x <= 1.0:
        return 0.0
    return (x + 1) / 2 * math.log2((x + 1) / 2) - (x - 1) / 2 * math.log2((x - 1) / 2)


def _measures(scenario) -> tuple[float, float]:
    p = scenario.information_partition()
    cmi = conditional_mutual_information(scenario.state, p)
    disc = gaussian_discord(scenario.state, p.subsystem_a[0], p.subsystem_b[0]).value
    return cmi, disc


def test_criterion_1_coherent_source_nullity():
    started = time.perf_counter()
    worst = 0.0
    for eta in ETA_GRID:
        scenario = build_scenario("basic", ScenarioParams(nu=1.0, eta_ab=float(eta)))
        p = scenario.information_partition()
        cmi = conditional_mutual_information(scenario.state, p)
        mi = mutual_information(scenario.state, Partition(p.subsystem_a, p.subsystem_b))
        disc = gaussian_discord(scenario.state, p.subsystem_a[0], p.subsystem_b[0]).value
        worst = max(worst, cmi, mi, disc)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict_line(1, ok, f"max of cmi/mi/discord over 99 splits = {worst:.3e} "
                         f"(limit 1e-9), {elapsed:.2f}s (limit 1s)")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_closed_form_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for nu, eta_ab in itertools.product(VAR_GRID, SPLIT_GRID):
        params = ScenarioParams(nu=nu, eta_ab=eta_ab)
        gap = np.abs(build_scenario("basic", params).state.data - basic_closed_form(params).data)
        worst = max(worst, float(gap.max()))
    for nu, eta_ab, eta_th, v_th in itertools.product(
            VAR_GRID, SPLIT_GRID, SPLIT_GRID, VAR_GRID):
        params = ScenarioParams(nu=nu, eta_ab=eta_ab, eta_th=eta_th, v_th=v_th)
        gap = np.abs(build_scenario("thermal_channel", params).state.data
                     - thermal_channel_closed_form(params).data)
        worst = max(worst, float(gap.max()))
    pairs = {"e": ("E", "E"), "a": ("A", "A"), "b": ("B", "B"),
             "eb": ("E", "B"), "ea": ("E", "A"), "ab": ("A", "B")}
    for nu, eta_ab, eta_local, v_local in itertools.product(
            VAR_GRID, SPLIT_GRID, SPLIT_GRID, VAR_GRID):
        params = ScenarioParams(nu=nu, eta_ab=eta_ab, eta_th=0.5, v_th=2.0,
                                eta_th_a=eta_local, eta_th_b=eta_local,
                                v_alpha=v_local, v_beta=v_local)
        scenario = build_scenario("full", params)
        blocks = full_closed_form_blocks(params)
        for key, (row, col) in pairs.items():
            gap = np.abs(blocks[key] - block_of(scenario, row, col))
            worst = max(worst, float(gap.max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict_line(2, ok, f"max entrywise gap over 1275 builds = {worst:.3e} "
                         f"(limit 1e-12), {elapsed:.2f}s (limit 5s)")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_3_thermal_channel_convergence():
    values = []
    for v_th in VAR_GRID:
        scenario = build_scenario("thermal_channel", ScenarioParams(
            nu=2.0, eta_ab=0.5, eta_th=1.0, v_th=v_th))
        values.append(_measures(scenario))
    cmis = [v[0] for v in values]
    discords = [v[1] for v in values]
    spread = max(max(cmis) - min(cmis), max(discords) - min(discords))
    ok = spread <= 1e-9
    _verdict_line(3, ok, f"spread across V_th branches at full transmittance = "
                         f"{spread:.3e} (limit 1e-9)")
    assert spread <= 1e-9


def test_criterion_4_loss_limit():
    scenario = build_scenario("thermal_channel", ScenarioParams(
        nu=2.0, eta_ab=0.5, eta_th=0.01, v_th=1.0))
    cmi, disc = _measures(scenario)
    ok = cmi < 1e-3 and disc < 1e-3
    _verdict_line(4, ok, f"cmi = {cmi:.3e} ({'<' if cmi < 1e-3 else '>='} 1e-3), "
                         f"discord = {disc:.3e} ({'<' if disc < 1e-3 else '>='} 1e-3)")
    assert cmi < 1e-3
    # Known honest failure: a nearly closed channel still leaves the
    # receivers a correlated thermal pair at 1.005 SNU, and the quadratic
    # small-signal response of CMI does not apply to discord, whose
    # conditional term is linear in the leftover coupling. At this
    # transmittance the discord is ~4.9e-3 and the 1e-3 bound cannot be
    # met by any faithful evaluation; see the project decision ledger.
    assert disc < 1e-3


def test_criterion_5_preparation_noise_monotonicity():
    values = [_measures(build_scenario("basic", ScenarioParams(nu=nu, eta_ab=0.5)))
              for nu in (1.0, 2.0, 10.0, 100.0, 1040.0)]
    cmis = [v[0] for v in values]
    discords = [v[1] for v in values]
    increasing = (all(b > a for a, b in zip(cmis, cmis[1:]))
                  and all(b > a for a, b in zip(discords, discords[1:])))
    finite = math.isfinite(cmis[-1]) and math.isfinite(discords[-1])
    ok = increasing and finite
    _verdict_line(5, ok, f"cmi rises {cmis[0]:.3g} -> {cmis[-1]:.6g}, discord rises "
                         f"{discords[0]:.3g} -> {discords[-1]:.6g}, strictly monotone: "
                         f"{increasing}")
    assert increasing
    assert finite


def test_criterion_6_legal_channel_noise_penalty():
    def full_measures(nu, eta_ab, v_local):
        return _measures(build_scenario("full", ScenarioParams(
            nu=nu, eta_ab=float(eta_ab), eta_th_a=0.3, eta_th_b=0.3,
            v_alpha=v_local, v_beta=v_local)))

    penalty_holds = True
    margin = math.inf
    for eta in ETA_GRID:
        quiet = full_measures(2.0, eta, 1.0)
        noisy = full_measures(2.0, eta, 10.0)
        penalty_holds &= noisy[0] < quiet[0] and noisy[1] < quiet[1]
        margin = min(margin, quiet[0] - noisy[0], quiet[1] - noisy[1])
    coherent_worst = 0.0
    for eta in ETA_GRID[::7]:
        coherent_worst = max(coherent_worst, *full_measures(1.0, eta, 10.0))
    ok = penalty_holds and coherent_worst <= 1e-9
    _verdict_line(6, ok, f"hot local channels strictly lower both measures at all "
                         f"99 splits (min margin {margin:.3e}); coherent source with "
                         f"noise stays at {coherent_worst:.3e} (limit 1e-9)")
    assert penalty_holds
    assert coherent_worst <= 1e-9


def test_criterion_7_discord_oracle():
    rng = np.random.default_rng(2026)
    thetas = np.linspace(0.0, math.pi / 2, 10_000)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)])
    worst = 0.0
    for trial in range(50):
        kind = ("basic", "thermal_channel", "full")[trial % 3]
        params = ScenarioParams(
            nu=1.0 + 49.0 * rng.random(),
            eta_ab=0.01 + 0.98 * rng.random(),
            eta_th=0.01 + 0.99 * rng.random(),
            v_th=1.0 + 99.0 * rng.random(),
            eta_th_a=rng.random(), eta_th_b=rng.random(),
            v_alpha=1.0 + 9.0 * rng.random(), v_beta=1.0 + 9.0 * rng.random())
        scenario = build_scenario(kind, params)
        ia = scenario.mode_index("A")
        ib = scenario.mode_index("B")
        got = gaussian_discord(scenario.state, ia, ib).value

        # independent re-derivation: Schur complement per grid angle and
        # two-mode spectra from the determinant invariants
        data = scenario.state.data
        sel = [2 * ia, 2 * ia + 1, 2 * ib, 2 * ib + 1]
        pair = data[np.ix_(sel, sel)]
        a, b, c = pair[0:2, 0:2], pair[2:4, 2:4], pair[2:4, 0:2]
        q = np.einsum("it,ij,jt->t", dirs, a, dirs)
        u = c @ dirs
        dets = (b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]) - (
            b[1, 1] * u[0] ** 2 - 2 * b[0, 1] * u[0] * u[1] + b[0, 0] * u[1] ** 2) / q
        s_cond = _g(float(np.sqrt(np.maximum(dets, 1.0)).min()))
        det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        delta = det_a + (b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]) \
            + 2.0 * (c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])
        det_pair = np.linalg.det(pair)
        root = math.sqrt(max(delta ** 2 - 4.0 * det_pair, 0.0))
        spectrum = [math.sqrt(max((delta + s * root) / 2.0, 1.0)) for s in (1.0, -1.0)]
        oracle = max(_g(math.sqrt(max(det_a, 1.0))) - _g(spectrum[0])
                     - _g(spectrum[1]) + s_cond, 0.0)
        worst = max(worst, abs(got - oracle))
    ok = worst <= 1e-6
    _verdict_line(7, ok, f"max |closed form - 1e4-point grid| over 50 randomized "
                         f"states = {worst:.3e} bits (limit 1e-6)")
    assert worst <= 1e-6


def test_criterion_8_cmi_route_consistency():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(40):
        kind = rng.choice(("basic", "thermal_channel", "full"))
        params = ScenarioParams(
            nu=1.0 + 99.0 * rng.random(), eta_ab=rng.random(),
            eta_th=rng.random(), v_th=1.0 + 499.0 * rng.random(),
            eta_th_a=rng.random(), eta_th_b=rng.random(),
            v_alpha=1.0 + 9.0 * rng.random(), v_beta=1.0 + 9.0 * rng.random())
        scenario = build_scenario(str(kind), params)
        p = scenario.information_partition()
        got = conditional_mutual_information(scenario.state, p)

        g_as = reduce(scenario.state, p.subsystem_a + p.subsystem_s)
        g_bs = reduce(scenario.state, p.subsystem_b + p.subsystem_s)
        g_s = reduce(scenario.state, p.subsystem_s)
        g_abs = reduce(scenario.state, p.subsystem_a + p.subsystem_b + p.subsystem_s)
        dets = 0.5 * math.log2(
            np.linalg.det(g_as.data) * np.linalg.det(g_bs.data)
            / (np.linalg.det(g_s.data) * np.linalg.det(g_abs.data)))
        entropies = (shannon_entropy(g_as) + shannon_entropy(g_bs)
                     - shannon_entropy(g_s) - shannon_entropy(g_abs))
        worst = max(worst, abs(got - max(dets, 0.0)), abs(dets - entropies))
    # uncorrelated conditioning mode: CMI must collapse to plain MI
    state = tensor(make_epr(4.0), make_thermal(3.0))
    cmi = conditional_mutual_information(state, Partition((0,), (1,), (2,)))
    mi = mutual_information(state, Partition((0,), (1,)))
    gap = abs(cmi - mi)
    ok = worst <= 1e-9 and gap <= 1e-9
    _verdict_line(8, ok, f"max route disagreement over 40 states = {worst:.3e}, "
                         f"uncorrelated-S |cmi - mi| = {gap:.3e} (limits 1e-9)")
    assert worst <= 1e-9
    assert gap <= 1e-9


def test_criterion_9_hbt_gate():
    started = time.perf_counter()
    state = build_scenario("basic", ScenarioParams(nu=10.0, eta_ab=0.5)).state
    analytic = g2_analytic(state, 1, 2)
    hits = 0
    verdicts_thermal = True
    for seed in range(100):
        run = sample_quadratures(state, 1_000_000, seed=seed)
        report = g2_cross_estimate(run, 1, 2)
        if abs(report.g2_estimate - analytic) <= 3.0 * report.std_error:
            hits += 1
        verdicts_thermal &= report.verdict == VERDICT_THERMAL
    independent = tensor(make_thermal(5.0), make_thermal(5.0))
    never_thermal = True
    for seed in range(10):
        run = sample_quadratures(independent, 100_000, seed=seed)
        never_thermal &= g2_cross_estimate(run, 0, 1).verdict != VERDICT_THERMAL
    elapsed = time.perf_counter() - started
    ok = hits >= 99 and verdicts_thermal and never_thermal and elapsed < 30.0
    _verdict_line(9, ok, f"{hits}/100 seeds within 3 std errors of analytic "
                         f"{analytic:g}, all verdicts thermal: {verdicts_thermal}, "
                         f"independent never thermal: {never_thermal}, "
                         f"{elapsed:.1f}s (limit 30s)")
    assert hits >= 99
    assert verdicts_thermal
    assert never_thermal
    assert elapsed < 30.0


def test_criterion_10_purity_and_reduction():
    worst_eig = 0.0
    reductions_exact = True
    for nu in (1.0, 2.0, 10.0, 100.0, 1040.0):
        eigs = symplectic_eigenvalues(make_epr(nu))
        worst_eig = max(worst_eig, float(np.abs(eigs - 1.0).max()))
        for arm in (0, 1):
            reductions_exact &= np.array_equal(
                reduce(make_epr(nu), [arm]).data, make_thermal(nu).data)
    ok = worst_eig <= 1e-9 and reductions_exact
    _verdict_line(10, ok, f"entangled-pair spectrum off purity by {worst_eig:.3e} "
                          f"(limit 1e-9); single-arm reductions bitwise thermal: "
                          f"{reductions_exact}")
    assert worst_eig <= 1e-9
    assert reductions_exact
