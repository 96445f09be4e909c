"""The three broadcast topologies, built two independent ways.

A central station holds one arm (E) of an EPR pair and broadcasts the other
arm to two receivers (A, B) through a splitter of transmittance ``eta_ab``.
Optional thermal channels sit in front of the splitter (transmittance
``eta_th`` against a thermal mode of variance ``v_th``) and behind it on
each receiver arm (``eta_th_a``/``v_alpha``, ``eta_th_b``/``v_beta``).

Every topology exists twice: as a compositional build out of EPR, tensor
and beamsplitter primitives, and as closed-form matrix entries written out
by hand. The two must agree entrywise; tests hold them to 1e-12. Keep both
routes intact when editing.

Mode labels, in build order:

* basic:            (E, B, A)
* thermal_channel:  (E, V, B, A)        V = channel idler
* full:             (E, V, B, A, V_a, V_b)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnphysicalStateError
from .gaussian import (BeamsplitterSpec, CovarianceMatrix, apply_beamsplitter,
                       make_epr, make_thermal, make_vacuum, reduce, tensor,
                       validate_physicality)
from .info import Partition

MODE_E = "E"
MODE_V = "V"
MODE_B = "B"
MODE_A = "A"
MODE_VA = "V_a"
MODE_VB = "V_b"

SCENARIO_NAMES = ("basic", "thermal_channel", "full")

VARIANCE_PARAMS = ("nu", "v_th", "v_alpha", "v_beta")
TRANSMITTANCE_PARAMS = ("eta_ab", "eta_th", "eta_th_a", "eta_th_b")


@dataclass(frozen=True)
class ScenarioParams:
    """Physical knobs of the broadcast.

    Every field must be finite. Variances are in SNU and must be >= 1;
    transmittances live in [0, 1]. Channel fields default to the transparent
    setting (eta = 1, vacuum idler), so the same params object drives all
    three topologies. These are the only domain rules; sweeps reuse them.
    """

    nu: float = 1.0
    eta_ab: float = 0.5
    eta_th: float = 1.0
    v_th: float = 1.0
    eta_th_a: float = 1.0
    v_alpha: float = 1.0
    eta_th_b: float = 1.0
    v_beta: float = 1.0

    def __post_init__(self):
        for name in VARIANCE_PARAMS + TRANSMITTANCE_PARAMS:
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not np.isfinite(value):
                raise InvalidArgumentError(f"{name} must be a finite number, got {value}")
            if name in VARIANCE_PARAMS and value < 1.0:
                raise UnphysicalStateError(f"{name} is a variance and must be >= 1 SNU, got {value}")
            if name in TRANSMITTANCE_PARAMS and not 0.0 <= value <= 1.0:
                raise InvalidArgumentError(f"{name} is a transmittance and must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class ScenarioState:
    """A built topology: joint state plus the meaning of each mode slot."""

    state: CovarianceMatrix
    mode_labels: tuple[str, ...]
    params: ScenarioParams

    def __post_init__(self):
        if len(self.mode_labels) != self.state.n_modes:
            raise InvalidArgumentError(
                f"{len(self.mode_labels)} labels for {self.state.n_modes} modes")
        if len(set(self.mode_labels)) != len(self.mode_labels):
            raise InvalidArgumentError(f"duplicate mode labels in {self.mode_labels}")
        report = validate_physicality(self.state)
        if not report.ok:
            raise UnphysicalStateError("; ".join(report.issues))

    def mode_index(self, label: str) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise InvalidArgumentError(
                f"no mode labeled {label!r} in {self.mode_labels}") from None

    def information_partition(self) -> Partition:
        """A vs B, conditioned on the source mode E alone.

        The channel idlers (V, V_a, V_b) are environment: nobody reads
        them, so they are traced out of every information quantity.
        """
        return Partition(
            subsystem_a=(self.mode_index(MODE_A),),
            subsystem_b=(self.mode_index(MODE_B),),
            subsystem_s=(self.mode_index(MODE_E),),
        )


def _as_scenario(state: CovarianceMatrix, labels: tuple[str, ...],
                 params: ScenarioParams) -> ScenarioState:
    return ScenarioState(state=state, mode_labels=labels, params=params)


def build_basic(params: ScenarioParams) -> ScenarioState:
    """Noiseless broadcast: EPR arm split between A and B. Modes (E, B, A).

    B is the transmitted output (variance eta_ab * nu + 1 - eta_ab), A the
    reflected one. Channel fields of ``params`` are ignored.
    """
    state = tensor(make_epr(params.nu), make_vacuum(1))
    state = apply_beamsplitter(state, BeamsplitterSpec(1, 2, params.eta_ab))
    return _as_scenario(state, (MODE_E, MODE_B, MODE_A), params)


def build_thermal_channel(params: ScenarioParams) -> ScenarioState:
    """Broadcast through a thermal channel before the splitter. Modes (E, V, B, A).

    The sent arm first mixes with a thermal mode of variance v_th on a
    splitter of transmittance eta_th (V keeps the discarded output), then
    hits the A/B splitter. eta_th = 1 reduces to the basic topology;
    eta_th = 0 broadcasts the bare thermal mode.
    """
    state = tensor(tensor(make_epr(params.nu), make_thermal(params.v_th)), make_vacuum(1))
    state = apply_beamsplitter(state, BeamsplitterSpec(1, 2, params.eta_th))
    state = apply_beamsplitter(state, BeamsplitterSpec(1, 3, params.eta_ab))
    # built as (E, B, V, A); present the channel idler before the receivers
    state = reduce(state, [0, 2, 1, 3])
    return _as_scenario(state, (MODE_E, MODE_V, MODE_B, MODE_A), params)


def build_full(params: ScenarioParams) -> ScenarioState:
    """Thermal-channel broadcast plus noisy receiver arms. Modes (E, V, B, A, V_a, V_b).

    After the splitter, arm A passes a channel of transmittance eta_th_a
    against a thermal mode of variance v_alpha, and arm B one of eta_th_b
    against v_beta. Transparent settings reproduce build_thermal_channel on
    the first four modes.
    """
    inner = build_thermal_channel(params).state
    state = tensor(tensor(inner, make_thermal(params.v_alpha)), make_thermal(params.v_beta))
    state = apply_beamsplitter(state, BeamsplitterSpec(3, 4, params.eta_th_a))
    state = apply_beamsplitter(state, BeamsplitterSpec(2, 5, params.eta_th_b))
    return _as_scenario(state, (MODE_E, MODE_V, MODE_B, MODE_A, MODE_VA, MODE_VB), params)


def build_scenario(name: str, params: ScenarioParams) -> ScenarioState:
    if name == "basic":
        return build_basic(params)
    if name == "thermal_channel":
        return build_thermal_channel(params)
    if name == "full":
        return build_full(params)
    raise InvalidArgumentError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")


# ---------------------------------------------------------------------------
# Closed forms. Independent of the beamsplitter pipeline on purpose: every
# entry is spelled out from the model parameters, so an error in either
# route shows up as a mismatch instead of cancelling silently.

_I2 = np.eye(2)
_Z2 = np.diag([1.0, -1.0])


def basic_closed_form(params: ScenarioParams) -> CovarianceMatrix:
    """Entrywise expression for the basic topology, order (E, B, A)."""
    nu, eta = params.nu, params.eta_ab
    z = np.sqrt(nu * nu - 1.0)
    mu = np.sqrt(1.0 - eta)
    se = np.sqrt(eta)
    g_e = nu * _I2
    g_b = (eta * nu + mu ** 2) * _I2
    g_a = (mu ** 2 * nu + eta) * _I2
    g_eb = se * z * _Z2
    g_ea = -mu * z * _Z2
    g_ba = mu * se * (1.0 - nu) * _I2
    return CovarianceMatrix(np.block([
        [g_e, g_eb, g_ea],
        [g_eb.T, g_b, g_ba],
        [g_ea.T, g_ba.T, g_a],
    ]))


def thermal_channel_closed_form(params: ScenarioParams) -> CovarianceMatrix:
    """Entrywise expression for the thermal-channel topology, order (E, V, B, A).

    v_ab = eta_th * nu + (1 - eta_th) * v_th is the variance of the arm that
    reaches the A/B splitter; every block below is a function of it.
    """
    nu, eta_ab, eta_th, v_th = params.nu, params.eta_ab, params.eta_th, params.v_th
    z = np.sqrt(nu * nu - 1.0)
    m_th, s_th = np.sqrt(1.0 - eta_th), np.sqrt(eta_th)
    m_ab, s_ab = np.sqrt(1.0 - eta_ab), np.sqrt(eta_ab)
    v_ab = eta_th * nu + m_th ** 2 * v_th
    leak = m_th * s_th * (v_th - nu)

    g_e = nu * _I2
    g_v = (m_th ** 2 * nu + eta_th * v_th) * _I2
    g_b = (eta_ab * v_ab + m_ab ** 2) * _I2
    g_a = (m_ab ** 2 * v_ab + eta_ab) * _I2
    g_ev = -m_th * z * _Z2
    g_eb = s_ab * s_th * z * _Z2
    g_ea = -m_ab * s_th * z * _Z2
    g_vb = s_ab * leak * _I2
    g_va = -m_ab * leak * _I2
    g_ba = m_ab * s_ab * (1.0 - v_ab) * _I2
    return CovarianceMatrix(np.block([
        [g_e, g_ev, g_eb, g_ea],
        [g_ev.T, g_v, g_vb, g_va],
        [g_eb.T, g_vb.T, g_b, g_ba],
        [g_ea.T, g_va.T, g_ba.T, g_a],
    ]))


def full_closed_form_blocks(params: ScenarioParams) -> dict[str, np.ndarray]:
    """Closed-form 2x2 blocks of the full topology that have hand expressions.

    Keys name mode pairs in (E, V, B, A, V_a, V_b) order: "e" is the E
    diagonal block, "ea" the E-A cross block, and so on. Only the blocks
    involving E, A and B are expressed here; the idler rows come from the
    compositional build.
    """
    nu, eta_ab, eta_th, v_th = params.nu, params.eta_ab, params.eta_th, params.v_th
    z = np.sqrt(nu * nu - 1.0)
    s_th = np.sqrt(eta_th)
    m_ab, s_ab = np.sqrt(1.0 - eta_ab), np.sqrt(eta_ab)
    s_a, m_a2 = np.sqrt(params.eta_th_a), 1.0 - params.eta_th_a
    s_b, m_b2 = np.sqrt(params.eta_th_b), 1.0 - params.eta_th_b
    v_ab = eta_th * nu + (1.0 - eta_th) * v_th
    return {
        "e": nu * _I2,
        "a": (params.eta_th_a * (m_ab ** 2 * v_ab + eta_ab) + m_a2 * params.v_alpha) * _I2,
        "b": (params.eta_th_b * (eta_ab * v_ab + m_ab ** 2) + m_b2 * params.v_beta) * _I2,
        "eb": s_b * s_ab * s_th * z * _Z2,
        "ea": -s_a * m_ab * s_th * z * _Z2,
        "ab": s_a * s_b * m_ab * s_ab * (1.0 - v_ab) * _I2,
    }


def block_of(scenario: ScenarioState, row_label: str, col_label: str) -> np.ndarray:
    """One 2x2 block of a scenario's covariance matrix, picked by labels."""
    i = scenario.mode_index(row_label)
    j = scenario.mode_index(col_label)
    return scenario.state.data[2 * i:2 * i + 2, 2 * j:2 * j + 2]
