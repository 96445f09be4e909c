"""The three broadcast topologies, built two independent ways.

A central station holds one arm (E) of an EPR pair and broadcasts the other
arm to two receivers (A, B) through a splitter of transmittance ``eta_ab``.
Optional thermal channels sit in front of the splitter (transmittance
``eta_th`` against a thermal mode of variance ``v_th``) and behind it on
each receiver arm (``eta_th_a``/``v_alpha``, ``eta_th_b``/``v_beta``).

Every topology exists twice: as a compositional build out of EPR, direct
sum and beamsplitter primitives on parameter stacks (one row per point),
and as closed-form matrix entries written out by hand. The two must agree
entrywise; tests hold them to 1e-12. Keep both routes intact when editing.

Mode labels, in build order:

* basic:            (E, B, A)
* thermal_channel:  (E, V, B, A)        V = channel idler
* full:             (E, V, B, A, V_a, V_b)
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import ClassVar

import numpy as np

from .errors import InvalidArgumentError, UnphysicalStateError
from .gaussian import (MAX_VARIANCE, CovarianceMatrix, _is_real, beamsplitter_stack, check_variance,
                       direct_sum, epr_stack, select_modes, thermal_stack, validate_physicality)
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

    Every field must be a finite number. Variances are in SNU within [1, MAX_VARIANCE]
    (:func:`check_variance`); transmittances live in [0, 1]. Channel fields default
    to the transparent setting (eta = 1, vacuum idler), so the same params object
    drives all three topologies. These are the only domain rules; sweeps reuse them.
    """

    MAX_VARIANCE: ClassVar[float] = MAX_VARIANCE

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
            value = getattr(self, name)
            if not _is_real(value) or not np.isfinite(value):
                raise InvalidArgumentError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
            if name in VARIANCE_PARAMS:
                check_variance(f"{name} is a variance and", value)
            if name in TRANSMITTANCE_PARAMS and not 0.0 <= value <= 1.0:
                raise InvalidArgumentError(f"{name} is a transmittance and must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class ScenarioState:
    """A built topology: joint state plus the meaning of each mode slot."""

    state: CovarianceMatrix
    mode_labels: tuple[str, ...]

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
        return _mode_index(self.mode_labels, label)

    def information_partition(self) -> Partition:
        """A vs B, conditioned on E; see :func:`information_partition`."""
        return information_partition(self.mode_labels)


def _mode_index(labels: tuple[str, ...], label: str) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise InvalidArgumentError(f"no mode labeled {label!r} in {labels}") from None


def information_partition(labels: tuple[str, ...]) -> Partition:
    """A vs B, conditioned on the source mode E alone.

    The channel idlers (V, V_a, V_b) are environment: nobody reads them, so
    they are traced out of every information quantity.
    """
    return Partition(*((_mode_index(labels, label),) for label in (MODE_A, MODE_B, MODE_E)))


# Compositional builds on parameter stacks: ``p`` carries every ScenarioParams
# field as an (N,) array, one row per point.

def _basic(p) -> np.ndarray:
    """Noiseless broadcast: the EPR arm split between B (transmitted) and A."""
    state = direct_sum(epr_stack(p.nu), thermal_stack(np.ones_like(p.nu)))
    return beamsplitter_stack(state, 1, 2, p.eta_ab)


def _thermal_channel(p) -> np.ndarray:
    """The sent arm first mixes with thermal(v_th) at eta_th; V keeps the discarded output."""
    state = direct_sum(epr_stack(p.nu), thermal_stack(p.v_th), thermal_stack(np.ones_like(p.nu)))
    state = beamsplitter_stack(state, 1, 2, p.eta_th)
    state = beamsplitter_stack(state, 1, 3, p.eta_ab)
    # built as (E, B, V, A); present the channel idler before the receivers
    return select_modes(state, [0, 2, 1, 3])


def _full(p) -> np.ndarray:
    """Thermal channel, then arm A mixes with thermal(v_alpha) at eta_th_a, B likewise."""
    state = direct_sum(_thermal_channel(p), thermal_stack(p.v_alpha), thermal_stack(p.v_beta))
    state = beamsplitter_stack(state, 3, 4, p.eta_th_a)
    return beamsplitter_stack(state, 2, 5, p.eta_th_b)


_BUILDS = {
    "basic": (_basic, (MODE_E, MODE_B, MODE_A)),
    "thermal_channel": (_thermal_channel, (MODE_E, MODE_V, MODE_B, MODE_A)),
    "full": (_full, (MODE_E, MODE_V, MODE_B, MODE_A, MODE_VA, MODE_VB)),
}


def build_stack(name: str, p) -> tuple[np.ndarray, tuple[str, ...]]:
    """(stack, mode labels) of a topology for (N,) arrays of in-domain parameters.

    Physicality is not checked here; see :func:`physicality_stack`.
    """
    if name not in _BUILDS:
        raise InvalidArgumentError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    build, labels = _BUILDS[name]
    return build(p), labels


def build_scenario(name: str, params: ScenarioParams) -> ScenarioState:
    """One point: an N = 1 :func:`build_stack`, checked for physicality."""
    rows = SimpleNamespace(**{k: np.array([v]) for k, v in vars(params).items()})
    stack, labels = build_stack(name, rows)
    return ScenarioState(state=CovarianceMatrix(stack[0]), mode_labels=labels)


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
