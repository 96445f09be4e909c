"""The three broadcast topologies, built two independent ways.

A central station holds one arm (E) of an EPR pair and broadcasts the other
arm to two receivers (A, B) through a splitter of transmittance ``eta_ab``.
Optional thermal channels sit in front of the splitter (transmittance
``eta_th`` against a thermal mode of variance ``v_th``) and behind it on
each receiver arm (``eta_th_a``/``v_alpha``, ``eta_th_b``/``v_beta``).

Every topology exists twice: as a compositional build out of EPR, direct sum and beamsplitter primitives,
and as closed-form matrix entries written out by hand, which tests hold entrywise to the build at 1e-12;
keep both. Sweeps use :func:`pair_entries`, one formula for all three: a channel left transparent drops out.

Mode labels, in build order:

* basic:            (E, B, A)
* thermal_channel:  (E, V, B, A)        V = channel idler
* full:             (E, V, B, A, V_a, V_b)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidArgumentError
from .gaussian import (MAX_VARIANCE, CovarianceMatrix, _is_real, beamsplitter, check_state, check_variance,
                       direct_sum, epr, select_modes)
from .info import Partition

MODE_E = "E"
MODE_V = "V"
MODE_B = "B"
MODE_A = "A"
MODE_VA = "V_a"
MODE_VB = "V_b"

# The parameters each topology reads; a sweep refuses any other.
SCENARIO_PARAMS = {"basic": ("nu", "eta_ab"), "thermal_channel": ("nu", "eta_ab", "eta_th", "v_th"),
                   "full": ("nu", "eta_ab", "eta_th", "v_th", "eta_th_a", "v_alpha", "eta_th_b", "v_beta")}
SCENARIO_NAMES = tuple(SCENARIO_PARAMS)

VARIANCE_PARAMS = ("nu", "v_th", "v_alpha", "v_beta")
TRANSMITTANCE_PARAMS = ("eta_ab", "eta_th", "eta_th_a", "eta_th_b")
PARAM_NAMES = VARIANCE_PARAMS + TRANSMITTANCE_PARAMS


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
        for name in PARAM_NAMES:
            object.__setattr__(self, name, self.check_field(name, getattr(self, name)))

    @staticmethod
    def check_field(name: str, value) -> float:
        """The domain rule of field ``name``: ``value`` as a float, or the complaint raised."""
        # compared, not converted: a Fraction or a 400-digit int meets the rules below
        if not (_is_real(value) and -np.inf < value < np.inf):
            raise InvalidArgumentError(f"{name} must be a finite number, got {value!r}")
        if name in VARIANCE_PARAMS:
            check_variance(f"{name} is a variance and", value)
        if name in TRANSMITTANCE_PARAMS and not 0.0 <= value <= 1.0:
            raise InvalidArgumentError(f"{name} is a transmittance and must lie in [0, 1], got {value}")
        return float(value)


def _check_params(params) -> ScenarioParams:
    if not isinstance(params, ScenarioParams):  # a look-alike would skip the domain rules
        raise InvalidArgumentError(f"params must be a ScenarioParams, got {type(params).__name__}")
    return params


@dataclass(frozen=True)
class ScenarioState:
    """A built topology: joint state plus the meaning of each mode slot.

    Only the labels are checked: a :func:`build_scenario` state is physical by
    construction, and :func:`validate_physicality` judges a hand-built one.
    """

    state: CovarianceMatrix
    mode_labels: tuple[str, ...]

    def __post_init__(self):
        if len(check_state(self.state)) // 2 != len(self.mode_labels):  # a bare array has no n_modes
            raise InvalidArgumentError(f"{len(self.mode_labels)} labels for {self.state.n_modes} modes")
        if len(set(self.mode_labels)) != len(self.mode_labels):
            raise InvalidArgumentError(f"duplicate mode labels in {self.mode_labels}")

    def mode_index(self, label: str) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise InvalidArgumentError(f"no mode labeled {label!r} in {self.mode_labels}") from None

    def information_partition(self) -> Partition:
        """A vs B, conditioned on the source mode E alone.

        The channel idlers (V, V_a, V_b) are environment: nobody reads them, so
        they are traced out of every information quantity.
        """
        return Partition(*((self.mode_index(label),) for label in (MODE_A, MODE_B, MODE_E)))


# Compositional builds: one matrix from the fields of a ScenarioParams; thermal(V) is V I.

def _basic(p: ScenarioParams) -> np.ndarray:
    """Noiseless broadcast: the EPR arm split between B (transmitted) and A."""
    return beamsplitter(direct_sum(epr(p.nu), np.eye(2)), 1, 2, p.eta_ab)


def _thermal_channel(p: ScenarioParams) -> np.ndarray:
    """The sent arm first mixes with thermal(v_th) at eta_th; V keeps the discarded output."""
    state = direct_sum(epr(p.nu), p.v_th * np.eye(2), np.eye(2))
    state = beamsplitter(state, 1, 2, p.eta_th)
    state = beamsplitter(state, 1, 3, p.eta_ab)
    # built as (E, B, V, A); present the channel idler before the receivers
    return select_modes(state, [0, 2, 1, 3])


def _full(p: ScenarioParams) -> np.ndarray:
    """Thermal channel, then arm A mixes with thermal(v_alpha) at eta_th_a, B likewise."""
    state = direct_sum(_thermal_channel(p), p.v_alpha * np.eye(2), p.v_beta * np.eye(2))
    state = beamsplitter(state, 3, 4, p.eta_th_a)
    return beamsplitter(state, 2, 5, p.eta_th_b)


_BUILDS = {
    "basic": (_basic, (MODE_E, MODE_B, MODE_A)),
    "thermal_channel": (_thermal_channel, (MODE_E, MODE_V, MODE_B, MODE_A)),
    "full": (_full, (MODE_E, MODE_V, MODE_B, MODE_A, MODE_VA, MODE_VB)),
}


def build_scenario(name: str, params: ScenarioParams) -> ScenarioState:
    """One point of a topology, physical by construction (EPR and thermal modes through beamsplitters)."""
    if name not in _BUILDS:
        raise InvalidArgumentError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    build, labels = _BUILDS[name]
    return ScenarioState(state=CovarianceMatrix(build(_check_params(params))), mode_labels=labels)


def pair_entries(p) -> tuple[np.ndarray, ...]:
    """(a, b, c, d) of the receivers' block [[a I, c I], [c I, b I]], d = ab - c^2, for (N,) parameter arrays.

    Each is (2, N), at the splitter's input variance v = eta_th nu + (1 - eta_th) v_th and at w = eta_th / nu
    + (1 - eta_th) v_th, that arm given E. d sums non-negative terms and c = 0 exactly for a vacuum source.
    """
    th, eta_a, eta_b, t, v_a, v_b = p.eta_th, p.eta_th_a, p.eta_th_b, p.eta_ab, p.v_alpha, p.v_beta
    v = np.stack([th * p.nu + (1.0 - th) * p.v_th, th / p.nu + (1.0 - th) * p.v_th])
    excess = th * np.stack([p.nu - 1.0, (1.0 - p.nu) / p.nu]) + (1.0 - th) * (p.v_th - 1.0)  # v - 1
    to_a, to_b = (1.0 - t) * v + t, t * v + 1.0 - t  # each receiver's share, before its own channel
    d = (eta_a * eta_b * v + eta_a * (1.0 - eta_b) * v_b * to_a + (1.0 - eta_a) * eta_b * v_a * to_b
         + (1.0 - eta_a) * (1.0 - eta_b) * v_a * v_b)
    return (eta_a * to_a + (1.0 - eta_a) * v_a, eta_b * to_b + (1.0 - eta_b) * v_b,
            -np.sqrt(eta_a * eta_b * t * (1.0 - t)) * excess, d)


# ---------------------------------------------------------------------------
# Closed forms. Independent of the beamsplitter pipeline on purpose: every
# entry is spelled out from the model parameters, so an error in either
# route shows up as a mismatch instead of cancelling silently.

_I2 = np.eye(2)
_Z2 = np.diag([1.0, -1.0])


def basic_closed_form(params: ScenarioParams) -> CovarianceMatrix:
    """Entrywise expression for the basic topology, order (E, B, A)."""
    nu, eta = _check_params(params).nu, params.eta_ab
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
    nu, eta_ab, eta_th, v_th = _check_params(params).nu, params.eta_ab, params.eta_th, params.v_th
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
    nu, eta_ab, eta_th, v_th = _check_params(params).nu, params.eta_ab, params.eta_th, params.v_th
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
