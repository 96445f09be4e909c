"""The broadcast network and its three topologies, built two independent ways.

A central station holds one arm (E) of an EPR pair and broadcasts the other
arm to two receivers (A, B) through a splitter of transmittance ``eta_ab``.
Optional thermal channels sit in front of the splitter (transmittance
``eta_th`` against a thermal mode of variance ``v_th``) and behind it on
each receiver arm (``eta_th_a``/``v_alpha``, ``eta_th_b``/``v_beta``).

The network exists twice: composed of the state builders (EPR, thermal modes, beamsplitters), which carry its factor,
and as closed-form matrix entries written out by hand, which tests hold entrywise to the build at 1e-12; keep both.
A topology is its labelled slots of the network, with every parameter it does not read (``SCENARIO_PARAMS``)
at its transparent default. Sweeps use :func:`pair_entries`, the same network's receiver block in one formula.

Mode labels, in network order:

* basic:            (E, B, A)
* thermal_channel:  (E, V, B, A)        V = channel idler
* full:             (E, V, B, A, V_a, V_b)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidArgumentError
from .gaussian import (MAX_VARIANCE, CovarianceMatrix, _is_real, apply_beamsplitter, check_state, check_transmittance,
                       check_variance, make_epr, make_thermal, make_vacuum, reduce, tensor)
from .info import Partition

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
    (:func:`check_variance`); transmittances in [0, 1] (:func:`check_transmittance`). Channel fields default
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
        if name in TRANSMITTANCE_PARAMS:
            check_transmittance(f"{name} is a transmittance and", value)
        return float(value)


@dataclass(frozen=True, eq=False)
class ScenarioState:
    """A built topology: joint state plus the meaning of each mode slot.

    Only the labels are checked: a :func:`build_scenario` state is physical by
    construction, and :func:`validate_physicality` judges a hand-built one.
    Compares and hashes by identity, as its state does.
    """

    state: CovarianceMatrix
    mode_labels: tuple[str, ...]

    def __post_init__(self):
        data, labels = check_state(self.state), self.mode_labels  # a bare array has no n_modes
        bad = [label for label in labels if not isinstance(label, str)] if isinstance(labels, tuple) else [labels]
        if bad:
            raise InvalidArgumentError(f"mode_labels must be a tuple of str, got {type(bad[0]).__name__}")
        if len(data) // 2 != len(labels):
            raise InvalidArgumentError(f"{len(labels)} labels for {len(data) // 2} modes")
        if len(set(labels)) != len(labels):
            raise InvalidArgumentError(f"duplicate mode labels in {labels}")

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
        return Partition(*((self.mode_index(label),) for label in ("A", "B", "E")))


# The network's slots, in order, and the slots each topology labels.
_SLOTS = ("E", "V", "B", "A", "V_a", "V_b")
_LABELS = {"basic": ("E", "B", "A"), "thermal_channel": _SLOTS[:4], "full": _SLOTS}


def _network(p: ScenarioParams) -> CovarianceMatrix:
    """The whole broadcast, slots (E, V, B, A, V_a, V_b), composed of the state builders, so it carries their factor F.

    EPR (E, B), thermal(v_th), vacuum, thermal(v_alpha) and thermal(v_beta) side by side: the sent arm B mixes with
    thermal(v_th) at eta_th (V keeps the discarded output), splits at eta_ab into B (transmitted) and A, and then A
    mixes with thermal(v_alpha) at eta_th_a and B with thermal(v_beta) at eta_th_b.
    """
    state = make_epr(p.nu)
    for mode in (make_thermal(p.v_th), make_vacuum(1), make_thermal(p.v_alpha), make_thermal(p.v_beta)):
        state = tensor(state, mode)
    for mode_a, mode_b, eta in ((1, 2, p.eta_th), (1, 3, p.eta_ab), (3, 4, p.eta_th_a), (1, 5, p.eta_th_b)):
        state = apply_beamsplitter(state, mode_a, mode_b, eta)
    return reduce(state, [0, 2, 1, 3, 4, 5])


def _check_scenario(name: str) -> tuple[str, ...]:
    """The parameters topology ``name`` reads, else raise: the one home of the scenario-name rule."""
    if not isinstance(name, str) or name not in SCENARIO_PARAMS:  # a list is unhashable, an array ambiguous
        raise InvalidArgumentError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    return SCENARIO_PARAMS[name]


def _topology(name: str, params, route) -> tuple[tuple[str, ...], CovarianceMatrix]:
    """Topology ``name`` as its labels and their slots of ``route``'s network, at the fields of ``params`` it reads
    and every other field at its transparent default."""
    fields = _check_scenario(name)
    if not isinstance(params, ScenarioParams):  # a look-alike would skip the domain rules
        raise InvalidArgumentError(f"params must be a ScenarioParams, got {type(params).__name__}")
    p = ScenarioParams(**{field: getattr(params, field) for field in fields})
    return _LABELS[name], reduce(route(p), [_SLOTS.index(label) for label in _LABELS[name]])


def build_scenario(name: str, params: ScenarioParams) -> ScenarioState:
    """One point of a topology, physical by construction (EPR and thermal modes through beamsplitters).

    All three read their slots of one network's F F^T, bit for bit alike, and carry their rows of F.
    """
    labels, state = _topology(name, params, _network)
    return ScenarioState(state=state, mode_labels=labels)


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
# Closed form. Independent of the beamsplitter pipeline on purpose: every
# entry is spelled out from the model parameters, so an error in either
# route shows up as a mismatch instead of cancelling silently.

def _closed_form(p: ScenarioParams) -> CovarianceMatrix:
    """All 21 blocks of the network, slots (E, V, B, A, V_a, V_b), written out by hand.

    Every block is a multiple of I, except E's cross blocks, multiples of Z2 = diag(1, -1) as in the EPR pair.
    The arm reaching the splitter has variance v = eta_th nu + (1 - eta_th) v_th and covariance ``leak`` with
    V; the splitter leaves A' and B' of variances to_a and to_b, covariance ``ab``. A receiver's channel then
    keeps the share sqrt(eta) of its arm and sqrt(1 - eta) of its thermal mode; its idler gets -sqrt(1 - eta)
    and sqrt(eta).
    """
    nu, th, t, v_th, al, v_al, be, v_be = p.nu, p.eta_th, p.eta_ab, p.v_th, p.eta_th_a, p.v_alpha, p.eta_th_b, p.v_beta
    z, s_th, m_th, s_t, m_t = np.sqrt(nu * nu - 1.0), np.sqrt(th), np.sqrt(1.0 - th), np.sqrt(t), np.sqrt(1.0 - t)
    s_a, m_a, s_b, m_b = np.sqrt(al), np.sqrt(1.0 - al), np.sqrt(be), np.sqrt(1.0 - be)
    v = th * nu + (1.0 - th) * v_th
    to_a, to_b, ab = (1.0 - t) * v + t, t * v + 1.0 - t, s_t * m_t * (1.0 - v)
    leak = s_th * m_th * (v_th - nu)
    e_a, e_b, l_a, l_b = -m_t * s_th * z, s_t * s_th * z, -m_t * leak, s_t * leak  # E and V with A', B'
    upper = [  # x quadratures, row by row from the diagonal on
        nu, -m_th * z, s_b * e_b, s_a * e_a, -m_a * e_a, -m_b * e_b,
        (1.0 - th) * nu + th * v_th, s_b * l_b, s_a * l_a, -m_a * l_a, -m_b * l_b,
        be * to_b + (1.0 - be) * v_be, s_b * s_a * ab, -s_b * m_a * ab, s_b * m_b * (v_be - to_b),
        al * to_a + (1.0 - al) * v_al, s_a * m_a * (v_al - to_a), -s_a * m_b * ab,
        (1.0 - al) * to_a + al * v_al, m_a * m_b * ab,
        (1.0 - be) * to_b + be * v_be,
    ]
    x = np.zeros((6, 6))
    x[np.triu_indices(6)] = upper
    out = np.kron(x + np.triu(x, 1).T, np.eye(2))
    out[1, 2:] *= -1.0  # E's p quadrature: the Z2 of its cross blocks
    out[2:, 1] *= -1.0
    return CovarianceMatrix(out)


def basic_closed_form(params: ScenarioParams) -> CovarianceMatrix:
    """Entrywise expression for the basic topology, order (E, B, A)."""
    return _topology("basic", params, _closed_form)[1]


def thermal_channel_closed_form(params: ScenarioParams) -> CovarianceMatrix:
    """Entrywise expression for the thermal-channel topology, order (E, V, B, A)."""
    return _topology("thermal_channel", params, _closed_form)[1]


def full_closed_form_blocks(params: ScenarioParams) -> dict[str, np.ndarray]:
    """The closed-form 2x2 blocks of the full topology among E, A and B.

    Keys name mode pairs in (E, V, B, A, V_a, V_b) order: "e" is the E diagonal block, "ea" the E-A cross block,
    and so on. They are six of the 21 blocks that :func:`_closed_form` writes out, idler rows included.
    """
    gamma = _topology("full", params, _closed_form)[1].data
    slots = {"e": (0, 0), "a": (3, 3), "b": (2, 2), "eb": (0, 2), "ea": (0, 3), "ab": (3, 2)}
    return {key: gamma[2 * i:2 * i + 2, 2 * j:2 * j + 2] for key, (i, j) in slots.items()}


def block_of(scenario: ScenarioState, row_label: str, col_label: str) -> np.ndarray:
    """One 2x2 block of a scenario's covariance matrix, picked by labels."""
    if not isinstance(scenario, ScenarioState):
        raise InvalidArgumentError(f"scenario must be a ScenarioState, got {type(scenario).__name__}")
    i = scenario.mode_index(row_label)
    j = scenario.mode_index(col_label)
    return scenario.state.data[2 * i:2 * i + 2, 2 * j:2 * j + 2]
