"""Independent numpy oracles for the benchmark's correctness gate.

Nothing here calls thermalcast. Every expected value is derived from the
hand-written closed forms of the (E, A, B) blocks of each topology, with
numpy doing the linear algebra:

* CMI and MI: ``slogdet`` on stacked principal submatrices, to 1e-9 bits
  (the criterion-8 limit);
* discord D(B|A): the homodyne Schur complement on a grid over the whole
  half-turn [0, pi), plus the two-mode spectrum from the determinant
  invariants, to 1e-6 bits (the criterion-7 limit). A grid over [0, pi/2]
  alone would miss the optimum of general two-mode states;
* g2(0): the exact Isserlis value 1 + |C_AB|_F^2 / (8 nbar_A nbar_B), with a
  tolerance of five standard errors of the ratio estimator.
"""
from __future__ import annotations

import numpy as np

CMI_TOL = 1e-9
DISCORD_TOL = 1e-6
G2_SIGMAS = 5.0

# Even, so that 0 and pi/2 (the optima of the built-in topologies) lie on it.
DISCORD_GRID = 4096
_CHUNK = 64

# Draws used to estimate the covariance of (I_A I_B, I_A, I_B) for the
# delta-method standard error of the g2 ratio estimator.
G2_SE_DRAWS = 200_000

PARAM_DEFAULTS = {"nu": 1.0, "eta_ab": 0.5, "eta_th": 1.0, "v_th": 1.0,
                  "eta_th_a": 1.0, "v_alpha": 1.0, "eta_th_b": 1.0, "v_beta": 1.0}

# Index pairs of the (E, A, B) blocks inside the stacked 6x6 matrices.
E, A, B = (0, 1), (2, 3), (4, 5)


def eab_covariances(scenario: str, params: dict[str, np.ndarray]) -> np.ndarray:
    """Stacked (N, 6, 6) covariances of the modes (E, A, B).

    ``params`` maps every scenario parameter to an (N,) array. The full
    topology's closed form covers the other two: ``basic`` has no channel
    (eta_th = 1) and no receiver channels, ``thermal_channel`` no receiver
    channels.
    """
    p = {k: np.asarray(v, dtype=float) for k, v in params.items()}
    one = np.ones_like(p["nu"])
    if scenario in ("basic", "thermal_channel"):
        p["eta_th_a"] = p["eta_th_b"] = one
    if scenario == "basic":
        p["eta_th"] = one
    nu, eta_ab, eta_th, v_th = p["nu"], p["eta_ab"], p["eta_th"], p["v_th"]
    z = np.sqrt(nu * nu - 1.0)
    s_th = np.sqrt(eta_th)
    m_ab, s_ab = np.sqrt(1.0 - eta_ab), np.sqrt(eta_ab)
    s_a, s_b = np.sqrt(p["eta_th_a"]), np.sqrt(p["eta_th_b"])
    v_ab = eta_th * nu + (1.0 - eta_th) * v_th
    var_a = p["eta_th_a"] * (m_ab ** 2 * v_ab + eta_ab) + (1.0 - p["eta_th_a"]) * p["v_alpha"]
    var_b = p["eta_th_b"] * (eta_ab * v_ab + m_ab ** 2) + (1.0 - p["eta_th_b"]) * p["v_beta"]
    c_ea = -s_a * m_ab * s_th * z
    c_eb = s_b * s_ab * s_th * z
    c_ab = s_a * s_b * m_ab * s_ab * (1.0 - v_ab)

    gamma = np.zeros(nu.shape + (6, 6))
    for q, sign in ((0, 1.0), (1, -1.0)):
        e, a, b = E[q], A[q], B[q]
        gamma[:, e, e] = nu
        gamma[:, a, a] = var_a
        gamma[:, b, b] = var_b
        gamma[:, e, a] = gamma[:, a, e] = sign * c_ea
        gamma[:, e, b] = gamma[:, b, e] = sign * c_eb
        gamma[:, a, b] = gamma[:, b, a] = c_ab
    return gamma


def _sub(gamma: np.ndarray, *blocks: tuple[int, int]) -> np.ndarray:
    idx = [i for block in blocks for i in block]
    return gamma[:, idx][:, :, idx]


def _logdet2(gamma: np.ndarray) -> np.ndarray:
    sign, logdet = np.linalg.slogdet(gamma)
    if np.any(sign <= 0.0):
        raise ValueError("oracle met a non-positive determinant")
    return logdet / np.log(2.0)


def cmi(gamma: np.ndarray) -> np.ndarray:
    """I(A:B|E) in bits, clamped at 0 like the program's reported value."""
    value = 0.5 * (_logdet2(_sub(gamma, E, A)) + _logdet2(_sub(gamma, E, B))
                   - _logdet2(_sub(gamma, E)) - _logdet2(_sub(gamma, E, A, B)))
    return np.maximum(value, 0.0)


def mi(gamma: np.ndarray) -> np.ndarray:
    """I(A:B) in bits, clamped at 0."""
    value = 0.5 * (_logdet2(_sub(gamma, A)) + _logdet2(_sub(gamma, B))
                   - _logdet2(_sub(gamma, A, B)))
    return np.maximum(value, 0.0)


def _g(x: np.ndarray) -> np.ndarray:
    # entropy of a thermal mode with symplectic eigenvalue x; g(1) = 0
    x = np.maximum(x, 1.0)
    xp, xm = (x + 1.0) / 2.0, (x - 1.0) / 2.0
    # 0 log 0 := 0; log2(1) makes that term vanish where xm == 0
    return xp * np.log2(xp) - xm * np.log2(np.where(xm > 0.0, xm, 1.0))


def _det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def discord(gamma: np.ndarray) -> np.ndarray:
    """Homodyne discord D(B|A) in bits: A is measured, B inferred."""
    pair = _sub(gamma, A, B)
    a, b, c_ba = pair[:, 0:2, 0:2], pair[:, 2:4, 2:4], pair[:, 2:4, 0:2]
    thetas = np.pi * np.arange(DISCORD_GRID) / DISCORD_GRID
    dirs = np.stack([np.cos(thetas), np.sin(thetas)])
    det_b = _det2(b)
    min_det = np.empty(len(pair))
    for lo in range(0, len(pair), _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        q = np.einsum("it,nij,jt->nt", dirs, a[sl], dirs)
        u = c_ba[sl] @ dirs
        bb = b[sl]
        adj = (bb[:, 1, 1, None] * u[:, 0] ** 2 - 2.0 * bb[:, 0, 1, None] * u[:, 0] * u[:, 1]
               + bb[:, 0, 0, None] * u[:, 1] ** 2)
        min_det[sl] = (det_b[sl, None] - adj / q).min(axis=1)
    s_cond = _g(np.sqrt(np.maximum(min_det, 1.0)))
    det_a = _det2(a)
    delta = det_a + det_b + 2.0 * _det2(pair[:, 0:2, 2:4])
    root = np.sqrt(np.maximum(delta ** 2 - 4.0 * np.linalg.det(pair), 0.0))
    nu_plus = np.sqrt(np.maximum((delta + root) / 2.0, 1.0))
    nu_minus = np.sqrt(np.maximum((delta - root) / 2.0, 1.0))
    value = _g(np.sqrt(np.maximum(det_a, 1.0))) - _g(nu_plus) - _g(nu_minus) + s_cond
    return np.maximum(value, 0.0)


def _intensities(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return ((z[..., 0] ** 2 + z[..., 1] ** 2 - 2.0) / 4.0,
            (z[..., 2] ** 2 + z[..., 3] ** 2 - 2.0) / 4.0)


def g2_exact(gamma: np.ndarray) -> np.ndarray:
    """Cross g2(0) between A and B from Isserlis' theorem."""
    pair = _sub(gamma, A, B)
    nbar_a = (pair[:, 0, 0] + pair[:, 1, 1] - 2.0) / 4.0
    nbar_b = (pair[:, 2, 2] + pair[:, 3, 3] - 2.0) / 4.0
    cross = np.sum(pair[:, 0:2, 2:4] ** 2, axis=(1, 2))
    return 1.0 + cross / (8.0 * nbar_a * nbar_b)


def g2_standard_error(gamma: np.ndarray, n_samples: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Delta-method standard error of <I_A I_B> / (<I_A><I_B>) at n_samples.

    The gradient uses the exact Gaussian moments; the covariance of the
    three sample means is estimated from the oracle's own draws.
    """
    pair = _sub(gamma, A, B)
    nbar_a = (pair[:, 0, 0] + pair[:, 1, 1] - 2.0) / 4.0
    nbar_b = (pair[:, 2, 2] + pair[:, 3, 3] - 2.0) / 4.0
    mean_prod = g2_exact(gamma) * nbar_a * nbar_b
    out = np.empty(len(pair))
    for k, cov in enumerate(pair):
        z = rng.standard_normal((G2_SE_DRAWS, 4)) @ np.linalg.cholesky(cov).T
        i_a, i_b = _intensities(z)
        sigma = np.cov(np.stack([i_a * i_b, i_a, i_b]))
        grad = np.array([1.0 / (nbar_a[k] * nbar_b[k]),
                         -mean_prod[k] / (nbar_a[k] ** 2 * nbar_b[k]),
                         -mean_prod[k] / (nbar_a[k] * nbar_b[k] ** 2)])
        out[k] = np.sqrt(grad @ sigma @ grad / n_samples)
    return out
