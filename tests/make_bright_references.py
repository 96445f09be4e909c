"""Write ``bright_references.json``: 50-digit CMI, MI and discord of bright broadcast sweeps, and print
``BRIGHT_REFERENCES`` of ``test_info.py``.

Needs mpmath (written against 1.3.0). mpmath is not a dependency of thermalcast: this script
only makes the committed references, and the test suite reads them without it. Not collected by
pytest. Run it from the repository root::

    python tests/make_bright_references.py

Each case is a sweep of ``eta_ab`` over 0.1:0.9:5 at a bright source (nu = 1e4 or 1e6) on one
topology. The float64 values the sweep evaluates (``numpy.linspace``) are taken as exact inputs.
Each state is the whole broadcast network, built at 80 digits from the same EPR, thermal modes and
beamsplitters as ``scenarios.build_scenario``, with the channels a topology does not read left
transparent and none of the sweep's closed forms:

* CMI = 1/2 log2(det G_AE det G_BE / (det G_E det G_ABE)), MI = 1/2 log2(det G_A det G_B / det G_AB);
* discord D(B|A) = S(A) - S(AB) + min over homodyne angles of S(B | x_A), with the pair's
  spectrum from its symplectic invariants and the minimum taken over a grid of angles, which
  must agree (every angle is optimal on these states; the script checks it).
"""
import json
import re
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 80

ETA_AB = np.linspace(0.1, 0.9, 5)
CASES = [("basic", {}),
         ("thermal_channel", {"eta_th": 0.8, "v_th": 2.0}),
         ("full", {"eta_th": 0.8, "v_th": 2.0, "eta_th_a": 0.7, "v_alpha": 3.0,
                   "eta_th_b": 0.4, "v_beta": 5.0})]
NUS = (1e4, 1e6)
# the channel fields a topology does not read, at their transparent setting: eta = 1, vacuum idler
TRANSPARENT = {name: 1 for name in ("eta_th", "v_th", "eta_th_a", "v_alpha", "eta_th_b", "v_beta")}
E, B, A = 0, 1, 3
# test_info.py's BRIGHT_PARAMS, restated: this script does not import the test suite
BRIGHT_PARAMS = {
    "basic": {"eta_ab": 0.3},
    "thermal_channel": {"eta_ab": 0.4, "eta_th": 0.7, "v_th": 5.0},
    "full": {"eta_ab": 0.6, "eta_th": 0.8, "v_th": 3.0, "eta_th_a": 0.9, "eta_th_b": 0.7, "v_alpha": 2.0,
             "v_beta": 4.0},
}
BRIGHT_NUS = (1040.0, 1e4, 1e6)


def epr(nu):
    z = mp.sqrt(nu * nu - 1)
    return mp.matrix([[nu, 0, z, 0], [0, nu, 0, -z], [z, 0, nu, 0], [0, -z, 0, nu]])


def direct_sum(*blocks):
    n = sum(block.rows for block in blocks)
    out, at = mp.zeros(n, n), 0
    for block in blocks:
        for i in range(block.rows):
            for j in range(block.cols):
                out[at + i, at + j] = block[i, j]
        at += block.rows
    return out


def beamsplitter(gamma, i, j, eta):
    """Mode i keeps the transmitted light, mode j the reflected."""
    s = mp.eye(gamma.rows)
    t, r = mp.sqrt(eta), mp.sqrt(1 - eta)
    for k in range(2):
        s[2 * i + k, 2 * i + k], s[2 * i + k, 2 * j + k] = t, r
        s[2 * j + k, 2 * i + k], s[2 * j + k, 2 * j + k] = -r, t
    return s * gamma * s.T


def build(p):
    """The whole network, modes (E, B, V, A, V_a, V_b) as built; a field absent from ``p`` is transparent."""
    p = {**TRANSPARENT, **p}
    thermal = lambda v: mp.diag([v, v])
    gamma = direct_sum(epr(p["nu"]), thermal(p["v_th"]), thermal(1), thermal(p["v_alpha"]), thermal(p["v_beta"]))
    gamma = beamsplitter(gamma, 1, 2, p["eta_th"])
    gamma = beamsplitter(gamma, 1, 3, p["eta_ab"])
    gamma = beamsplitter(gamma, 3, 4, p["eta_th_a"])
    return beamsplitter(gamma, 1, 5, p["eta_th_b"])


def select(gamma, modes):
    idx = [2 * m + k for m in modes for k in range(2)]
    return mp.matrix([[gamma[i, j] for j in idx] for i in idx])


def g(nu):
    if nu <= 1:
        return mp.mpf(0)
    up, down = (nu + 1) / 2, (nu - 1) / 2
    return up * mp.log(up, 2) - down * mp.log(down, 2)


def discord(pair):
    a = pair[0:2, 0:2]
    b = pair[2:4, 2:4]
    c = pair[0:2, 2:4]
    delta = mp.det(a) + mp.det(b) + 2 * mp.det(c)
    root = mp.sqrt(mp.det(pair))
    nu_plus = mp.sqrt((delta + mp.sqrt(delta * delta - 4 * root * root)) / 2)
    conditional = []
    for k in range(16):
        theta = mp.pi * k / 16
        x = mp.matrix([mp.cos(theta), mp.sin(theta)])
        cx = c.T * x
        cond = b - cx * cx.T / (x.T * a * x)[0]
        conditional.append(g(mp.sqrt(mp.det(cond))))
    assert max(conditional) - min(conditional) < mp.mpf(10) ** -60, "the angle matters"
    return g(mp.sqrt(mp.det(a))) - g(nu_plus) - g(root / nu_plus) + min(conditional)


def measures(p):
    gamma = build(p)
    logdet = lambda modes: mp.log(mp.det(select(gamma, modes)), 2)
    cmi = (logdet([A, E]) + logdet([B, E]) - logdet([E]) - logdet([A, B, E])) / 2
    mi = (logdet([A]) + logdet([B]) - logdet([A, B])) / 2
    return cmi, mi, discord(select(gamma, [A, B]))


def main():
    cases = []
    for name, fixed in CASES:
        for nu in NUS:
            rows = []
            for eta_ab in ETA_AB.tolist():
                params = {key: mp.mpf(value) for key, value in dict(fixed, nu=nu, eta_ab=eta_ab).items()}
                rows.append([mp.nstr(value, 50) for value in measures(params)])
            cases.append({"scenario": name, "fixed": dict(fixed, nu=nu), "cmi_mi_discord": rows})
    doc = {"sweep": "eta_ab:0.1:0.9:5", "digits": 50, "cases": cases}
    out = Path(__file__).with_name("bright_references.json")
    # one line per point: the file diffs point by point
    text = json.dumps(doc, indent=1)
    text = re.sub(r"\[\s+(\"[^\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    out.write_text(text + "\n")
    print(f"wrote {out}")


def print_bright_references():
    """Print the nine (discord D(B|A), MI, CMI) tuples of test_info.py's ``BRIGHT_REFERENCES``, 17 digits each."""
    for name, fixed in BRIGHT_PARAMS.items():
        for nu in BRIGHT_NUS:
            cmi, mi, disc = measures({key: mp.mpf(value) for key, value in dict(fixed, nu=nu).items()})
            print(f"    ({name!r}, {nu!r}): ({mp.nstr(disc, 17)}, {mp.nstr(mi, 17)}, {mp.nstr(cmi, 17)}),")


if __name__ == "__main__":
    main()
    print_bright_references()
