"""Write ``g2_moments.json``: the moments E[I_a^j I_b^k], j, k <= 2, of a receiver pair's intensities.

Needs sympy (written against 1.14.0). sympy is not a dependency of thermalcast: this script only
makes the committed moments, and the test suite reads them without it. Not collected by pytest.
Run it from the repository root::

    python tests/make_g2_moments.py

The pair is the zero-mean Gaussian (x_a, p_a, x_b, p_b) with covariance [[a I, c I], [c I, b I]] and
I = (x^2 + p^2 - 2) / 4 per mode, as ``hbt.intensity`` defines it. The x pair and the p pair are
independent, each bivariate normal with variances a, b and covariance c, so every moment is a sum of
products of bivariate moments E[x_a^m x_b^n], read off the moment generating function
exp((a s^2 + 2 c s t + b t^2) / 2) by Isserlis' theorem. Nothing here uses the pair law that
``hbt.g2_pairs`` draws from, so the moments check that law too.

Each moment, under the key "j k", is a polynomial in a, b and c2 = c^2, written as its terms
[coefficient, power of a, power of b, power of c2], the coefficient an exact fraction in a string.
"""
import json
from math import comb
from pathlib import Path

import sympy as sp

a, b, c, c2, s, t = sp.symbols("a b c c2 s t")
MGF = sp.exp((a * s ** 2 + 2 * c * s * t + b * t ** 2) / 2)


def pair_moment(m: int, n: int) -> sp.Expr:
    """E[x_a^m x_b^n] of the bivariate normal with variances a, b and covariance c."""
    return sp.expand(sp.diff(MGF, s, m, t, n).subs({s: 0, t: 0}))


def sum_moment(j: int, k: int) -> sp.Expr:
    """E[U^j V^k], U = x_a^2 + p_a^2 and V = x_b^2 + p_b^2, the x and p pairs independent and alike."""
    return sp.expand(sum(comb(j, i) * comb(k, l) * pair_moment(2 * i, 2 * l) * pair_moment(2 * (j - i), 2 * (k - l))
                         for i in range(j + 1) for l in range(k + 1)))


def intensity_moment(j: int, k: int) -> sp.Expr:
    """E[I_a^j I_b^k], I = (U - 2) / 4, as a polynomial in a, b and c2."""
    u, v = sp.symbols("u v")
    poly = sp.Poly(sp.expand(((u - 2) / 4) ** j * ((v - 2) / 4) ** k), u, v)
    moment = sp.expand(sum(coef * sum_moment(p, q) for (p, q), coef in poly.terms()))
    assert sp.expand(moment.subs(c, -c) - moment) == 0  # even in c: a polynomial in c2
    return sp.expand(moment.subs(c, sp.sqrt(c2)))


def terms(moment: sp.Expr) -> list:
    return [[str(coef), *powers] for powers, coef in sp.Poly(moment, a, b, c2).terms()]


def main():
    moments = {f"{j} {k}": terms(intensity_moment(j, k)) for j in range(3) for k in range(3) if j + k}
    # the first two against the known means and correlation: E[I] = (V - 1) / 2, E[I_a I_b] - E[I_a] E[I_b] = c^2 / 4
    assert sp.expand(intensity_moment(1, 0) - (a - 1) / 2) == 0
    assert sp.expand(intensity_moment(1, 1) - (a - 1) * (b - 1) / 4 - c2 / 4) == 0
    out = Path(__file__).with_name("g2_moments.json")
    out.write_text("{\n" + ",\n".join(f" {json.dumps(key)}: {json.dumps(value)}" for key, value in moments.items())
                   + "\n}\n")  # one moment a line
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
