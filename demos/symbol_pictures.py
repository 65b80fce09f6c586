"""Two analytic pictures of the same minimum-uncertainty state.

A state is a coefficient list; its analytic symbol repackages the list
as one holomorphic function, once over the plane and once over the unit
disk.  This script recovers the coefficients from each symbol by Taylor
expansion and shows both pictures agree with the direct construction.
"""
import math

import numpy as np

from solvstates import SpectrumModel
from solvstates import intelligent as it
from solvstates.analytic import taylor_coefficients


def main():
    model = SpectrumModel.poschl_teller(2.0, 2.0)
    nu = model.nu
    lam, z = 2.0, 1.0
    state = it.gis_state(model, it.GISParameters(z, lam))

    print("plane symbol: Taylor coefficients against state coefficients\n")
    top = 8
    logs = model.log_products(top)
    radius = math.exp(0.5 * logs[top] / top)
    taylor = taylor_coefficients(
        lambda w: it.gis_bargmann_function(nu, z, lam, w), top, radius=radius)
    symbol = taylor * np.exp(0.5 * np.asarray(logs))
    want = state.coeffs[: top + 1] / state.coeffs[0]
    got = symbol / symbol[0]
    for n in range(top + 1):
        print(f"  n = {n}   symbol {got[n].real:+.10f}   state {want[n].real:+.10f}")
    print(f"  worst relative gap: {np.max(np.abs(got - want) / np.abs(want)):.2e}")

    print("\nboth square-root branches give the same function")
    for w in (0.3, 0.5j):
        plus = it.gis_bargmann_function(nu, z, lam, w, sign=1)
        minus = it.gis_bargmann_function(nu, z, lam, w, sign=-1)
        print(f"  w = {w}:  |branch gap| = {abs(plus - minus):.2e}")

    print("\ndisk symbol, expanded and recovered")
    zeta_prime = 0.5
    vec = it.gis_disk_expansion(nu, zeta_prime, lam, 60)
    taylor = taylor_coefficients(
        lambda w: it.gis_disk_function(nu, zeta_prime, lam, w), top, radius=0.6)
    weights = np.array([math.lgamma(n + 1.0) + math.lgamma(nu + 1.0)
                        - math.lgamma(nu + 1.0 + n) for n in range(top + 1)])
    symbol = taylor * np.exp(0.5 * weights)
    gap = np.max(np.abs(symbol / symbol[0] - vec.coeffs[: top + 1] / vec.coeffs[0])
                 / np.abs(vec.coeffs[: top + 1] / vec.coeffs[0]))
    print(f"  worst relative gap over n <= {top}: {gap:.2e}")

    print("\nhalf-line transform bridging the two pictures")
    for n in (0, 3, 6):
        print(f"  n = {n}:  residual {it.laplace_bridge(nu, n, 0.5):.2e}")


if __name__ == "__main__":
    main()
