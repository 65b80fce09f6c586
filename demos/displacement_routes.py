"""Three independent routes to the displacement coefficients.

The closed form works at every radius.  The power series stops at its
convergence radius; the initial-value route stops when doubling its band
count moves the requested bands, which happens once its series closure
stops certifying.  Both refusals are contracts, not accidents, and this
script shows where each route lives.
"""
import numpy as np

from solvstates import ConvergenceError, SpectrumModel, TruncationError
from solvstates import perelomov as pe


def main():
    model = SpectrumModel.poschl_teller(2.0, 2.0)
    print("displacement coefficients c_n(r), poschl-teller (2, 2), n <= 6\n")
    for r in (0.3, 1.0, 2.0):
        closed = pe.cn_closed(model, 6, r).values
        line = {"closed": closed}
        try:
            line["series"] = np.array([pe.cn_series(model, n, r) for n in range(7)])
        except TruncationError as err:
            print(f"r = {r:3.1f}  series refused: {err}")
        try:
            line["ode"] = pe.cn_ode(model, r, 6).values
        except ConvergenceError as err:
            print(f"r = {r:3.1f}  ode integration refused: {err}")
        scale = np.max(np.abs(closed))
        for name, vals in line.items():
            gap = np.max(np.abs(vals - closed)) / scale
            print(f"r = {r:3.1f}  {name:6s}  c_0 = {vals[0]:+.8f}   max gap vs closed = {gap:.2e}")
        print()

    print("harmonic cross-check: the weights must be n! e^(r^2)")
    r = 1.5
    f_vals = pe.cn_closed(SpectrumModel.harmonic(), 5, r).f_values()
    import math
    for n, f_n in enumerate(f_vals):
        want = math.factorial(n) * math.exp(r * r)
        print(f"  n = {n}   F_n = {f_n:14.6f}   n! e^(r^2) = {want:14.6f}")


if __name__ == "__main__":
    main()
