"""Position-space picture: well, ladder of bound states, partner well.

Writes CSV profiles next to this script (delete them freely) and prints
the evidence, from exact derivatives of the closed-form states, that the
abstract ladder and the concrete differential operator describe the same
physics.
"""
import pathlib

import numpy as np

from solvstates import position as po


def main():
    p = po.PTParameters(2.0, 2.0)
    here = pathlib.Path(__file__).resolve().parent
    xs = po.interior_grid(p, 601)

    po.GridFunction(xs, po.potential(p, xs)).to_csv(here / "well.csv")
    for n in range(3):
        po.GridFunction(xs, po.eigenfunction(p, n, xs)).to_csv(here / f"psi_{n}.csv")
    print(f"wrote well.csv and psi_0..psi_2.csv under {here}\n")

    print("spectral law E_n = n (n + nu), checked three ways")
    print(f"{'n':>3} {'E_n':>8} {'rayleigh':>14} {'schrodinger resid':>18} {'r1':>10} {'r2':>10}")
    for n in range(1, 6):
        e_n = po.energy(p, n)
        ray = po.rayleigh_quotient(p, n)
        sch = po.schrodinger_residual(p, n)
        r1, r2 = po.factorization_residual(p, n)
        print(f"{n:3d} {e_n:8.1f} {ray:14.8f} {sch:18.2e} {r1:10.2e} {r2:10.2e}")

    print("\npartner well: same ladder shifted one rung")
    for n in range(4):
        print(f"  E_{n}^+ = {po.partner_energy(p, n):6.1f}"
              f"   matches E_{n + 1} = {po.energy(p, n + 1):6.1f}")

    gram = po.gram_matrix(p, 8)
    print(f"\northonormality defect over psi_0..psi_8: "
          f"{np.max(np.abs(gram - np.eye(9))):.2e}")
    u = po.overlap_matrix(p, 20)
    row0 = abs(np.sum(np.abs(u[0]) ** 2) - 1.0)
    print(f"ground-row closure defect of the partner overlap: {row0:.2e}")


if __name__ == "__main__":
    main()
