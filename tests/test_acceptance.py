"""Acceptance gate: thirteen numbered criteria, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see every line; the
bounds below are the contract and are not derived from the code.
"""
import cmath
import math

import numpy as np
import pytest

from solvstates import (ConvergenceError, SpectrumModel, TruncationError,
                        build_ladder, eigenvalue_residual, gis_recurrence_oracle,
                        uncertainty)
from solvstates import gazeau_klauder as gk
from solvstates import intelligent as it
from solvstates import perelomov as pe
from solvstates import position as po
from solvstates import specfun
from solvstates.analytic import taylor_coefficients
from solvstates.verify import run_suite

HARMONIC = SpectrumModel.harmonic()
PT22 = SpectrumModel.poschl_teller(2.0, 2.0)
PTSOFT = SpectrumModel.poschl_teller(3.5, 1.2)
WELL = SpectrumModel.square_well()

STATE_MODELS = (("harmonic", HARMONIC), ("pt(2,2)", PT22), ("pt(3.5,1.2)", PTSOFT))
Z_POINTS = (0.5, 1.0 + 1.0j, 3.0 * cmath.exp(1j * math.pi / 7))
LAMBDA_POINTS = (1.0, 2.0, 0.5 + 0.5j, cmath.exp(1j * math.pi / 6),
                 cmath.exp(-1j * math.pi / 3))
GIS_Z_POINTS = (0.0, 1.0, 2.0j, 1.5 * cmath.exp(1j * math.pi / 4))


def report(num, label, worst, bound, note=""):
    ok = worst <= bound
    extra = f" [{note}]" if note else ""
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} "
          f"(worst {worst:.3e}, bound {bound:.0e}){extra}")
    assert ok, f"criterion {num}: {worst} > {bound}"


def test_criterion_01_lowering_eigenstate_residuals():
    worst = tail = 0.0
    for _, model in STATE_MODELS:
        for z in Z_POINTS:
            for alpha in (0.0, 0.3):
                state = gk.gk_state(model.with_alpha(alpha), z)
                # the state's model carries the label phase the ladder needs
                rep = build_ladder(state.vector.model, state.vector.n_max)
                worst = max(worst, eigenvalue_residual(rep, state.vector, z))
                tail = max(tail, state.vector.tail_bound())
    assert tail < 1e-12, f"tail bound {tail}"
    report(1, "lowering-eigenstate residuals", worst, 1e-9,
           note=f"max tail {tail:.1e} < 1e-12")


def test_criterion_02_action_identity():
    worst = 0.0
    for _, model in STATE_MODELS:
        for z in Z_POINTS:
            for alpha in (0.0, 0.3):
                state = gk.gk_state(model.with_alpha(alpha), z)
                worst = max(worst, abs(state.vector.energy_mean() - abs(z) ** 2))
    report(2, "energy mean equals squared amplitude", worst, 1e-8)


def test_criterion_03_normalization_closed_form():
    worst = 0.0
    for pair in ((1.5, 1.5), (2.0, 2.0), (2.7, 2.7)):
        model = SpectrumModel.poschl_teller(*pair)
        for r in np.linspace(0.25, 4.0, 16):
            direct = gk.gk_normalization(model, float(r))
            closed = gk.gk_normalization_closed(model, float(r))
            worst = max(worst, abs(direct - closed) / abs(closed))
    report(3, "normalization series vs Bessel form (nu 3, 4, 5.4)", worst, 1e-9)


def test_criterion_04_identity_resolution_moments():
    worst = 0.0
    for model, kappa, kappa_prime in ((WELL, 1.0, 1.0), (PT22, 2.0, 2.0)):
        measure = gk.pt_measure(kappa, kappa_prime)
        for n in range(11):
            worst = max(worst, gk.identity_moment_check(model, measure, n))
    report(4, "resolving-measure moments (nu 2, 4)", worst, 1e-6)


def test_criterion_05_displacement_routes():
    worst = 0.0
    refusals = []
    for name, model in (("harmonic", HARMONIC), ("pt(2,2)", PT22)):
        for r in (0.3, 1.0, 2.0, 3.0):
            columns = {"closed": pe.cn_closed(model, 10, r).values}
            try:
                columns["series"] = np.array(
                    [pe.cn_series(model, n, r) for n in range(11)])
            except TruncationError:
                refusals.append(f"{name} series r={r:g}")
            try:
                columns["ode"] = pe.cn_ode(model, r, 10).values
            except ConvergenceError:
                refusals.append(f"{name} ode r={r:g}")
            scale = np.max(np.abs(columns["closed"]))
            vals = list(columns.values())
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    worst = max(worst, np.max(np.abs(vals[i] - vals[j])) / scale)
    weight_worst = 0.0
    for r in (0.3, 1.0, 2.0, 3.0):
        f_vals = pe.cn_closed(HARMONIC, 10, r).f_values()
        want = np.array([math.factorial(n) * math.exp(r * r) for n in range(11)])
        weight_worst = max(weight_worst, np.max(np.abs(f_vals - want) / want))
    assert weight_worst <= 1e-10, f"harmonic weights {weight_worst}"
    note = (f"harmonic weights {weight_worst:.1e} <= 1e-10; contracted refusals: "
            + ", ".join(refusals))
    report(5, "displacement coefficient routes agree", worst, 1e-7, note=note)


def test_criterion_06_disk_identity_and_kernel():
    worst = 0.0
    for nu in (2.0, 4.0):
        for n in range(11):
            worst = max(worst, pe.disk_identity_check(nu, n))
    kernel_worst = max(
        abs(pe.disk_kernel_closed(nu, zeta, zeta) - 1.0)
        for nu in (2.0, 4.0)
        for zeta in (0.2, 0.4 + 0.3j, -0.5j))
    assert kernel_worst <= 1e-12, f"kernel diagonal {kernel_worst}"
    report(6, "disk identity moments and kernel diagonal", worst, 1e-8,
           note=f"kernel diagonal {kernel_worst:.1e} <= 1e-12")


def test_criterion_07_intelligent_closed_vs_recurrence():
    worst = 0.0
    for _, model in STATE_MODELS:
        for lam in LAMBDA_POINTS:
            for z in GIS_Z_POINTS:
                state = it.gis_state(model, it.GISParameters(z, lam))
                rep = build_ladder(model, state.n_max)
                oracle = gis_recurrence_oracle(rep, z, lam)
                top = min(15, state.n_max, oracle.n_max)
                worst = max(worst, float(np.max(np.abs(
                    state.coeffs[: top + 1] - oracle.coeffs[: top + 1]))))
    report(7, "closed coefficients vs recurrence (60 cells)", worst, 1e-10)


def test_criterion_08_uncertainty_saturation():
    gap_worst = ratio_worst = 0.0
    for _, model in STATE_MODELS:
        for lam in (2.0, 0.5 + 0.5j):
            for z in (1.0, 2.0j):
                state = it.gis_state(model, it.GISParameters(z, lam))
                out = uncertainty(build_ladder(model, state.n_max), state)
                gap_worst = max(gap_worst,
                                (out.rs_product - out.rs_bound) / out.rs_product)
                target = abs(lam) ** 2
                ratio_worst = max(ratio_worst,
                                  abs(out.var_x / out.var_p - target) / target)
    assert ratio_worst <= 1e-8, f"variance ratio {ratio_worst}"
    report(8, "bound saturation and variance ratio", gap_worst, 1e-8,
           note=f"ratio defect {ratio_worst:.1e} <= 1e-8")


def test_criterion_09_unit_circle_laws():
    worst = 0.0
    for _, model in STATE_MODELS:
        for theta in (math.pi / 6, -math.pi / 6, math.pi / 3, -math.pi / 3):
            params = it.GISParameters(1.0, cmath.exp(1j * theta))
            state = it.gis_state(model, params)
            _, checks = it.verify_rs(build_ladder(model, state.n_max), state, params)
            worst = max(worst, checks["equal_variance"], checks["variance_theta"],
                        checks["anticommutator_theta"])
    coherent_worst = 0.0
    for _, model in STATE_MODELS:
        state = it.gis_state(model, it.GISParameters(0.7, 1.0))
        out = uncertainty(build_ladder(model, state.n_max), state)
        coherent_worst = max(coherent_worst, abs(out.mean_f) / out.mean_g)
    state = it.gis_state(HARMONIC, it.GISParameters(0.7, 1.0))
    out = uncertainty(build_ladder(HARMONIC, state.n_max), state)
    coherent_worst = max(coherent_worst, abs(2.0 * out.var_x - 1.0))
    assert coherent_worst <= 1e-10, f"coherent-point laws {coherent_worst}"
    report(9, "unit-circle variance and anticommutator laws", worst, 1e-8,
           note=f"coherent-point laws {coherent_worst:.1e} <= 1e-10")


def test_criterion_10_plane_symbol():
    taylor_worst = 0.0
    for model in (PT22, PTSOFT):
        nu = model.nu
        state = it.gis_state(model, it.GISParameters(1.0, 2.0))
        logs = model.log_products(10)
        radius = math.exp(0.5 * logs[10] / 10)
        taylor = taylor_coefficients(
            lambda w: it.gis_bargmann_function(nu, 1.0, 2.0, w), 10, radius=radius)
        symbol = taylor * np.exp(0.5 * np.asarray(logs))
        want = state.coeffs[:11] / state.coeffs[0]
        got = symbol / symbol[0]
        taylor_worst = max(taylor_worst, float(np.max(np.abs(got - want)
                                                      / np.abs(want))))
    sign_worst = max(
        abs(it.gis_bargmann_function(4.0, 1.0, 2.0, z, sign=1)
            - it.gis_bargmann_function(4.0, 1.0, 2.0, z, sign=-1))
        / abs(it.gis_bargmann_function(4.0, 1.0, 2.0, z, sign=1))
        for z in (0.3, 1.0j, -0.4 + 0.2j))
    assert sign_worst <= 1e-10, f"root-branch pairing {sign_worst}"
    coherent_worst = max(
        abs(it.gis_bargmann_function(4.0, 0.8, 1.0, w)
            - specfun.hyp0f1(5.0, 0.8 * w))
        for w in (0.2, 0.5j, 0.3 - 0.4j))
    assert coherent_worst <= 1e-10, f"coherent degeneration {coherent_worst}"
    report(10, "analytic symbol vs coefficients", taylor_worst, 1e-8,
           note=f"sign pairing {sign_worst:.1e}, coherent limit {coherent_worst:.1e}")


def test_criterion_11_disk_symbol_and_laplace():
    nu, lam, zeta_prime, top = 4.0, 2.0, 0.5, 10
    vec = it.gis_disk_expansion(nu, zeta_prime, lam, 60)
    taylor = taylor_coefficients(
        lambda w: it.gis_disk_function(nu, zeta_prime, lam, w), top, radius=0.6)
    logs = np.array([math.lgamma(n + 1.0) + math.lgamma(nu + 1.0)
                     - math.lgamma(nu + 1.0 + n) for n in range(top + 1)])
    symbol = taylor * np.exp(0.5 * logs)
    want = vec.coeffs[: top + 1] / vec.coeffs[0]
    got = symbol / symbol[0]
    disk_worst = float(np.max(np.abs(got - want) / np.abs(want)))
    laplace_worst = max(it.laplace_bridge(nu_val, n, zeta)
                        for nu_val in (2.0, 4.0)
                        for n in range(9)
                        for zeta in (0.3, 0.5, 0.8))
    assert laplace_worst <= 1e-6, f"laplace bridge {laplace_worst}"
    report(11, "disk symbol expansion", disk_worst, 1e-8,
           note=f"laplace bridge {laplace_worst:.1e} <= 1e-6")


def test_criterion_12_position_realization():
    p = po.PTParameters(2.0, 2.0)
    gram = po.gram_matrix(p, 8)
    gram_worst = float(np.max(np.abs(gram - np.eye(9))))
    assert gram_worst <= 1e-8, f"gram {gram_worst}"
    fd_worst = 0.0
    for n in range(1, 11):
        fd_worst = max(fd_worst, po.schrodinger_residual(p, n))
    for n in range(11):
        fd_worst = max(fd_worst, *po.factorization_residual(p, n))
    u = po.overlap_matrix(p, 20)
    rows = np.sum(np.abs(u) ** 2, axis=1)
    overlap_worst = float(np.max(np.abs(rows[:3] - 1.0)))
    # the full row family closes only as the window grows; require the
    # first untracked row to shrink monotonically toward closure
    row3 = [abs(np.sum(np.abs(po.overlap_matrix(p, m)[3]) ** 2) - 1.0)
            for m in (12, 16, 20)]
    assert row3[0] > row3[1] > row3[2], f"row-3 defects not shrinking: {row3}"
    worst = max(fd_worst, overlap_worst)
    report(12, "position-space realization", worst, 1e-4,
           note=f"gram {gram_worst:.1e} <= 1e-8; row-3 closure "
                f"{row3[0]:.1e} > {row3[1]:.1e} > {row3[2]:.1e}")


def test_criterion_13_kernel_self_checks():
    rep = run_suite("specfun")
    failed = [c.name for c in rep.cases if c.status != "PASS"]
    worst = 0.0 if not failed else 1.0
    report(13, "special-function self checks", worst, 0.5,
           note=f"{rep.summary['pass']} cases" if not failed
           else f"failing: {failed}")
