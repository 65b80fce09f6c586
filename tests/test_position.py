"""Position realization: eigenfunctions, factorization, partner family."""
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from solvstates import DomainError, specfun
from solvstates import position as po
from solvstates.verify import run_suite


P22 = po.PTParameters(2.0, 2.0)
PSOFT = po.PTParameters(3.5, 1.2)
PWIDE = po.PTParameters(2.5, 3.0, a=1.7)
PLOW = po.PTParameters(1.2, 1.2)  # psi'' grows like x^(kappa - 2) at both walls


def test_box_and_nu():
    assert P22.box == pytest.approx(math.pi)
    assert P22.nu == pytest.approx(4.0)
    assert PWIDE.box == pytest.approx(1.7 * math.pi)


def test_parameter_guards():
    for bad in ((1.0, 2.0), (2.0, 0.9), (2.0, 2.0, -1.0)):
        with pytest.raises(DomainError):
            po.PTParameters(*bad)


def test_potential_well_shape():
    # symmetric exponents give a symmetric well with a single minimum
    xs = po.interior_grid(P22, 801)
    vals = po.potential(P22, xs)
    mid = po.potential(P22, math.pi / 2.0)
    assert mid == pytest.approx(-2.0, abs=1e-12)
    assert np.all(vals >= mid - 1e-12)
    sym = po.potential(P22, math.pi - xs)
    assert np.max(np.abs(vals - sym) / np.abs(vals)) < 1e-10


def test_potential_outside_box_rejected():
    for x in (-0.1, 0.0, math.pi, 4.0):
        with pytest.raises(DomainError):
            po.potential(P22, x)


def test_superpotential_vanishes_at_symmetric_midpoint():
    assert po.superpotential(P22, math.pi / 2.0) == pytest.approx(0.0, abs=1e-14)


def test_superpotential_is_log_derivative_of_ground_state():
    xs = po.interior_grid(P22, 101, margin=0.3)
    h = 1e-6
    psi0 = lambda x: po.eigenfunction(P22, 0, x)
    for x in xs[::10]:
        log_deriv = (psi0(x + h) - psi0(x - h)) / (2.0 * h * psi0(x))
        assert po.superpotential(P22, x) == pytest.approx(-log_deriv, rel=1e-7, abs=1e-7)


def test_riccati_form_of_potential():
    # W^2 - W' reproduces the well at zero ground energy
    xs = po.interior_grid(PWIDE, 61, margin=0.4)
    h = 1e-6
    for x in xs[::6]:
        w = po.superpotential(PWIDE, x)
        w_prime = (po.superpotential(PWIDE, x + h) - po.superpotential(PWIDE, x - h)) / (2.0 * h)
        assert w * w - w_prime == pytest.approx(po.potential(PWIDE, x), rel=1e-7, abs=1e-6)


def test_partner_shift_identity():
    # V_+ - V_- equals twice the superpotential slope
    xs = po.interior_grid(P22, 41, margin=0.35)
    h = 1e-6
    for x in xs[::4]:
        gap = po.partner_potential(P22, x) - po.potential(P22, x)
        w_prime = (po.superpotential(P22, x + h) - po.superpotential(P22, x - h)) / (2.0 * h)
        assert gap == pytest.approx(2.0 * w_prime, rel=1e-7)


def test_partner_is_shifted_steeper_well():
    # V_+ matches the (kappa+1, kappa'+1) well up to the constant (nu+1)/a^2
    shifted = po.PTParameters(3.0, 3.0)
    xs = po.interior_grid(P22, 31, margin=0.5)
    gap = po.partner_potential(P22, xs) - po.potential(shifted, xs)
    assert np.max(np.abs(gap - 5.0)) < 1e-10


@pytest.mark.parametrize("p", [P22, PSOFT, PWIDE])
def test_energies(p):
    nu = p.nu
    for n in range(5):
        assert po.energy(p, n) == pytest.approx(n * (n + nu) / p.a ** 2)
        assert po.partner_energy(p, n) == pytest.approx((n + 1) * (n + nu + 1) / p.a ** 2)


@pytest.mark.parametrize("p", [P22, PSOFT])
def test_eigenfunctions_orthonormal(p):
    gram = po.gram_matrix(p, 8)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-8


def test_orthonormality_scipy_oracle():
    # independent quadrature for a pair of entries
    f = lambda x: po.eigenfunction(P22, 3, x) ** 2
    val, _ = scipy.integrate.quad(f, 1e-9, math.pi - 1e-9, limit=200)
    assert val == pytest.approx(1.0, rel=1e-9)
    g = lambda x: po.eigenfunction(P22, 3, x) * po.eigenfunction(P22, 5, x)
    val, _ = scipy.integrate.quad(g, 1e-9, math.pi - 1e-9, limit=200)
    assert abs(val) < 1e-9


@pytest.mark.parametrize("p", [P22, PSOFT, PWIDE])
def test_schrodinger_residuals(p):
    for n in range(1, 5):
        assert po.schrodinger_residual(p, n) < 1e-4


@pytest.mark.parametrize("p", [P22, PSOFT])
def test_factorization_residuals(p):
    for n in (0, 2, 5):
        r1, r2 = po.factorization_residual(p, n)
        assert r1 < 1e-4
        assert r2 < 1e-4


def test_rayleigh_quotients(PT=P22):
    for n in (1, 3, 6):
        got = po.rayleigh_quotient(PT, n)
        want = po.energy(PT, n)
        assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("p", [P22, PSOFT, PWIDE])
def test_residual_families_equal_their_row_readers_bitwise(p):
    r1, r2 = po.factorization_residuals(p, 10)
    schrodinger = po.schrodinger_residuals(p, 10)
    rayleigh = po.rayleigh_quotients(p, 10)
    assert math.isnan(schrodinger[0])
    for n in range(11):
        assert po.factorization_residual(p, n) == (r1[n], r2)
        assert po.rayleigh_quotient(p, n) == rayleigh[n]
        if n:
            assert po.schrodinger_residual(p, n) == schrodinger[n]
    # row n of the family against A^- psi_{n+1} - sqrt(E_{n+1}) theta_n built row by row
    nodes, weights = po._quad_nodes(p, 200)
    w = po.superpotential(p, nodes)
    for n in (0, 4, 10):
        slope = po._jet(p, n + 1, nodes)[1][n + 1]
        lowered = -slope - w * po.eigenfunction(p, n + 1, nodes)
        miss = lowered - math.sqrt(po.energy(p, n + 1)) * po.partner_eigenfunction(p, n, nodes)
        assert r1[n] == math.sqrt(np.dot(weights, miss * miss))
    with pytest.raises(DomainError):
        po.schrodinger_residuals(p, 0)
    with pytest.raises(DomainError):
        po.factorization_residuals(p, 11)


def _closed_form(p, n):
    """psi_n as a function of x at mpmath's working precision."""
    k, kp, a = (mpmath.mpf(v) for v in (p.kappa, p.kappa_prime, p.a))
    log_c = (mpmath.log(a) + mpmath.loggamma(n + k + 0.5) + mpmath.loggamma(n + kp + 0.5)
             - mpmath.loggamma(n + 1) - mpmath.loggamma(n + k + kp) - mpmath.log(2 * n + k + kp))
    scale = mpmath.exp(-log_c / 2)
    return lambda x: (scale * mpmath.cos(x / (2 * a)) ** kp * mpmath.sin(x / (2 * a)) ** k
                      * mpmath.jacobi(n, k - 0.5, kp - 0.5, mpmath.cos(x / a)))


@pytest.mark.parametrize("p", [P22, PSOFT, PWIDE, PLOW])
def test_derivative_rows_match_mpmath_diff(p):
    # seven points, two of them 1e-3 from a wall, where psi'' grows like x^(kappa - 2)
    xs = np.array([1e-3, 0.1, 0.3 * p.box, 0.5 * p.box, 0.77 * p.box, p.box - 0.1, p.box - 1e-3])
    psi, *derivatives = po._jet(p, 10, xs)
    assert np.array_equal(psi, po.eigenfunctions(p, 10, xs))
    with mpmath.workdps(30):
        for n in range(11):
            f = _closed_form(p, n)
            for order, rows in enumerate(derivatives, start=1):
                want = np.array([float(mpmath.diff(f, mpmath.mpf(x), order)) for x in xs])
                miss = np.max(np.abs(rows[n] - want)) / np.max(np.abs(want))
                assert miss < 1e-12, (n, order, miss)


@pytest.mark.parametrize("p", [P22, PSOFT, PWIDE, PLOW, po.PTParameters(1.05, 1.05)])
def test_residual_families_sit_at_rounding_level(p):
    r1, r2 = po.factorization_residuals(p, 10)
    assert max(np.max(r1), r2) <= 1e-12
    assert np.max(po.schrodinger_residuals(p, 10)[1:]) <= 1e-12
    quotients = po.rayleigh_quotients(p, 10)
    assert abs(quotients[0]) <= 1e-13  # E_0 = 0
    for n in range(1, 11):
        assert abs(quotients[n] - po.energy(p, n)) <= 1e-13 * po.energy(p, n)


def test_partner_functions_solve_partner_problem():
    # theta_n are eigenfunctions of the steeper well shifted by (nu+1)/a^2
    shifted = po.PTParameters(3.0, 3.0)
    xs = po.interior_grid(P22, 17, margin=0.6)
    got = po.partner_eigenfunction(P22, 2, xs)
    want = po.eigenfunction(shifted, 2, xs)
    assert np.max(np.abs(got - want)) < 1e-12
    assert po.partner_energy(P22, 2) == pytest.approx(po.energy(shifted, 2) + 5.0)


def test_boundary_decay_exponents():
    # psi ~ sin^kappa near 0: halving the distance scales by 2^-kappa
    x1, x2 = 2e-3, 1e-3
    ratio = po.eigenfunction(PSOFT, 0, x1) / po.eigenfunction(PSOFT, 0, x2)
    assert ratio == pytest.approx(2.0 ** 3.5, rel=1e-4)
    y1, y2 = math.pi - 2e-3, math.pi - 1e-3
    ratio = po.eigenfunction(PSOFT, 0, y1) / po.eigenfunction(PSOFT, 0, y2)
    assert ratio == pytest.approx(2.0 ** 1.2, rel=1e-4)


def test_overlap_matrix_rows_and_columns():
    u = po.overlap_matrix(P22, 20)
    assert np.max(np.abs(u.imag)) < 1e-12
    col = np.sum(np.abs(u) ** 2, axis=0)
    assert abs(col[0] - 1.0) < 1e-6
    row = np.sum(np.abs(u) ** 2, axis=1)
    for n in range(3):
        assert abs(row[n] - 1.0) < 1e-4


def test_overlap_rows_close_as_window_grows():
    defects = []
    for n_max in (12, 16, 20):
        u = po.overlap_matrix(P22, n_max)
        defects.append(abs(np.sum(np.abs(u[3]) ** 2) - 1.0))
    assert defects[0] > defects[1] > defects[2]


def _partner_params(p):
    return po.PTParameters(p.kappa + 1.0, p.kappa_prime + 1.0, p.a)


def _reference_row(p, n, x):
    # psi_n from its own recurrence run, one degree at a time
    u = x / (2.0 * p.a)
    shape = (np.cos(u) ** p.kappa_prime * np.sin(u) ** p.kappa
             * specfun.jacobi_p(n, p.kappa - 0.5, p.kappa_prime - 0.5, np.cos(x / p.a)))
    return math.exp(-0.5 * po._log_norm(p, n)) * shape


@pytest.mark.parametrize("p", [P22, PSOFT])
def test_eigenfunction_rows_equal_single_eigenfunctions_bitwise(p):
    xs = po.interior_grid(p, 301)
    rows = po.eigenfunctions(p, 50, xs)
    partner_rows = po.eigenfunctions(_partner_params(p), 50, xs)
    assert rows.shape == (51, 301)
    for n in range(51):
        assert np.array_equal(rows[n], po.eigenfunction(p, n, xs)), n
        assert np.array_equal(rows[n], _reference_row(p, n, xs)), n
        assert np.array_equal(partner_rows[n], po.partner_eigenfunction(p, n, xs)), n
    assert po.eigenfunctions(p, 7, 1.1)[7] == po.eigenfunction(p, 7, 1.1)


@pytest.mark.parametrize("p", [P22, PSOFT, PWIDE])
def test_gram_and_overlap_equal_a_per_degree_assembly_bitwise(p):
    nodes, weights = po._quad_nodes(p, 200)
    rows = np.array([_reference_row(p, n, nodes) for n in range(31)])
    assert np.array_equal(po.gram_matrix(p, 30), rows @ (weights[:, None] * rows.T))
    # overlap_matrix returns its finer resolution once the two agree
    nodes, weights = po._quad_nodes(p, 260)
    psi = np.array([_reference_row(p, n, nodes) for n in range(21)])
    theta = np.array([_reference_row(_partner_params(p), m, nodes) for m in range(21)])
    want = (psi @ (weights[:, None] * theta.T)).astype(complex)
    assert np.array_equal(po.overlap_matrix(p, 20), want)


def test_matrices_make_one_recurrence_pass_per_family_and_order(monkeypatch):
    passes = []
    rows = po.jacobi_rows

    def counted(n, a, b, x):
        passes.append((n, a, b, np.size(x)))
        return rows(n, a, b, x)

    monkeypatch.setattr(po, "jacobi_rows", counted)
    po.overlap_matrix(P22, 20)
    # psi and theta, at 200 and at 260 nodes
    assert sorted(passes) == [(20, 1.5, 1.5, 200), (20, 1.5, 1.5, 260),
                              (20, 2.5, 2.5, 200), (20, 2.5, 2.5, 260)]
    passes.clear()
    po.gram_matrix(P22, 30)
    assert passes == [(30, 1.5, 1.5, 200)]


def test_position_suite_makes_one_pass_per_grid(monkeypatch):
    passes = []
    rows = po.eigenfunctions

    def counted(p, n_max, x):
        passes.append((p.kappa, n_max, np.shape(x)))
        return rows(p, n_max, x)

    monkeypatch.setattr(po, "eigenfunctions", counted)
    report = run_suite("position")
    assert report.ok
    # psi and theta at 200 and 260 nodes; the derivative pass reuses the 200 nodes and theta
    assert sorted(passes) == sorted([
        (2.0, 20, (200,)), (3.0, 20, (200,)), (2.0, 20, (260,)), (3.0, 20, (260,))])


def test_eigenfunction_degree_guard():
    with pytest.raises(DomainError):
        po.eigenfunction(P22, 51, 1.0)
    with pytest.raises(DomainError):
        po.eigenfunction(P22, -1, 1.0)


def test_grid_function_round_trip(tmp_path):
    xs = po.interior_grid(P22, 50)
    gf = po.GridFunction(xs, po.eigenfunction(P22, 1, xs))
    out = tmp_path / "psi1.csv"
    gf.to_csv(out)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 0], xs, atol=0)
    assert np.allclose(data[:, 1], gf.values, atol=0)


def test_grid_function_validation():
    xs = np.array([0.2, 0.1])
    with pytest.raises(DomainError):
        po.GridFunction(xs, xs)
    with pytest.raises(DomainError):
        po.GridFunction(np.array([0.1, 0.2]), np.zeros(3))
