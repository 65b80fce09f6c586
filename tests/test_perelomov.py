"""Displacement states: three coefficient routes, disk picture, kernels."""
import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp

from solvstates import ConvergenceError, SpectrumModel, TruncationError
from solvstates import perelomov as pe


def test_routes_agree_inside_series_radius(pt22):
    for r in (0.3, 1.0):
        closed = pe.cn_closed(pt22, 8, r).values
        ode = pe.cn_ode(pt22, r, 8).values
        series = np.array([pe.cn_series(pt22, n, r) for n in range(9)])
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - ode)) < 1e-7 * scale
        assert np.max(np.abs(closed - series)) < 1e-7 * scale


def test_series_refuses_beyond_its_radius(pt22):
    # generating function has poles at +-i pi/2, so r=2 cannot converge
    with pytest.raises(TruncationError):
        pe.cn_series(pt22, 3, 2.0)


def test_ode_refuses_when_monitor_detects_blowup(pt22):
    with pytest.raises(ConvergenceError):
        pe.cn_ode(pt22, 2.5, 10)


def test_closed_route_covers_large_radius(pt22):
    vals = pe.cn_closed(pt22, 8, 3.0).values
    assert np.all(np.isfinite(vals))
    assert vals[0] > 0


def test_harmonic_weights_are_poissonian(harmonic):
    r = 0.8
    f_vals = pe.cn_closed(harmonic, 8, r).f_values()
    want = np.array([math.factorial(n) * math.exp(r * r) for n in range(9)])
    assert np.max(np.abs(f_vals - want) / want) < 1e-10


def test_harmonic_routes_cover_every_radius(harmonic):
    for r in (0.5, 2.0, 3.0):
        closed = pe.cn_closed(harmonic, 6, r).values
        ode = pe.cn_ode(harmonic, r, 6).values
        series = np.array([pe.cn_series(harmonic, n, r) for n in range(7)])
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - ode)) < 1e-7 * scale
        assert np.max(np.abs(closed - series)) < 1e-7 * scale


def test_plane_to_disk_is_radial_tanh():
    for z in (0.7, 0.7j, 1.5 * cmath.exp(0.4j)):
        zeta = pe.plane_to_disk(z)
        assert abs(zeta) == pytest.approx(math.tanh(abs(z)), rel=1e-14)
        assert cmath.phase(zeta) == pytest.approx(cmath.phase(z), abs=1e-14)


def test_disk_coefficients_against_gamma_oracle(pt22):
    nu = pt22.nu
    zeta = 0.4 + 0.3j
    vec = pe.disk_coefficients(pt22, zeta, n_max=10)
    pref = (1.0 - abs(zeta) ** 2) ** ((nu + 1.0) / 2.0)
    for n in range(11):
        g_n = sp.gamma(n + nu + 1.0) / (sp.gamma(n + 1.0) * sp.gamma(nu + 1.0))
        want = pref * zeta ** n * math.sqrt(g_n)
        assert abs(vec.coeffs[n] - want) < 1e-12


def test_plane_and_disk_routes_give_same_state(pt22):
    z = 1.2 * cmath.exp(0.3j)
    a = pe.perelomov_state(pt22, z, n_max=60)
    b = pe.disk_coefficients(pt22, pe.plane_to_disk(z), n_max=60)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12


def test_perelomov_state_normalized(pt_soft):
    st = pe.perelomov_state(pt_soft, 1.0 + 0.4j)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    assert st.tail_bound() < 1e-12


@pytest.mark.parametrize("nu", [2.0, 4.0])
def test_disk_identity_moments(nu):
    for n in range(11):
        assert pe.disk_identity_check(nu, n) < 1e-8


def test_disk_identity_beta_function_oracle():
    # nu * Integral (1-u)^(nu-1) u^n du * G_n telescopes to 1 exactly
    for nu in (2.0, 4.0, 5.4):
        for n in (0, 3, 7):
            g_n = sp.gamma(n + nu + 1.0) / (sp.gamma(n + 1.0) * sp.gamma(nu + 1.0))
            integral, _ = scipy.integrate.quad(
                lambda u: (1.0 - u) ** (nu - 1.0) * u ** n, 0.0, 1.0)
            assert nu * integral * g_n == pytest.approx(1.0, rel=1e-10)


def test_kernel_closed_form_oracle():
    nu = 4.0
    k = (nu + 1.0) / 2.0
    z1, z2 = 0.3 + 0.2j, -0.1 + 0.5j
    got = pe.disk_kernel_closed(nu, z1, z2)
    want = ((1.0 - abs(z1) ** 2) ** k * (1.0 - abs(z2) ** 2) ** k
            / (1.0 - np.conj(z1) * z2) ** (2.0 * k))
    assert abs(got - want) < 1e-12 * abs(want)


def test_kernel_unit_diagonal():
    for nu in (2.0, 5.4):
        z = 0.4 + 0.3j
        assert abs(pe.disk_kernel_closed(nu, z, z) - 1.0) < 1e-12


def test_kernel_reproduces_itself():
    assert pe.kernel_reproducing_residual(4.0, 0.3 + 0.1j, 0.2 - 0.4j) < 1e-8


def test_disk_label_must_stay_inside():
    from solvstates import DomainError
    with pytest.raises(DomainError):
        pe.disk_coefficients(SpectrumModel.poschl_teller(2.0, 2.0), 1.0 + 0.0j)


@pytest.mark.parametrize("nu", [2.0, 2.2, 4.0, 7.9])
def test_log_gamma_ratio_matches_mpmath(nu):
    got = pe._log_gamma_ratio(nu, 1500)
    want = np.array([float(mpmath.loggamma(n + nu + 1) - mpmath.loggamma(n + 1)
                           - mpmath.loggamma(nu + 1)) for n in range(1501)])
    assert np.max(np.abs(got - want)) < 5e-12


def test_harmonic_amplitude_logs_match_mpmath(harmonic):
    r, top = 1.3, 1500
    got = pe._amp_logs(harmonic, r, top)
    want = np.array([float(n * mpmath.log(r) - r * r / 2 - mpmath.loggamma(n + 1) / 2)
                     for n in range(top + 1)])
    assert np.max(np.abs(got - want)) < 1e-11
