"""Lowering-operator eigenstates: coefficients, identities, guards."""
import cmath
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from solvstates import (ConvergenceError, DomainError, SpectrumModel, TruncationError,
                        build_ladder, eigenvalue_residual)
from solvstates import gazeau_klauder as gk


def mp_coefficients(model, z, alpha, n_max):
    """Arbitrary-precision oracle for the state coefficients."""
    with mpmath.workdps(60):
        r2 = mpmath.mpf(abs(z)) ** 2
        prods = [mpmath.mpf(1)]
        for n in range(1, 300):
            prods.append(prods[-1] * mpmath.mpf(model.energy(n)))
        s = sum(r2 ** n / prods[n] for n in range(300))
        out = []
        for n in range(n_max + 1):
            phase = mpmath.e ** (-1j * alpha * mpmath.mpf(model.energy(n)))
            out.append(complex(mpmath.mpc(z) ** n * phase / mpmath.sqrt(prods[n] * s)))
    return np.array(out)


@pytest.mark.parametrize("z,alpha", [(0.5, 0.0), (1.0 + 1.0j, 0.3),
                                     (3.0 * cmath.exp(1j * math.pi / 7), 0.3)])
def test_coefficients_match_high_precision_oracle(pt22, z, alpha):
    state = gk.gk_state(pt22.with_alpha(alpha), z)
    want = mp_coefficients(pt22, z, alpha, state.vector.n_max)
    assert np.max(np.abs(state.vector.coeffs - want)) < 1e-13


def test_state_is_lowering_eigenvector(pt_soft):
    z = 1.0 + 1.0j
    state = gk.gk_state(pt_soft, z)
    rep = build_ladder(pt_soft, state.vector.n_max)
    assert eigenvalue_residual(rep, state.vector, z) < 1e-9
    assert state.vector.tail_bound() < 1e-12


def test_energy_mean_equals_action_variable(pt22):
    for z in (0.5, 1.0 + 1.0j, 2.0j):
        state = gk.gk_state(pt22, z)
        assert abs(state.vector.energy_mean() - abs(z) ** 2) < 1e-8
        assert abs(gk.action_identity(state)) < 1e-8


def test_normalization_series_vs_bessel_closed_form():
    # sum r^{2n}/E(n) = Gamma(nu+1) I_nu(2r) / r^nu
    for nu_pair in ((2.0, 2.0), (2.0, 3.4)):
        model = SpectrumModel.poschl_teller(*nu_pair)
        nu = model.nu
        for r in (0.5, 1.5, 4.0):
            direct = gk.gk_normalization(model, r)
            closed = gk.gk_normalization_closed(model, r)
            oracle = float(sp.gamma(nu + 1.0) * sp.iv(nu, 2.0 * r) / r ** nu)
            assert abs(direct - closed) < 1e-9 * abs(closed)
            assert abs(closed - oracle) < 1e-10 * abs(oracle)


def test_harmonic_normalization_is_gaussian(harmonic):
    # c_0 = 1 / sqrt(S) with S = e^{r^2}
    state = gk.gk_state(harmonic, 1.2)
    assert state.vector.coeffs[0] == pytest.approx(math.exp(-0.72), rel=1e-12)


def test_norm_const_closed_form_pt(pt22):
    # c_0 = 1 / sqrt(S) with S = Gamma(5) I_4(2r) / r^4
    r = 1.3
    state = gk.gk_state(pt22, r)
    want = math.sqrt(r ** 4 / (math.gamma(5.0) * sp.iv(4.0, 2.0 * r)))
    assert state.vector.coeffs[0] == pytest.approx(want, rel=1e-10)


def test_measure_moments_resolve_identity(pt22):
    measure = gk.pt_measure(2.0, 2.0)
    for n in range(11):
        assert gk.identity_moment_check(pt22, measure, n) < 1e-6


@pytest.mark.parametrize("strengths", [(7e3, 3e4), (1e6, 1e6)])
def test_measure_moments_resolve_identity_on_strong_wells(strengths):
    # the cutoff lies past the n_ref-th integrand's peak, sqrt((2n+1)(2n+2nu+1)) / 2
    model = SpectrumModel.poschl_teller(*strengths)
    measure = gk.pt_measure(*strengths)
    for n in range(7):
        assert gk.identity_moment_check(model, measure, n) <= 1e-6


@pytest.mark.parametrize("strengths", [(2.0, 1e12), (1e20, 1.5), (1e150, 2.0), (1e300, 1e300),
                                       (8e307, 8e307)])
def test_measure_moments_fail_past_the_precision_floor(strengths):
    # rho(n) = n! Gamma(n+nu+1) has a log past 1e13 here: one ulp of it exceeds the gate,
    # so the check reads at least that ulp or refuses by name, never a pass by rounding
    model = SpectrumModel.poschl_teller(*strengths)
    measure = gk.pt_measure(*strengths)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (0, 6):
            try:
                assert gk.identity_moment_check(model, measure, n) > 1e-6
            except ConvergenceError as err:
                assert f"n={n}" in str(err) or f"rho({n})" in str(err)


def test_measure_weight_against_scipy_bessel_oracle(pt22):
    # label density (2/pi) I_nu(2r) K_nu(2r) r; dividing out the
    # normalization series leaves the Bessel-K density whose Mellin
    # moments are exactly the level products, which is what makes the
    # moment identity hold for every n at once
    nu = pt22.nu
    measure = gk.pt_measure(2.0, 2.0)
    for r in (0.4, 1.0, 3.2):
        want = (2.0 / math.pi) * sp.iv(nu, 2.0 * r) * sp.kv(nu, 2.0 * r) * r
        assert measure.weight(r) == pytest.approx(want, rel=1e-11)
    for n in (0, 2, 5):
        moment, _ = scipy.integrate.quad(
            lambda r: sp.kv(nu, 2.0 * r) * r ** (2 * n + nu + 1.0), 0.0, 40.0)
        rho_n = sp.gamma(n + 1.0) * sp.gamma(n + nu + 1.0)
        assert moment == pytest.approx(rho_n / 4.0, rel=1e-9)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(1.0, -math.inf)])
def test_nonfinite_label_is_refused_by_name(all_models, z):
    for model in all_models.values():
        with pytest.raises(DomainError, match=re.escape(f"label z = {z}")):
            gk.gk_state(model, z)


def test_identity_moment_rejects_unmeasured_models(harmonic):
    measure = gk.pt_measure(2.0, 2.0)
    with pytest.raises(DomainError):
        gk.identity_moment_check(harmonic, measure, 0)


def test_evolution_multiplies_phases(pt22):
    state = gk.gk_state(pt22.with_alpha(0.1), 1.0 + 0.5j)
    t = 0.37
    moved = gk.evolve(state, t)
    energies = np.array([pt22.energy(n) for n in range(state.vector.n_max + 1)])
    want = state.vector.coeffs * np.exp(-1j * energies * t)
    assert np.max(np.abs(moved.vector.coeffs - want)) < 1e-14
    assert moved.alpha == pytest.approx(state.alpha + t)


def test_evolution_preserves_label_structure(pt22):
    # evolving alpha and rebuilding at the shifted label agree
    z, t = 0.8 + 0.2j, 1.1
    moved = gk.evolve(gk.gk_state(pt22, z), t)
    rebuilt = gk.gk_state(pt22.with_alpha(t), z)
    assert np.max(np.abs(moved.vector.coeffs - rebuilt.vector.coeffs)) < 1e-12


def test_evolved_vector_lives_on_the_shifted_model(pt22):
    # the evolved vector is the eigenvector of the ladder twisted by alpha + t
    z, t = 0.8 + 0.2j, 0.37
    state = gk.gk_state(pt22.with_alpha(0.1), z)
    moved = gk.evolve(state, t)
    assert moved.vector.model.alpha == state.alpha + t
    rep = build_ladder(moved.model, moved.vector.n_max)
    assert eigenvalue_residual(rep, moved.vector, z) < 1e-14


@given(st.floats(min_value=0.05, max_value=2.5),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_normalized_for_any_label(pt22, r, phase):
    state = gk.gk_state(pt22, r * cmath.exp(1j * phase))
    assert state.vector.norm() == pytest.approx(1.0, abs=1e-12)


def test_bargmann_symbol_reproduces_overlap(pt22):
    # <w-state | z-state> = N(w) N(z) * symbol of the z-state at conj(w); the symbol
    # undoes the phases of the model's alpha
    z, w = 0.9 + 0.3j, 0.4 - 0.2j
    for model in (pt22, pt22.with_alpha(0.4)):
        sz = gk.gk_state(model, z)
        sw = gk.gk_state(model, w)
        overlap = sw.vector.inner(sz.vector)
        symbol = gk.bargmann_eval(sz.vector, np.conj(w))
        grams = math.sqrt(gk.gk_normalization(pt22, abs(w)))
        assert overlap == pytest.approx(symbol / grams, rel=1e-10)


def test_divergent_amplitude_rejected():
    table = [0.0] + [1.0 - 0.5 ** n for n in range(1, 40)]
    model = SpectrumModel.custom(table)
    radius = model.radius_estimate()
    with pytest.raises(DomainError):
        gk.gk_state(model, math.sqrt(radius) * 1.01)


def test_short_table_truncation_refused():
    model = SpectrumModel.custom([0.0, 2.1, 4.6, 7.5, 10.8, 14.5])
    with pytest.raises(TruncationError) as err:
        gk.gk_state(model, 0.8)
    assert err.value.suggested_n_max == 5  # 2 N + 16 at N = 4, cut to the last level 5


_SCAN_MODELS = [SpectrumModel.harmonic(), SpectrumModel.square_well()] + [
    SpectrumModel.poschl_teller(k, kp) for k, kp in
    ((1.05, 1.2), (2.0, 2.0), (3.5, 1.2), (1.1, 6.8), (5.0, 5.0))]
_SCAN_RADII = [1e-3, 0.3, 1.6, 3.0, 8.0, 20.0, 60.0]


@pytest.mark.parametrize("first", [1, 5, 40])
def test_auto_n_max_extends_a_short_scan_to_the_same_cut(monkeypatch, first):
    # every search starts too short and doubles, several times over, to the state
    # a first scan long enough finds
    want = {(i, r): gk.gk_state(model, r).vector
            for i, model in enumerate(_SCAN_MODELS) for r in _SCAN_RADII}
    length = gk.certified_length
    monkeypatch.setattr(gk, "certified_length",
                        lambda what, model, z, steps, cert, n_max, top, last:
                        length(what, model, z, steps, cert, n_max, first, last))
    for (i, r), vector in want.items():
        got = gk.gk_state(_SCAN_MODELS[i], r).vector
        assert np.array_equal(got.coeffs, vector.coeffs), (_SCAN_MODELS[i], r)


# automatic n_max of gk_state(harmonic, r e^{0.7i}): the bands that leave out less
# than one ulp of the mass; past 20,000 at r = 150
GK_PINNED_N_MAX = {0.1: 6, 0.5: 11, 1.0: 17, 2.0: 29, 5.0: 75, 10.0: 191, 20.0: 573,
                   40.0: 1936, 150.0: 23730}


def test_gk_states_are_pinned(harmonic):
    for r, n_max in GK_PINNED_N_MAX.items():
        z = r * cmath.exp(0.7j)
        vector = gk.gk_state(harmonic, z).vector
        assert vector.n_max == n_max, r
        # the normalization sums the same bands
        log_s = gk.gk_log_normalization(harmonic, abs(z))
        assert log_s == gk.gk_log_normalization(harmonic, abs(z), n_max), r
        assert abs(vector.coeffs[0]) == pytest.approx(math.exp(-0.5 * log_s), rel=1e-15), r
