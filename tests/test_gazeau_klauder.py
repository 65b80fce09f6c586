"""Lowering-operator eigenstates: coefficients, identities, guards."""
import cmath
import math
import re

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from solvstates import (DomainError, SpectrumModel, TruncationError, build_ladder,
                        eigenvalue_residual)
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
    want = mp_coefficients(pt22, z, alpha, 12)
    assert np.max(np.abs(state.vector.coeffs[:13] - want)) < 1e-13


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


def _walk_n_max(model, r):
    """The automatic n_max by a level-by-level walk, one energy(n) call per level."""
    log_r2 = 2.0 * math.log(r) if r > 0 else -math.inf
    log_term = peak = 0.0
    n = 0
    while n < 20000:
        n += 1
        e_n = model.energy(n)
        log_term += log_r2 - math.log(e_n)
        peak = max(peak, log_term)
        if log_term < peak + math.log(1e-40) and e_n > r * r:
            break
    return max(n, 12)


_WALK_MODELS = [SpectrumModel.harmonic(), SpectrumModel.square_well()] + [
    SpectrumModel.poschl_teller(k, kp) for k, kp in
    ((1.05, 1.2), (1.2, 1.2), (1.5, 2.0), (2.0, 2.0), (2.7, 3.1), (3.5, 1.2),
     (3.9, 3.9), (1.1, 6.8), (5.0, 5.0))]
_WALK_RADII = [0.0, 1e-3] + np.linspace(0.05, 20.0, 80).tolist() + [3.0, 8.0, 60.0, 150.0]


def test_auto_n_max_equals_the_level_walk():
    for model in _WALK_MODELS:
        for r in _WALK_RADII:
            assert gk._auto_n_max(model, r) == _walk_n_max(model, r), (model, r)


@pytest.mark.parametrize("first", [1, 5, 40])
def test_auto_n_max_extends_a_short_scan_to_the_same_cut(monkeypatch, first):
    # every search starts too short and is extended, several times over
    monkeypatch.setattr(gk, "_first_scan", lambda model, r: first)
    for model in _WALK_MODELS:
        for r in _WALK_RADII:
            assert gk._auto_n_max(model, r) == _walk_n_max(model, r), (model, r)


# automatic n_max of gk_state(harmonic, r e^{0.7i}), captured from the search
# that restarted its scan at 64, 256, 1,024, ... levels
GK_PINNED_N_MAX = {0.1: 15, 0.5: 25, 1.0: 35, 2.0: 55, 3.0: 75, 5.0: 119, 8.0: 200,
                   10.0: 264, 15.0: 457, 20.0: 701, 30.0: 1337, 40.0: 2173}


def test_gk_states_are_pinned(harmonic):
    for r, n_max in GK_PINNED_N_MAX.items():
        z = r * cmath.exp(0.7j)
        vector = gk.gk_state(harmonic, z).vector
        assert vector.n_max == n_max, r
        # the coefficients as built with a separate log_products for the normalization
        ns = np.arange(n_max + 1)
        log_s = gk.gk_log_normalization(harmonic, abs(z), n_max)
        log_mag = ns * math.log(abs(z)) - 0.5 * harmonic.log_products(n_max) - 0.5 * log_s
        phase = np.exp(1j * (ns * np.angle(z) - 0.0 * harmonic.energies(n_max)))
        assert np.array_equal(vector.coeffs, np.exp(log_mag) * phase), r
