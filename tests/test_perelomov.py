"""Displacement states: three coefficient routes, disk picture, kernels."""
import cmath
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp

from solvstates import ConvergenceError, DomainError, FockVector, SpectrumModel, TruncationError
from solvstates import perelomov as pe
from solvstates.tolerances import SIZE_CEILING


def test_routes_agree_inside_series_radius(pt22):
    # at r = 1 the series certifies bands 0..3; from band 4 on its terms cancel
    # by more than 3e3 and its rounding bound passes 1e-10, so it refuses
    for r, certified in ((0.3, 9), (1.0, 4)):
        closed = pe.cn_closed(pt22, 8, r).values
        ode = pe.cn_ode(pt22, r, 8).values
        series = np.array([pe.cn_series(pt22, n, r) for n in range(certified)])
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - ode)) < 1e-7 * scale
        assert np.max(np.abs(closed[:certified] - series)) < 1e-7 * scale
        for n in range(certified, 9):
            with pytest.raises(TruncationError, match="cancels: condition number"):
                pe.cn_series(pt22, n, r)


def test_series_refuses_beyond_its_radius(pt22):
    # generating function has poles at +-i pi/2, so r=2 cannot converge
    with pytest.raises(TruncationError):
        pe.cn_series(pt22, 3, 2.0)


def test_series_overflow_far_outside_its_radius_is_a_clean_refusal(pt22):
    # at r = 5 the 400th term overflows; that is a refusal, not a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TruncationError):
            pe.cn_series(pt22, 3, 5.0, j_cap=400)


def test_ode_refuses_when_monitor_detects_blowup(monkeypatch, pt22):
    # a propagator that does not keep the norm: the monitor must refuse, not return
    expm1 = pe._skew_expm1
    monkeypatch.setattr(pe, "_skew_expm1",
                        lambda low, high: expm1(low, high) + 1e-6 * np.eye(low.size + 1))
    with pytest.raises(ConvergenceError, match=r"coefficient blow-up at r=0\.5000"):
        pe.cn_ode(pt22, 0.5, 8)


_ACCURACY_MODELS = [SpectrumModel.harmonic(), SpectrumModel.square_well(),
                    SpectrumModel.poschl_teller(2.0, 2.0), SpectrumModel.poschl_teller(3.5, 1.2)]
_ACCURACY_IDS = ["harmonic", "well", "pt:2,2", "pt:3.5,1.2"]


@pytest.mark.parametrize("name,model", zip(_ACCURACY_IDS, _ACCURACY_MODELS), ids=_ACCURACY_IDS)
def test_ode_matches_closed_form_per_band(name, model):
    extra = {"harmonic": (2.0, 3.0), "well": (2.0,)}.get(name, ())
    for r in (0.01, 0.05, 0.3, 0.5, 1.0, 1.5) + extra:
        for n_max in (8, 10):
            closed = pe.cn_closed(model, n_max, r).values
            ode = pe.cn_ode(model, r, n_max).values
            assert np.max(np.abs(ode - closed) / closed) <= 1e-12, (r, n_max)


@pytest.mark.parametrize("model", [
    SpectrumModel.harmonic(),
    SpectrumModel.square_well(),
    SpectrumModel.poschl_teller(2.0, 2.0),
    SpectrumModel.poschl_teller(2.7, 3.1),
], ids=["harmonic", "well", "pt:2,2", "pt:2.7,3.1"])
@pytest.mark.parametrize("r", [0.3, 0.5, 1.0])
def test_adaptive_ode_matches_closed_form(model, r):
    for n_max in (8, 10):
        closed = pe.cn_closed(model, n_max, r).values
        ode = pe.cn_ode(model, r, n_max).values
        assert np.max(np.abs(ode - closed)) < 1e-10 * np.max(np.abs(closed))


def test_adaptive_ode_matches_series_on_tabulated_spectrum(custom_table):
    r, n_max = 0.5, 8
    ode = pe.cn_ode(custom_table, r, n_max).values
    series = np.array([pe.cn_series(custom_table, n, r) for n in range(n_max + 1)])
    assert np.max(np.abs(ode - series)) < 1e-10 * np.max(np.abs(series))


def _scalar_series(model, n, r, j_cap):
    try:
        return pe.cn_series(model, n, r, j_cap), False
    except TruncationError:
        return math.nan, True


@pytest.mark.parametrize("j_cap", [160, 400])
def test_series_kernel_equals_scalar_series_bitwise(all_models, j_cap):
    # row n of one pass over bands 0..37 is band n's own series: every column is a prefix
    # accumulation, so verify's column and cn_series agree bit for bit, refusals included
    for name, model in all_models.items():
        for r in (1e-3, 0.3, 0.5, 1.0, 1.3, 1.5, 2.0, 3.0):
            values, ok, _, _ = pe._series_bands(model, 37, r, j_cap)
            want = [_scalar_series(model, n, r, j_cap) for n in range(38)]
            assert (~ok).tolist() == [bad for _, bad in want], (name, r)
            got = np.where(ok, values, math.nan)
            assert np.array_equal(got, [value for value, _ in want], equal_nan=True), (name, r)
        if name not in ("harmonic", "well"):
            assert not pe._series_bands(model, 37, 1.5, j_cap)[1].all(), "refusals are exercised"


def test_series_refusal_names_the_depth_it_needs(pt22):
    with pytest.raises(TruncationError) as err:
        pe.cn_series(pt22, 10, 1.2)
    assert err.value.suggested_n_max is None
    assert "n_max" not in str(err.value)
    needed = int(re.search(r"about j_cap >= (\d+) needed", str(err.value)).group(1))
    assert needed > 160
    # at that depth the tail settles, but the sum has lost its digits to
    # cancellation: the refusal names the condition number, and the settled
    # value is indeed far off the closed form
    with pytest.raises(TruncationError, match=r"condition number sum\|t\|/\|sum t\| = 2\.44e\+08"):
        pe.cn_series(pt22, 10, 1.2, j_cap=needed)
    values, ok, _, _ = pe._series_bands(pt22, 10, 1.2, needed)
    closed = pe.cn_closed(pt22, 10, 1.2).values[10]
    assert not ok[10]
    assert abs(values[10] - closed) > 1e-7 * closed


def test_displacement_route_refusals_are_pinned(harmonic, pt22):
    refusals = []
    for name, model in (("harmonic", harmonic), ("pt(2,2)", pt22)):
        for r in (0.3, 1.0, 2.0, 3.0):
            try:
                [pe.cn_series(model, n, r) for n in range(11)]
            except TruncationError:
                refusals.append(f"{name} series r={r:g}")
            try:
                pe.cn_ode(model, r, 10)
            except ConvergenceError:
                refusals.append(f"{name} ode r={r:g}")
    # the flow certifies pt(2,2) at r = 2 by N = 384, its band cap, and not at r = 3;
    # the series refuses where its terms cancel: harmonic at r = 3 (by e^9) and
    # pt(2,2) from band 4 at r = 1
    assert refusals == ["harmonic series r=3", "pt(2,2) series r=1", "pt(2,2) series r=2",
                        "pt(2,2) series r=3", "pt(2,2) ode r=3"]


@pytest.mark.parametrize("n, r, error", [(4, 1.4, 1.29e-6), (11, 1.3, 2.07e-3),
                                         (21, 1.2, 0.264), (25, 1.3, 1.18e6)])
def test_series_refuses_where_its_terms_cancel(pt22, n, r, error):
    # each of these settles its tail by j_cap = 400 to a value far off the closed form
    closed = pe.cn_closed(pt22, n, r).values[n]
    values, ok, cond, _ = pe._series_bands(pt22, n, r, 400)
    assert not ok[n]
    assert abs(values[n] - closed) / closed == pytest.approx(error, rel=0.05)
    named = re.escape(f"condition number sum|t|/|sum t| = {cond[n]:.3g}")
    with pytest.raises(TruncationError, match=named):
        pe.cn_series(pt22, n, r, j_cap=400)


def test_verify_series_column_stays_certified(all_models):
    # verify's series column: bands 0..8 at r = 0.5, on every kind of spectrum
    models = list(all_models.values()) + [SpectrumModel.poschl_teller(3.9, 3.9),
                                          SpectrumModel.poschl_teller(1.2, 1.2)]
    for model in models:
        _, ok, _, _ = pe._series_bands(model, 8, 0.5, pe._SERIES_J_CAP)
        assert ok.all(), model


def test_ode_refuses_at_the_band_cap(pt22):
    with pytest.raises(ConvergenceError, match="not certified by N=384: its last two truncations "
                                               r"agree on \d+ leading bands; N=384 is the band cap"):
        pe.cn_ode(pt22, 3.0, 10)


def test_ode_refuses_at_the_end_of_a_table(custom_table, long_table):
    short = SpectrumModel.custom(custom_table.table[:30])
    with pytest.raises(TruncationError, match="not certified by N=29: its last two truncations "
                                              "agree on .* the energy table ends at level 29"):
        pe.cn_ode(short, 3.0, 8)
    # 2 n_max + 4 = 32 bands pass the end at n_max = 14: truncations 14, 28 and 29 certify
    # bands 0..14, as the table's 240-level continuation gives them
    got, want = pe.cn_ode(short, 0.5, 14).values, pe.cn_ode(long_table, 0.5, 14).values
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    with pytest.raises(TruncationError, match="N=29: its last two truncations agree on 12 "):
        pe.cn_ode(short, 0.5, 15)
    with pytest.raises(TruncationError, match="N=29: no pair of truncations covers the bands asked for"):
        pe.cn_ode(short, 0.5, 29)


def test_ode_starts_from_half_a_table_its_first_truncation_would_pass(custom_table, long_table):
    # 2 n_max + 4 = 40 bands pass the 40-level table's end at n_max = 18: the doubling starts
    # from truncation 19, whose double 38 fits, and the pair 38 / 39 certifies bands 0..18
    for r in (0.1, 1.0):
        got = pe.cn_ode(custom_table, r, 18).values
        values, ok, _, _ = pe._series_bands(custom_table, 18, r, pe._SERIES_J_CAP)
        settled = int(np.cumprod(ok).sum())  # the series has room for every band only near 0
        assert settled == (19 if r < 0.5 else 6)
        assert np.max(np.abs(got[:settled] - values[:settled]) / values[:settled]) <= 1e-13
    # from n_max = 19 on the flow starts from n_max, the first truncation holding the bands asked
    # for: the pair 19 / 39 certifies bands 0..19, as the table's 240-level continuation gives them
    for r in (0.1, 1.0):
        got, want = pe.cn_ode(custom_table, r, 19).values, pe.cn_ode(long_table, r, 19).values
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
        # the pair 20 / 39 agrees on fewer bands than the 21 asked for
        with pytest.raises(TruncationError, match=r"not certified by N=39: its last two truncations "
                                                  r"agree on \d+ leading bands; the energy table "
                                                  "ends at level 39"):
            pe.cn_ode(custom_table, r, 20)


@pytest.mark.parametrize("name", ["harmonic", "well", "pt22", "custom"])
@pytest.mark.parametrize("r", [0.0, 1e-4, 1e-3, 0.0011, 0.01])
def test_ode_runs_the_flow_at_every_radius(all_models, long_table, name, r):
    # below r = 1 the flow carries y_n / r^n = c_n sqrt(E_1 ... E_n), which does not
    # underflow as r goes to 0 (y_n itself did: on harmonic at r = 0.0011, from n_max = 83)
    model = all_models[name]
    if name != "custom":
        for n_max in (8, 29, 120):
            got = pe.cn_ode(model, r, n_max).values
            closed = pe.cn_closed(model, n_max, r).values
            assert np.max(np.abs(got - closed) / closed) <= 1e-12, n_max
        return
    got = pe.cn_ode(model, r, 8).values
    series = np.array([pe.cn_series(model, n, r) for n in range(9)])
    assert np.max(np.abs(got - series) / series) <= 1e-12
    # n_max = 29 asks for a first truncation of 62 bands, past the 40-level table's end, so the
    # flow starts from 29: the pair 29 / 39 certifies bands 0..29 up to r = 1e-4, as the table's
    # 240-level continuation and the series, with room for four terms on band 29, give them
    if r <= 1e-4:
        got = pe.cn_ode(model, r, 29).values
        series = np.array([pe.cn_series(model, n, r) for n in range(30)])
        for want in (pe.cn_ode(long_table, r, 29).values, series):
            assert np.max(np.abs(got - want) / want) <= 1e-12
    else:
        with pytest.raises(TruncationError, match="N=39: its last two truncations agree on 29 "):
            pe.cn_ode(model, r, 29)
    with pytest.raises(TruncationError, match="no pair of truncations covers the bands asked "
                                              "for; the energy table ends at level 39"):
        pe.cn_ode(model, r, 39)
    # band 30 has room for three terms: the lowest such band refuses
    with pytest.raises(TruncationError, match=r"band-30 series \(room for 3 terms\)"):
        pe.cn_series(model, 30, r)


def test_closed_route_covers_large_radius(pt22):
    vals = pe.cn_closed(pt22, 8, 3.0).values
    assert np.all(np.isfinite(vals))
    assert vals[0] > 0


@pytest.mark.parametrize("model", _ACCURACY_MODELS, ids=_ACCURACY_IDS)
def test_closed_block_matches_per_level_lgamma(model):
    for r in (0.0, 1e-3, 0.3, 1.0, 3.0, 8.0):
        got = pe.cn_closed(model, 40, r).values
        if model.kind == "harmonic":
            want = [math.exp(-0.5 * r * r - math.lgamma(n + 1.0)) for n in range(41)]
        else:
            ratio = math.log(math.tanh(r) / r) if r > 0.0 else 0.0
            want = [math.exp(-math.lgamma(n + 1.0) - (model.nu + 1.0) * math.log(math.cosh(r))
                             + n * ratio) for n in range(41)]
        assert np.max(np.abs(got - want) / np.array(want)) < 1e-13, r


def test_log_cosh_keeps_its_relative_accuracy_as_r_goes_to_zero():
    # the prefactor -(nu + 1) log cosh r of a strong well: log cosh r = r^2 / 2 near 0,
    # where r + log(1 + e^{-2r}) - log 2 cancels to 0 and left a state of mass e^{+...}
    for r in (1e-300, 6.9e-28, 1e-10, 1e-5, 0.3, 0.999, 1.0, 3.0, 40.0, 800.0):
        with mpmath.workdps(40):  # cosh r = 1 + 2 sinh^2(r / 2), without cancellation
            want = float(mpmath.log1p(2 * mpmath.sinh(mpmath.mpf(r) / 2) ** 2))
        assert pe._log_cosh(r) == pytest.approx(want, rel=1e-15, abs=0.0), r
    strong = SpectrumModel.poschl_teller(9.074316606177094e119, 1.0316930944780123)
    # its band masses still grow at band 653: no tail bound certifies them
    with pytest.raises(TruncationError, match="state tail bound inf not certified below 1e-10 "
                                              "at n_max=653") as err:
        pe.perelomov_state(strong, complex(-6.870216817740281e-28, 2.7e-230), n_max=653)
    assert err.value.suggested_n_max == 1322


def test_harmonic_weights_are_poissonian(harmonic):
    r = 0.8
    f_vals = pe.cn_closed(harmonic, 8, r).f_values()
    want = np.array([math.factorial(n) * math.exp(r * r) for n in range(9)])
    assert np.max(np.abs(f_vals - want) / want) < 1e-10


def test_harmonic_routes_cover_every_radius(harmonic):
    for r in (0.5, 2.0, 3.0):
        closed = pe.cn_closed(harmonic, 6, r).values
        ode = pe.cn_ode(harmonic, r, 6).values
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - ode)) < 1e-7 * scale
        if r == 3.0:
            # the harmonic terms cancel by e^{r^2} = 8.1e3, past the series' rounding bound
            for n in range(7):
                with pytest.raises(TruncationError, match=r"condition number .* = 8\.1e\+03"):
                    pe.cn_series(harmonic, n, r)
            continue
        series = np.array([pe.cn_series(harmonic, n, r) for n in range(7)])
        assert np.max(np.abs(closed - series)) < 1e-7 * scale


def test_plane_to_disk_is_radial_tanh():
    for z in (0.7, 0.7j, 1.5 * cmath.exp(0.4j)):
        zeta = pe.plane_to_disk(z)
        assert abs(zeta) == pytest.approx(math.tanh(abs(z)), rel=1e-14)
        assert cmath.phase(zeta) == pytest.approx(cmath.phase(z), abs=1e-14)


def test_disk_coefficients_against_gamma_oracle(pt22):
    nu = pt22.nu
    zeta = 0.4 + 0.3j
    vec = pe.disk_coefficients(pt22, zeta, n_max=40)
    pref = (1.0 - abs(zeta) ** 2) ** ((nu + 1.0) / 2.0)
    for n in range(11):
        g_n = sp.gamma(n + nu + 1.0) / (sp.gamma(n + 1.0) * sp.gamma(nu + 1.0))
        want = pref * zeta ** n * math.sqrt(g_n)
        assert abs(vec.coeffs[n] - want) < 1e-12


def test_plane_and_disk_routes_give_same_state(pt22):
    z = 1.2 * cmath.exp(0.3j)
    a = pe.perelomov_state(pt22, z, n_max=120)
    b = pe.disk_coefficients(pt22, pe.plane_to_disk(z), n_max=120)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12
    # bands 0..60 leave out 1.6e-6 of the mass: the same tail bound refuses both routes
    for build in (lambda: pe.perelomov_state(pt22, z, n_max=60),
                  lambda: pe.disk_coefficients(pt22, pe.plane_to_disk(z), n_max=60)):
        with pytest.raises(TruncationError, match=r"tail bound 1\.\d+e-06 not certified below "
                                                  "1e-10 at n_max=60"):
            build()


def test_explicit_n_max_is_certified_by_the_tail_bound(harmonic, pt22):
    # bands 0..30 of harmonic at r = 3 leave out 7.9e-9 of the mass
    with pytest.raises(TruncationError, match=r"displacement state tail bound \d\.\d+e-08 not "
                                              "certified below 1e-10 at n_max=30") as err:
        pe.perelomov_state(harmonic, 3.0, n_max=30)
    assert err.value.suggested_n_max == 76
    state = pe.perelomov_state(harmonic, 3.0, n_max=40)
    assert state.tail_bound() < 1e-10
    # the closed prefactor, summed over the same bands, confirms the mass the state keeps
    kept = math.fsum(pe.cn_closed(harmonic, 40, 3.0).f_values() ** -1.0 * 9.0 ** np.arange(41))
    assert 1.0 - kept < 1e-10
    # the disk picture's explicit n_max is certified the same way
    with pytest.raises(TruncationError, match="tail bound .* at n_max=10"):
        pe.disk_coefficients(pt22, 0.4 + 0.3j, n_max=10)


@pytest.mark.parametrize("model", _ACCURACY_MODELS[1:3], ids=_ACCURACY_IDS[1:3])
@pytest.mark.parametrize("r", [19.1, 25.0, 60.0])
@pytest.mark.parametrize("n_max", [None, 10, 800])
def test_far_perelomov_state_is_a_vector_or_a_truncation(model, r, n_max):
    # tanh r rounds to 1 here; the disk radius must not reach log(1 - tanh^2 r)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            state = pe.perelomov_state(model, r * cmath.exp(0.7j), n_max=n_max)
        except TruncationError:
            return
    assert np.all(np.isfinite(state.coeffs))
    assert n_max is None or state.n_max == n_max


def test_perelomov_state_normalized(pt_soft):
    st = pe.perelomov_state(pt_soft, 1.0 + 0.4j)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    assert st.tail_bound() < 1e-12


@pytest.mark.parametrize("nu", [2.0, 4.0])
def test_disk_identity_moments(nu):
    for n in range(11):
        assert pe.disk_identity_check(nu, n) < 1e-8


@pytest.mark.parametrize("nu", [100.0, 2e6, 1e300])
def test_disk_identity_moments_on_strong_wells(nu):
    # in s = log(t / (1-t)) the (1-t)^(nu-1) endpoint power is an exponential tail, and
    # nu G_n p^(n+1) is summed as logs of ratios near 1, so nothing cancels at any nu
    for n in range(21):
        assert pe.disk_identity_check(nu, n) <= 1e-12


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


def test_kernel_at_large_index_is_one_exponential():
    # at nu = 2e6 each power alone leaves the float range; their product does not
    nu = 2e6
    z = 0.4 + 0.3j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pe.disk_kernel_closed(nu, z, z) == 1.0
        for z1, z2 in ((0.3 + 0.2j, 0.3005 + 0.2j), (0.9, 0.9 + 1e-4j)):
            got = pe.disk_kernel_closed(nu, z1, z2)
            with mpmath.workdps(40):
                p = mpmath.mpf(nu + 1) / 2
                want = complex(mpmath.exp(p * mpmath.log(1 - abs(z1) ** 2)
                                          + p * mpmath.log(1 - abs(z2) ** 2)
                                          - 2 * p * mpmath.log(1 - mpmath.conj(z1) * z2)))
            assert abs(got - want) < 1e-9 * abs(want)


def test_twisted_kernel_against_direct_sum():
    # distinct phase labels twist term n by e^{i (alpha1 - alpha2) n (n + nu)}
    nu, z1, z2, a1, a2 = 4.0, 0.3 + 0.2j, -0.1 + 0.5j, 0.4, -0.3
    ns = np.arange(400)
    g_n = np.exp(sp.gammaln(ns + nu + 1.0) - sp.gammaln(ns + 1.0) - sp.gammaln(nu + 1.0))
    series = np.sum(g_n * (np.conj(z1) * z2) ** ns * np.exp(1j * (a1 - a2) * ns * (ns + nu)))
    pref = ((1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2)) ** ((nu + 1.0) / 2.0)
    assert abs(pe.disk_kernel(nu, z1, z2, a1, a2) - pref * series) < 1e-13
    assert abs(pe.disk_kernel(nu, z1, z2) - pe.disk_kernel_closed(nu, z1, z2)) < 1e-13


def test_kernel_reproduces_itself():
    assert pe.kernel_reproducing_residual(4.0, 0.3 + 0.1j, 0.2 - 0.4j) < 1e-8


def test_disk_label_must_stay_inside():
    from solvstates import DomainError
    with pytest.raises(DomainError):
        pe.disk_coefficients(SpectrumModel.poschl_teller(2.0, 2.0), 1.0 + 0.0j)
    with pytest.raises(DomainError, match=r"\|zeta\| = nan"):
        pe.disk_coefficients(SpectrumModel.poschl_teller(2.0, 2.0), complex(math.nan, 0.0))


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(1.0, math.inf)])
def test_nonfinite_label_is_refused_by_name(all_models, z):
    for model in all_models.values():
        with pytest.raises(DomainError, match=re.escape(f"label z = {z}")):
            pe.perelomov_state(model, z)


@pytest.mark.parametrize("nu", [2.0, 2.2, 4.0, 7.9])
def test_log_gamma_ratio_matches_mpmath(nu):
    # 6,960 levels, more than an automatic state at r = 3 has on any of these wells
    got = pe._log_gamma_ratio(nu, 6959)
    with mpmath.workdps(60):
        want = np.array([float(mpmath.loggamma(n + nu + 1) - mpmath.loggamma(n + 1)
                               - mpmath.loggamma(nu + 1)) for n in range(6960)])
    assert np.max(np.abs(got - want)) < 5e-12


# automatic n_max of perelomov_state(model, r e^{-1.1i}): the bands that leave out less
# than one ulp of the mass; past 6,959 from r = 5 on
PE_PINNED_N_MAX = {
    (2.0, 2.0): (6, 9, 18, 29, 87, 241, 659, 1796, 4887, 266936),
    (3.5, 1.2): (7, 9, 18, 30, 90, 249, 683, 1862, 5067, 276813),
    "well": (6, 8, 16, 26, 77, 214, 584, 1591, 4327, 236325),
}
PE_PINNED_RADII = (0.05, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0)


def test_perelomov_states_are_pinned():
    for key, pinned in PE_PINNED_N_MAX.items():
        model = SpectrumModel.square_well() if key == "well" else SpectrumModel.poschl_teller(*key)
        for r, n_max in zip(PE_PINNED_RADII, pinned):
            state = pe.perelomov_state(model, r * cmath.exp(-1.1j))
            assert state.n_max == n_max, (key, r)
            assert state.norm() == pytest.approx(1.0, abs=1e-12), (key, r)


def test_auto_state_refuses_at_the_size_ceiling(pt22):
    # r = 5 needs 266,936 bands; at r = 8 no length up to the ceiling certifies
    assert pe.perelomov_state(pt22, 5.0).tail_bound() < 1e-15
    for build in (lambda: pe.perelomov_state(pt22, 8.0),
                  lambda: pe.disk_coefficients(pt22, math.tanh(8.0))):
        with pytest.raises(TruncationError, match=f"size ceiling of {SIZE_CEILING} leaves") as err:
            build()
        assert err.value.suggested_n_max is None
    # an explicit n_max is refused by its tail bound: bands 0..60 hold 1.6e-12 of the mass
    # at r = 5, and their masses still grow
    with pytest.raises(TruncationError, match="tail bound inf not certified below 1e-10 at n_max=60"):
        pe.perelomov_state(pt22, 5.0, n_max=60)


@pytest.mark.parametrize("z", [0.5, 0.9, 1.3])
def test_tabulated_copy_of_a_ladder_gives_its_closed_form_state(pt22, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        state = pe.perelomov_state(SpectrumModel.custom(pt22.energies(399)), z)
    want = pe.perelomov_state(pt22, z, n_max=state.n_max)
    assert np.max(np.abs(state.coeffs - want.coeffs)) <= 1e-12
    assert state.tail_bound() < 1e-10


def test_tabulated_state_with_n_max_is_a_prefix_of_a_certified_run(custom_table):
    z = 0.5 + 0.3j
    auto = pe.perelomov_state(custom_table, z)
    assert auto.n_max >= 20 and auto.tail_bound() < 1e-10
    assert auto.norm() == pytest.approx(1.0, abs=1e-12)
    for n_max in (16, auto.n_max):
        got = pe.perelomov_state(custom_table, z, n_max=n_max)
        # on 40 levels one pair of truncations, 24 and 39 bands, certifies both
        assert np.array_equal(got.coeffs, auto.coeffs[: n_max + 1])


def test_tabulated_state_refusals(custom_table):
    twelve = SpectrumModel.custom(custom_table.table[:12])
    refusals = [
        # no band count certifies the tail of a state this wide before the table ends
        (custom_table, 3.0, None, "not certified by N=39: its last two truncations agree on", None),
        # the 24- and 39-band truncations do not agree on 31 bands
        (custom_table, 0.3, 30, r"not certified by N=39: its last two truncations agree on \d+ ",
         None),
        # three bands cannot certify a tail
        (custom_table, 0.3, 2, "tabulated state tail bound inf not certified below 1e-10 at n_max=2",
         20),
        (twelve, 0.5, None, "not certified by N=11: its last two truncations agree on 7 ", None),
        # two levels leave no pair of truncations at all
        (SpectrumModel.custom(custom_table.table[:2]), 0.3, None,
         "not certified by N=1: no pair of truncations covers the bands asked for", None),
    ]
    for model, z, n_max, message, suggested in refusals:
        with pytest.raises(TruncationError, match=message) as err:
            pe.perelomov_state(model, z, n_max=n_max)
        assert err.value.suggested_n_max == suggested


def test_short_table_state_starts_from_half_its_table(custom_table, long_table):
    # 24 bands pass a twelve-level table's end: truncations 5, 10 and 11 certify bands 0..7,
    # as the table's 240-level continuation gives them
    assert np.array_equal(long_table.table[:40], custom_table.table)
    state = pe.perelomov_state(SpectrumModel.custom(custom_table.table[:12]), 0.3)
    want = pe.perelomov_state(long_table, 0.3, n_max=7)
    assert state.n_max == 7 and state.tail_bound() < 1e-10
    assert np.max(np.abs(state.coeffs - want.coeffs)) <= 1e-12


def test_harmonic_amplitude_logs_match_mpmath(harmonic):
    # the masses are a cumsum of log ratios; at r = 30 every band up to 1,500 is a
    # normal float, so the state's own coefficients show the logs
    r, top = 30.0, 1500
    got = np.log(np.abs(pe.perelomov_state(harmonic, r, n_max=top).coeffs))
    want = np.array([float(n * mpmath.log(r) - r * r / 2 - mpmath.loggamma(n + 1) / 2)
                     for n in range(top + 1)])
    assert np.max(np.abs(got - want)) < 1e-11
