"""Minimum-uncertainty states: closed coefficients, variance laws, pictures."""
import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from solvstates import (ConvergenceError, DomainError, LambdaRejected, SpectrumModel,
                        TruncationError, build_ladder, gis_recurrence_oracle, uncertainty)
from solvstates import gazeau_klauder as gk
from solvstates import intelligent as it
from solvstates import perelomov as pe
from solvstates import specfun
from solvstates.analytic import taylor_coefficients
from solvstates.tolerances import SIZE_CEILING
from solvstates.verify import _gis_closed_form


def brute_delta(model, n, h):
    total = 0.0
    for combo in itertools.combinations(range(1, n), h):
        if all(b - a >= 2 for a, b in zip(combo, combo[1:])):
            prod = 1.0
            for i in combo:
                prod *= model.energy(i)
            total += prod
    return total


@pytest.mark.parametrize("n,h", [(2, 0), (4, 1), (6, 2), (9, 3), (12, 4)])
def test_delta_table_against_brute_force(pt22, n, h):
    assert it.delta_nh(pt22, n, h) == pytest.approx(brute_delta(pt22, n, h), rel=1e-12)


def test_delta_empty_product(pt_soft):
    assert it.delta_nh(pt_soft, 1, 0) == 1.0
    assert it.delta_nh(pt_soft, 5, 0) == 1.0


def mp_recurrence(model, z, lam, n_max):
    """60-digit forward recurrence for the defining eigenvalue relation."""
    with mpmath.workdps(60):
        z, lam = mpmath.mpc(z), mpmath.mpc(lam)
        d = [mpmath.mpf(1), 2 * z / ((1 + lam) * mpmath.sqrt(model.energy(1)))]
        for n in range(1, n_max):
            up = mpmath.sqrt(model.energy(n + 1))
            down = mpmath.sqrt(model.energy(n))
            d.append((2 * z * d[n] - (1 - lam) * down * d[n - 1]) / ((1 + lam) * up))
        norm = mpmath.sqrt(sum(abs(c) ** 2 for c in d))
        return np.array([complex(c / norm) for c in d])


@pytest.mark.parametrize("lam,z", [(2.0, 1.0), (0.5 + 0.5j, 1.5 * cmath.exp(1j * math.pi / 4)),
                                   (cmath.exp(-1j * math.pi / 3), 2.0j)])
def test_closed_coefficients_match_high_precision_recurrence(pt22, lam, z):
    state = it.gis_state(pt22, it.GISParameters(z, lam))
    want = mp_recurrence(pt22, z, lam, state.n_max)
    # fix the global phase on the ground component
    want *= state.coeffs[0] / want[0]
    assert np.max(np.abs(state.coeffs - want)) < 1e-10


@pytest.mark.parametrize("name", ["harmonic", "pt22", "pt_soft", "well", "custom"])
def test_delta_sum_closed_form_matches_recurrence(all_models, name):
    # the independent route the gis verify suite keeps for n <= 15
    model = all_models[name]
    start = min(90, model.last_level - 1)
    for lam, z in ((2.0, 1.0), (2.0 + 1.0j, 2.0j), (1.5, -1.0 + 0.5j), (1.0, 1.0)):
        state = it.gis_coefficients(model, it.GISParameters(z, lam), start)
        closed = _gis_closed_form(state.model, z, lam, 15) * state.coeffs[0]
        assert np.max(np.abs(closed - state.coeffs[:16])) < 1e-12


def test_closed_matches_float_recurrence_oracle(pt_soft):
    z, lam = 1.0, 2.0
    state = it.gis_state(pt_soft, it.GISParameters(z, lam))
    rep = build_ladder(pt_soft, state.n_max)
    oracle = gis_recurrence_oracle(rep, z, lam)
    top = min(15, state.n_max)
    assert np.max(np.abs(state.coeffs[: top + 1] - oracle.coeffs[: top + 1])) < 1e-10


def test_cancellation_rescue_at_large_argument(pt22):
    # |2z| > 4 drives the alternating sums into catastrophic cancellation
    # around n ~ 35; the high-precision oracle certifies the rescue
    z, lam = 2.2, 2.0
    state = it.gis_state(pt22, it.GISParameters(z, lam))
    assert state.n_max >= 40
    want = mp_recurrence(pt22, z, lam, state.n_max)
    want *= state.coeffs[0] / want[0]
    assert np.max(np.abs(state.coeffs - want)) < 1e-9


@pytest.mark.parametrize("n", [90, 200, 400])
@pytest.mark.parametrize("z", [3.0, -2.5 + 1.0j, 2.0j])
@pytest.mark.parametrize("lam", [0.05, 0.3, 0.1 + 0.05j, 2.0])
@pytest.mark.parametrize("name", ["harmonic", "well", "pt22"])
def test_recurrence_matches_high_precision_oracle(all_models, name, lam, z, n):
    # small |lam| decays slowly; where n cannot certify the tail the state of
    # automatic length is compared instead
    model, params = all_models[name], it.GISParameters(z, lam)
    try:
        state = it.gis_coefficients(model, params, n)
    except TruncationError:
        state = it.gis_state(model, params)
    want = mp_recurrence(model, z, lam, state.n_max)
    assert np.max(np.abs(state.coeffs - want)) <= 1e-12


@pytest.mark.parametrize("z", [40.0, 80.0])
def test_large_displacement_never_returns_zeros(harmonic, z):
    # the coefficients peak near e^{|z|^2/2}, far beyond float range, before
    # they decay; the rescaled recurrence must certify or refuse, not overflow
    try:
        state = it.gis_coefficients(harmonic, it.GISParameters(z, 2.0), 800)
    except TruncationError:
        return
    assert np.all(np.isfinite(state.coeffs))
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_rescaled_recurrence_matches_oracle_past_float_range(harmonic):
    # the automatic length grows 90, 196, ..., 3376 bands over one rescaled prefix
    z, lam = 40.0, 2.0
    state = it.gis_state(harmonic, it.GISParameters(z, lam))
    assert state.n_max == 3376 and state.tail_bound() < 1e-10
    want = mp_recurrence(harmonic, z, lam, state.n_max)
    assert np.max(np.abs(state.coeffs - want)) <= 1e-12


@pytest.mark.parametrize("name", ["harmonic", "pt22", "pt_soft", "well", "table141"])
def test_moments_meet_the_exact_oracles(all_models, name):
    # <(1+lam) a- + (1-lam) a+> = 2z gives Re A + i lam Im A = z for A = <a->, so
    # <X> = sqrt2 (Re z + Im lam Im z / Re lam) and <P> = sqrt2 Im z / Re lam on every
    # model; on harmonic G = 1 also fixes var_x = |lam|^2 / (2 Re lam), var_p = 1 / (2 Re lam)
    levels = np.arange(141.0)
    model = all_models.get(name) or SpectrumModel.custom(0.5 * levels * (levels + 3.0))
    for lam, z in ((2.0, 1.0), (0.5 + 0.5j, 1.5 * cmath.exp(1j * math.pi / 4)),
                   (cmath.exp(-1j * math.pi / 3), 2.0j), (0.3 + 0.2j, -0.8 + 0.4j)):
        state = it.gis_state(model, it.GISParameters(z, lam))
        report = uncertainty(build_ladder(model, state.n_max), state)
        lam, z = complex(lam), complex(z)
        mean_p = math.sqrt(2.0) * z.imag / lam.real
        mean_x = math.sqrt(2.0) * (z.real + lam.imag * z.imag / lam.real)
        scale = max(1.0, abs(mean_x), abs(mean_p))
        assert abs(report.mean_x - mean_x) <= 1e-12 * scale, (lam, z)
        assert abs(report.mean_p - mean_p) <= 1e-12 * scale, (lam, z)
        if name == "harmonic":
            assert report.var_x == pytest.approx(abs(lam) ** 2 / (2.0 * lam.real), rel=1e-12)
            assert report.var_p == pytest.approx(1.0 / (2.0 * lam.real), rel=1e-12)


def test_defining_relation_holds(pt22, dense_lowering):
    z, lam = 1.0 + 0.5j, 1.5
    state = it.gis_state(pt22, it.GISParameters(z, lam))
    a = dense_lowering(pt22, state.n_max)
    op = (1.0 + lam) * a + (1.0 - lam) * a.conj().T
    resid = op @ state.coeffs - 2.0 * z * state.coeffs
    assert np.max(np.abs(resid[:-2])) < 1e-9


def test_lambda_one_reduces_to_lowering_eigenstate(pt22):
    z = 0.9 + 0.2j
    state = it.gis_state(pt22, it.GISParameters(z, 1.0))
    ref = gk.gk_state(pt22, z).vector
    top = min(state.n_max, ref.n_max)
    # same ray; align phases through the ground component
    ratio = ref.coeffs[0] / state.coeffs[0]
    assert np.max(np.abs(state.coeffs[: top + 1] * ratio - ref.coeffs[: top + 1])) < 1e-10


@pytest.mark.parametrize("bad,reason", [(-1.0, "lambda_minus_one"),
                                        (0.0, "nonpositive_real_part"),
                                        (1.0j, "nonpositive_real_part"),
                                        (-0.3 + 2.0j, "nonpositive_real_part")])
def test_lambda_rejections(bad, reason):
    with pytest.raises(LambdaRejected) as err:
        it.GISParameters(1.0, bad)
    assert err.value.reason == reason


@pytest.mark.parametrize("z,lam", [(math.nan, 2.0), (1.0, math.inf), (1.0, complex(1.0, math.nan))])
def test_nonfinite_labels_are_refused(z, lam):
    with pytest.raises(DomainError, match="GIS labels must be finite"):
        it.GISParameters(z, lam)


def test_lambda_classification():
    assert it.validate_lambda(1.0) == "coherent"
    assert it.validate_lambda(cmath.exp(0.5j)) == "coherent"
    assert it.validate_lambda(2.0) == "squeezed"
    assert it.validate_lambda(0.5 + 0.5j) == "squeezed"


@given(st.floats(min_value=-1.4, max_value=1.4))
def test_unit_modulus_always_coherent(theta):
    assert it.validate_lambda(cmath.exp(1j * theta)) == "coherent"


def test_rs_equality_saturated(pt22):
    params = it.GISParameters(1.0, 2.0)
    state = it.gis_state(pt22, params)
    rep = build_ladder(pt22, state.n_max)
    report, checks = it.verify_rs(rep, state, params)
    product = report.var_x * report.var_p
    assert checks["equality_gap"] <= 1e-8 * product
    assert checks["var_x_split"] < 1e-8
    assert checks["var_p_split"] < 1e-8


def test_variance_ratio_is_lambda_modulus_squared(pt22):
    for lam in (2.0, 0.5 + 0.5j):
        state = it.gis_state(pt22, it.GISParameters(1.0, lam))
        rep = build_ladder(pt22, state.n_max)
        out = uncertainty(rep, state)
        assert out.var_x / out.var_p == pytest.approx(abs(lam) ** 2, rel=1e-8)


@pytest.mark.parametrize("theta", [math.pi / 6, -math.pi / 6, math.pi / 3, -math.pi / 3])
def test_unit_circle_theta_laws(pt22, theta):
    lam = cmath.exp(1j * theta)
    params = it.GISParameters(1.0, lam)
    state = it.gis_state(pt22, params)
    rep = build_ladder(pt22, state.n_max)
    report, checks = it.verify_rs(rep, state, params)
    assert checks["equal_variance"] < 1e-8
    assert checks["variance_theta"] < 1e-8
    assert checks["anticommutator_theta"] < 1e-8
    # the anticommutator mean follows the commutator mean by tan(theta)
    assert report.mean_f == pytest.approx(math.tan(theta) * report.mean_g, rel=1e-7)


def test_lambda_one_kills_anticommutator(harmonic, pt22):
    for model in (harmonic, pt22):
        state = it.gis_state(model, it.GISParameters(0.7, 1.0))
        rep = build_ladder(model, state.n_max)
        out = uncertainty(rep, state)
        assert abs(out.mean_f) < 1e-10 * out.mean_g
    # oscillator ground-family variance: 2 var_x = 1 in these units
    state = it.gis_state(harmonic, it.GISParameters(0.7, 1.0))
    out = uncertainty(build_ladder(harmonic, state.n_max), state)
    gap = np.diff(state.model.energies(1))[0]
    assert 2.0 * gap * out.var_x == pytest.approx(1.0, abs=1e-10)


def test_bargmann_function_taylor_matches_coefficients(pt22):
    nu = pt22.nu
    lam, z = 2.0, 1.0
    state = it.gis_state(pt22, it.GISParameters(z, lam))
    logs = pt22.log_products(10)
    radius = math.exp(0.5 * logs[10] / 10)
    taylor = taylor_coefficients(
        lambda w: it.gis_bargmann_function(nu, z, lam, w), 10, radius=radius)
    symbol = taylor * np.exp(0.5 * logs)
    want = state.coeffs[:11] / state.coeffs[0]
    got = symbol / symbol[0]
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8


def test_bargmann_kummer_signs_agree(pt22):
    nu = pt22.nu
    for z in (0.3, 1.0j, -0.4 + 0.2j):
        plus = it.gis_bargmann_function(nu, 1.0, 2.0, z, sign=1)
        minus = it.gis_bargmann_function(nu, 1.0, 2.0, z, sign=-1)
        assert abs(plus - minus) < 1e-10 * abs(plus)


def test_bargmann_lambda_one_is_bessel_like(pt22):
    # the coherent point degenerates to the 0F1 symbol of the
    # lowering-operator eigenstates
    nu = pt22.nu
    for w in (0.2, 0.5j, 0.3 - 0.4j):
        got = it.gis_bargmann_function(nu, 0.8, 1.0, w)
        want = complex(mpmath.hyp0f1(nu + 1.0, 0.8 * w))
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_disk_function_lambda_one_is_exponential():
    nu, zeta_prime = 4.0, 0.45
    taylor = taylor_coefficients(
        lambda w: it.gis_disk_function(nu, zeta_prime, 1.0, w), 8, radius=0.6)
    want = np.array([zeta_prime ** n / math.factorial(n) for n in range(9)])
    assert np.max(np.abs(taylor - want)) < 1e-10


def test_disk_expansion_matches_taylor_of_its_symbol():
    nu, lam, zeta_prime, top = 4.0, 2.0, 0.5, 10
    vec = it.gis_disk_expansion(nu, zeta_prime, lam, 60)
    taylor = taylor_coefficients(
        lambda w: it.gis_disk_function(nu, zeta_prime, lam, w), top, radius=0.6)
    logs = np.array([math.lgamma(n + 1.0) + math.lgamma(nu + 1.0)
                     - math.lgamma(nu + 1.0 + n) for n in range(top + 1)])
    symbol = taylor * np.exp(0.5 * logs)
    want = vec.coeffs[: top + 1] / vec.coeffs[0]
    got = symbol / symbol[0]
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8


def _disk_expansion_by_jacobi(nu, zeta_prime, lam, n_max, alpha):
    """The disk expansion from its Jacobi form (2s)^n P_n^(a+ - n, a- - n)(0)."""
    model = it._nu_model(nu).with_alpha(alpha)
    s, _ = it._branch_root(lam)
    ap, am = it._disk_exponents(nu, zeta_prime, lam)
    coeffs = np.array([
        (2.0 * s) ** n * specfun.jacobi_p(n, ap - n, am - n, 0.0)
        * math.exp(0.5 * (math.lgamma(n + 1.0) + math.lgamma(nu + 1.0)
                          - math.lgamma(nu + 1.0 + n)))
        * cmath.exp(-1j * alpha * model.energy(n)) for n in range(n_max + 1)])
    return coeffs / np.linalg.norm(coeffs)


@pytest.mark.parametrize("nu", [2.0, 2.4, 3.3, 5.8, 7.8])
def test_disk_recurrence_matches_the_jacobi_form(nu):
    for lam, zeta_prime in ((2.0, 0.5), (0.5 + 0.5j, 0.3 - 0.4j),
                            (cmath.exp(1j * math.pi / 6), 0.6j), (3.0 - 1.0j, -0.2 + 0.1j)):
        for alpha in (0.0, 0.3):
            got = it.gis_disk_expansion(nu, zeta_prime, lam, 60,
                                        model=it._nu_model(nu).with_alpha(alpha)).coeffs
            want = _disk_expansion_by_jacobi(nu, zeta_prime, lam, 60, alpha)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, (lam, zeta_prime, alpha)


def test_symbols_on_arrays_equal_pointwise_calls(pt22):
    nu = pt22.nu
    zs = np.array([[0.3, 1.0j], [-0.4 + 0.2j, 2.5 - 1.0j]])
    for lam in (2.0, 0.5 + 0.5j, 1.0):
        for sign in (1, -1):
            whole = it.gis_bargmann_function(nu, 0.8, lam, zs, sign=sign)
            assert whole.shape == zs.shape
            alone = [[it.gis_bargmann_function(nu, 0.8, lam, z, sign=sign) for z in row]
                     for row in zs]
            assert np.array_equal(whole, np.array(alone))
        disk = zs / 4.0
        whole = it.gis_disk_function(nu, 0.5, lam, disk)
        alone = [[it.gis_disk_function(nu, 0.5, lam, z) for z in row] for row in disk]
        assert np.array_equal(whole, np.array(alone))
    point = pe.DiskPoint(0.3 + 0.2j)
    on_point = it.gis_disk_function(nu, 0.5, 2.0, point)
    assert on_point == it.gis_disk_function(nu, 0.5, 2.0, point.zeta)
    # s = 1/sqrt(3) at lam = 2: one point at |s zeta| >= 1 refuses the whole array
    with pytest.raises(DomainError, match="leaves the analyticity disk"):
        it.gis_disk_function(nu, 0.5, 2.0, np.array([0.1, 1.8]))


@pytest.mark.parametrize("nu", [-1.0, -1.5, -2.0])
def test_laplace_bridge_refuses_nu_at_or_below_minus_one(nu):
    with pytest.raises(DomainError, match="nu > -1"):
        it.laplace_bridge(nu, 0, 0.5)


@pytest.mark.parametrize("zeta", [0.3, 0.5, 0.8])
def test_laplace_bridge_residuals(zeta):
    # nu in 2..8 by 0.1; in s = log z the z^nu power at 0, a kink for non-integer nu,
    # is an exponential tail, so every nu takes the same rule
    for nu in 2.0 + 0.1 * np.arange(61):
        for n in range(9):
            assert it.laplace_bridge(nu, n, zeta) < 1e-6


@pytest.mark.parametrize("nu, bound", [(-0.99, 1e-13), (-0.5, 1e-13), (0.0, 1e-13), (1.0, 1e-13),
                                       (300.0, 1e-9), (1000.0, 1e-9), (7.4e4, 1e-9)])
def test_laplace_bridge_near_minus_one_and_on_strong_wells(nu, bound):
    for n in (0, 3, 6):
        for zeta in (0.3, 0.5, 0.8):
            assert it.laplace_bridge(nu, n, zeta) <= bound


@pytest.mark.parametrize("nu", [1e12, 1e300])
def test_laplace_bridge_fails_where_doubles_cannot_resolve_its_logs(nu):
    # logs of size m log m past 1e13 leave no digits for the gate: a residual above it
    # or a named refusal, never a pass by rounding
    try:
        assert it.laplace_bridge(nu, 3, 0.5) > 1e-6
    except ConvergenceError as err:
        assert "Laplace bridge nu=" in str(err)


def test_laplace_bridge_sums_each_degree_once_for_all_zetas(monkeypatch):
    # in s = log z the integrand does not depend on zeta: one pair of sums serves them all,
    # and each zeta keeps the residual and the refusal a scalar call gives it
    calls = []
    rule = it.log_trapezoid

    def counted(case, *args):
        calls.append(case)
        return rule(case, *args)

    monkeypatch.setattr(it, "log_trapezoid", counted)
    zetas = np.array([[0.3, 0.5], [0.8, 0.65]])
    for nu in (-0.5, 0.0, 4.0, 5.8, 200.0, 1e12):
        for n in (0, 3, 6):
            calls.clear()
            got = it.laplace_bridge(nu, n, zetas)
            assert len(calls) == 1 and got.shape == zetas.shape
            want = [it.laplace_bridge(nu, n, z) for z in zetas.ravel().tolist()]
            assert got.ravel().tolist() == want
            assert all(isinstance(w, float) for w in want)
    for zetas in ((0.5, 0.8), (0.8, 0.5)):
        with pytest.raises(ConvergenceError) as scalar:
            it.laplace_bridge(1e300, 3, 0.5)
        with pytest.raises(ConvergenceError) as array:
            it.laplace_bridge(1e300, 3, zetas)
        assert str(array.value) == str(scalar.value)
    for bad in (0.0, (0.5, 1.0), ()):
        with pytest.raises(DomainError, match="zeta must lie in"):
            it.laplace_bridge(2.0, 0, bad)


def test_truncation_error_carries_suggestion(pt22):
    with pytest.raises(TruncationError) as err:
        it.gis_coefficients(pt22, it.GISParameters(2.5, 8.0), 12)
    assert err.value.suggested_n_max == 40


def _counted_builds(monkeypatch):
    calls = []
    build = it.gis_coefficients

    def counted(model, params, n_max=None):
        calls.append(n_max)
        return build(model, params, n_max)

    monkeypatch.setattr(it, "gis_coefficients", counted)
    return calls


def test_adaptive_builder_stops_at_a_table_end(monkeypatch):
    # a 40-level table: the automatic length starts at its last level but one, so that
    # the ladder of the state fits, and that is also where it refuses, once
    calls = _counted_builds(monkeypatch)
    table = SpectrumModel.custom(np.arange(40.0))
    assert it.gis_state(table, it.GISParameters(0.5, 2.0)).n_max == 38
    with pytest.raises(TruncationError, match="at n_max=38 ") as err:
        it.gis_state(table, it.GISParameters(2.0, 0.2))
    assert "tail bound" in str(err.value)
    assert calls == [None, None]  # one build per state, no retries


def test_adaptive_builder_follows_suggestions(pt22, monkeypatch):
    # refused at 90 bands, the state grows to the suggested 2 * 90 + 16 over the same
    # prefix: bitwise the state an explicit n_max = 196 computes from band 0
    calls = _counted_builds(monkeypatch)
    params = it.GISParameters(3.0, 0.1 + 0.05j)
    with pytest.raises(TruncationError, match=r"suggest n_max >= 196\)"):
        it.gis_coefficients(pt22, params, 90)
    state = it.gis_state(pt22, params)
    assert state.n_max == 196 and calls == [90, None]
    assert np.array_equal(state.coeffs, it.gis_coefficients(pt22, params, 196).coeffs)


def test_variance_certificate_grows_a_state_the_mass_certifies():
    # a row of the harmonic sweep at z = -0.660986 + 2.834716i: 90 bands leave out less
    # than 1e-10 of the mass, but their variances miss var_x / var_p = |lambda|^2 by
    # 1.2e-8; the automatic state grows to 196 bands, where both certificates pass
    model, lam = SpectrumModel.harmonic(), 0.541273
    params = it.GISParameters(-0.660986 + 2.834716j, lam)
    short = it.gis_coefficients(model, params, 90)
    with pytest.raises(TruncationError, match=r"state variance bound .* \(suggest n_max >= 196\)"):
        uncertainty(build_ladder(model, 90), short)
    state = it.gis_state(model, params)
    assert state.n_max == 196
    report = uncertainty(build_ladder(model, state.n_max), state)
    assert abs(report.var_x / report.var_p / lam ** 2 - 1.0) < 1e-12


def test_automatic_length_refuses_at_the_size_ceiling(harmonic):
    # |z| = 1e4 puts the bulk of the state near band |2z / (1 + lam)|^2 = 4e7, past 2^20
    with pytest.raises(TruncationError, match=f"size ceiling of {SIZE_CEILING} "):
        it.gis_state(harmonic, it.GISParameters(1e4, 2.0))
