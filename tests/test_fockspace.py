"""Truncated ladder algebra: matrices, tail certificates, uncertainty."""
import cmath
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from solvstates import (ConvergenceError, DomainError, FockVector, SpectrumModel,
                        TruncationError, build_ladder, eigenvalue_residual, f_operator,
                        gis_recurrence_oracle, uncertainty)
from solvstates import fockspace, perelomov
from solvstates.gazeau_klauder import gk_state
from solvstates.intelligent import (GISParameters, gis_coefficients, gis_disk_expansion,
                                    gis_state)
from solvstates.tolerances import SIZE_CEILING, TAIL_CERT

# the banded core against dense matrices: one model per spectrum kind, with
# a nonzero phase twist and a table long enough for the largest truncation
BANDED_MODELS = {
    "harmonic": SpectrumModel.harmonic(),
    "pt22_twisted": SpectrumModel.poschl_teller(2.0, 2.0, alpha=0.37),
    "custom": SpectrumModel.custom(
        np.concatenate(([0.0], np.cumsum(1.0 + 0.35 * np.sin(np.arange(420)) ** 2)))),
}


def dense_quadratures(a):
    """X = (a+ + a-)/sqrt2, P = i (a+ - a-)/sqrt2 from a dense lowering matrix a."""
    return (a.conj().T + a) / math.sqrt(2.0), 1j * (a.conj().T - a) / math.sqrt(2.0)


def test_lowering_matrix_entries(pt22, dense_lowering):
    for model in (pt22, pt22.with_alpha(0.37)):
        want = np.diag(dense_lowering(model, 12), 1)
        assert np.all(np.abs(build_ladder(model, 12).lower_band - want) <= 4e-16 * np.abs(want))


def test_number_operator_diagonal(pt_soft, dense_lowering):
    a = dense_lowering(pt_soft, 15)
    num = a.conj().T @ a
    want = np.diag([pt_soft.energy(n) for n in range(16)])
    assert np.max(np.abs(num - want)) < 1e-12


def test_commutator_reproduces_gaps(well, dense_lowering):
    a = dense_lowering(well, 15)
    comm = a @ a.conj().T - a.conj().T @ a
    gaps = np.diag(np.diff(well.energies(16)))
    # the last diagonal entry is the truncation artifact
    assert np.max(np.abs((comm - gaps)[:-1, :-1])) < 1e-12


def test_ladder_needs_one_spare_level(custom_table):
    top = custom_table.last_level
    with pytest.raises(TruncationError):
        build_ladder(custom_table, top)  # no level left for the raising edge
    build_ladder(custom_table, top - 1)


def test_fockvector_norm_and_inner(harmonic):
    v = FockVector(harmonic, np.array([3.0, 4.0j]))
    assert v.norm() == pytest.approx(5.0)
    w = v.normalized()
    assert w.norm() == pytest.approx(1.0)
    assert w.inner(w) == pytest.approx(1.0)


_OVERFLOWED = [np.full(4, 1e200), np.array([1e200, 3e199j, 1.0]), np.full(8, 1e160 - 1e160j)]


@pytest.mark.parametrize(
    "method, coeffs",
    [("normalized", c) for c in _OVERFLOWED] + [("energy_mean", c) for c in _OVERFLOWED],
    ids=[f"coeffs{i}" for i in range(3)] + [f"energy_mean-coeffs{i}" for i in range(3)])
def test_normalized_refuses_overflowed_norm(harmonic, method, coeffs):
    # dividing by an infinite norm would give zeros whose tail bound reads 0, or a nan mean
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConvergenceError, match="norm overflows"):
            getattr(FockVector(harmonic, coeffs), method)()


def test_normalized_keeps_large_finite_norm(harmonic):
    w = FockVector(harmonic, np.full(4, 1e150)).normalized()
    assert np.allclose(w.coeffs, 0.5, rtol=1e-15)


@pytest.mark.parametrize("scale", [1e-170, 1e-160])
def test_a_state_whose_mass_underflows_is_not_the_zero_vector(harmonic, scale):
    # the mass sum |c|^2 underflows to 0 (1e-170) or to a subnormal with 12 bits (1e-160)
    rep = build_ladder(harmonic, 29)
    plain, tiny = (FockVector(harmonic, s * 0.5 ** np.arange(30)) for s in (1.0, scale))
    assert np.max(np.abs(tiny.normalized().coeffs - plain.normalized().coeffs)) <= 1e-12
    assert tiny.energy_mean() == pytest.approx(plain.energy_mean(), abs=1e-12)
    want = dataclasses.asdict(uncertainty(rep, plain))
    for name, got in dataclasses.asdict(uncertainty(rep, tiny)).items():
        assert got == pytest.approx(want[name], abs=1e-12), name
    # a flat state has no tail certificate at any scale, also where its squares underflow
    flat = FockVector(harmonic, np.full(30, scale))
    assert flat.tail_bound() == math.inf
    with pytest.raises(TruncationError, match="tail bound inf"):
        uncertainty(rep, flat)


def test_state_certificate_does_not_depend_on_scale(harmonic):
    # the tail bound is read relative to the mass, as the moments are; a mass that
    # overflows (1e200, 1e300) is judged lifted: a report or a refusal, never a warning
    rep = build_ladder(harmonic, 29)
    plain = 0.5 ** np.arange(30)
    want = dataclasses.asdict(uncertainty(rep, FockVector(harmonic, plain)))
    for scale in (1e150, 1e200, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                got = dataclasses.asdict(uncertainty(rep, FockVector(harmonic, scale * plain)))
            except ConvergenceError:
                assert scale > 1e150
                continue
        for name, value in got.items():
            assert value == pytest.approx(want[name], abs=1e-12), (scale, name)


def test_energy_mean_matches_dense(pt22):
    coeffs = np.exp(-0.3 * np.arange(25)) * np.exp(1j * 0.1 * np.arange(25))
    v = FockVector(pt22, coeffs).normalized()
    want = sum(abs(c) ** 2 * pt22.energy(n) for n, c in enumerate(v.coeffs))
    assert v.energy_mean() == pytest.approx(want, rel=1e-13)


def test_tail_bound_decaying_vector(harmonic):
    v = FockVector(harmonic, 0.3 ** np.arange(40)).normalized()
    tail = v.tail_bound()
    assert 0.0 < tail < 1e-20


def test_tail_bound_exact_cutoff(harmonic):
    coeffs = np.zeros(30)
    coeffs[:5] = [1.0, 0.5, 0.2, 0.05, 0.01]
    assert FockVector(harmonic, coeffs).tail_bound() == 0.0


@given(st.floats(min_value=0.05, max_value=0.6))
def test_tail_bound_controls_dropped_mass(harmonic, ratio):
    # the certificate must dominate the mass an explicit extension adds
    full = FockVector(harmonic, ratio ** np.arange(80)).normalized()
    short = FockVector(harmonic, full.coeffs[:41])
    dropped = float(np.sum(np.abs(full.coeffs[41:]) ** 2))
    assert short.tail_bound() >= 0.5 * dropped


def test_padded_extends_with_zeros(pt22):
    v = FockVector(pt22, np.array([1.0, 2.0]))
    w = v.padded(6)
    assert w.n_max == 6
    assert np.all(w.coeffs[2:] == 0)


def test_eigenvalue_residual_flags_non_eigenstate(pt22):
    rep = build_ladder(pt22, 30)
    probe = FockVector(pt22, 0.2 ** np.arange(31)).normalized()
    assert eigenvalue_residual(rep, probe, 0.5) > 1e-3


def test_uncertainty_against_dense_matrices(pt22, dense_lowering):
    rep = build_ladder(pt22, 30)
    state = FockVector(pt22, (0.4 ** np.arange(31)) * np.exp(0.2j * np.arange(31)))
    state = state.normalized()
    x_op, p_op = dense_quadratures(dense_lowering(pt22, 30))
    g_op = np.diag(np.diff(pt22.energies(31)))
    c = state.coeffs
    mean = lambda op: (c.conj() @ op @ c).real
    rep_out = uncertainty(rep, state)
    assert rep_out.mean_x == pytest.approx(mean(x_op), abs=1e-13)
    assert rep_out.mean_p == pytest.approx(mean(p_op), abs=1e-13)
    assert rep_out.var_x == pytest.approx(mean(x_op @ x_op) - mean(x_op) ** 2, rel=1e-11)
    assert rep_out.var_p == pytest.approx(mean(p_op @ p_op) - mean(p_op) ** 2, rel=1e-11)
    assert rep_out.mean_g == pytest.approx(mean(g_op), abs=1e-13)


def test_uncertainty_product_bound(pt22):
    # Robertson-Schrodinger: var_x var_p >= delta^2 with delta built
    # from the commutator and anticommutator means
    rep = build_ladder(pt22, 30)
    state = FockVector(pt22, (0.35 ** np.arange(31)) * np.exp(-0.4j * np.arange(31)))
    out = uncertainty(rep, state.normalized())
    assert out.rs_product >= out.rs_bound - 1e-12
    assert out.equality_gap == pytest.approx(out.rs_product - out.rs_bound, abs=1e-15)


def test_f_operator_hermitian(pt22):
    rep = build_ladder(pt22, 25)
    state = FockVector(pt22, 0.3 ** np.arange(26)).normalized()
    f_op = f_operator(rep, state)
    assert np.max(np.abs(f_op - f_op.conj().T)) < 1e-12


def test_uncertain_state_must_certify_tail(harmonic, pt22):
    # the refusal at last band N suggests 2 N + 16
    for model, ratio, n_max in ((pt22, 0.95, 10), (harmonic, 0.9, 29)):
        fat = FockVector(model, ratio ** np.arange(n_max + 1)).normalized()
        with pytest.raises(TruncationError) as err:
            uncertainty(build_ladder(model, n_max), fat)
        assert err.value.suggested_n_max == 2 * n_max + 16


def test_every_uncertified_truncation_suggests_one_n_max(harmonic, pt22):
    # FockVector.certified is the one tail certificate: a refusal at N suggests 2 N + 16
    refusals = [
        (lambda: gis_recurrence_oracle(build_ladder(pt22, 12), 2.5, 8.0), 12),
        (lambda: gk_state(harmonic, 5, n_max=10), 10),
        (lambda: gis_disk_expansion(3.0, 0.9, 2.0, 12), 12),
    ]
    for build, n_max in refusals:
        with pytest.raises(TruncationError, match=f"not certified below .* at n_max={n_max} ") as err:
            build()
        assert err.value.suggested_n_max == 2 * n_max + 16


def test_refusal_suggests_no_level_past_a_table_end(custom_table):
    # 40 levels: 2 N + 16 is cut to the last level 39, and at 39 no larger n_max is left
    for n_max, suggested in ((38, 39), (39, None)):
        with pytest.raises(TruncationError) as err:
            FockVector(custom_table, np.ones(n_max + 1)).certified("flat")
        assert err.value.suggested_n_max == suggested


def test_recurrence_oracle_satisfies_defining_relation(pt22, dense_lowering):
    z, lam = 1.0, 2.0
    vec = gis_recurrence_oracle(build_ladder(pt22, 60), z, lam)
    a = dense_lowering(pt22, vec.n_max)
    op = (1.0 + lam) * a + (1.0 - lam) * a.conj().T
    resid = op @ vec.coeffs - 2.0 * z * vec.coeffs
    # rows near the truncation edge feel the missing band
    assert np.max(np.abs(resid[:-2])) < 1e-9


def test_recurrence_oracle_normalized(pt22):
    vec = gis_recurrence_oracle(build_ladder(pt22, 50), 0.5j, 1.5)
    assert vec.norm() == pytest.approx(1.0, abs=1e-12)


def spread_state(model, n_max):
    """Gaussian envelope over the lower band with a momentum twist; its top
    decays fast enough to certify the tail at every truncation."""
    k = np.arange(n_max + 1)
    env = np.exp(-((k - n_max / 3) / (n_max / 12)) ** 2)
    return FockVector(model, env * np.exp(0.3j * k)).normalized()


@pytest.mark.parametrize("name", sorted(BANDED_MODELS))
@pytest.mark.parametrize("n_max", [12, 90, 400])
def test_banded_uncertainty_matches_dense_moments(name, n_max, dense_lowering):
    model = BANDED_MODELS[name]
    rep = build_ladder(model, n_max)
    state = spread_state(model, n_max)
    x, p = dense_quadratures(dense_lowering(model, n_max))
    c = state.coeffs
    mean = lambda op: complex(c.conj() @ op @ c).real
    mx, mp = mean(x), mean(p)
    eye = np.eye(n_max + 1)
    dx, dp = x - mx * eye, p - mp * eye
    # second moments set the scale of every entry of the report
    scale = math.sqrt(mean(x @ x) * mean(p @ p))
    out = uncertainty(rep, state)
    want = {
        "mean_x": mx,
        "mean_p": mp,
        "var_x": mean(x @ x) - mx * mx,
        "var_p": mean(p @ p) - mp * mp,
        "mean_g": float(np.dot(rep.g_diag, np.abs(c) ** 2)),
        "mean_f": mean(dx @ dp + dp @ dx),
    }
    for field, value in want.items():
        got = getattr(out, field)
        assert abs(got - value) <= 1e-12 * max(abs(value), scale), (field, got, value)


@pytest.mark.parametrize("name", sorted(BANDED_MODELS))
@pytest.mark.parametrize("drop", [1, 2, 5])
def test_banded_residual_matches_dense(name, drop, dense_lowering):
    model = BANDED_MODELS[name]
    rep = build_ladder(model, 90)
    state = spread_state(model, 60)
    z = 0.8 - 0.4j
    c = state.padded(90).coeffs
    want = np.linalg.norm((dense_lowering(model, 90) @ c - z * c)[: 91 - drop])
    assert eigenvalue_residual(rep, state, z, drop=drop) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("name", sorted(BANDED_MODELS))
def test_banded_oracle_matches_dense_substitution(name, dense_lowering):
    model = BANDED_MODELS[name]
    z, lam = 0.9 + 0.3j, 2.0 - 0.5j
    rep = build_ladder(model, 60)
    a_minus = dense_lowering(model, 60)
    a_plus = a_minus.conj().T
    d = [1.0 + 0.0j]
    for m in range(60):
        back = (1.0 - lam) * a_plus[m, m - 1] * d[m - 1] if m else 0.0
        d.append((2.0 * z * d[m] - back) / ((1.0 + lam) * a_minus[m, m + 1]))
    want = np.array(d) / np.linalg.norm(d)
    got = gis_recurrence_oracle(rep, z, lam).coeffs
    assert np.max(np.abs(got - want)) < 1e-13


def test_ladder_stores_no_matrix(pt22):
    rep = build_ladder(pt22, 50)
    for field in dataclasses.fields(rep):
        assert np.ndim(getattr(rep, field.name)) <= 1, field.name


def test_uncertainty_memory_stays_linear(harmonic):
    # a dense (n+1)^2 complex matrix at n = 1600 is 41 MB
    rep = build_ladder(harmonic, 1600)
    state = gk_state(harmonic, 30).vector.padded(1600)
    tracemalloc.start()
    try:
        uncertainty(rep, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# every moment from the band sums against the dense truncated matrices
MOMENT_MODELS = {
    "harmonic": SpectrumModel.harmonic(),
    "well": SpectrumModel.square_well(),
    "pt": SpectrumModel.poschl_teller(2.7, 3.1),
    "custom": BANDED_MODELS["custom"],
}


def dense_moments(rep, coeffs, dense_lowering):
    """The six report moments from dense X, P, G, with their largest imaginary part."""
    c = np.zeros(rep.n_max + 1, dtype=complex)
    c[: coeffs.size] = coeffs
    c = c / np.linalg.norm(c)
    x, p = dense_quadratures(dense_lowering(rep.model, rep.n_max))
    g = np.diag(np.diff(rep.model.energies(rep.n_max + 1)))
    mean = lambda op: complex(c.conj() @ op @ c)
    raw = [mean(x), mean(p), mean(x @ x), mean(p @ p), mean(g)]
    mx, mp = raw[0].real, raw[1].real
    eye = np.eye(rep.n_max + 1)
    dx, dp = x - mx * eye, p - mp * eye
    raw.append(mean(dx @ dp + dp @ dx))
    want = (mx, mp, raw[2].real - mx * mx, raw[3].real - mp * mp, raw[4].real, raw[5].real)
    return want, max(abs(value.imag) for value in raw)


def assert_moments_match_dense(rep, state, dense_lowering):
    want, imag = dense_moments(rep, state.coeffs, dense_lowering)
    assert imag < 1e-10
    got = uncertainty(rep, state)
    for field, value in zip(("mean_x", "mean_p", "var_x", "var_p", "mean_g", "mean_f"), want):
        assert abs(getattr(got, field) - value) <= 1e-12 * max(1.0, abs(value)), (field, value)


@pytest.mark.parametrize("name", sorted(MOMENT_MODELS))
@pytest.mark.parametrize("alpha", [0.0, 0.7])
@pytest.mark.parametrize("n_max, n_state", [(12, 12), (60, 60), (60, 40)])
def test_band_sum_moments_match_dense_matrices(name, alpha, n_max, n_state, dense_lowering):
    # (60, 40): a state shorter than its ladder is padded with zeros
    model = MOMENT_MODELS[name].with_alpha(alpha)
    assert_moments_match_dense(build_ladder(model, n_max), spread_state(model, n_state),
                               dense_lowering)


@pytest.mark.parametrize("name", ["harmonic", "pt"])
@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_band_sum_moments_of_lowering_eigenstates(name, alpha, dense_lowering):
    model = MOMENT_MODELS[name]
    for z in (0.5, 2.0 * cmath.exp(0.9j)):
        vector = gk_state(model.with_alpha(alpha), z).vector
        assert_moments_match_dense(build_ladder(vector.model, vector.n_max), vector,
                                   dense_lowering)


def test_moments_refuse_a_state_from_another_model(pt22):
    # a state phased at one alpha is no eigenvector of the ladder twisted by another
    state = gk_state(pt22, 0.5).vector
    rep = build_ladder(pt22.with_alpha(0.3), state.n_max)
    for moments in (uncertainty, f_operator):
        with pytest.raises(DomainError, match="different models"):
            moments(rep, state)


@pytest.mark.parametrize("name", sorted(MOMENT_MODELS))
def test_band_sum_moments_of_gis_states(name, dense_lowering):
    model = MOMENT_MODELS[name]
    for z, lam in ((1.0, 2.0), (2.0j, cmath.exp(1j * math.pi / 6)), (0.7 - 0.4j, 0.5 + 0.5j)):
        state = gis_state(model.with_alpha(0.3), GISParameters(z, lam))
        assert_moments_match_dense(build_ladder(state.model, state.n_max), state, dense_lowering)


@pytest.mark.parametrize("name", sorted(MOMENT_MODELS))
@pytest.mark.parametrize("alpha", [0.0, 0.7])
@pytest.mark.parametrize("n_max", [2, 3, 25])
def test_band_sums_match_dense_ladder_products(name, alpha, n_max, dense_lowering):
    # n_max = 2 leaves <a-^2> a single term; no state that short certifies its tail
    model = MOMENT_MODELS[name].with_alpha(alpha)
    rep = build_ladder(model, n_max)
    rng = np.random.default_rng(n_max)
    c = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    a = dense_lowering(model, n_max)
    ad = a.conj().T
    mass = float(np.vdot(c, c).real)
    want = [complex(c.conj() @ op @ c) / mass
            for op in (a, a @ a, ad @ a + a @ ad, np.diag(np.diff(model.energies(n_max + 1))))]
    got = fockspace._band_sums(rep, c, mass)
    for value, expect in zip(got, want):
        assert abs(value - expect) <= 1e-12 * max(1.0, abs(expect)), (value, expect)


def test_ladder_band_without_phase_twist_is_the_twisted_formula_at_zero():
    for model in MOMENT_MODELS.values():
        rep = build_ladder(model, 30)
        energies = model.energies(31)
        twisted = np.sqrt(energies[1:31]) * np.exp(1j * 0.0 * np.diff(energies)[:30])
        assert rep.lower_band.dtype == complex
        assert np.array_equal(rep.lower_band, twisted)
        assert np.array_equal(np.signbit(rep.lower_band.imag), np.signbit(twisted.imag))


def test_uncertainty_refuses_a_moment_that_is_not_finite():
    # levels near the float limit: <a+ a- + a- a+> overflows while the state is tame
    model = SpectrumModel.custom([0.0, 1.5e308, 1.6e308, 1.7e308, 1.75e308])
    rep = build_ladder(model, 3)
    state = FockVector(model, np.array([1.0, 1.0, 1e-10, 0.0]))
    assert state.tail_bound() < 1e-30
    with pytest.raises(ConvergenceError, match="not all finite"):
        uncertainty(rep, state)


def test_uncertainty_refuses_an_overflowing_norm(harmonic):
    # the state's mass overflows although every coefficient is finite
    state = FockVector(harmonic, np.concatenate(([1e200, 1e170], np.zeros(18))))
    with pytest.raises(ConvergenceError, match="norm overflows"):
        uncertainty(build_ladder(harmonic, 19), state)


def _parent_tail_bound(coeffs):
    """FockVector.tail_bound as it read before it looked at the last twelve magnitudes only."""
    mags = np.abs(coeffs)
    if not mags.any():
        return 0.0
    half = min(6, mags.size // 2)
    if half < 2:
        return math.inf
    tail = mags[-2 * half:]
    mass_a = float(np.sum(tail[:half] ** 2))
    mass_b = float(np.sum(tail[half:] ** 2))
    if mass_b == 0.0:
        return 0.0
    if mass_a == 0.0 or mass_b >= mass_a:
        return math.inf
    q = mass_b / mass_a
    return mass_b * q / (1.0 - q)


def _tail_cases():
    rng = np.random.default_rng(5)
    cases = [np.zeros(size) for size in (1, 2, 3, 4, 5, 12, 13, 40)]
    cases += [rng.normal(size=size) + 1j * rng.normal(size=size) for size in (1, 2, 3)]
    cases += [np.array([0.0, 0.0, 1e-3]), np.array([1.0, 0.0, 0.0])]
    for size in (4, 5, 7, 12, 13, 24, 40, 300):
        decay = 0.6 ** np.arange(size) * np.exp(0.4j * np.arange(size))
        cases.append(decay)
        cases.append(decay[::-1].copy())  # growing: no certificate
        zero_tail = decay.copy()
        zero_tail[size // 2:] = 0.0
        cases.append(zero_tail)
        ends_zero = decay.copy()
        ends_zero[-6:] = 0.0
        cases.append(ends_zero)
        cases.append(decay * 1e-170)  # squares underflow
    return cases


def test_tail_bound_equals_the_whole_vector_formula():
    for coeffs in _tail_cases():
        got = FockVector(SpectrumModel.harmonic(), coeffs).tail_bound()
        want = _parent_tail_bound(coeffs)
        assert got == want or (math.isinf(got) and math.isinf(want)), (coeffs, got, want)


# -- automatic lengths: fockspace.shortest_certified --------------------------


def _table(levels, quadratic):
    ns = np.arange(levels, dtype=float)
    if quadratic:
        return SpectrumModel.custom(ns * (ns + 3.0) / 2.0 + 0.01 * (ns % 3))
    gaps = 1.0 + 0.35 * np.random.default_rng(levels).random(levels - 1)
    return SpectrumModel.custom(np.concatenate(([0.0], np.cumsum(gaps))))


_LENGTH_MODELS = {
    "harmonic": SpectrumModel.harmonic(),
    "well": SpectrumModel.square_well(),
    "pt1.05,1.2": SpectrumModel.poschl_teller(1.05, 1.2),
    "pt2,2": SpectrumModel.poschl_teller(2.0, 2.0),
    "pt3.5,1.2": SpectrumModel.poschl_teller(3.5, 1.2),
    "pt5,5": SpectrumModel.poschl_teller(5.0, 5.0),
}
_LENGTH_TABLES = {f"table{levels}{'q' if quadratic else ''}": _table(levels, quadratic)
                  for levels in (12, 40, 141, 300) for quadratic in (False, True)}
_LENGTH_RADII = (0.0, 1e-3, 0.3, 1.0, 2.5)
# past the caps of the rules this one replaced: 20,000 bands (gk), 6,959 (perelomov)
_LENGTH_FAR = {("gk", "harmonic"): (6.0, 15.0, 150.0), ("gk", "pt2,2"): (1.6, 15.0, 60.0),
               ("perelomov", "harmonic"): (6.0, 15.0, 100.0), ("perelomov", "pt2,2"): (5.0,),
               ("disk", "pt5,5"): (3.0,)}


def _reference_log_masses(family, model, r, top):
    """log of the band masses t_0 .. t_top, up to one factor, one level at a time."""
    if family == "gk":
        energies, acc, out = model.energies(top), 0.0, [0.0]
        for e in energies[1:].tolist():
            acc += 2.0 * math.log(r) - math.log(e)
            out.append(acc)
        return out
    if model.kind == "harmonic":
        return [2.0 * n * math.log(r) - r * r - math.lgamma(n + 1.0) for n in range(top + 1)]
    nu, rho = model.nu, math.tanh(r)
    return [2.0 * n * math.log(rho) + (nu + 1.0) * math.log1p(-rho * rho)
            + math.lgamma(n + nu + 1.0) - math.lgamma(n + 1.0) - math.lgamma(nu + 1.0)
            for n in range(top + 1)]


def _bound_passes(log_t, n):
    """t_n rho_n / (1 - rho_n), rho_n = t_{n+1} / t_n, below 2^-52 of t_0 + .. + t_n."""
    log_rho = log_t[n + 1] - log_t[n]
    if log_rho >= 0.0:
        return False
    peak = max(log_t[: n + 1])
    log_kept = peak + math.log(math.fsum(math.exp(v - peak) for v in log_t[: n + 1]))
    return log_t[n + 1] - math.log(-math.expm1(log_rho)) < -52.0 * math.log(2.0) + log_kept


def _length_build(family, model, r, n_max=None):
    """The state of a family at label r e^{0.4i}, or a TruncationError."""
    label = r * cmath.exp(0.4j)
    try:
        if family == "gk":
            return gk_state(model, label, n_max=n_max).vector
        if family == "perelomov":
            return perelomov.perelomov_state(model, label, n_max=n_max)
        return perelomov.disk_coefficients(model, math.tanh(r) * cmath.exp(0.4j), n_max=n_max)
    except TruncationError as err:
        return err


_LENGTH_CASES = ([("gk", name) for name in (*_LENGTH_MODELS, *_LENGTH_TABLES)]
                 + [("perelomov", name) for name in _LENGTH_MODELS]
                 + [("disk", name) for name in _LENGTH_MODELS if name != "harmonic"])


@pytest.mark.parametrize("family, name", _LENGTH_CASES)
def test_automatic_length_is_the_shortest_certified(family, name):
    # the automatic n is the first n >= 3 past the one-ulp bound that the explicit
    # n_max certificate accepts, and the state is the explicit state at n bitwise;
    # on a table the scan stops at its last level but one, where the certificate decides
    model = {**_LENGTH_MODELS, **_LENGTH_TABLES}[name]
    last = model.last_level - 1
    for r in _LENGTH_RADII + _LENGTH_FAR.get((family, name), ()):
        if family == "gk" and model.kind == "custom" and r * r >= model.radius_estimate():
            continue  # outside the series radius: refused before any length is chosen
        auto = _length_build(family, model, r)
        if r == 0.0:
            assert auto.n_max == 3
            continue
        if isinstance(auto, TruncationError):
            assert last < math.inf, (name, r)
            log_t = _reference_log_masses(family, model, r, last + 1)
            for n in range(3, last + 1):
                assert not (n < last and _bound_passes(log_t, n)) or isinstance(
                    _length_build(family, model, r, n), TruncationError), (name, r, n)
            continue
        n = auto.n_max
        explicit = _length_build(family, model, r, n)
        assert np.array_equal(auto.coeffs, explicit.coeffs), (name, r)
        log_t = _reference_log_masses(family, model, r, n + 1 if n < last else n)
        assert n == last or _bound_passes(log_t, n), (name, r, n)
        if n > 3:
            assert not _bound_passes(log_t, n - 1) or isinstance(
                _length_build(family, model, r, n - 1), TruncationError), (name, r, n)


def test_the_bound_alone_is_not_the_length(pt22):
    # on pt:2,2 at r = 1.6 the bound passes from band 11 on, where the gk certificate
    # still reads 2.7e-12 of the mass against 1e-12
    log_t = _reference_log_masses("gk", pt22, 1.6, 13)
    assert _bound_passes(log_t, 11) and not _bound_passes(log_t, 10)
    with pytest.raises(TruncationError, match="tail bound 2.672e-12 not certified"):
        gk_state(pt22, 1.6, n_max=11)
    assert gk_state(pt22, 1.6).vector.n_max == 12


def test_automatic_length_refuses_at_the_size_ceiling():
    scanned = []

    def steps(top):
        scanned.append(top)
        return np.zeros(top)  # equal masses: the bound never passes

    with pytest.raises(TruncationError, match=f"size ceiling of {SIZE_CEILING} leaves") as err:
        fockspace.certified_length("flat state", SpectrumModel.harmonic(), 1.0, steps, TAIL_CERT,
                                   None, 40)
    assert err.value.suggested_n_max is None
    assert scanned == [40 * 2 ** k for k in range(15)] + [SIZE_CEILING]


@pytest.mark.parametrize("n_max", [SIZE_CEILING + 1, 2 ** 31])
def test_explicit_size_past_the_ceiling_is_refused_by_name(harmonic, pt22, n_max):
    named = f"n_max = {n_max} is past the size ceiling of {SIZE_CEILING}"
    for build in (lambda: gk_state(harmonic, 1.0, n_max=n_max),
                  lambda: gk_state(harmonic, 0.0, n_max=n_max),
                  lambda: perelomov.perelomov_state(pt22, 1.0, n_max=n_max),
                  lambda: perelomov.perelomov_state(pt22, 0.0, n_max=n_max),
                  lambda: perelomov.disk_coefficients(pt22, 0.5, n_max=n_max),
                  lambda: gis_coefficients(pt22, GISParameters(1.0, 2.0), n_max)):
        with pytest.raises(DomainError, match=re.escape(named)):
            build()
