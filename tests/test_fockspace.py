"""Truncated ladder algebra: matrices, tail certificates, uncertainty."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from solvstates import (ConvergenceError, DomainError, FockVector, SpectrumModel, TruncationError,
                        build_ladder, eigenvalue_residual, f_operator,
                        gis_recurrence_oracle, quadratures, uncertainty)
from solvstates.gazeau_klauder import gk_state

# the banded core against dense matrices: one model per spectrum kind, with
# a nonzero phase twist and a table long enough for the largest truncation
BANDED_MODELS = {
    "harmonic": SpectrumModel.harmonic(),
    "pt22_twisted": SpectrumModel.poschl_teller(2.0, 2.0, alpha=0.37),
    "custom": SpectrumModel.custom(
        np.concatenate(([0.0], np.cumsum(1.0 + 0.35 * np.sin(np.arange(420)) ** 2)))),
}


def dense_lowering(model, n_max):
    a = np.zeros((n_max + 1, n_max + 1))
    for n in range(1, n_max + 1):
        a[n - 1, n] = math.sqrt(model.energy(n))
    return a


def test_lowering_matrix_entries(pt22):
    rep = build_ladder(pt22, 12)
    assert np.allclose(rep.a_minus, dense_lowering(pt22, 12), atol=0)


def test_number_operator_diagonal(pt_soft):
    rep = build_ladder(pt_soft, 15)
    num = rep.a_minus.conj().T @ rep.a_minus
    want = np.diag([pt_soft.energy(n) for n in range(16)])
    assert np.max(np.abs(num - want)) < 1e-12


def test_commutator_reproduces_gaps(well):
    rep = build_ladder(well, 15)
    a = rep.a_minus
    comm = a @ a.conj().T - a.conj().T @ a
    gaps = np.diag([well.level_gap(n) for n in range(16)])
    # the last diagonal entry is the truncation artifact
    assert np.max(np.abs((comm - gaps)[:-1, :-1])) < 1e-12


def test_quadratures_hermitian(pt22):
    rep = build_ladder(pt22, 20)
    for op in quadratures(rep):
        assert np.max(np.abs(op - op.conj().T)) < 1e-12


def test_ladder_needs_one_spare_level(custom_table):
    top = custom_table.n_levels - 1
    with pytest.raises(DomainError):
        build_ladder(custom_table, top)  # no level left for the raising edge
    build_ladder(custom_table, top - 1)


def test_fockvector_norm_and_inner(harmonic):
    v = FockVector(harmonic, np.array([3.0, 4.0j]))
    assert v.norm() == pytest.approx(5.0)
    w = v.normalized()
    assert w.norm() == pytest.approx(1.0)
    assert w.inner(w) == pytest.approx(1.0)


@pytest.mark.parametrize("coeffs", [np.full(4, 1e200), np.array([1e200, 3e199j, 1.0]),
                                    np.full(8, 1e160 - 1e160j)])
def test_normalized_refuses_overflowed_norm(harmonic, coeffs):
    # dividing by an infinite norm would give zeros whose tail bound reads 0
    with pytest.raises(ConvergenceError):
        FockVector(harmonic, coeffs).normalized()


def test_normalized_keeps_large_finite_norm(harmonic):
    w = FockVector(harmonic, np.full(4, 1e150)).normalized()
    assert np.allclose(w.coeffs, 0.5, rtol=1e-15)


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


def test_uncertainty_against_dense_matrices(pt22):
    rep = build_ladder(pt22, 30)
    state = FockVector(pt22, (0.4 ** np.arange(31)) * np.exp(0.2j * np.arange(31)))
    state = state.normalized()
    x_op, p_op, h_op, g_op = quadratures(rep)
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


def test_uncertain_state_must_certify_tail(pt22):
    rep = build_ladder(pt22, 10)
    fat = FockVector(pt22, 0.95 ** np.arange(11)).normalized()
    with pytest.raises(TruncationError):
        uncertainty(rep, fat)


def test_recurrence_oracle_satisfies_defining_relation(pt22):
    z, lam = 1.0, 2.0
    rep = build_ladder(pt22, 60)
    vec = gis_recurrence_oracle(rep, z, lam)
    a = rep.a_minus[: vec.n_max + 1, : vec.n_max + 1]
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
def test_banded_uncertainty_matches_dense_moments(name, n_max):
    model = BANDED_MODELS[name]
    rep = build_ladder(model, n_max)
    state = spread_state(model, n_max)
    a = rep.a_minus
    x = (a.conj().T + a) / math.sqrt(2.0)
    p = 1j * (a.conj().T - a) / math.sqrt(2.0)
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
def test_banded_residual_matches_dense(name, drop):
    model = BANDED_MODELS[name]
    rep = build_ladder(model, 90)
    state = spread_state(model, 60)
    z = 0.8 - 0.4j
    c = state.padded(90).coeffs
    want = np.linalg.norm((rep.a_minus @ c - z * c)[: 91 - drop])
    assert eigenvalue_residual(rep, state, z, drop=drop) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("name", sorted(BANDED_MODELS))
def test_banded_oracle_matches_dense_substitution(name):
    model = BANDED_MODELS[name]
    z, lam = 0.9 + 0.3j, 2.0 - 0.5j
    rep = build_ladder(model, 60)
    a_minus, a_plus = rep.a_minus, rep.a_plus
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
