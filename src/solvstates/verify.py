"""Verification suites: each case recomputes one invariant and reports a residual.

A case PASSes iff its residual is at or below the named tolerance from the
defaults table; cases whose premise does not apply to the chosen model are
SKIPPED with a reason.  Everything here is deterministic.
"""
from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import time

import numpy as np

from . import intelligent, perelomov, position, specfun
from .analytic import taylor_coefficients
from .errors import ConvergenceError, DomainError, SolvStatesError, TruncationError
from .fockspace import (FockVector, build_ladder, eigenvalue_residual, f_operator,
                        gis_recurrence_oracle, quadratures, uncertainty)
from .gazeau_klauder import (action_identity, evolve, gk_normalization,
                             gk_normalization_closed, gk_state,
                             identity_moment_check, pt_measure)
from .spectrum import HARMONIC, POSCHL_TELLER, SpectrumModel
from .tolerances import resolve

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

SUITE_NAMES = ("ladder", "gk", "perelomov", "gis", "position", "specfun")


class _Skip(Exception):
    """Raised inside a case body to mark the case inapplicable."""


@dataclasses.dataclass(frozen=True)
class CaseResult:
    name: str
    status: str
    residual: float | None
    tolerance: float
    runtime_ms: float
    reason: str | None = None

    def to_dict(self) -> dict:
        residual = self.residual
        if residual is not None and not math.isfinite(residual):
            residual = None
        out = {
            "name": self.name,
            "status": self.status,
            "residual": residual,
            "tolerance": self.tolerance,
            "runtime_ms": self.runtime_ms,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases: tuple[CaseResult, ...]

    @property
    def summary(self) -> dict:
        return {
            "pass": sum(c.status == PASS for c in self.cases),
            "fail": sum(c.status == FAIL for c in self.cases),
            "skipped": sum(c.status == SKIPPED for c in self.cases),
        }

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "cases": [c.to_dict() for c in self.cases],
            "summary": self.summary,
        }


def _case(name: str, tol_override, fn) -> CaseResult:
    tolerance = resolve(name, tol_override)
    start = time.perf_counter()

    def elapsed() -> float:
        return round((time.perf_counter() - start) * 1000.0, 3)

    try:
        residual = float(fn())
    except _Skip as skip:
        return CaseResult(name, SKIPPED, None, tolerance, elapsed(), str(skip))
    except SolvStatesError as err:
        reason = f"{type(err).__name__}: {err}"
        return CaseResult(name, FAIL, math.inf, tolerance, elapsed(), reason)
    status = PASS if residual <= tolerance else FAIL
    return CaseResult(name, status, residual, tolerance, elapsed())


def _nu_of(model: SpectrumModel) -> float:
    if model.kind != POSCHL_TELLER:
        raise _Skip("needs a nu-indexed spectrum")
    return model.nu


def _safe_z(model: SpectrumModel) -> complex:
    radius = model.radius_estimate()
    if math.isinf(radius):
        return 1.0 + 0.0j
    return complex(0.45 * math.sqrt(radius))


# -- ladder ----------------------------------------------------------------


def _suite_ladder(model: SpectrumModel, tol) -> list[CaseResult]:
    n_max = min(40, model.last_level - 1)
    rep = build_ladder(model, n_max)
    a_minus = rep.a_minus
    a_plus = a_minus.conj().T
    energies = model.energies(n_max)
    # row n is measured in units of max(1, E_n): its entries carry roundoff of E_n's size
    scale = np.maximum(1.0, energies)[:, None]

    def number_operator():
        return np.max(np.abs(a_plus @ a_minus - np.diag(energies)) / scale)

    def commutator():
        comm = a_minus @ a_plus - a_plus @ a_minus
        gaps = np.diff(model.energies(n_max + 1))
        # the top diagonal entry is a truncation artifact, not an identity
        return np.max(np.abs((comm - np.diag(gaps))[:-1, :-1]) / scale[:-1])

    def hermiticity():
        x_op, p_op, h_op, g_op = quadratures(rep)
        # short custom tables need a steeper probe to certify the tail
        ratio = 0.5 if n_max >= 20 else 0.01
        probe = FockVector(model, ratio ** np.arange(n_max + 1)).normalized()
        f_op = f_operator(rep, probe)
        return max(
            float(np.max(np.abs(op - op.conj().T)))
            for op in (x_op, p_op, h_op, g_op, f_op)
        )

    return [
        _case("ladder.number_operator", tol, number_operator),
        _case("ladder.commutator_gaps", tol, commutator),
        _case("ladder.hermiticity", tol, hermiticity),
    ]


# -- lowering-operator eigenstates ------------------------------------------


_GK_CASES = ("gk.eigenstate_residual", "gk.tail_bound", "gk.action_identity",
             "gk.normalization_closed", "gk.identity_moments",
             "gk.temporal_stability")


def _suite_gk(model: SpectrumModel, tol) -> list[CaseResult]:
    z = _safe_z(model)
    try:
        state = gk_state(model, z)
    except (TruncationError, DomainError) as err:
        # short custom tables cannot hold the tail below threshold at any
        # useful amplitude; report every case as unverifiable
        reason = f"state construction failed: {err}"
        return [CaseResult(name, SKIPPED, None, resolve(name, tol), 0.0, reason)
                for name in _GK_CASES]
    rep = build_ladder(model, state.vector.n_max)

    def eigenstate():
        return eigenvalue_residual(rep, state.vector, z)

    def tail():
        return state.vector.tail_bound()

    def action():
        return abs(action_identity(state, rep))

    def normalization():
        r = abs(z)
        try:
            closed = gk_normalization_closed(model, r)
        except DomainError:
            raise _Skip("no closed normalization")
        direct = gk_normalization(model, r)
        return abs(direct - closed) / abs(closed)

    def moments():
        if model.kind != POSCHL_TELLER:
            raise _Skip("no closed measure")
        measure = pt_measure(model.kappa, model.kappa_prime)
        return max(identity_moment_check(model, measure, n) for n in range(7))

    def stability():
        t = 0.37
        moved = evolve(state, t).vector
        rebuilt = gk_state(model.with_alpha(model.alpha + t), z).vector
        return np.max(np.abs(moved.coeffs - rebuilt.coeffs))

    return [
        _case("gk.eigenstate_residual", tol, eigenstate),
        _case("gk.tail_bound", tol, tail),
        _case("gk.action_identity", tol, action),
        _case("gk.normalization_closed", tol, normalization),
        _case("gk.identity_moments", tol, moments),
        _case("gk.temporal_stability", tol, stability),
    ]


# -- displacement states -----------------------------------------------------


def _suite_perelomov(model: SpectrumModel, tol) -> list[CaseResult]:
    def routes():
        r, top = 0.5, 8
        columns = []
        for build in (lambda: perelomov._series_values(model, top, r, perelomov._SERIES_J_CAP),
                      lambda: perelomov.cn_ode(model, r, top).values,
                      lambda: perelomov.cn_closed(model, top, r).values):
            try:
                columns.append(build())
            except (DomainError, TruncationError, ConvergenceError):
                continue  # a route may refuse by contract on this spectrum
        if len(columns) < 2:
            raise _Skip("fewer than two amplitude routes certify at r=0.5")
        worst = 0.0
        for i in range(len(columns)):
            for j in range(i + 1, len(columns)):
                scale = np.maximum(np.abs(columns[i]), 1e-300)
                worst = max(worst, float(np.max(np.abs(columns[i] - columns[j]) / scale)))
        return worst

    def harmonic_weights():
        r = 0.8
        coeffs = perelomov.cn_closed(SpectrumModel.harmonic(), 8, r)
        got = coeffs.f_values()
        want = np.array([math.factorial(n) * math.exp(r * r) for n in range(9)])
        return np.max(np.abs(got - want) / want)

    def disk_moments():
        nu = _nu_of(model)
        return max(perelomov.disk_identity_check(nu, n) for n in range(7))

    def kernel():
        nu = _nu_of(model)
        zeta = 0.4 + 0.3j
        return abs(perelomov.disk_kernel_closed(nu, zeta, zeta) - 1.0)

    return [
        _case("perelomov.route_agreement", tol, routes),
        _case("perelomov.harmonic_weights", tol, harmonic_weights),
        _case("perelomov.disk_moments", tol, disk_moments),
        _case("perelomov.kernel_normalization", tol, kernel),
    ]


# -- minimum-uncertainty states ----------------------------------------------


def _gis_pair(model: SpectrumModel, z: complex, lam: complex):
    params = intelligent.GISParameters(z, lam)
    try:
        state = intelligent.gis_state(model, params)
    except TruncationError as err:
        raise _Skip(f"tail not certifiable on this spectrum ({err})")
    rep = build_ladder(model, state.n_max)
    return state, rep, params


def _gis_closed_form(model: SpectrumModel, z: complex, lam: complex, top: int) -> np.ndarray:
    """Delta-sum closed form d_0 .. d_top of the GIS coefficients, with d_0 = 1.

    d_n = e^{-i alpha E_n} / ((1+lam)^n sqrt(E(n)))
          * sum_h (-1)^h (1-lam^2)^h (2z)^{n-2h} Delta(n, h)
    """
    lam = complex(lam)
    two_z, squeeze = 2.0 * complex(z), 1.0 - lam * lam
    logs = model.log_products(top)
    energies = model.energies(top)
    delta = intelligent._delta_triangle(energies).tolist()
    out = np.zeros(top + 1, dtype=complex)
    for n in range(top + 1):
        acc = sum((-squeeze) ** h * two_z ** (n - 2 * h) * delta[n][h]
                  for h in range(n // 2 + 1))
        out[n] = (acc * cmath.exp(-1j * model.alpha * energies[n])
                  / (1.0 + lam) ** n * math.exp(-0.5 * logs[n]))
    return out


def _suite_gis(model: SpectrumModel, tol) -> list[CaseResult]:
    # one state and ladder per (z, lam), shared read-only by the cases
    gis_pair = functools.cache(functools.partial(_gis_pair, model))

    def closed_vs_recurrence():
        # the state (recurrence in gis_coefficients) and the Delta-sum closed
        # form, scaled to the oracle's d_0, each against the ladder-band oracle
        worst = 0.0
        for lam, z in ((2.0, 1.0), (cmath.exp(1j * math.pi / 6), 2.0j),
                       (0.5 + 0.5j, 1.5 * cmath.exp(1j * math.pi / 4)), (1.0, 1.0)):
            state, rep, _ = gis_pair(z, lam)
            oracle = gis_recurrence_oracle(rep, z, lam)
            top = min(15, state.n_max, oracle.n_max)
            closed = _gis_closed_form(state.model, z, lam, top) * oracle.coeffs[0]
            for route in (state.coeffs[: top + 1], closed):
                worst = max(worst, float(np.max(np.abs(route - oracle.coeffs[: top + 1]))))
        return worst

    def rs_equality():
        state, rep, params = gis_pair(1.0, 2.0)
        _, checks = intelligent.verify_rs(rep, state, params)
        return checks["equality_gap"]

    def variance_ratio():
        lam = 2.0
        state, rep, _ = gis_pair(1.0, lam)
        report = uncertainty(rep, state)
        target = abs(lam) ** 2
        return abs(report.var_x / report.var_p - target) / target

    def theta_laws():
        state, rep, params = gis_pair(1.0, cmath.exp(1j * math.pi / 6))
        _, checks = intelligent.verify_rs(rep, state, params)
        return max(checks["equal_variance"], checks["variance_theta"],
                   checks["anticommutator_theta"])

    def lambda_one():
        state, rep, _ = gis_pair(0.7, 1.0)
        report = uncertainty(rep, state)
        worst = abs(report.mean_f) / report.mean_g
        if model.kind == HARMONIC:
            worst = max(worst, abs(2.0 * report.var_x - 1.0))
        return worst

    def bargmann_taylor():
        nu = _nu_of(model)
        lam, z_prime, top = 2.0, 1.0, 10
        state, _, _ = gis_pair(z_prime, lam)
        logs = model.log_products(top)
        radius = math.exp(0.5 * logs[top] / top)
        taylor = taylor_coefficients(
            lambda w: intelligent.gis_bargmann_function(nu, z_prime, lam, w),
            top, radius=radius)
        # the state carries the model's e^{-i alpha E_n} phases; the symbol has none
        symbol = taylor * np.exp(0.5 * logs) * np.exp(-1j * model.alpha * model.energies(top))
        want = state.coeffs[: top + 1] / state.coeffs[0]
        got = symbol / symbol[0]
        return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))

    def kummer_signs():
        nu = _nu_of(model)
        zs = np.array([0.3, 1.0j, -0.4 + 0.2j])
        plus = intelligent.gis_bargmann_function(nu, 1.0, 2.0, zs, sign=1)
        minus = intelligent.gis_bargmann_function(nu, 1.0, 2.0, zs, sign=-1)
        return np.max(np.abs(plus - minus) / np.abs(plus))

    def disk_expansion():
        nu = _nu_of(model)
        lam, zeta_prime, top = 2.0, 0.5, 10
        vec = intelligent.gis_disk_expansion(nu, zeta_prime, lam, 60)
        taylor = taylor_coefficients(
            lambda w: intelligent.gis_disk_function(nu, zeta_prime, lam, w),
            top, radius=0.6)
        symbol = taylor * np.exp(-0.5 * perelomov._log_gamma_ratio(nu, top))
        want = vec.coeffs[: top + 1] / vec.coeffs[0]
        got = symbol / symbol[0]
        return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))

    def laplace():
        nu = _nu_of(model)
        return max(intelligent.laplace_bridge(nu, n, zeta)
                   for n in (0, 3, 6) for zeta in (0.5, 0.8))

    return [
        _case("gis.closed_vs_recurrence", tol, closed_vs_recurrence),
        _case("gis.rs_equality", tol, rs_equality),
        _case("gis.variance_ratio", tol, variance_ratio),
        _case("gis.theta_laws", tol, theta_laws),
        _case("gis.lambda_one", tol, lambda_one),
        _case("gis.bargmann_taylor", tol, bargmann_taylor),
        _case("gis.kummer_signs", tol, kummer_signs),
        _case("gis.disk_expansion", tol, disk_expansion),
        _case("gis.laplace_bridge", tol, laplace),
    ]


# -- position-space layer -----------------------------------------------------


def _suite_position(model: SpectrumModel, tol) -> list[CaseResult]:
    if model.kind == POSCHL_TELLER and model.kappa > 1:
        params = position.PTParameters(model.kappa, model.kappa_prime)
    else:  # PTParameters needs kappa > 1, so the square well's layer is checked on PT(2, 2)
        params = position.PTParameters(2.0, 2.0)

    # one eigenfunction pass per grid, made by the first case that reads it
    @functools.cache
    def quad_rows(order):
        return position._quad_rows(params, 20, order)

    # psi, psi' and psi'' of rows 0..6 on the nodes of quad_rows(200)
    @functools.cache
    def jet():
        return position._quad_jet(params, 6)

    def gram():
        weights, psi, _ = quad_rows(200)
        return np.max(np.abs(position._inner(psi[:9], weights, psi[:9]) - np.eye(9)))

    def factorization():
        r1, r2 = position._factorization_rows(params, jet(), quad_rows(200)[2])
        return max(float(np.max(r1[[0, 2, 5]])), r2)

    def schrodinger():
        return max(position._hamiltonian_rows(params, jet())[0][1:5])

    def overlap():
        u = position._settled_overlap(20, quad_rows(200), quad_rows(260))
        row0 = float(np.sum(np.abs(u[0]) ** 2))
        return max(abs(row0 - 1.0), float(np.max(np.abs(u.imag))))

    def rayleigh():
        quotients = position._hamiltonian_rows(params, jet())[1]
        worst = 0.0
        for n in (1, 3):
            want = position.energy(params, n)
            worst = max(worst, abs(quotients[n] - want) / want)
        return worst

    def susy_shift():
        xs = position.interior_grid(params, 301, margin=0.1)
        h = 1e-6
        fd = (position.superpotential(params, xs + h)
              - position.superpotential(params, xs - h)) / (2.0 * h)
        gap = position.partner_potential(params, xs) - position.potential(params, xs)
        return np.max(np.abs(gap - 2.0 * fd))

    return [
        _case("position.gram", tol, gram),
        _case("position.factorization", tol, factorization),
        _case("position.schrodinger", tol, schrodinger),
        _case("position.overlap_rows", tol, overlap),
        _case("position.rayleigh", tol, rayleigh),
        _case("position.susy_shift", tol, susy_shift),
    ]


# -- special-function kernel ---------------------------------------------------


def _suite_specfun(model: SpectrumModel, tol) -> list[CaseResult]:
    def kummer():
        worst = 0.0
        for a, b, z in ((0.7, 2.3, 0.5), (1.4, 3.1, -1.2), (0.9, 2.6, 2.0 + 1.0j)):
            lhs = cmath.exp(-z) * specfun.hyp1f1(a, b, z)
            rhs = specfun.hyp1f1(b - a, b, -z)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        return worst

    def wronskian():
        xs = np.array([0.7, 2.5])
        orders = (2.0, 4.0, 5.4)
        k_values = {order: specfun.bessel_k(order, xs)
                    for order in sorted({*orders, *(nu + 1 for nu in orders)})}
        worst = 0.0
        for nu in orders:
            for x, k_nu, k_next in zip(xs.tolist(), k_values[nu], k_values[nu + 1]):
                value = x * (specfun.bessel_i(nu, x) * k_next + specfun.bessel_i(nu + 1, x) * k_nu)
                worst = max(worst, abs(value - 1.0))
        return worst

    def jacobi_symmetry():
        xs = np.linspace(-0.9, 0.9, 7)
        left = specfun.jacobi_rows(8, 1.3, 0.4, -xs)
        right = specfun.jacobi_rows(8, 0.4, 1.3, xs)
        return max(float(np.max(np.abs(left[n] - (-1.0) ** n * right[n]))) for n in range(9))

    def quadrature():
        # through the composite-panel path every package quadrature uses
        x, w = specfun.panel_rule([-1.0, 1.0], 12)
        return max(abs(float(np.dot(w, x ** k)) - (0.0 if k % 2 else 2.0 / (k + 1)))
                   for k in range(24))

    return [
        _case("specfun.kummer_transform", tol, kummer),
        _case("specfun.bessel_wronskian", tol, wronskian),
        _case("specfun.jacobi_symmetry", tol, jacobi_symmetry),
        _case("specfun.quadrature_exactness", tol, quadrature),
    ]


_SUITES = {
    "ladder": _suite_ladder,
    "gk": _suite_gk,
    "perelomov": _suite_perelomov,
    "gis": _suite_gis,
    "position": _suite_position,
    "specfun": _suite_specfun,
}


def run_suite(
    suite: str,
    model: SpectrumModel | None = None,
    tol: float | None = None,
) -> VerificationReport:
    """Run one named suite (or "all") against a model; default pt(2,2)."""
    if model is None:
        model = SpectrumModel.poschl_teller(2.0, 2.0)
    if suite == "all":
        cases: list[CaseResult] = []
        for name in SUITE_NAMES:
            cases.extend(_SUITES[name](model, tol))
        return VerificationReport("all", tuple(cases))
    if suite not in _SUITES:
        raise DomainError(f"unknown suite: {suite}")
    return VerificationReport(suite, tuple(_SUITES[suite](model, tol)))
