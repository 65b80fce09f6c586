"""Annihilation-operator eigenstates with action identity and temporal stability.

The state attached to (z, alpha) has number-basis coefficients

    c_n = norm * z^n e^{-i alpha E_n} / sqrt(E(n)),   E(n) = E_1 E_2 ... E_n,

so a- |z, alpha> = z |z, alpha> and <H> = |z|^2 exactly.  The label alpha is
the model's own (``SpectrumModel.with_alpha``), the same one the ladder twists by.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError
from .fockspace import FockVector, _log_sum, certified_length
from .spectrum import CUSTOM, HARMONIC, POSCHL_TELLER, SpectrumModel
from .tolerances import GK_TAIL_CERT


def _log_ratios(model: SpectrumModel, r: float, top: int) -> np.ndarray:
    """log r^2 - log E_n, n = 1..top: the log ratios of the series terms r^{2n} / E(n)."""
    return (2.0 * math.log(r) if r else -math.inf) - np.log(model.energies(top)[1:])


def gk_log_normalization(model: SpectrumModel, r: float, n_max: int | None = None) -> float:
    """log of S(r) = sum_n r^{2n} / E(n), the squared reciprocal normalization,
    summed over the bands of gk_state(model, r) when n_max is None."""
    if r < 0:
        raise DomainError("radial argument must be nonnegative")
    if n_max is None:
        n_max = gk_state(model, r).vector.n_max
    return _log_sum(np.concatenate(([0.0], np.cumsum(_log_ratios(model, r, n_max)))))


def gk_normalization(model: SpectrumModel, r: float, n_max: int | None = None) -> float:
    return math.exp(gk_log_normalization(model, r, n_max))


def gk_normalization_closed(model: SpectrumModel, r: float) -> float:
    """Closed form of S(r): e^{r^2} (harmonic) or Gamma(nu+1) I_nu(2r) / r^nu."""
    if r < 0:
        raise DomainError("radial argument must be nonnegative")
    if model.kind == HARMONIC:
        return math.exp(r * r)
    if model.kind == CUSTOM:
        raise DomainError("no closed normalization for tabulated spectra")
    nu = model.nu
    if r == 0.0:
        return 1.0
    return math.exp(math.lgamma(nu + 1.0) + specfun.log_bessel_i(nu, 2.0 * r) - nu * math.log(r))


@dataclasses.dataclass(frozen=True)
class GKState:
    """Eigenstate of a- with its construction parameters."""

    z: complex
    vector: FockVector

    @property
    def model(self) -> SpectrumModel:
        return self.vector.model

    @property
    def alpha(self) -> float:
        return self.vector.model.alpha

    @property
    def radius(self) -> float:
        return abs(self.z)

    def energy_mean(self) -> float:
        return self.vector.energy_mean()


def gk_state(model: SpectrumModel, z: complex, *, n_max: int | None = None) -> GKState:
    """Construct the normalized eigenstate of a- with eigenvalue z, phased by the
    model's alpha, the eigenvector of the a- that build_ladder(model, ...) twists.

    Its bands pass FockVector.certified at GK_TAIL_CERT; without n_max they are the
    fewest that fockspace.certified_length accepts, up to a table's last level but one.
    """
    z = complex(z)
    r = abs(z)
    if not math.isfinite(r):
        raise DomainError(f"label z = {z} has no finite modulus")
    if model.kind == CUSTOM:
        # the normalization series lives in u = |z|^2; outside u < radius it
        # diverges (the analytic kinds have an infinite radius)
        radius = model.radius_estimate()
        if r * r >= radius:
            raise DomainError(
                f"|z|^2 = {r * r:.6g} reaches the series radius {radius:.6g}; state diverges"
            )
    # the terms spread like a Poisson law on linear levels
    first = (r * r + 14.0 * r if model.kind == HARMONIC else r + 10.0 * math.sqrt(r)) + 32.0
    vector = certified_length("GK state", model, z, functools.partial(_log_ratios, model, r),
                              GK_TAIL_CERT, n_max, first, model.last_level - 1)
    return GKState(z=z, vector=vector)


def evolve(state: GKState, t: float) -> GKState:
    """Time evolution acts as a shift of the phase parameter: alpha -> alpha + t.

    The evolved vector lives on model.with_alpha(alpha + t), whose ladder it is
    the eigenvector of.
    """
    energies = state.model.energies(state.vector.n_max)
    twisted = state.vector.coeffs * np.exp(-1j * t * energies)
    return GKState(z=state.z,
                   vector=FockVector(state.model.with_alpha(state.alpha + t), twisted))


def action_identity(state: GKState, rep=None) -> float:
    """Signed defect <H> - |z|^2; zero in exact arithmetic.

    When a ladder rep is supplied, <H> is taken through its h_diag so the
    check also exercises the operator path.
    """
    if rep is None:
        mean = state.vector.normalized().energy_mean()
    else:
        vec = state.vector.padded(rep.n_max).normalized()
        mean = float(np.dot(rep.h_diag, np.abs(vec.coeffs) ** 2))
    return mean - abs(state.z) ** 2


def bargmann_eval(coeffs: FockVector, z: complex) -> complex:
    """Analytic symbol sum_n f_n z^n e^{+i alpha E_n} / sqrt(E(n)), alpha the model's.

    Maps the basis vector e_n to a monomial and intertwines a+ with
    multiplication by z.
    """
    model = coeffs.model
    n_top = coeffs.n_max
    logs = model.log_products(n_top)
    energies = model.energies(n_top)
    ns = np.arange(n_top + 1)
    z = complex(z)
    if z == 0:
        monomials = np.zeros(n_top + 1, dtype=complex)
        monomials[0] = 1.0
    else:
        monomials = np.exp(ns * np.log(complex(z)) - 0.5 * logs + 1j * model.alpha * energies)
    return complex(np.dot(coeffs.coeffs, monomials))


# ---------------------------------------------------------------------------
# identity resolution on the plane


@dataclasses.dataclass(frozen=True)
class RadialMeasure:
    """Radial part of the resolving measure (2/pi) I_nu(2r) K_nu(2r) r dr dphi."""

    nu: float
    r_cutoff: float

    def weight(self, r: float) -> float:
        if r < 0:
            raise DomainError("radial argument must be nonnegative")
        if r == 0.0:
            return 0.0
        # I_nu underflows and K_nu overflows together at large nu: their product is read as a log
        return (2.0 / math.pi) * r * math.exp(
            specfun.log_bessel_i(self.nu, 2.0 * r) + specfun.log_bessel_k(self.nu, 2.0 * r))


def pt_measure(kappa: float, kappa_prime: float) -> RadialMeasure:
    """Resolving measure for level products n! Gamma(n+nu+1) / Gamma(nu+1).

    The n-th moment integrand K_nu(2r) r^{2n+nu+1} peaks near r = sqrt((2n+1)(2n+2nu+1))/2,
    log-concave in log r with curvature about c = x^2/(2n+nu+2), x = sqrt((2n+2)(2n+2nu+2)).
    The cutoff (x/2 + 20) e^{10/sqrt c} at n = 20 lies ten widths past that peak in log r
    and 20 past it in r, so truncation is harmless for all moments n <= 20.
    """
    # kappa = kappa_prime = 1 is the square-well boundary; the measure only
    # needs nu = kappa + kappa_prime > 0, but stay within the solvable family
    if kappa < 1 or kappa_prime < 1:
        raise DomainError("well exponents below 1 are outside the solvable family")
    nu = kappa + kappa_prime
    n_ref = 20  # the highest moment the cutoff covers
    half_x = math.sqrt(n_ref + 1.0) * math.sqrt(n_ref + nu + 1.0)
    c = 4.0 * (n_ref + 1.0) * ((n_ref + nu + 1.0) / (2.0 * n_ref + nu + 2.0))
    return RadialMeasure(nu=nu, r_cutoff=(half_x + 20.0) * math.exp(10.0 / math.sqrt(c)))


@functools.lru_cache(maxsize=64)
def _moment_nodes(nu: float, cutoff: float, order: int):
    """Nodes log r and log(weight * K_nu(2r) r^{nu+1}) on (0, cutoff)."""
    r, w = specfun.panel_rule([0.0, cutoff], order)
    log_r = np.log(r)
    log_base = np.log(w) + specfun.log_bessel_k(nu, 2.0 * r) + (nu + 1.0) * log_r
    log_r.flags.writeable = log_base.flags.writeable = False
    return log_r, log_base


def _log_moment(measure: RadialMeasure, n: int, log_rho: float, order: int) -> float:
    # log of 4 / rho(n) * int K_nu(2r) r^{2n+nu+1} dr; no large log is added after the sum
    log_r, log_base = _moment_nodes(measure.nu, measure.r_cutoff, order)
    terms = log_base + 2 * n * log_r - log_rho
    top = float(terms.max())
    return math.log(4.0) + top + math.log(float(np.exp(terms - top).sum()))


def identity_moment_check(model: SpectrumModel, measure: RadialMeasure, n: int) -> float:
    """|log moment_n|, the relative error of the resolving measure's moment to first order.

    Evaluated at two quadrature orders (200 and 400 nodes); disagreement beyond 1e-9
    means the quadrature itself has not settled.  The residual is never below one ulp of
    log rho(n), rho(n) = n! Gamma(n+nu+1): about 2e-16 nu log nu, so no gate passes by rounding.
    """
    if model.kind != POSCHL_TELLER:
        raise DomainError("closed resolving measure is only available for nu-type spectra")
    if abs(model.nu - measure.nu) > 1e-12:
        raise DomainError("measure index does not match the model")
    if n < 0:
        raise DomainError("moment order must be nonnegative")
    try:
        log_rho = math.lgamma(n + 1.0) + math.lgamma(n + measure.nu + 1.0)
    except OverflowError:  # past nu = 2.5e305
        raise ConvergenceError(f"log rho({n}) at nu = {measure.nu!r} overflows") from None
    gap = specfun.settled(f"identity moment n={n}", _log_moment(measure, n, log_rho, 200),
                          _log_moment(measure, n, log_rho, 400), 1e-9)
    return max(abs(gap), math.ulp(log_rho))
