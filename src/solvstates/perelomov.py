"""Displacement-type states: nested-sum series, coefficient ODE, closed forms, disk picture.

Three independent routes to the same radial coefficients c_n(r):

  * series   sum_j (-r^2)^j pi(n+1, j) / (n+2j)!  (nested energy sums)
  * ode      dc_n/dr = c_{n-1}/r - n c_n/r - E_{n+1} c_{n+1} r, integrated RK4
  * closed   e^{-r^2/2}/n!  or  (cosh r)^{-(nu+1)} (tanh r / r)^n / n!

The series has a finite radius for the trigonometric well family (pi/2, set by
the poles of sech); both the series and the ODE report their own breakdown
instead of returning drifted numbers.  For the well family the same states
live on the unit disk via zeta = z tanh|z| / |z|, where the overlap kernel
and the resolving measure are elementary.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError, TruncationError
from .fockspace import FockVector
from .spectrum import CUSTOM, HARMONIC, POSCHL_TELLER, SQUARE_WELL, SpectrumModel

METHOD_SERIES = "series"
METHOD_ODE = "ode"
METHOD_CLOSED_PT = "closed_pt"
METHOD_CLOSED_HO = "closed_ho"
_METHODS = (METHOD_SERIES, METHOD_ODE, METHOD_CLOSED_PT, METHOD_CLOSED_HO)

_ODE_R0 = 1e-3
_SERIES_TOL = 1e-15


@dataclasses.dataclass(frozen=True)
class DisplacementCoeffs:
    """Radial coefficients c_0(r) .. c_n_max(r) from one computation route."""

    model: SpectrumModel
    r: float
    values: np.ndarray
    method: str

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DomainError(f"unknown method tag {self.method!r}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def n_max(self) -> int:
        return self.values.size - 1

    def f_values(self) -> np.ndarray:
        """Weights F_n = 1 / (E(n) c_n^2); harmonic gives n! e^{r^2}."""
        logs = self.model.log_products(self.n_max)
        vals = self.values
        if np.any(vals == 0.0):
            raise DomainError("F_n undefined where c_n vanishes")
        return np.exp(-logs - 2.0 * np.log(np.abs(vals)))


@dataclasses.dataclass(frozen=True)
class DiskPoint:
    zeta: complex

    def __post_init__(self):
        z = complex(self.zeta)
        if abs(z) >= 1.0:
            raise DomainError(f"|zeta| = {abs(z):.6g} is not inside the unit disk")
        object.__setattr__(self, "zeta", z)


# ---------------------------------------------------------------------------
# nested energy sums


@functools.lru_cache(maxsize=32)
def _pi_log_table(model: SpectrumModel, n_top: int, j_top: int) -> np.ndarray:
    """log pi(n+1, j) for 0 <= n <= n_top, 0 <= j <= j_top.

    Filled column by column from pi(n+1, j) = pi(n, j) + E_{n+1} pi(n+2, j-1);
    all summands are positive so log-domain accumulation is cancellation-free.
    Rows extend beyond n_top because column j at row n consumes column j-1 at
    row n+1.
    """
    rows = n_top + 2 * j_top + 2
    log_e = np.array([math.log(model.energy(k)) for k in range(1, rows + 1)])
    table = np.full((rows, j_top + 1), -math.inf)
    table[:, 0] = 0.0
    for j in range(1, j_top + 1):
        # pi(0, j>=1) = 0 is the empty base of the prefix accumulation
        live = rows - 2 * j
        table[:live, j] = np.logaddexp.accumulate(log_e[:live] + table[1 : live + 1, j - 1])
    return table


@functools.lru_cache(maxsize=512)
def _series_profile(model: SpectrumModel, n: int, j_cap: int) -> np.ndarray:
    """log of pi(n+1, j) n! / (n+2j)! for j = 0..j_cap; the r-independent part."""
    table = _pi_log_table(model, n, j_cap)
    js = np.arange(j_cap + 1)
    lg_n = specfun.log_gamma(n + 1.0)
    lg = np.array([specfun.log_gamma(n + 2 * j + 1.0) for j in js])
    return table[n, :] + lg_n - lg


def cn_series(model: SpectrumModel, n: int, r: float, j_cap: int = 160) -> float:
    """c_n(r) by the alternating nested-sum series.

    Terms are assembled in the log domain, so the nested sums never overflow.
    The terms alternate in sign; once they drop below 1e-15 of the running
    sum (two j in a row) the tail is certified, and if that does not happen
    by j_cap the series is declared unusable at this radius.
    """
    if n < 0:
        raise DomainError("band index must be nonnegative")
    if r < 0:
        raise DomainError("radial argument must be nonnegative")
    if model.kind == CUSTOM:
        # the recursion table for band n at depth j consumes energies up to n + 2j + 2
        room = (model.n_levels - n - 3) // 2
        if room < 4:
            raise TruncationError(
                f"energy table too short for the band-{n} series (room for {max(room, 0)} terms)"
            )
        j_cap = min(j_cap, room)
    if j_cap < 4:
        raise DomainError("j_cap too small to certify a tail")
    inv_fact = math.exp(-specfun.log_gamma(n + 1.0))
    if r == 0.0:
        return inv_fact
    profile = _series_profile(model, n, j_cap)
    js = np.arange(j_cap + 1)
    with np.errstate(over="ignore"):
        mags = np.exp(profile + 2.0 * js * math.log(r) - specfun.log_gamma(n + 1.0))
    terms = np.where(js % 2 == 0, mags, -mags)
    partial = np.cumsum(terms)
    floor = np.maximum(np.abs(partial), 1e-300)
    small = np.abs(terms) <= _SERIES_TOL * floor
    settled = small[1:] & small[:-1]
    hits = np.nonzero(settled)[0]
    if hits.size:
        return float(partial[hits[0] + 1])
    suggestion = None
    last_ratio = mags[-1] / mags[-2] if mags[-2] > 0 and math.isfinite(mags[-1]) else None
    if last_ratio is not None and 0.0 < last_ratio < 1.0:
        # geometric estimate of the j needed to certify the tail
        suggestion = int(j_cap + math.log(1e-15) / math.log(last_ratio)) + 4
    raise TruncationError(
        f"series tail not below 1e-15 by j_cap={j_cap} at r={r:.6g} (band {n})",
        suggested_n_max=suggestion,
    )


# ---------------------------------------------------------------------------
# closed forms


def cn_pt_closed(nu: float, n: int, r: float) -> float:
    """(1/n!) (cosh r)^{-(nu+1)} (tanh r / r)^n with the analytic r -> 0 limit."""
    if nu <= 0:
        raise DomainError("the well index must be positive")
    if n < 0:
        raise DomainError("band index must be nonnegative")
    if r < 0:
        raise DomainError("radial argument must be nonnegative")
    log_val = -specfun.log_gamma(n + 1.0) - (nu + 1.0) * math.log(math.cosh(r))
    if r > 0.0:
        log_val += n * math.log(math.tanh(r) / r)
    return math.exp(log_val)


def cn_ho_closed(n: int, r: float) -> float:
    if n < 0 or r < 0:
        raise DomainError("band index and radius must be nonnegative")
    return math.exp(-0.5 * r * r - specfun.log_gamma(n + 1.0))


def cn_closed(model: SpectrumModel, n_max: int, r: float) -> DisplacementCoeffs:
    """Closed-form route as a coefficient block, where one exists."""
    if model.kind == HARMONIC:
        vals = [cn_ho_closed(n, r) for n in range(n_max + 1)]
        return DisplacementCoeffs(model, r, np.array(vals), METHOD_CLOSED_HO)
    if model.kind in (POSCHL_TELLER, SQUARE_WELL):
        nu = model.nu
        vals = [cn_pt_closed(nu, n, r) for n in range(n_max + 1)]
        return DisplacementCoeffs(model, r, np.array(vals), METHOD_CLOSED_PT)
    raise DomainError("no closed displacement coefficients for tabulated spectra")


# ---------------------------------------------------------------------------
# the coefficient ODE


def _ode_run(model: SpectrumModel, r_target: float, n_sys: int, step: float) -> np.ndarray:
    """Integrate the banded system on bands 0..n_sys with series closure above.

    The closure value c_{n_sys+1}(r) comes from the series while it converges;
    once the series gives up (finite radius) the closure freezes to zero and
    the caller's doubling monitor is responsible for catching the fallout.
    """
    energies = model.energies(n_sys + 1)[1:]
    ns = np.arange(n_sys + 1)
    state = {"alive": True}

    @functools.lru_cache(maxsize=8)
    def closure(radius: float) -> float:
        if not state["alive"]:
            return 0.0
        try:
            return cn_series(model, n_sys + 1, radius, j_cap=400)
        except TruncationError:
            state["alive"] = False
            return 0.0

    def rhs(radius: float, c: np.ndarray) -> np.ndarray:
        out = np.empty_like(c)
        out[0] = -energies[0] * c[1] * radius if n_sys >= 1 else -energies[0] * closure(radius) * radius
        if n_sys >= 1:
            out[1:] = c[:-1] / radius - ns[1:] * c[1:] / radius
            if n_sys >= 2:
                out[1:-1] -= energies[1:-1] * c[2:] * radius
            out[-1] -= energies[-1] * closure(radius) * radius
        return out

    c = np.array([cn_series(model, n, _ODE_R0) for n in range(n_sys + 1)])
    r = _ODE_R0
    while r < r_target - 1e-15:
        h = min(step, r_target - r)
        k1 = rhs(r, c)
        k2 = rhs(r + 0.5 * h, c + 0.5 * h * k1)
        k3 = rhs(r + 0.5 * h, c + 0.5 * h * k2)
        k4 = rhs(r + h, c + h * k3)
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        r += h
        if not np.all(np.isfinite(c)) or np.max(np.abs(c)) > 1e12:
            raise ConvergenceError(
                f"coefficient blow-up at r={r:.4f} (bands 0..{n_sys}); "
                "the truncation closure is not stable at this radius"
            )
    return c


def cn_ode(
    model: SpectrumModel, r_target: float, n_max: int, step: float = 5e-4
) -> DisplacementCoeffs:
    """Integrate the coefficient ODE out to r_target with a doubling self-check.

    Runs the banded integration at n_max and again at 2 n_max + 4 and demands
    band-wise agreement; disagreement means the top closure contaminated the
    requested bands, which is reported instead of returned.
    """
    if r_target > 5.0:
        raise DomainError("r_target above 5 is outside the supported range")
    if r_target < 0.0:
        raise DomainError("r_target must be nonnegative")
    if not (0.0 < step <= 1e-3):
        raise DomainError("step must lie in (0, 1e-3]")
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if r_target <= _ODE_R0:
        vals = np.array([cn_series(model, n, r_target) for n in range(n_max + 1)])
        return DisplacementCoeffs(model, r_target, vals, METHOD_ODE)
    base = _ode_run(model, r_target, n_max, step)
    wide = _ode_run(model, r_target, 2 * n_max + 4, step)
    scale = np.max(np.abs(wide[: n_max + 1]))
    defect = float(np.max(np.abs(base - wide[: n_max + 1])) / max(scale, 1e-300))
    if defect > 1e-8:
        raise ConvergenceError(
            f"closure defect {defect:.3e} after doubling the band count; "
            f"the integration is unreliable at r={r_target:.4g}"
        )
    return DisplacementCoeffs(model, r_target, wide[: n_max + 1], METHOD_ODE)


# ---------------------------------------------------------------------------
# states


@functools.lru_cache(maxsize=64)
def _log_gamma_ratio_cached(nu: float, n_top: int) -> tuple:
    base = specfun.log_gamma(nu + 1.0)
    return tuple(
        specfun.log_gamma(n + nu + 1.0) - specfun.log_gamma(n + 1.0) - base
        for n in range(n_top + 1)
    )


def _log_gamma_ratio(nu: float, n_top: int) -> np.ndarray:
    """log of Gamma(n+nu+1) / (n! Gamma(nu+1)) for n = 0..n_top."""
    return np.array(_log_gamma_ratio_cached(nu, n_top))


def plane_to_disk(z: complex) -> complex:
    """zeta = z tanh|z| / |z| maps the plane label onto the unit disk."""
    z = complex(z)
    r = abs(z)
    if r == 0.0:
        return 0.0 + 0.0j
    return z * math.tanh(r) / r


def _amp_logs(model: SpectrumModel, r: float, n_top: int) -> np.ndarray:
    """log |coefficient_n| of the normalized displacement state at radius r."""
    ns = np.arange(n_top + 1)
    if model.kind == HARMONIC:
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(ns[1:]))])
        return ns * math.log(r) - 0.5 * r * r - 0.5 * log_fact
    nu = model.nu
    rho = math.tanh(r)
    return (
        ns * math.log(rho)
        + 0.5 * (nu + 1.0) * math.log1p(-rho * rho)
        + 0.5 * _log_gamma_ratio(nu, n_top)
    )


def _auto_state_n_max(model: SpectrumModel, r: float) -> int:
    n = 24
    while n < 6000:
        logs = _amp_logs(model, r, n)
        if logs[-1] < logs.max() + math.log(1e-20):
            return n
        n = int(n * 1.7) + 8
    return n


def _state_phases(model: SpectrumModel, z: complex, alpha: float, n_top: int) -> np.ndarray:
    energies = model.energies(n_top)
    return np.exp(1j * (np.arange(n_top + 1) * np.angle(z) - alpha * energies))


def perelomov_state(
    model: SpectrumModel,
    z: complex,
    alpha: float | None = None,
    n_max: int | None = None,
) -> FockVector:
    """Normalized displacement state, coefficients z^n e^{-i alpha E_n} / sqrt(F_n).

    The closed prefactor makes the 2-norm equal 1 without renormalization for
    the harmonic and trigonometric-well families; tabulated spectra go through
    the series route and carry tail diagnostics instead.
    """
    z = complex(z)
    if alpha is None:
        alpha = model.alpha
    elif alpha != model.alpha:
        model = dataclasses.replace(model, alpha=alpha)
    r = abs(z)
    if r == 0.0:
        vec = np.zeros((n_max or 0) + 1, dtype=complex)
        vec[0] = 1.0
        return FockVector(model, vec)
    if model.kind == CUSTOM:
        explicit = n_max is not None
        top = n_max if explicit else model.n_levels - 2
        values = []
        for n in range(top + 1):
            try:
                values.append(cn_series(model, n, r))
            except TruncationError:
                if explicit:
                    raise
                break  # keep the bands whose tails certified
        if len(values) < 3:
            raise TruncationError(
                "energy table supports too few certified bands for a state"
            )
        used = len(values) - 1
        logs = model.log_products(used)
        mags = np.array(values) * np.exp(0.5 * logs + np.arange(used + 1) * math.log(r))
        out = FockVector(model, mags * _state_phases(model, z, alpha, used))
        tail = out.tail_bound()
        if not (tail < 1e-10):
            raise TruncationError(
                f"tabulated spectrum cannot certify the tail ({tail:.3e}) at n_max={used}"
            )
        return out
    if n_max is None:
        n_max = _auto_state_n_max(model, r)
    log_mag = _amp_logs(model, r, n_max)
    return FockVector(model, np.exp(log_mag) * _state_phases(model, z, alpha, n_max))


def disk_coefficients(
    model: SpectrumModel,
    zeta: complex,
    alpha: float | None = None,
    n_max: int | None = None,
) -> FockVector:
    """State labeled by a disk point: (1-|z|^2)^{(nu+1)/2} z^n sqrt(G_n) e^{-i alpha E_n}."""
    if model.kind not in (POSCHL_TELLER, SQUARE_WELL):
        raise DomainError("the disk picture needs a nu-type spectrum")
    point = DiskPoint(zeta)
    zeta = point.zeta
    if alpha is None:
        alpha = model.alpha
    elif alpha != model.alpha:
        model = dataclasses.replace(model, alpha=alpha)
    rho = abs(zeta)
    if rho == 0.0:
        vec = np.zeros((n_max or 0) + 1, dtype=complex)
        vec[0] = 1.0
        return FockVector(model, vec)
    if n_max is None:
        n_max = _auto_state_n_max(model, math.atanh(rho))
    nu = model.nu
    ns = np.arange(n_max + 1)
    log_mag = (
        ns * math.log(rho)
        + 0.5 * (nu + 1.0) * math.log1p(-rho * rho)
        + 0.5 * _log_gamma_ratio(nu, n_max)
    )
    energies = model.energies(n_max)
    phases = np.exp(1j * (ns * np.angle(zeta) - alpha * energies))
    return FockVector(model, np.exp(log_mag) * phases)


# ---------------------------------------------------------------------------
# disk kernel and measure


def _kernel_series(nu: float, w: np.ndarray, tol: float = 1e-16, hard_cap: int = 200000):
    """sum_n G_n w^n over an array of disk products w = conj(zeta1) zeta2."""
    w = np.asarray(w, dtype=complex)
    total = np.ones_like(w)
    term = np.ones_like(w)
    n = 0
    quiet = 0
    while n < hard_cap:
        n += 1
        term = term * w * ((n + nu) / n)
        total = total + term
        if np.all(np.abs(term) <= tol * np.maximum(np.abs(total), 1e-300)):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
    raise ConvergenceError("kernel series did not settle; |zeta| too close to 1")


def disk_kernel(
    nu: float,
    zeta1: complex,
    zeta2: complex,
    alpha1: float = 0.0,
    alpha2: float = 0.0,
) -> complex:
    """Overlap of two disk-labeled states, summed as a series with tail < 1e-14."""
    if nu <= 0:
        raise DomainError("the well index must be positive")
    p1, p2 = DiskPoint(zeta1), DiskPoint(zeta2)
    pref = (1.0 - abs(p1.zeta) ** 2) ** (0.5 * (nu + 1.0)) * (
        1.0 - abs(p2.zeta) ** 2
    ) ** (0.5 * (nu + 1.0))
    w = np.conj(p1.zeta) * p2.zeta
    if alpha1 == alpha2:
        return complex(pref * _kernel_series(nu, np.array([w]))[0])
    # distinct phase labels twist term n by e^{i (alpha1 - alpha2) n (n + nu)}
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    n = 0
    quiet = 0
    while n < 200000:
        n += 1
        term = term * w * ((n + nu) / n)
        total += term * np.exp(1j * (alpha1 - alpha2) * n * (n + nu))
        if abs(term) <= 1e-16 * max(abs(total), 1e-300):
            quiet += 1
            if quiet >= 3:
                return complex(pref * total)
        else:
            quiet = 0
    raise ConvergenceError("kernel series did not settle; |zeta| too close to 1")


def disk_kernel_closed(nu: float, zeta1: complex, zeta2: complex) -> complex:
    """(1-|z1|^2)^p (1-|z2|^2)^p (1 - conj(z1) z2)^{-(nu+1)}, p = (nu+1)/2."""
    p1, p2 = DiskPoint(zeta1), DiskPoint(zeta2)
    p = 0.5 * (nu + 1.0)
    return complex(
        (1.0 - abs(p1.zeta) ** 2) ** p
        * (1.0 - abs(p2.zeta) ** 2) ** p
        * (1.0 - np.conj(p1.zeta) * p2.zeta) ** (-(nu + 1.0))
    )


def _disk_moment(nu: float, n: int, log_g: float, n_panels: int) -> float:
    """nu G_n int_0^1 t^n (1-t)^{nu-1} dt by graded composite quadrature."""
    rule = specfun.gauss_legendre(24)
    # panels graded toward t=1 where (1-t)^{nu-1} has its endpoint kink
    edges = 1.0 - np.logspace(0.0, -12.0, n_panels + 1)
    edges[0] = 0.0
    edges[-1] = 1.0
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xs, ws = rule.scaled(float(a), float(b))
        for t, w in zip(xs, ws):
            if t <= 0.0 or t >= 1.0:
                continue
            total += w * math.exp(log_g + n * math.log(t) + (nu - 1.0) * math.log1p(-t))
    return nu * total


def disk_identity_check(nu: float, n: int) -> float:
    """Relative residual of the n-th diagonal resolving moment; exact value 1.

    The angular integral is done analytically; the radial integral runs over
    t = |zeta|^2 in (0, 1) against the (nu/pi) (1-t)^{-2} density.
    """
    if nu <= 0:
        raise DomainError("the well index must be positive")
    if n < 0 or n > 20:
        raise DomainError("moment order must lie in 0..20")
    log_g = (
        specfun.log_gamma(n + nu + 1.0)
        - specfun.log_gamma(n + 1.0)
        - specfun.log_gamma(nu + 1.0)
    )
    coarse = _disk_moment(nu, n, log_g, 24)
    fine = _disk_moment(nu, n, log_g, 48)
    if abs(coarse - fine) > 1e-10:
        raise ConvergenceError(f"disk moment quadrature unsettled: {coarse!r} vs {fine!r}")
    return abs(fine - 1.0)


def kernel_reproducing_residual(
    nu: float,
    zeta_a: complex,
    zeta_b: complex,
    radial_panels: int = 6,
    angular_n: int = 96,
) -> float:
    """| int <a|z><z|b> dmu(z) - <a|b> | over the disk, honest 2D quadrature.

    Radial direction by composite Gauss-Legendre panels in rho, angular by
    trapezoid (periodic analytic integrand, spectrally accurate).
    """
    pa, pb = DiskPoint(zeta_a), DiskPoint(zeta_b)
    rule = specfun.gauss_legendre(32)
    phis = np.linspace(0.0, 2.0 * math.pi, angular_n, endpoint=False)
    ring = np.exp(1j * phis)
    p = 0.5 * (nu + 1.0)
    total = 0.0 + 0.0j
    edges = np.linspace(0.0, 1.0, radial_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        rhos, ws = rule.scaled(float(a), float(b))
        for rho, w in zip(rhos, ws):
            if rho >= 1.0:
                continue
            zetas = rho * ring
            # kernel factors against the fixed endpoints, phase labels at 0
            left = _kernel_series(nu, np.conj(pa.zeta) * zetas)
            right = _kernel_series(nu, np.conj(zetas) * pb.zeta)
            pref = (
                (1.0 - abs(pa.zeta) ** 2) ** p
                * (1.0 - abs(pb.zeta) ** 2) ** p
                * (1.0 - rho * rho) ** (nu + 1.0)
            )
            angular = np.mean(left * right) * 2.0 * math.pi
            total += w * (nu / math.pi) * pref * angular * rho / (1.0 - rho * rho) ** 2
    return abs(complex(total) - disk_kernel(nu, pa.zeta, pb.zeta))
