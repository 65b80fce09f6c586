"""Displacement-type states: nested-sum series, coefficient ODE, closed forms, disk picture.

Three independent routes to the same radial coefficients c_n(r):

  * series   sum_j (-r^2)^j pi(n+1, j) / (n+2j)!  (nested energy sums)
  * ode      dc_n/dr = c_{n-1}/r - n c_n/r - E_{n+1} c_{n+1} r, adaptive Dormand-Prince 5(4)
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


_BAND_BLOCK = 32


def _room(model: SpectrumModel, n: int) -> int:
    """Series depth a tabulated spectrum supports for band n: depth j needs E up to n + 2j + 2."""
    return (model.n_levels - n - 3) // 2


def _table_shape(model: SpectrumModel, n: int, depth: int) -> tuple[int, int]:
    """(n_top, j_top) of the shared nested-sum table holding band n to ``depth`` terms.

    Row n of the table does not depend on how many rows it has, so one table
    per model and depth serves a whole block of bands; a tabulated spectrum's
    table stops at its last level instead.
    """
    n_top = (n // _BAND_BLOCK + 1) * _BAND_BLOCK - 1
    if model.kind != CUSTOM:
        return n_top, depth
    j_top = min(depth, _room(model, 0))
    return min(n_top, model.n_levels - 3 - 2 * j_top), j_top


@functools.lru_cache(maxsize=8)
def _pi_log_table(model: SpectrumModel, n_top: int, j_top: int) -> np.ndarray:
    """log pi(n+1, j) for 0 <= n <= n_top, 0 <= j <= j_top.

    Filled column by column from pi(n+1, j) = pi(n, j) + E_{n+1} pi(n+2, j-1);
    all summands are positive so log-domain accumulation is cancellation-free.
    Rows extend beyond n_top because column j at row n consumes column j-1 at
    row n+1; column j is filled on its first rows - 2j rows only.
    """
    rows = n_top + 2 * j_top + 2
    log_e = np.log(model.energies(rows)[1:])
    table = np.full((rows, j_top + 1), -math.inf)
    table[:, 0] = 0.0
    for j in range(1, j_top + 1):
        # pi(0, j>=1) = 0 is the empty base of the prefix accumulation
        live = rows - 2 * j
        table[:live, j] = np.logaddexp.accumulate(log_e[:live] + table[1 : live + 1, j - 1])
    return table


@functools.lru_cache(maxsize=512)
def _series_profile(model: SpectrumModel, n: int, depth: int) -> np.ndarray:
    """log of pi(n+1, j) n! / (n+2j)! for j = 0..depth; the r-independent part.

    A tabulated spectrum cuts the depth to what its levels support.
    """
    j_cap = min(depth, _room(model, n)) if model.kind == CUSTOM else depth
    table = _pi_log_table(model, *_table_shape(model, n, depth))
    lg_n = specfun.log_gamma(n + 1.0)
    lg = np.array([specfun.log_gamma(n + 2 * j + 1.0) for j in range(j_cap + 1)])
    return table[n, : j_cap + 1] + lg_n - lg


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
        room = _room(model, n)
        if room < 4:
            raise TruncationError(
                f"energy table too short for the band-{n} series (room for {max(room, 0)} terms)"
            )
    if j_cap < 4:
        raise DomainError("j_cap too small to certify a tail")
    inv_fact = math.exp(-specfun.log_gamma(n + 1.0))
    if r == 0.0:
        return inv_fact
    profile = _series_profile(model, n, j_cap)
    j_cap = profile.size - 1
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


# Dormand-Prince 5(4) tableau (J. R. Dormand & P. J. Prince, J. Comput. Appl.
# Math. 6 (1980) 19-26).  The seventh stage is the derivative at the accepted
# point, reused as the first stage of the next step (first same as last).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# fifth- minus fourth-order weights over all seven stages: the local error estimate
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_ODE_RTOL = 1e-11
_ODE_ATOL = 1e-14


def _ode_run(model: SpectrumModel, r_target: float, tops: tuple, step: float) -> np.ndarray:
    """Integrate the banded systems on bands 0..top, one per top, as one stacked state.

    Each system's closure value c_{top+1}(r) comes from the series while it
    converges; once the series gives up (finite radius) that closure freezes
    to zero and the caller's doubling monitor is responsible for catching the
    fallout.  The systems share their adaptive steps, starting from ``step``,
    and the error norm.
    """
    sizes = np.array([top + 1 for top in tops])
    ends = np.cumsum(sizes)
    ns = np.concatenate([np.arange(size, dtype=float) for size in sizes])
    e_up = np.concatenate([model.energies(top + 1)[1:] for top in tops])
    alive = [True] * len(tops)

    @functools.lru_cache(maxsize=2)
    def closure(radius: float) -> tuple:
        values = []
        for i, top in enumerate(tops):
            if alive[i]:
                try:
                    values.append(cn_series(model, top + 1, radius, j_cap=400))
                    continue
                except TruncationError:
                    alive[i] = False
            values.append(0.0)
        return tuple(values)

    def rhs(radius: float, c: np.ndarray) -> np.ndarray:
        lower = np.empty_like(c)
        lower[1:] = c[:-1]
        lower[ends - sizes] = 0.0
        upper = np.empty_like(c)
        upper[:-1] = c[1:]
        upper[ends - 1] = closure(radius)
        return (lower - ns * c) / radius - e_up * upper * radius

    start = [cn_series(model, n, _ODE_R0) for n in range(max(tops) + 1)]
    c = np.concatenate([start[:size] for size in sizes])
    r, h = _ODE_R0, step
    k = np.empty((7, c.size))
    k[0] = rhs(r, c)
    while r < r_target:
        h = min(h, r_target - r)
        for i in range(1, 6):
            k[i] = rhs(r + _DP_C[i] * h, c + h * (_DP_A[i, :i] @ k[:i]))
        c_new = c + h * (_DP_B @ k[:6])
        k[6] = rhs(r + h, c_new)
        with np.errstate(invalid="ignore", over="ignore"):
            scale = _ODE_ATOL + _ODE_RTOL * np.maximum(np.abs(c), np.abs(c_new))
            err = float(np.sqrt(np.mean(np.square(h * (_DP_E @ k) / scale))))
        if not math.isfinite(err):
            factor = 0.2
        elif err > 1.0:
            factor = max(0.2, 0.9 * err**-0.2)
        else:
            r = r_target if h == r_target - r else r + h
            c = c_new
            k[0] = k[6]
            if not np.all(np.isfinite(c)) or np.max(np.abs(c)) > 1e12:
                raise ConvergenceError(
                    f"coefficient blow-up at r={r:.4f} (bands 0..{max(tops)}); "
                    "the truncation closure is not stable at this radius"
                )
            factor = min(10.0, 0.9 * max(err, 1e-10) ** -0.2)
        h *= factor
        if r < r_target and h <= 16.0 * np.spacing(r):
            raise ConvergenceError(
                f"ODE step size collapsed to h={h:.3e} at r={r:.6g}; "
                "the coefficient system cannot be integrated to the requested radius"
            )
    return c


def cn_ode(
    model: SpectrumModel, r_target: float, n_max: int, step: float = 5e-4
) -> DisplacementCoeffs:
    """Integrate the coefficient ODE out to r_target with a doubling self-check.

    Integrates the banded system at n_max and at 2 n_max + 4 as one stacked
    state by an adaptive Dormand-Prince 5(4) pair starting from ``step``, and
    demands band-wise agreement; disagreement means the top closure
    contaminated the requested bands, which is reported instead of returned.
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
    stacked = _ode_run(model, r_target, (n_max, 2 * n_max + 4), step)
    base, wide = stacked[: n_max + 1], stacked[n_max + 1 : 2 * n_max + 2]
    scale = np.max(np.abs(wide))
    defect = float(np.max(np.abs(base - wide)) / max(scale, 1e-300))
    if defect > 1e-8:
        raise ConvergenceError(
            f"closure defect {defect:.3e} after doubling the band count; "
            f"the integration is unreliable at r={r_target:.4g}"
        )
    return DisplacementCoeffs(model, r_target, wide, METHOD_ODE)


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


def _state_phases(model: SpectrumModel, z: complex, n_top: int) -> np.ndarray:
    energies = model.energies(n_top)
    return np.exp(1j * (np.arange(n_top + 1) * np.angle(z) - model.alpha * energies))


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
    model = model.with_alpha(alpha)
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
        out = FockVector(model, mags * _state_phases(model, z, used))
        tail = out.tail_bound()
        if not (tail < 1e-10):
            raise TruncationError(
                f"tabulated spectrum cannot certify the tail ({tail:.3e}) at n_max={used}"
            )
        return out
    if n_max is None:
        n_max = _auto_state_n_max(model, r)
    log_mag = _amp_logs(model, r, n_max)
    return FockVector(model, np.exp(log_mag) * _state_phases(model, z, n_max))


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
    model = model.with_alpha(alpha)
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
    phases = np.exp(1j * (ns * np.angle(zeta) - model.alpha * energies))
    return FockVector(model, np.exp(log_mag) * phases)


# ---------------------------------------------------------------------------
# disk kernel and measure


def _kernel_series(nu: float, w: np.ndarray, twist: float = 0.0):
    """sum_n G_n e^{i twist n (n + nu)} w^n over an array of disk products
    w = conj(zeta1) zeta2, where twist is the phase-label difference."""
    w = np.asarray(w, dtype=complex)
    total = np.ones_like(w)
    term = np.ones_like(w)
    n = 0
    quiet = 0
    while n < 200000:
        n += 1
        term = term * w * ((n + nu) / n)
        total = total + term * np.exp(1j * twist * n * (n + nu))
        if np.all(np.abs(term) <= 1e-16 * np.maximum(np.abs(total), 1e-300)):
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
    return complex(pref * _kernel_series(nu, np.array([w]), alpha1 - alpha2)[0])


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
    # panels graded toward t=1 where (1-t)^{nu-1} has its endpoint kink
    t, w = specfun.panel_rule(specfun.graded_edges(1.0, 0.0, n_panels), 24)
    inside = (t > 0.0) & (t < 1.0)
    t, w = t[inside], w[inside]
    return nu * float(np.sum(w * np.exp(log_g + n * np.log(t) + (nu - 1.0) * np.log1p(-t))))


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
    fine = specfun.settled(f"disk moment n={n}", _disk_moment(nu, n, log_g, 24),
                           _disk_moment(nu, n, log_g, 48), 1e-10)
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
    rhos, ws = specfun.panel_rule(np.linspace(0.0, 1.0, radial_panels + 1), 32)
    inside = rhos < 1.0
    rhos, ws = rhos[inside], ws[inside]
    phis = np.linspace(0.0, 2.0 * math.pi, angular_n, endpoint=False)
    zetas = rhos[:, None] * np.exp(1j * phis)
    p = 0.5 * (nu + 1.0)
    # kernel factors against the fixed endpoints, phase labels at 0
    left = _kernel_series(nu, np.conj(pa.zeta) * zetas)
    right = _kernel_series(nu, np.conj(zetas) * pb.zeta)
    pref = (
        (1.0 - abs(pa.zeta) ** 2) ** p
        * (1.0 - abs(pb.zeta) ** 2) ** p
        * (1.0 - rhos * rhos) ** (nu + 1.0)
    )
    angular = np.mean(left * right, axis=1) * 2.0 * math.pi
    total = np.sum(ws * (nu / math.pi) * pref * angular * rhos / (1.0 - rhos * rhos) ** 2)
    return abs(complex(total) - disk_kernel(nu, pa.zeta, pb.zeta))
