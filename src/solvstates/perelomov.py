"""Displacement-type states: nested-sum series, coefficient ODE, closed forms, disk picture.

Three independent routes to the same radial coefficients c_n(r):

  * series   sum_j (-r^2)^j pi(n+1, j) / (n+2j)!  (nested energy sums)
  * ode      dc_n/dr = c_{n-1}/r - n c_n/r - E_{n+1} c_{n+1} r, adaptive Dormand-Prince 5(4)
  * closed   e^{-r^2/2}/n!  or  (cosh r)^{-(nu+1)} (tanh r / r)^n / n!

The series has a finite radius for the trigonometric well family (pi/2, set by
the poles of sech); both the series and the ODE report their own breakdown
instead of returning drifted numbers.  One kernel evaluates the series for an
array of (band, radius) pairs; ``cn_series`` wraps it for one pair, and the
ODE calls it once per step for both closures at every stage radius.  For the
well family the same states live on the unit disk via zeta = z tanh|z| / |z|,
where the overlap kernel and the resolving measure are elementary.
The closed-form states take log Gamma(n+nu+1) / (n! Gamma(nu+1)) as a cumsum
of log(1 + nu/k); their automatic n_max refuses past its cap of 6,959 levels.
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
_SERIES_J_CAP = 160
_TAIL_CERT = 1e-10
# automatic n_max trials: 24, then 1.7 n + 8 while n < 6000
_AUTO_TRIALS = (24, 48, 89, 159, 278, 480, 824, 1408, 2401, 4089, 6959)
# first cut of every series; up to r = 0.7 every Poschl-Teller band to 25 settles inside it
_SHALLOW_DEPTH = 64


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


@functools.lru_cache(maxsize=4096)
def _log_factorial(m: int) -> float:
    """log m!, shared by every model's series profiles."""
    return specfun.log_gamma(m + 1.0)


@functools.lru_cache(maxsize=512)
def _series_profile(model: SpectrumModel, n: int, depth: int) -> np.ndarray:
    """log of pi(n+1, j) n! / (n+2j)! for j = 0..depth; the r-independent part.

    A tabulated spectrum cuts the depth to what its levels support.
    """
    j_cap = min(depth, _room(model, n)) if model.kind == CUSTOM else depth
    table = _pi_log_table(model, *_table_shape(model, n, depth))
    lg = np.array([_log_factorial(n + 2 * j) for j in range(j_cap + 1)])
    return table[n, : j_cap + 1] + _log_factorial(n) - lg


def _series_pass(model: SpectrumModel, bands: list, radii: list, depths: list):
    """One cut of the series for the pairs (bands[i], radii[i]), each cut at depths[i].

    Rows are the pairs, padded past their depth with nan terms, which never
    settle; returns the settled partial sums and the mask of the pairs that
    settled inside their cut.
    """
    keys = list(zip(bands, depths))
    unique = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    profiles = [_series_profile(model, n, depth) for n, depth in unique]
    rows = np.array([unique[key] for key in keys])
    stack = np.full((len(profiles), max(profile.size for profile in profiles)), math.nan)
    for row, profile in zip(stack, profiles):
        row[: profile.size] = profile
    lg_n = np.array([_log_factorial(n) for n, _ in unique])
    js = np.arange(stack.shape[1])
    log_r = np.array([math.log(r) for r in radii])
    # an overflowing term leaves its row unsettled (inf, then nan partial sums)
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.exp(stack[rows] + 2.0 * js * log_r[:, None] - lg_n[rows, None])
        terms = mags.copy()
        terms[:, 1::2] *= -1.0  # the series alternates
        partial = np.cumsum(terms, axis=1)
        small = mags <= _SERIES_TOL * np.maximum(np.abs(partial), 1e-300)
    settled = small[:, 1:] & small[:, :-1]
    first = np.argmax(settled, axis=1)
    return partial[np.arange(rows.size), first + 1], settled.any(axis=1)


def _series_kernel(model: SpectrumModel, bands, radii, j_caps):
    """c_n(r) for the 1-d pairs (bands[i], radii[i]), r > 0, capped at j_caps (one or per pair).

    Returns (values, failed); failed marks the pairs whose tail did not
    certify, tabulated bands without room for four terms included, and their
    values are nan.  Pairs that do not settle inside _SHALLOW_DEPTH terms are
    redone at their cap; a settled pair gets the same bits from both cuts,
    because the nested sums and the partial sums are prefix accumulations.
    """
    bands = np.asarray(bands, dtype=int)
    radii = np.asarray(radii, dtype=float)
    j_caps = np.zeros(bands.size, dtype=int) + j_caps
    values = np.full(bands.size, math.nan)
    failed = np.ones(bands.size, dtype=bool)
    todo = np.arange(bands.size)
    if model.kind == CUSTOM:
        todo = todo[_room(model, bands) >= 4]
    depths = np.minimum(j_caps, _SHALLOW_DEPTH)
    while todo.size:
        got, ok = _series_pass(model, bands[todo].tolist(), radii[todo].tolist(),
                               depths[todo].tolist())
        values[todo[ok]] = got[ok]
        failed[todo[ok]] = False
        todo = todo[~ok & (depths[todo] < j_caps[todo])]
        depths = j_caps
    return values, failed


def _refusal(model: SpectrumModel, n: int, r: float, j_cap: int) -> TruncationError:
    """The error for band n, whose series at radius r did not certify by j_cap."""
    if model.kind == CUSTOM and _room(model, n) < 4:
        return TruncationError(
            f"energy table too short for the band-{n} series "
            f"(room for {max(_room(model, n), 0)} terms)"
        )
    profile = _series_profile(model, n, j_cap)
    j_top = profile.size - 1
    message = f"series tail not below 1e-15 by j_cap={j_top} at r={r:.6g} (band {n})"
    # geometric estimate of the series depth that would certify the tail
    log_ratio = profile[-1] - profile[-2] + 2.0 * math.log(r)
    if j_top < j_cap:
        message += "; the energy table has room for no more terms"
    elif log_ratio < 0.0:
        message += f"; about j_cap >= {int(j_top + math.log(1e-15) / log_ratio) + 4} needed"
    return TruncationError(message)


def cn_series(model: SpectrumModel, n: int, r: float, j_cap: int = _SERIES_J_CAP) -> float:
    """c_n(r) by the alternating nested-sum series.

    Terms are assembled in the log domain, so the nested sums never overflow.
    The terms alternate in sign; once they drop below 1e-15 of the running
    sum (two j in a row) the tail is certified, and if that does not happen
    by j_cap the series is declared unusable at this radius; the error names
    the j_cap a geometric extrapolation of the last terms would need.
    """
    if n < 0:
        raise DomainError("band index must be nonnegative")
    if r < 0:
        raise DomainError("radial argument must be nonnegative")
    if model.kind == CUSTOM and _room(model, n) < 4:
        raise _refusal(model, n, r, j_cap)
    if j_cap < 4:
        raise DomainError("j_cap too small to certify a tail")
    if r == 0.0:
        return math.exp(-_log_factorial(n))
    values, failed = _series_kernel(model, [n], [r], j_cap)
    if failed[0]:
        raise _refusal(model, n, r, j_cap)
    return float(values[0])


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


def _closures(model: SpectrumModel, bands: np.ndarray, alive: np.ndarray, radii) -> np.ndarray:
    """Closure values c_{top+1} at each stage radius (rows) for each system (columns).

    One kernel call covers every live system at every radius of a step.  A
    closure freezes to 0 at its first uncertified stage, in stage order, and
    stays frozen: ``alive`` is cleared in place, so later steps, retries of a
    rejected step included, no longer evaluate it.
    """
    tails = np.zeros((len(radii), bands.size))
    live = np.nonzero(alive)[0]
    if live.size:
        values, failed = _series_kernel(
            model, np.repeat(bands[live], len(radii)), np.concatenate([radii] * live.size), 400
        )
        frozen = np.logical_or.accumulate(failed.reshape(live.size, -1), axis=1)
        tails[:, live] = np.where(frozen, 0.0, values.reshape(live.size, -1)).T
        alive[live] = ~frozen[:, -1]
    return tails


def _ode_run(model: SpectrumModel, r_target: float, tops: tuple, step: float) -> np.ndarray:
    """Integrate the banded systems on bands 0..top, one per top, as one stacked state.

    Each system's closure value c_{top+1}(r) comes from the series while it
    converges; once the series gives up (finite radius) that closure freezes
    to zero and the caller's doubling monitor is responsible for catching the
    fallout.  The systems share their adaptive steps, starting from ``step``,
    and the error norm.  The start vector and the first closures take one
    series kernel call, and each attempted step one more for all its stages.
    """
    sizes = np.array([top + 1 for top in tops])
    ends = np.cumsum(sizes)
    ns = np.concatenate([np.arange(size, dtype=float) for size in sizes])
    e_up = np.concatenate([model.energies(top + 1)[1:] for top in tops])
    bands = sizes  # the closure band of each system, top + 1
    alive = np.ones(len(tops), dtype=bool)

    heads, lasts = ends - sizes, ends - 1

    def rhs(radius: float, c: np.ndarray, tail: np.ndarray) -> np.ndarray:
        lower = np.empty_like(c)
        lower[1:] = c[:-1]
        lower[heads] = 0.0
        upper = np.empty_like(c)
        upper[:-1] = c[1:]
        upper[lasts] = tail
        return (lower - ns * c) / radius - e_up * upper * radius

    # c_0 .. c_top to 160 terms, and the widest closure band to 400 terms
    top = max(tops)
    caps = np.full(top + 2, 160)
    caps[-1] = 400
    start, failed = _series_kernel(model, np.arange(top + 2), np.full(top + 2, _ODE_R0), caps)
    if failed[:-1].any():
        raise _refusal(model, int(np.argmax(failed)), _ODE_R0, 160)
    # every other closure band settled inside 160 terms, which are its first 160 of 400
    alive &= ~failed[bands]
    c = np.concatenate([start[:size] for size in sizes])
    r, h = _ODE_R0, step
    k = np.empty((7, c.size))
    k[0] = rhs(r, c, np.where(alive, start[bands], 0.0))
    while r < r_target:
        h = min(h, r_target - r)
        radii = r + _DP_C[1:] * h
        tails = _closures(model, bands, alive, radii)
        for i in range(1, 6):
            k[i] = rhs(radii[i - 1], c + h * (_DP_A[i, :i] @ k[:i]), tails[i - 1])
        c_new = c + h * (_DP_B @ k[:6])
        # the last stage sits at r + h, where the derivative is taken next
        k[6] = rhs(r + h, c_new, tails[4])
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
                    f"coefficient blow-up at r={r:.4f} (bands 0..{top}); "
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


def _log_gamma_ratio(nu: float, n_top: int) -> np.ndarray:
    """log of Gamma(n+nu+1) / (n! Gamma(nu+1)) for n = 0..n_top, as sum_k log(1 + nu/k)."""
    return np.concatenate([[0.0], np.cumsum(np.log1p(nu / np.arange(1.0, n_top + 1.0)))])


def plane_to_disk(z: complex) -> complex:
    """zeta = z tanh|z| / |z| maps the plane label onto the unit disk."""
    z = complex(z)
    r = abs(z)
    if r == 0.0:
        return 0.0 + 0.0j
    return z * math.tanh(r) / r


def _disk_logs(nu: float, rho: float, n_top: int) -> np.ndarray:
    """log |coefficient_n| of the nu-type state at disk radius rho = tanh r."""
    return (
        np.arange(n_top + 1) * math.log(rho)
        + 0.5 * (nu + 1.0) * math.log1p(-rho * rho)
        + 0.5 * _log_gamma_ratio(nu, n_top)
    )


def _amp_logs(model: SpectrumModel, r: float, n_top: int) -> np.ndarray:
    """log |coefficient_n| of the normalized displacement state at radius r."""
    if model.kind == HARMONIC:
        ns = np.arange(n_top + 1)
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(ns[1:]))])
        return ns * math.log(r) - 0.5 * r * r - 0.5 * log_fact
    return _disk_logs(model.nu, math.tanh(r), n_top)


def _auto_amp_logs(model: SpectrumModel, r: float) -> np.ndarray:
    """_amp_logs to the first trial n_max whose last amplitude is 1e-20 below the peak.

    The last trial, 6,959, is also kept when its tail bound certifies.
    """
    for n in _AUTO_TRIALS:
        logs = _amp_logs(model, r, n)
        if logs[-1] < logs.max() + math.log(1e-20):
            return logs
    tail = FockVector(model, np.exp(logs)).tail_bound()
    if not (tail < _TAIL_CERT):
        raise TruncationError(
            f"tail bound {tail:.3e} at r={r:.6g} and n_max={n}, the automatic cap"
        )
    return logs


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
        top = model.n_levels - 2 if n_max is None else n_max
        values, failed = _series_kernel(model, np.arange(top + 1), np.full(top + 1, r),
                                        _SERIES_J_CAP)
        if failed.any():
            bad = int(np.argmax(failed))
            if n_max is not None:
                raise _refusal(model, bad, r, _SERIES_J_CAP)
            values = values[:bad]  # keep the bands whose tails certified
        if len(values) < 3:
            raise TruncationError(
                "energy table supports too few certified bands for a state"
            )
        used = len(values) - 1
        logs = model.log_products(used)
        mags = values * np.exp(0.5 * logs + np.arange(used + 1) * math.log(r))
        out = FockVector(model, mags * _state_phases(model, z, used))
        tail = out.tail_bound()
        if not (tail < _TAIL_CERT):
            raise TruncationError(
                f"tabulated spectrum cannot certify the tail ({tail:.3e}) at n_max={used}"
            )
        return out
    log_mag = _auto_amp_logs(model, r) if n_max is None else _amp_logs(model, r, n_max)
    return FockVector(model, np.exp(log_mag) * _state_phases(model, z, log_mag.size - 1))


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
        n_max = _auto_amp_logs(model, math.atanh(rho)).size - 1
    log_mag = _disk_logs(model.nu, rho, n_max)
    return FockVector(model, np.exp(log_mag) * _state_phases(model, zeta, n_max))


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
