"""Displacement-type states: nested-sum series, coefficient ODE, closed forms, disk picture.

Three independent routes to the same radial coefficients c_n(r):

  * series   sum_j (-r^2)^j pi(n+1, j) / (n+2j)!  (nested energy sums)
  * ode      dc_n/dr = c_{n-1}/r - n c_n/r - E_{n+1} c_{n+1} r, by exact step propagators
  * closed   e^{-r^2/2}/n!  or  (cosh r)^{-(nu+1)} (tanh r / r)^n / n!

The series has a finite radius for the trigonometric well family (pi/2, set by
the poles of sech); both the series and the ODE report their own breakdown
instead of returning drifted numbers.  One kernel evaluates the series for an
array of (band, radius) pairs; ``cn_series`` wraps it for one pair, and the
ODE calls it once for both closures at every quadrature node.  For the
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


def _log_cosh(r: float) -> float:
    """log cosh r = r + log(1 + e^{-2r}) - log 2, finite where cosh r overflows."""
    return r + math.log1p(math.exp(-2.0 * r)) - math.log(2.0)


def cn_closed(model: SpectrumModel, n_max: int, r: float) -> DisplacementCoeffs:
    """Closed-form route as a coefficient block, where one exists.

    c_n = e^{-r^2/2} / n! (harmonic) or (cosh r)^{-(nu+1)} (tanh r / r)^n / n!
    (nu-type, with the analytic r -> 0 limit), as one running product over
    the bands.
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if r < 0:
        raise DomainError("radial argument must be nonnegative")
    if model.kind == HARMONIC:
        lead, ratio, method = -0.5 * r * r, 1.0, METHOD_CLOSED_HO
    elif model.kind in (POSCHL_TELLER, SQUARE_WELL):
        lead, method = -(model.nu + 1.0) * _log_cosh(r), METHOD_CLOSED_PT
        ratio = math.tanh(r) / r if r > 0.0 else 1.0
    else:
        raise DomainError("no closed displacement coefficients for tabulated spectra")
    steps = np.concatenate(([1.0], ratio / np.arange(1.0, n_max + 1.0)))
    return DisplacementCoeffs(model, r, math.exp(lead) * np.cumprod(steps), method)


# ---------------------------------------------------------------------------
# the coefficient ODE


# Gauss nodes per step for the Duhamel forcing, at the two compared resolutions
_FORCING_ORDERS = (6, 8)
_FORCING_GATE = 1e-12


def _taylor_exp(generators: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """e^A X for a stack of generators A (..., N, N) by the Taylor sum of A^k X / k!.

    Summed until every entry has settled: from term N on, when every entry
    has had its first term, two terms in a row below 1e-17 of the running
    sum.  Every entry keeps its relative accuracy, the tiny far-off-diagonal
    ones too; with ||A|| <= 1 that takes fewer than N + 30 terms.
    """
    size = generators.shape[-1]
    total = np.broadcast_to(columns, generators.shape[:-1] + columns.shape[-1:]).copy()
    term, quiet = total, 0
    for k in range(1, size + 64):
        term = generators @ term / k
        total += term
        if k >= size:
            quiet = quiet + 1 if np.all(np.abs(term) <= 1e-17 * np.abs(total)) else 0
            if quiet == 2:
                return total
    raise ConvergenceError(f"Taylor sum of the ODE propagator unsettled after {k} terms")


def _ode_run(model: SpectrumModel, r_target: float, tops: tuple):
    """Solve the banded systems on bands 0..top, one per top, as one block-diagonal system.

    In y_n = r^n c_n exp(log_products[n] / 2) the coefficient ODE reads
    y' = S y - sqrt(E_{top+1}) v(r) e_top, with S the skew tridiagonal
    truncation of a_+ - a_- (off-diagonals sqrt(E_n)) and v = y_{top+1} the
    series closure.  Fixed steps h with h ||S|| <= 1 apply the exact
    propagator e^{hS}, and the Duhamel integral of the closure runs on the
    Gauss nodes of each step, at both orders of _FORCING_ORDERS.  One series
    kernel call covers every closure node; a closure freezes to 0 from its
    first uncertified node on, in radius order, at both orders alike.

    Returns c at both orders as the columns of one array, system after
    system down the rows, and the smallest radius where a closure froze
    (None if none did).
    """
    sizes = np.array([top + 1 for top in tops])
    ends = np.cumsum(sizes)
    roots = np.sqrt(model.energies(sizes.max())[1:])
    # S[i, i-1] on the stacked bands, 0 at every block head; ||S|| by Gershgorin
    sub = np.concatenate([np.concatenate(([0.0], roots[: size - 1])) for size in sizes])
    skew = np.diag(sub[1:], -1) - np.diag(sub[1:], 1)
    steps = max(1, math.ceil(r_target * float(np.max(sub + np.append(sub[1:], 0.0)))))
    h = r_target / steps
    low, high = _FORCING_ORDERS
    coarse, fine = specfun.gauss_legendre(low), specfun.gauss_legendre(high)
    offsets = 0.5 * h * (1.0 + np.concatenate([coarse.nodes, fine.nodes]))
    # row 0 weighs the coarse nodes only, row 1 the fine ones
    weights = np.zeros((2, low + high))
    weights[0, :low], weights[1, low:] = 0.5 * h * coarse.weights, 0.5 * h * fine.weights
    # e^{(h - s) S} e_top for every node offset s (rows) and every system (last axis)
    kicks = _taylor_exp((h - offsets)[:, None, None] * skew, np.eye(sub.size)[:, ends - 1])
    propagator = _taylor_exp(h * skew, np.eye(sub.size))

    radii = h * np.arange(steps)[:, None] + offsets
    values, failed = (a.reshape(sizes.size, steps, -1) for a in _series_kernel(
        model, np.repeat(sizes, radii.size), np.tile(radii.ravel(), sizes.size), 400))
    r_f = np.min(np.where(failed, radii, math.inf), axis=(1, 2))
    logs = model.log_products(sizes.max())
    # sqrt(E_{top+1}) times the y-frame closure v = y_{top+1}, on every node
    with np.errstate(divide="ignore"):
        log_v = np.log(np.abs(values)) + 0.5 * logs[sizes, None, None] + np.multiply.outer(
            sizes, np.log(radii))
    forcing = np.where(radii >= r_f[:, None, None], 0.0, np.sign(values) * np.exp(log_v))
    pushes = np.einsum("jkq,j,oq,qnj->kno", forcing, roots[sizes - 1], weights, kicks)
    y = np.zeros((sub.size, 2))
    y[ends - sizes] = 1.0
    for push in pushes:
        y = propagator @ y - push
    ns = np.concatenate([np.arange(size) for size in sizes])[:, None]
    with np.errstate(divide="ignore"):
        log_c = np.log(np.abs(y)) - 0.5 * logs[ns] - ns * math.log(r_target)
    froze = float(r_f.min())
    return np.sign(y) * np.exp(log_c), (froze if froze < math.inf else None)


def cn_ode(model: SpectrumModel, r_target: float, n_max: int) -> DisplacementCoeffs:
    """Solve the coefficient ODE out to r_target with a doubling self-check.

    Solves the banded system at n_max and at 2 n_max + 4 by exact step
    propagators (see _ode_run) and demands band-wise agreement; disagreement
    means the top closure contaminated the requested bands, which is
    reported instead of returned, together with the radius where a series
    closure froze.  The Duhamel forcing must also agree between its two
    quadrature orders, band by band, to 1e-12 relative.
    """
    if r_target > 5.0:
        raise DomainError("r_target above 5 is outside the supported range")
    if r_target < 0.0:
        raise DomainError("r_target must be nonnegative")
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if r_target <= _ODE_R0:
        vals = np.array([cn_series(model, n, r_target) for n in range(n_max + 1)])
        return DisplacementCoeffs(model, r_target, vals, METHOD_ODE)
    solved, froze = _ode_run(model, r_target, (n_max, 2 * n_max + 4))
    coarse, stacked = solved.T
    if not np.all(np.isfinite(stacked)) or np.max(np.abs(stacked)) > 1e12:
        raise ConvergenceError(
            f"coefficient blow-up at r={r_target:.4f} (bands 0..{2 * n_max + 4}); "
            "the truncation closure is not stable at this radius"
        )
    base, wide = stacked[: n_max + 1], stacked[n_max + 1 : 2 * n_max + 2]
    scale = np.max(np.abs(wide))
    defect = float(np.max(np.abs(base - wide)) / max(scale, 1e-300))
    if defect > 1e-8:
        frozen = "" if froze is None else f"; a series closure froze to 0 at r_f={froze:.4g}"
        raise ConvergenceError(
            f"closure defect {defect:.3e} after doubling the band count; "
            f"the integration is unreliable at r={r_target:.4g}{frozen}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = coarse[n_max + 1 : 2 * n_max + 2] / wide
    specfun.settled(f"cn_ode forcing at r={r_target:.4g}, coarse/fine ratio per band",
                    ratios, np.ones_like(wide), _FORCING_GATE)
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


def _disk_logs(nu: float, log_rho: float, log_1m_rho2: float, n_top: int) -> np.ndarray:
    """log |coefficient_n| of the nu-type state at disk radius rho, from log rho and log(1-rho^2)."""
    return (
        np.arange(n_top + 1) * log_rho
        + 0.5 * (nu + 1.0) * log_1m_rho2
        + 0.5 * _log_gamma_ratio(nu, n_top)
    )


def _amp_logs(model: SpectrumModel, r: float, n_top: int) -> np.ndarray:
    """log |coefficient_n| of the normalized displacement state at radius r."""
    if model.kind == HARMONIC:
        ns = np.arange(n_top + 1)
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(ns[1:]))])
        return ns * math.log(r) - 0.5 * r * r - 0.5 * log_fact
    # log(1 - tanh^2 r) = -2 log cosh r, finite also where tanh r rounds to 1
    return _disk_logs(model.nu, math.log(math.tanh(r)), -2.0 * _log_cosh(r), n_top)


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
    log_mag = _disk_logs(model.nu, math.log(rho), math.log1p(-rho * rho), n_max)
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
