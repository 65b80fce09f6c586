"""Displacement-type states: nested-sum series, displacement flow, closed forms, disk picture.

Three independent routes to the same radial coefficients c_n(r):

  * series   sum_j (-r^2)^j pi(n+1, j) / (n+2j)!  (nested energy sums)
  * ode      the flow y(r) = e^{rS} e_0 in y_n = r^n c_n sqrt(E_1 ... E_n)
  * closed   e^{-r^2/2}/n!  or  (cosh r)^{-(nu+1)} (tanh r / r)^n / n!

S, the truncation of a_+ - a_- to bands 0..N, has no closure at the top band;
N doubles until two truncations agree band by band, which is the whole
certificate.  The flow also gives a tabulated spectrum its state, whose
magnitudes are the y_n themselves: |y_n| <= 1, so nothing overflows.

The series has a finite radius for the trigonometric well family (pi/2, set
by the poles of sech) and reports its own breakdown instead of returning
drifted numbers; one kernel evaluates it for an array of (band, radius)
pairs.  For the well family the same states live on the unit disk via
zeta = z tanh|z| / |z|, where the overlap kernel and the resolving measure
are elementary.
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
from .tolerances import (FLOW_BAND_CAP, FLOW_GATE, FLOW_STEP_CAP, KERNEL_TOL,
                         SERIES_ROUNDING, SERIES_TOL, TAIL_CERT)

METHOD_SERIES = "series"
METHOD_ODE = "ode"
METHOD_CLOSED = "closed"
_METHODS = (METHOD_SERIES, METHOD_ODE, METHOD_CLOSED)

# below this radius the flow's r^n underflows first; the series is exact there
_ODE_R0 = 1e-3
_SERIES_J_CAP = 160
# automatic n_max trials: 24, then 1.7 n + 8 while n < 6000; one array per group
_AUTO_TRIALS = (24, 48, 89, 159, 278, 480, 824, 1408, 2401, 4089, 6959)
_AUTO_GROUPS = (_AUTO_TRIALS[:5], _AUTO_TRIALS[5:8], _AUTO_TRIALS[8:])
# first cut of every series; up to r = 0.7 every Poschl-Teller band to 25 settles inside it
_SHALLOW_DEPTH = 64
_EPS = float(np.finfo(float).eps)


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


def _series_pass(model: SpectrumModel, bands: list, radii: list, depth: int):
    """One cut of the series for the pairs (bands[i], radii[i]), at depth terms.

    Rows are the pairs, padded past their depth with nan terms, which never
    settle.  A settled sum is certified only if its rounding bound
    16 eps sum_j |t_j| (|L_j| + j + 2) / |sum_j t_j|, L_j = log |t_j|, stays
    within SERIES_ROUNDING: the alternating terms may cancel far below
    their size.  Returns the settled partial sums, the mask of the pairs
    certified inside the cut, and each pair's condition number
    sum |t_j| / |sum t_j| (nan where the tail did not settle).
    """
    unique = {n: i for i, n in enumerate(dict.fromkeys(bands))}
    profiles = [_series_profile(model, n, depth) for n in unique]
    rows = np.array([unique[n] for n in bands])
    stack = np.full((len(profiles), max(profile.size for profile in profiles)), math.nan)
    for row, profile in zip(stack, profiles):
        row[: profile.size] = profile
    lg_n = np.array([_log_factorial(n) for n in unique])
    js = np.arange(stack.shape[1])
    log_r = np.array([math.log(r) for r in radii])
    # an overflowing term leaves its row unsettled (inf, then nan partial sums)
    with np.errstate(over="ignore", invalid="ignore"):
        logs = stack[rows] + 2.0 * js * log_r[:, None] - lg_n[rows, None]
        mags = np.exp(logs)
        terms = mags.copy()
        terms[:, 1::2] *= -1.0  # the series alternates
        partial = np.cumsum(terms, axis=1)
        small = mags <= SERIES_TOL * np.maximum(np.abs(partial), 1e-300)
        settled = small[:, 1:] & small[:, :-1]
        found = settled.any(axis=1)
        ends = np.argmax(settled, axis=1) + 1
        kept = js <= ends[:, None]
        values = partial[np.arange(rows.size), ends]
        size = np.where(kept, mags, 0.0).sum(axis=1)
        spread = np.where(kept, mags * (np.abs(logs) + js + 2.0), 0.0).sum(axis=1)
        cond = np.where(found, size / np.abs(values), math.nan)
        ok = found & (16.0 * _EPS * spread / np.abs(values) <= SERIES_ROUNDING)
    return values, ok, cond


def _series_kernel(model: SpectrumModel, bands, radii, j_cap: int):
    """c_n(r) for the 1-d pairs (bands[i], radii[i]), r > 0, capped at j_cap terms.

    Returns (values, failed); failed marks the pairs whose tail did not
    certify, tabulated bands without room for four terms included, and their
    values are nan.  Pairs that do not settle inside _SHALLOW_DEPTH terms are
    redone at j_cap; a settled pair gets the same bits from both cuts,
    because the nested sums and the partial sums are prefix accumulations.
    """
    bands = np.asarray(bands, dtype=int)
    radii = np.asarray(radii, dtype=float)
    values = np.full(bands.size, math.nan)
    failed = np.ones(bands.size, dtype=bool)
    todo = np.arange(bands.size)
    if model.kind == CUSTOM:
        todo = todo[_room(model, bands) >= 4]
    for depth in sorted({min(j_cap, _SHALLOW_DEPTH), j_cap}):
        if todo.size:
            got, ok, _ = _series_pass(model, bands[todo].tolist(), radii[todo].tolist(), depth)
            values[todo[ok]] = got[ok]
            failed[todo[ok]] = False
            todo = todo[~ok]
    return values, failed


def _refusal(model: SpectrumModel, n: int, r: float, j_cap: int) -> TruncationError:
    """The error for band n, whose series at radius r did not certify by j_cap.

    A settled tail refused by its rounding bound names its condition number;
    an unsettled one names the depth a geometric extrapolation would need.
    """
    if model.kind == CUSTOM and _room(model, n) < 4:
        return TruncationError(
            f"energy table too short for the band-{n} series "
            f"(room for {max(_room(model, n), 0)} terms)"
        )
    _, _, cond = _series_pass(model, [n], [r], j_cap)
    if not math.isnan(cond[0]):
        return TruncationError(
            f"series at r={r:.6g} (band {n}) cancels: condition number sum|t|/|sum t| = "
            f"{cond[0]:.3g} puts its rounding bound above {SERIES_ROUNDING:.0e}")
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
    sum (two j in a row) the tail is settled, and if that does not happen
    by j_cap the series is declared unusable at this radius; the error names
    the j_cap a geometric extrapolation of the last terms would need.  A
    settled sum whose terms cancel so far that its rounding bound passes
    SERIES_ROUNDING is refused too, naming its condition number.
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
        lead, ratio = -0.5 * r * r, 1.0
    elif model.kind in (POSCHL_TELLER, SQUARE_WELL):
        lead = -(model.nu + 1.0) * _log_cosh(r)
        ratio = math.tanh(r) / r if r > 0.0 else 1.0
    else:
        raise DomainError("no closed displacement coefficients for tabulated spectra")
    steps = np.concatenate(([1.0], ratio / np.arange(1.0, n_max + 1.0)))
    return DisplacementCoeffs(model, r, math.exp(lead) * np.cumprod(steps), METHOD_CLOSED)


# ---------------------------------------------------------------------------
# the displacement flow


def _skew_expm1(sub: np.ndarray) -> np.ndarray:
    """e^A - I for the skew tridiagonal A with A[i+1, i] = sub[i] = -A[i, i+1], by its Taylor sum.

    Each term is A times the last over k, as two row shifts.  Summed from term
    N on (N the size: every entry has had its first term) until two terms in a
    row are below 1e-17 of the sum in every entry, so the tiny far entries keep
    their relative accuracy; with ||A|| <= 1 that takes fewer than N + 30 terms.
    Without the identity, rounding stays relative to what one step changes.
    """
    size = sub.size + 1
    total = np.zeros((size, size))
    term, new, shifted = np.eye(size), np.empty((size, size)), np.empty((size - 1, size))
    quiet = 0
    for k in range(1, size + 64):
        low = (sub / k)[:, None]
        new[0] = 0.0
        np.multiply(low, term[:-1], out=new[1:])
        np.multiply(low, term[1:], out=shifted)
        new[:-1] -= shifted
        total += new
        term, new = new, term
        if k >= size:
            quiet = quiet + 1 if np.all(np.abs(term) <= 1e-17 * np.abs(total)) else 0
            if quiet == 2:
                return total
    raise ConvergenceError(f"Taylor sum of the flow propagator unsettled after {k} terms")


def _flow(model: SpectrumModel, r: float, top: int) -> np.ndarray:
    """y(r) = e^{rS} e_0 on bands 0..top, S the skew truncation of a_+ - a_- to those bands.

    Fixed steps h with h ||S|| <= 1 (Gershgorin) apply one propagator e^{hS}.
    S is skew, so ||y|| stays 1; a norm off by more than FLOW_GATE is a blow-up.
    """
    roots = np.sqrt(model.energies(top)[1:])
    steps = max(1, math.ceil(r * float(np.max(np.append(roots, 0.0) + np.append(0.0, roots)))))
    if steps > FLOW_STEP_CAP:
        raise ConvergenceError(f"the displacement flow on bands 0..{top} needs {steps} steps "
                               f"at r={r:.4g}, past its cap of {FLOW_STEP_CAP}")
    change = _skew_expm1(roots * (r / steps))
    y = np.zeros(top + 1)
    y[0] = 1.0
    for _ in range(steps):
        y = y + change @ y
    norm = float(np.linalg.norm(y))
    if not abs(norm - 1.0) <= FLOW_GATE:
        raise ConvergenceError(
            f"coefficient blow-up at r={r:.4f} (bands 0..{top}): the norm is {norm:.6g}")
    return y


def _certified_flow(model: SpectrumModel, r: float, first: int, bands: int | None):
    """The flow on bands 0..N for N = first, 2 first, ... up to the band cap or the table's end.

    Returns the certified bands: the leading bands on which a truncation
    agrees with the one before it to FLOW_GATE, band by band, at the first
    truncation where they number at least ``bands``, or, with bands None,
    where their tail bound is below TAIL_CERT.  Past the last truncation it
    refuses: with TruncationError where the table ends, with
    ConvergenceError at the cap.
    """
    end = model.n_levels - 1 if model.kind == CUSTOM else math.inf
    cap = min(FLOW_BAND_CAP, end)
    top, agreed, y = min(first, cap), None, None
    # a pair of truncations agrees on at most the smaller one's bands
    while top < cap and (bands or 0) <= cap:
        before = _flow(model, r, top) if y is None else y
        top = min(2 * top, cap)
        y = _flow(model, r, top)
        head = y[: before.size]
        agreed = int(np.cumprod(np.abs(before - head) <= FLOW_GATE * np.abs(head)).sum())
        if (agreed >= bands if bands is not None
                else agreed and FockVector(model, y[:agreed]).tail_bound() < TAIL_CERT):
            return y[:agreed]
    message = f"the displacement flow at r={r:.4g} is not certified by N={cap}: " + (
        "no pair of truncations covers the bands asked for" if agreed is None
        else f"its last two truncations agree on {agreed} leading bands")
    if cap == end:
        raise TruncationError(f"{message}; the energy table ends at level {end}")
    raise ConvergenceError(f"{message}; N={cap} is the band cap")


def cn_ode(model: SpectrumModel, r_target: float, n_max: int) -> DisplacementCoeffs:
    """c_0(r) .. c_n_max(r) from the displacement flow, certified by doubling.

    In y_n = r^n c_n sqrt(E_1 ... E_n) the coefficient ODE is y' = S y, y(0) = e_0,
    with S truncated to bands 0..N and no closure at the top band (see _flow).
    N doubles from 2 n_max + 4 until two truncations agree to FLOW_GATE on every
    band 0..n_max (see _certified_flow).  Up to r = 1e-3 the series gives c.
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
    y = _certified_flow(model, r_target, 2 * n_max + 4, n_max + 1)[: n_max + 1]
    if not np.all(np.abs(y) >= np.finfo(float).tiny):
        raise ConvergenceError(
            f"band {int(np.argmin(np.abs(y)))} of the flow underflows at r={r_target:.4g}")
    log_c = (np.log(np.abs(y)) - 0.5 * model.log_products(n_max)
             - np.arange(n_max + 1) * math.log(r_target))
    return DisplacementCoeffs(model, r_target, np.sign(y) * np.exp(log_c), METHOD_ODE)


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

    The trials are tested on prefixes of one array per group of trials: a
    prefix of these cumsums is bitwise the shorter array.  The last trial,
    6,959, is also kept when its tail bound certifies.
    """
    for group in _AUTO_GROUPS:
        logs = _amp_logs(model, r, group[-1])
        peaks = np.maximum.accumulate(logs)
        for n in group:
            if logs[n] < peaks[n] + math.log(1e-20):
                return logs[: n + 1]
    tail = FockVector(model, np.exp(logs)).tail_bound()
    if not (tail < TAIL_CERT):
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
    the harmonic and trigonometric-well families.  A tabulated spectrum's
    state is the displacement flow y(|z|) times the phases, certified by
    doubling from 24 bands and by a tail bound below TAIL_CERT: without
    n_max, on the bands where two truncations agree; with n_max, on bands
    0..n_max of the first truncation that agrees on all of them.
    """
    z = complex(z)
    model = model.with_alpha(alpha)
    r = abs(z)
    if r == 0.0:
        vec = np.zeros((n_max or 0) + 1, dtype=complex)
        vec[0] = 1.0
        return FockVector(model, vec)
    if model.kind == CUSTOM:
        stop = None if n_max is None else n_max + 1
        y = _certified_flow(model, r, _AUTO_TRIALS[0], stop)[:stop]
        out = FockVector(model, y * _state_phases(model, z, y.size - 1))
        tail = out.tail_bound()
        if not (tail < TAIL_CERT):
            raise TruncationError(
                f"tabulated spectrum cannot certify the tail ({tail:.3e}) at n_max={out.n_max}"
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
        if np.all(np.abs(term) <= KERNEL_TOL * np.maximum(np.abs(total), 1e-300)):
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
