"""Displacement-type states: nested-sum series, displacement flow, closed forms, disk picture.

Three independent routes to the same radial coefficients c_n(r):

  * series   sum_j (-r^2)^j pi(n+1, j) / (n+2j)!  (nested energy sums)
  * ode      the flow y(r) = e^{rS} e_0 in y_n = r^n c_n sqrt(E_1 ... E_n)
  * closed   e^{-r^2/2}/n!  or  (cosh r)^{-(nu+1)} (tanh r / r)^n / n!

S, the truncation of a_+ - a_- to bands 0..N, has no closure at the top band;
N doubles until two truncations agree band by band, which is the whole
certificate.  The flow runs on y~_n = y_n / rho^n, rho = min(r, 1): below r = 1
the bands are c_n sqrt(E_1 ... E_n), which do not underflow with r^n, so one
route serves every radius down to r = 0; from r = 1 on y~ is y.  The flow also
gives a tabulated spectrum its state, at rho = 1, whose magnitudes are the y_n
themselves: |y_n| <= 1, so nothing overflows.

The series has a finite radius for the trigonometric well family (pi/2, set
by the poles of sech) and reports its own breakdown instead of returning
drifted numbers; one pass evaluates it for bands 0..n at one radius.  For
the well family the same states live on the unit disk via
zeta = z tanh|z| / |z|, where the overlap kernel and the resolving measure
are elementary.
The closed-form states are the log ratios of their band masses; fockspace.certified_length
normalizes, phases, sizes (up to SIZE_CEILING bands) and certifies them, as it does gk's.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError, TruncationError
from .fockspace import FockVector, certified_length, label_phases, within_ceiling
from .spectrum import CUSTOM, HARMONIC, POSCHL_TELLER, SpectrumModel
from .tolerances import (FLOW_BAND_CAP, FLOW_GATE, FLOW_STEP_CAP, KERNEL_TOL,
                         SERIES_ROUNDING, SERIES_TOL, TAIL_CERT)

METHOD_SERIES = "series"
METHOD_ODE = "ode"
METHOD_CLOSED = "closed"
_METHODS = (METHOD_SERIES, METHOD_ODE, METHOD_CLOSED)

_SERIES_J_CAP = 160
# top band of a tabulated state's first flow truncation
_FLOW_FIRST = 24
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
        if not abs(z) < 1.0:
            raise DomainError(f"|zeta| = {abs(z):.6g} is not inside the unit disk")
        object.__setattr__(self, "zeta", z)


# ---------------------------------------------------------------------------
# nested energy sums


def _series_bands(model: SpectrumModel, n_top: int, r: float, j_cap: int):
    """c_0(r) .. c_n_top(r) by the nested-sum series, r >= 0, one column of terms at a time.

    Column j holds log pi(n+1, j) = log(pi(n, j) + E_{n+1} pi(n+2, j-1)) for every
    band, a prefix accumulation (so row n never depends on n_top), and the terms
    t_j = (-r^2)^j pi(n+1, j) / (n+2j)!.  Columns are added until every band has
    settled or reached its depth: j_cap, or the (last_level - n - 2) // 2 terms a
    table supports (a band with room for fewer than four is not evaluated).
    Returns (values, ok, cond, slope): the settled sums, the certified mask (see
    cn_series), the condition numbers sum |t_j| / |sum t_j| and, for a band that
    did not settle, the log ratio of its last two terms; nan where they do not apply.
    """
    values, cond, slope = (np.full(n_top + 1, math.nan) for _ in range(3))
    ok = np.zeros(n_top + 1, dtype=bool)
    depth = np.full(n_top + 1, j_cap)
    tabulated = model.kind == CUSTOM
    if tabulated:
        depth = np.minimum(depth, (model.last_level - 2 - np.arange(n_top + 1)) // 2)
    live = int(np.count_nonzero(depth >= 4))  # depth falls with n: bands 0..live-1
    if live == 0:
        return values, ok, cond, slope
    depth, top = depth[:live], int(depth[0])
    lf = np.empty(live + 2 * top)  # log m!, two more per column
    lf[:live] = [math.lgamma(m + 1.0) for m in range(live)]
    lf_n = lf[:live]
    if r == 0.0:  # only the j = 0 term is left
        values[:live] = [math.exp(-v) for v in lf_n.tolist()]
        ok[:live], cond[:live] = True, 1.0
        return values, ok, cond, slope
    # column j is filled on rows 0..live+top-j-1, all that the columns after it read
    rows = live + top
    energies = model.energies(min(rows, model.last_level))
    log_e = np.full(rows, math.nan)  # past a table's end: only bands beyond their depth read it
    log_e[: energies.size - 1] = np.log(energies[1:])
    log_r = math.log(r)
    column, partial = np.zeros(rows), np.zeros(live)
    small, done = np.zeros(live, dtype=bool), np.zeros(live, dtype=bool)
    profiles, partials, smalls = [], [], []
    # an overflowing term leaves its band unsettled (inf, then nan partial sums)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(top + 1):
            if j:
                column = np.logaddexp.accumulate(log_e[: rows - j] + column[1 : rows - j + 1])
                lf[live + 2 * j - 2] = math.lgamma(live + 2 * j - 1.0)
                lf[live + 2 * j - 1] = math.lgamma(live + 2 * j + 0.0)
            profiles.append((column[:live] + lf_n) - lf[2 * j : 2 * j + live])
            mags = np.exp(profiles[-1] + 2.0 * j * log_r - lf_n)
            partial = partial - mags if j % 2 else partial + mags  # the series alternates
            partials.append(partial)
            was_small, small = small, mags <= SERIES_TOL * np.maximum(np.abs(partial), 1e-300)
            smalls.append(small)
            done |= small & was_small
            if tabulated:
                done |= depth <= j
            if np.count_nonzero(done) == live:
                break
        # band n settles at the first j <= its depth where two terms in a row are small
        js = np.arange(len(profiles))[:, None]
        pairs = np.array(smalls)
        pairs = pairs[1:] & pairs[:-1] & (js[1:] <= depth)
        found = pairs.any(axis=0)
        ends = np.where(found, np.argmax(pairs, axis=0) + 1, -1)
        values[:live] = np.where(found, np.array(partials)[ends, np.arange(live)], math.nan)
        kept = js <= ends
        logs = np.array(profiles) + 2.0 * js * log_r - lf_n  # the terms again, as one array
        mags = np.exp(logs)
        size = np.where(kept, mags, 0.0).sum(axis=0)
        spread = np.where(kept, mags * (np.abs(logs) + js + 2.0), 0.0).sum(axis=0)
        cond[:live] = np.where(found, size / np.abs(values[:live]), math.nan)
        # the rounding bound 16 eps sum_j |t_j| (|log |t_j|| + j + 2) / |sum_j t_j|
        ok[:live] = found & (16.0 * _EPS * spread / np.abs(values[:live]) <= SERIES_ROUNDING)
        for n in np.flatnonzero(~found):
            slope[n] = profiles[depth[n]][n] - profiles[depth[n] - 1][n] + 2.0 * log_r
    return values, ok, cond, slope


def _series_values(model: SpectrumModel, n_top: int, r: float, j_cap: int,
                   first: int = 0) -> np.ndarray:
    """c_0(r) .. c_n_top(r), or the refusal of the lowest band from ``first`` on that did not certify."""
    values, ok, cond, slope = _series_bands(model, n_top, r, j_cap)
    if ok[first:].all():
        return values
    n = first + int(np.argmin(ok[first:]))
    room = (model.last_level - n - 2) // 2 if model.kind == CUSTOM else math.inf
    if room < 4:
        raise TruncationError(f"energy table too short for the band-{n} series "
                              f"(room for {max(room, 0)} terms)")
    if not math.isnan(cond[n]):
        raise TruncationError(
            f"series at r={r:.6g} (band {n}) cancels: condition number sum|t|/|sum t| = "
            f"{cond[n]:.3g} puts its rounding bound above {SERIES_ROUNDING:.0e}")
    j_top = min(room, j_cap)
    message = f"series tail not below 1e-15 by j_cap={j_top} at r={r:.6g} (band {n})"
    if j_top < j_cap:
        message += "; the energy table has room for no more terms"
    elif slope[n] < 0.0:
        message += f"; about j_cap >= {int(j_top + math.log(1e-15) / slope[n]) + 4} needed"
    raise TruncationError(message)


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
    # a tabulated band without room for four terms is refused before j_cap is looked at
    if j_cap < 4 and model.last_level - n >= 10:
        raise DomainError("j_cap too small to certify a tail")
    return float(_series_values(model, n, r, j_cap, first=n)[n])


# ---------------------------------------------------------------------------
# closed forms


def _log_cosh(r: float) -> float:
    """log cosh r: log1p(sinh^2 r) / 2 below r = 1, where the other form cancels to 0 as
    r -> 0; from 1 on r + log(1 + e^{-2r}) - log 2, finite where cosh r overflows."""
    if r < 1.0:
        return 0.5 * math.log1p(math.sinh(r) * math.sinh(r))
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
    elif model.kind == POSCHL_TELLER:
        lead = -(model.nu + 1.0) * _log_cosh(r)
        ratio = math.tanh(r) / r if r > 0.0 else 1.0
    else:
        raise DomainError("no closed displacement coefficients for tabulated spectra")
    steps = np.concatenate(([1.0], ratio / np.arange(1.0, n_max + 1.0)))
    return DisplacementCoeffs(model, r, math.exp(lead) * np.cumprod(steps), METHOD_CLOSED)


# ---------------------------------------------------------------------------
# the displacement flow


def _skew_expm1(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """e^A - I for the tridiagonal A with A[i+1, i] = low[i] and A[i, i+1] = -high[i], by its
    Taylor sum; skew where high is low.

    Each term is A times the last over k, as two row shifts.  Summed from term
    N on (N the size: every entry has had its first term) until two terms in a
    row are below 1e-17 of the sum in every entry, so the tiny far entries keep
    their relative accuracy; with ||A|| <= 1 that takes fewer than N + 30 terms.
    Without the identity, rounding stays relative to what one step changes.
    """
    size = low.size + 1
    total = np.zeros((size, size))
    term, new, shifted = np.eye(size), np.empty((size, size)), np.empty((size - 1, size))
    quiet = 0
    for k in range(1, size + 64):
        new[0] = 0.0
        np.multiply((low / k)[:, None], term[:-1], out=new[1:])
        np.multiply((high / k)[:, None], term[1:], out=shifted)
        new[:-1] -= shifted
        total += new
        term, new = new, term
        if k >= size:
            quiet = quiet + 1 if np.all(np.abs(term) <= 1e-17 * np.abs(total)) else 0
            if quiet == 2:
                return total
    raise ConvergenceError(f"Taylor sum of the flow propagator unsettled after {k} terms")


def _flow(model: SpectrumModel, r: float, rho: float, top: int) -> np.ndarray:
    """y~_n = y_n(r) / rho^n on bands 0..top, y(r) = e^{rS} e_0, for 0 < rho <= 1 (or r = rho = 0).

    Over s in [0, 1] y~ follows the generator with sub-diagonal (r / rho) sqrt(E_n) and
    super-diagonal -r rho sqrt(E_n): r S itself at rho = 1.  Fixed steps h with
    h ||generator|| <= 1 (Gershgorin) apply one propagator.  S is skew, so
    ||rho^n y~_n|| = ||y|| stays 1; a norm off by more than FLOW_GATE is a blow-up.
    """
    roots = np.sqrt(model.energies(top)[1:])
    lift = r / rho if rho else 1.0
    # the generator's row sums over lift: row n holds sqrt(E_n) and (r rho / lift) sqrt(E_n+1)
    rows = np.append(roots, 0.0) * (r * rho / lift) + np.append(0.0, roots)
    steps = max(1, math.ceil(lift * float(np.max(rows))))
    if steps > FLOW_STEP_CAP:
        raise ConvergenceError(f"the displacement flow on bands 0..{top} needs {steps} steps "
                               f"at r={r:.4g}, past its cap of {FLOW_STEP_CAP}")
    change = _skew_expm1(roots * (lift / steps), roots * (r * rho / steps))
    y = np.zeros(top + 1)
    y[0] = 1.0
    for _ in range(steps):
        y = y + change @ y
    norm = float(np.linalg.norm(y * rho ** np.arange(top + 1)))
    if not abs(norm - 1.0) <= FLOW_GATE:
        raise ConvergenceError(
            f"coefficient blow-up at r={r:.4f} (bands 0..{top}): the norm is {norm:.6g}")
    return y


def _certified_flow(model: SpectrumModel, r: float, rho: float, first: int, bands: int | None):
    """The flow's y~ on bands 0..N for N = first, 2 first, ... up to the band cap or table's end.

    Returns the certified bands: the leading bands on which a truncation
    agrees with the one before it to FLOW_GATE, band by band, at the first
    truncation where they number at least ``bands``, or, with bands None (and rho = 1),
    where their tail bound is below TAIL_CERT.  Past the last truncation it
    refuses: with TruncationError where the table ends, with
    ConvergenceError at the cap.
    """
    end = model.last_level
    cap = min(FLOW_BAND_CAP, end)
    top, agreed, y = min(first, cap), None, None
    # a pair of truncations agrees on at most the smaller one's bands
    while top < cap and (bands or 0) <= cap:
        before = _flow(model, r, rho, top) if y is None else y
        top = min(2 * top, cap)
        y = _flow(model, r, rho, top)
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

    In y_n = r^n c_n sqrt(E_1 ... E_n) the coefficient ODE is y' = S y, y(0) = e_0, with S
    truncated to bands 0..N and no closure at the top band.  The flow runs on y~_n = y_n / rho^n,
    rho = min(r, 1), so below r = 1 the bands c_n sqrt(E_1 ... E_n) do not shrink with r^n
    (c_n = 1/n! at r = 0); from r = 1 on y~ is y.  N doubles from 2 n_max + 4 until two
    truncations agree to FLOW_GATE on every band 0..n_max; a band of y~ that underflows is refused.
    Where that reaches a table's last level L > 2 n_max + 1, N starts from L // 2: its double fits.
    """
    if r_target > 5.0:
        raise DomainError("r_target above 5 is outside the supported range")
    if r_target < 0.0:
        raise DomainError("r_target must be nonnegative")
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    end, first = model.last_level, 2 * n_max + 4
    first = end // 2 if 2 * n_max + 1 < end <= first else first
    y = _certified_flow(model, r_target, min(r_target, 1.0), first, n_max + 1)[:n_max + 1]
    if not np.all(np.abs(y) >= np.finfo(float).tiny):
        raise ConvergenceError(
            f"band {int(np.argmin(np.abs(y)))} of the flow underflows at r={r_target:.4g}")
    log_c = (np.log(np.abs(y)) - 0.5 * model.log_products(n_max)
             - np.arange(n_max + 1) * math.log(max(r_target, 1.0)))
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


def _closed_state(model: SpectrumModel, label: complex, log_rho2: float, first: float,
                  n_max: int | None) -> FockVector:
    """The closed-form state at ``label`` from fockspace.certified_length, scanning from ``first``
    bands: |c_n|^2 in proportion to prod_{k <= n} rho_k with rho_k = e^{log_rho2} / k on
    harmonic and e^{log_rho2} (k + nu) / k otherwise."""
    def ratios(top: int) -> np.ndarray:
        ks = np.arange(1.0, top + 1.0)
        return log_rho2 + (np.log1p(model.nu / ks) if model.kind == POSCHL_TELLER else -np.log(ks))

    return certified_length("displacement state", model, label, ratios, TAIL_CERT, n_max, first,
                            model.last_level)


def _disk_state(model: SpectrumModel, label: complex, log_rho: float,
                n_max: int | None) -> FockVector:
    """The nu-type state at disk radius rho, from log rho; the first scan covers its negative
    binomial masses, mean (nu + 1) rho^2 / (1 - rho^2), tail n^nu rho^{2n}."""
    nu, q = model.nu, -2.0 * log_rho
    first = ((nu + 1.0) * math.exp(-q) / -math.expm1(-q)
             + (36.0 + nu * math.log1p(1.0 / q)) / q + 32.0 if q else math.inf)
    return _closed_state(model, label, -q, first, n_max)


def perelomov_state(model: SpectrumModel, z: complex, *, n_max: int | None = None) -> FockVector:
    """Normalized displacement state, coefficients z^n e^{-i alpha E_n} / sqrt(F_n), alpha
    the model's.

    On the harmonic and trigonometric-well families fockspace.certified_length builds it
    from the closed form's mass ratios alone, normalized by the bands it keeps, and certifies
    its tail bound below TAIL_CERT; the closed prefactor is cn_closed's.  A tabulated
    spectrum's state is the displacement flow y(|z|) times the phases,
    certified by doubling from 24 bands and by a tail bound below TAIL_CERT:
    without n_max, on the bands where two truncations agree; with n_max, on
    bands 0..n_max of the first truncation that agrees on all of them.
    """
    z = complex(z)
    r = abs(z)
    if not math.isfinite(r):
        raise DomainError(f"label z = {z} has no finite modulus")
    if model.kind == POSCHL_TELLER:
        return _disk_state(model, z, math.log(math.tanh(r)) if r else -math.inf, n_max)
    if model.kind == HARMONIC or r == 0.0:  # a table's state at 0 is band 0 alone, too
        log_r2 = 2.0 * math.log(r) if r else -math.inf
        return _closed_state(model, z, log_r2, r * r + 14.0 * r + 32.0, n_max)
    within_ceiling(n_max)
    stop = None if n_max is None else n_max + 1
    y = _certified_flow(model, r, 1.0, _FLOW_FIRST, stop)[:stop]
    return FockVector(model, y * label_phases(model, z, y.size - 1)).certified("tabulated state")


def disk_coefficients(model: SpectrumModel, zeta: complex, *,
                      n_max: int | None = None) -> FockVector:
    """State labeled by a disk point: (1-|z|^2)^{(nu+1)/2} z^n sqrt(G_n) e^{-i alpha E_n},
    alpha the model's; built and certified as perelomov_state's closed forms are."""
    if model.kind != POSCHL_TELLER:
        raise DomainError("the disk picture needs a nu-type spectrum")
    zeta = DiskPoint(zeta).zeta
    rho = abs(zeta)
    return _disk_state(model, zeta, math.log(rho) if rho else -math.inf, n_max)


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
    """(1-|z1|^2)^p (1-|z2|^2)^p (1 - conj(z1) z2)^{-(nu+1)}, p = (nu+1)/2, as one
    exponential of logs: at large nu the factors alone leave the float range."""
    p1, p2 = DiskPoint(zeta1), DiskPoint(zeta2)
    p = 0.5 * (nu + 1.0)
    return cmath.exp(p * math.log1p(-abs(p1.zeta) ** 2) + p * math.log1p(-abs(p2.zeta) ** 2)
                     - (nu + 1.0) * cmath.log(1.0 - p1.zeta.conjugate() * p2.zeta))


def disk_identity_check(nu: float, n: int) -> float:
    """|log| of the n-th diagonal resolving moment, its relative residual to first order.

    The angular integral is analytic; the radial one, nu G_n int t^n (1-t)^(nu-1) over
    t = |zeta|^2 in (0, 1), runs in s = log(t/(1-t)) = s* + u, e^{s*} = a/nu, a = n + 1,
    where t^a (1-t)^nu is a log-concave bump (curvature a nu/(a + nu), tails e^{a u} and
    e^{-nu u}, which the endpoint powers become).  The front nu G_n p^a q^nu,
    p = a/(a + nu) = 1 - q, is a^a q^nu / n! times ratios (k + nu)/(a + nu), read as logs.
    """
    if nu <= 0:
        raise DomainError("the well index must be positive")
    if n < 0 or n > 20:
        raise DomainError("moment order must lie in 0..20")
    a = n + 1.0
    p, q = a / (a + nu), nu / (a + nu)
    # log integrand less its peak: a u - (a + nu) log1p(p expm1 u), or the same with
    # (a, p, u) -> (nu, q, -u); the form in the smaller of p, q neither cancels nor overflows
    k, w, sign = (a, p, 1.0) if p <= q else (nu, q, -1.0)
    case = f"disk moment n={n}"
    coarse, fine = specfun.log_trapezoid(
        case, lambda u: k * sign * u - (a + nu) * np.log1p(w * np.expm1(sign * u)), a * q, a, nu)
    log_front = (float(np.log((np.arange(a) + nu) / (a + nu)).sum()) + a * math.log(a)
                 - math.lgamma(a) + nu * math.log1p(-p))
    return abs(specfun.settled(case, coarse + log_front, fine + log_front, 1e-10))


def kernel_reproducing_residual(nu: float, zeta_a: complex, zeta_b: complex) -> float:
    """| int <a|z><z|b> dmu(z) - <a|b> | over the disk, honest 2D quadrature.

    Radial direction by six composite 32-node Gauss-Legendre panels in rho, angular by
    the 96-point trapezoid (periodic analytic integrand, spectrally accurate).
    """
    pa, pb = DiskPoint(zeta_a), DiskPoint(zeta_b)
    rhos, ws = specfun.panel_rule(np.linspace(0.0, 1.0, 7), 32)
    inside = rhos < 1.0
    rhos, ws = rhos[inside], ws[inside]
    phis = np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)
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
