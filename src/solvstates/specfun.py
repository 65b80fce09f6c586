"""Self-contained special function kernel.

Everything here is series- or quadrature-based.  The hypergeometric series
are tuned for the moderate arguments this package needs (|z| up to about
50); the Bessel functions have log forms, finite for every order up to 1e300
where I_nu and K_nu leave the float range.  Series stop on a relative tail
below 1e-16 and abort with ConvergenceError past 10000 terms; there are no
reflection formulas and no asymptotic branches (log Gamma is ``math.lgamma``).
``hyp1f1`` and ``hyp0f1`` sum an array argument in one pass, each element by
exactly the arithmetic of a scalar call, and so do ``bessel_k`` and ``log_bessel_k``.
The Jacobi evaluator runs the three-term recurrence as a formal identity in
the parameters, so it stays valid for the complex and below -1 parameters of
the disk-representation expansions, a regime standard libraries refuse.

Where a log variable makes an integrand a log-concave bump with exponential
tails (K_nu's integral, the disk moments, the Laplace bridge), the trapezoid
rule on a window known in closed form converges geometrically without panels
or a search: ``_bessel_k``, and ``log_trapezoid`` for the rest.  Smooth
integrands on a finite interval take Gauss-Legendre through ``panel_rule``.
``settled`` compares two resolutions against the caller's gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

MAX_TERMS = 10000
REL_TAIL = 1e-16
# terms per vectorized step of the hypergeometric series
_BLOCK = 24
#: most nodes one log_trapezoid window may hold, 0.5 MB an array
LOG_RULE_CAP = 2 ** 16


def log_bessel_i(nu: float, x: float) -> float:
    """log I_nu(x) by the ascending series, for nu >= 0, x >= 0.  The leading factor
    (x/2)^nu / Gamma(nu+1) enters as its log, and the sum carries powers of 2 into it,
    so it is finite where I_nu underflows or overflows."""
    if nu < 0 or x < 0:
        raise DomainError("bessel_i needs nu >= 0 and x >= 0")
    if x == 0.0:
        return 0.0 if nu == 0 else -math.inf
    log_lead = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    q = 0.25 * x * x
    term = total = 1.0
    carried = 0  # powers of 2 moved from the sum into the log, past x = 716 where it overflows
    for k in range(1, MAX_TERMS):
        term *= q / (k * (nu + k))
        total += term
        if total > 1e300:
            term, total, carried = term * 2.0 ** -1000, total * 2.0 ** -1000, carried + 1000
        if term <= REL_TAIL * total:
            return log_lead + carried * math.log(2.0) + math.log(total)
    raise ConvergenceError("bessel_i series did not converge")


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x) = exp(log_bessel_i(nu, x))."""
    return math.exp(log_bessel_i(nu, x))


def _bessel_k(nu: float, x, log: bool):
    """log K_nu(x) or K_nu(x), in the shape of x > 0, from K_nu = e^shift * sum.

    The trapezoid rule on the integral over t >= 0 of e^g (1 + e^{-2 nu t}) / 2,
    g(t) = nu t - x cosh t (DLMF 10.32.9); it converges geometrically on this
    entire, double-exponentially decaying integrand (Trefethen & Weideman, SIAM
    Rev. 56, 2014).  g is concave, with its peak at t* = asinh(nu/x) and curvature
    c = sqrt(x^2 + nu^2) there.  It falls by 40 at t* + acosh(1 + 40/c), and at
    t* - delta for delta the smaller of acosh(1 + 40/(c - nu)) and the root of
    nu delta^2 / (2 + delta) = 40; a window clipped at 0 gives t = 0 half weight,
    the integrand being even.  The step is min(1/8, 1/(2 sqrt c)): at most 98
    nodes per x on [1e-3, 130] for every nu up to 1e300.  The windows of all x lie end
    to end in one array; ``reduceat`` takes each one's shift and sum over its own nodes.
    """
    xs = np.asarray(x, dtype=float)
    x = xs.ravel()
    if not (0.0 <= nu < math.inf and np.all((x > 0) & (x < math.inf))):
        raise DomainError("bessel_k needs 0 <= nu < inf and 0 < x < inf")
    c = np.hypot(x, nu)
    t_star = np.log(nu + c) - np.log(x)
    # 40/(c - nu) leaves the float range only at small x; there acosh(1 + 40/(c - nu)) > t*
    with np.errstate(divide="ignore", over="ignore"):
        back = np.minimum(t_star, 2.0 * np.arcsinh(np.sqrt(20.0 * (c + nu) / (x * x))))
    back = np.minimum(back, (20.0 + math.sqrt(400.0 + 80.0 * nu)) / nu if nu else math.inf)
    h = np.minimum(0.125, 0.5 / np.sqrt(c))
    # acosh(1 + 40/c); sqrt(20) / sqrt(c) stays finite where 20/c overflows, below c = 1e-307
    counts = np.ceil((back + 2.0 * np.arcsinh(math.sqrt(20.0) / np.sqrt(c))) / h).astype(np.intp) + 1
    seg = np.repeat(np.arange(x.size), counts)
    starts = np.cumsum(counts) - counts
    step = h[seg]
    t = (t_star - back)[seg] + step * (np.arange(seg.size) - starts[seg])
    weight = 0.5 * step
    weight[starts[back == t_star]] *= 0.5  # t = 0, where the window is clipped
    # past t = 700 (only where nu/x > 1e303), x cosh t is x cosh 700 e^{t - 700}, in range
    g = nu * t - x[seg] * np.cosh(np.minimum(t, 700.0)) * np.exp(np.maximum(t - 700.0, 0.0))
    shift = np.rint(np.maximum.reduceat(g, starts))
    total = np.add.reduceat(weight * np.exp(g - shift[seg]) * (1.0 + np.exp(-2.0 * nu * t)), starts)
    with np.errstate(over="ignore"):
        out = shift + np.log(total) if log else np.exp(shift) * total
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def log_bessel_k(nu: float, x):
    """log K_nu(x) for nu >= 0 up to 1e300 and 0 < x < inf, finite where K_nu leaves
    the float range (past nu = 149 at x = 1, past x = 705); x may be an array."""
    return _bessel_k(nu, x, log=True)


def bessel_k(nu: float, x):
    """Modified Bessel function K_nu(x) for nu >= 0, 0 < x < inf; x may be an array.

    e^shift times the scaled sum of log_bessel_k's rule, the shift an integer, so
    the value keeps the sum's accuracy: within 2e-14 of scipy for nu <= 20 and
    1e-13 up to nu = 80 on [1e-3, 130].  Past the float range it is inf, without
    a warning.  A scalar x gives a float, an array x an array of its shape.
    """
    return _bessel_k(nu, x, log=False)


def log_trapezoid(case: str, phi, c: float, rate_left: float, rate_right: float):
    """Logs of the trapezoid sums, at steps 2h and h, of the integral of e^phi over the line.

    phi(u) is log-concave, with its peak at u = 0 (the nodes are exact multiples of h),
    curvature c there, and tails e^{-rate |u|} or steeper (rate_right = inf for a
    double-exponential one).  On [-40/rate_left - 10/sqrt c, 40/rate_right + 10/sqrt c]
    with h = min(1/8, 1/(8 sqrt c)) the rule converges geometrically (Trefethen &
    Weideman, SIAM Rev. 56, 2014).  The coarse sum reads every other node, so phi runs
    once.  Past LOG_RULE_CAP nodes it refuses, naming the case, before any allocation.
    """
    width, h = 10.0 / math.sqrt(c), min(0.125, 0.125 / math.sqrt(c))
    left, right = (40.0 / rate_left + width) / h, (40.0 / rate_right + width) / h
    if not left + right < LOG_RULE_CAP:
        raise ConvergenceError(f"{case} needs {left + right:.3g} trapezoid nodes, "
                               f"past the cap of {LOG_RULE_CAP}")
    left = math.ceil(left)
    values = phi(h * np.arange(-left, math.ceil(right) + 1))
    top = values.max()
    terms = np.exp(values - top)
    return (top + math.log(2.0 * h * terms[left % 2::2].sum()),
            top + math.log(h * terms.sum()))


def jacobi_rows(n: int, a, b, x) -> list:
    """P_0^(a,b)(x) .. P_n^(a,b)(x) from one pass of the forward three-term recurrence.

    The recurrence is treated as a formal polynomial identity in (a, b),
    so the parameters may be complex or lie at or below -1.  x may be a
    scalar or a numpy array; the n + 1 rows come back as a list.
    """
    if n < 0:
        raise DomainError("the Jacobi degree needs n >= 0")
    one = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    rows = [one]
    if n >= 1:
        rows.append((a + 1) * one + (a + b + 2) * (x - 1) / 2)
    for m in range(2, n + 1):
        c0 = 2 * m + a + b
        c1 = 2 * m * (m + a + b) * (c0 - 2)
        c2 = (c0 - 1) * (c0 * (c0 - 2) * x + a * a - b * b)
        c3 = 2 * (m + a - 1) * (m + b - 1) * c0
        rows.append((c2 * rows[-1] - c3 * rows[-2]) / c1)
    return rows


def jacobi_p(n: int, a, b, x):
    """Jacobi polynomial P_n^(a,b)(x): the last row of ``jacobi_rows``."""
    return jacobi_rows(n, a, b, x)[-1]


def _near_nonpositive_int(value) -> bool:
    v = complex(value)
    return (abs(v.imag) < 1e-13 and v.real < 0.5
            and abs(v.real - round(v.real)) < 1e-12)


def _ascending(name: str, a, b, z):
    """sum_k (a)_k z^k / ((b)_k k!), or sum_k z^k / ((b)_k k!) when a is None.

    z is a scalar or an array.  All elements advance together, _BLOCK terms
    at a time, and each one returns the partial sum at the first term that
    meets the stop rule (two consecutive terms below REL_TAIL of the partial
    sum) and leaves the pass.  An element's arithmetic never involves another
    element, so it comes out exactly as it would alone.  The termination,
    pole and MAX_TERMS checks depend on the parameters only and apply to
    every element still summing.
    """
    zs = np.asarray(z, dtype=complex)
    out = zs.ravel().copy()
    live = np.arange(out.size)  # positions of the elements still summing
    zl = out.copy()
    # last term, partial sum and stop flag of each live element, one column each
    term = np.ones((out.size, 1), dtype=complex)
    total = term.copy()
    small = np.zeros((out.size, 1), dtype=bool)
    for k in range(0, MAX_TERMS, _BLOCK):
        if not live.size:
            break
        js = np.arange(k, min(k + _BLOCK, MAX_TERMS))
        upper = np.ones(js.size) if a is None else a + js
        ends = np.abs(upper) < 1e-13  # the series terminates before term j + 1
        stops = ends | (np.abs(b + js) < 1e-13)
        cut = int(np.argmax(stops)) if stops.any() else js.size
        if cut:
            steps = zl[:, None] * (upper[:cut] / ((b + js[:cut]) * (js[:cut] + 1)))
            terms = np.cumprod(np.concatenate([term, steps], axis=1), axis=1)
            totals = np.cumsum(np.concatenate([total, terms[:, 1:]], axis=1), axis=1)
            flags = np.abs(terms) <= REL_TAIL * np.maximum(np.abs(totals), 1e-300)
            flags[:, :1] = small  # column 0 is the previous block's last term
            twice = flags[:, 1:] & flags[:, :-1]
            done = twice.any(axis=1)
            if done.any():
                at = np.argmax(twice[done], axis=1) + 1
                out[live[done]] = totals[done, at]
                keep = ~done
                live, zl = live[keep], zl[keep]
                terms, totals, flags = terms[keep], totals[keep], flags[keep]
            term, total, small = terms[:, -1:], totals[:, -1:], flags[:, -1:]
        if cut < js.size and live.size:
            if not ends[cut]:
                raise DomainError(f"{name} pole at b={b}")
            out[live] = total[:, 0]  # every partial sum is final
            live = live[:0]
    if live.size:
        raise ConvergenceError(f"{name} series did not converge")
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def hyp0f1(b, z):
    """Confluent limit function 0F1(; b; z) by the ascending series.

    z may be a scalar (giving a complex) or an array (giving a complex
    array of its shape); every element follows the scalar stop rule.
    """
    if _near_nonpositive_int(b):
        raise DomainError(f"hyp0f1 pole at b={b}")
    return _ascending("hyp0f1", None, b, z)


def hyp1f1(a, b, z):
    """Kummer confluent function 1F1(a; b; z) by the ascending series.

    Parameters and argument may be complex, and z may be an array (the
    result then has its shape; a scalar z gives a complex).  A
    nonpositive-integer b is a pole unless the a series terminates first.
    Accuracy degrades through cancellation for strongly negative Re z; the
    package only evaluates moderate arguments.
    """
    return _ascending("hyp1f1", a, b, z)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on (-1, 1); immutable once built."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order, 2 <= order <= 512.

    Nodes start from the Chebyshev-like estimate and are polished by Newton
    iteration on the Legendre recurrence; weights follow from the
    derivative values.  The rule is symmetrized so paired nodes cancel
    exactly.
    """
    if not 2 <= order <= 512:
        raise DomainError("gauss_legendre supports orders 2..512")
    k = np.arange(order)
    x = np.cos(math.pi * (k + 0.75) / (order + 0.5))
    # at most 100 Newton steps; the pass after the last one gives the weights
    done = False
    for _ in range(101):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for m in range(2, order + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        dp = order * (x * p1 - p0) / (x * x - 1.0)
        if done:
            break
        dx = p1 / dp
        x -= dx
        done = np.max(np.abs(dx)) < 1e-15
    else:
        raise ConvergenceError("gauss_legendre Newton iteration stalled")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    nodes = x[::-1].copy()
    weights = w[::-1].copy()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def panel_rule(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an order-point Gauss-Legendre rule on every panel
    between consecutive (increasing) edges, as two flat arrays."""
    rule = gauss_legendre(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * rule.nodes).ravel(), (half * rule.weights).ravel()


def settled(case: str, coarse, fine, gate: float):
    """fine, once it agrees with coarse within gate everywhere.

    coarse and fine are two quadrature resolutions of the same scalar or
    array; a larger (or NaN) gap raises ConvergenceError naming the case
    and the two values where they differ most.
    """
    low, high = np.asarray(coarse), np.asarray(fine)
    gaps = np.abs(high - low)
    at = np.unravel_index(np.argmax(gaps), gaps.shape)
    if not gaps[at] <= gate:
        raise ConvergenceError(
            f"{case} quadrature unsettled: coarse {low[at].item()!r}, fine "
            f"{high[at].item()!r} (gap {gaps[at]:.3e} > {gate:.1e})")
    return fine
