"""Generalized intelligent states: eigenvectors of (1+lam) a- + (1-lam) a+.

Solutions of [(1+lam) a- + (1-lam) a+] |psi> = 2z |psi> saturate the
Robertson-Schrodinger inequality var_x * var_p >= delta^2 with
delta = (1/2) sqrt(<G>^2 + <F>^2).  The squeezing parameter lam must
satisfy Re lam > 0 (and lam != -1); |lam| = 1 states keep equal
quadrature variances ("coherent"), all others trade them off by the
ratio var_x / var_p = |lam|^2 ("squeezed").

Three equivalent descriptions are implemented and cross-checked:

* ladder coefficients from the closed form built on the nested energy
  sums Delta(n, h), evaluated through the three-term recurrence that
  form obeys (the sums themselves, via delta_nh, back the small-n
  cross-check in the gis verify suite),
* an entire analytic function exp(s z) 1F1(...) in the plane picture
  whose Taylor coefficients reproduce the same state,
* a product of two binomial branch factors on the unit disk whose
  Taylor coefficients (a two-term recurrence, equal to a Jacobi-polynomial
  form) do the same in the disk picture.

Both analytic functions take arrays of points, so a Taylor check samples
its whole ring in one series pass.

A Laplace transform sends plane-picture monomials onto disk-picture
monomials; laplace_bridge quantifies that correspondence by quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, LambdaRejected, TruncationError
from .fockspace import (FockVector, LadderRep, UncertaintyReport, _moments, build_ladder,
                        uncertainty, within_ceiling)
from .perelomov import _log_gamma_ratio
from .specfun import hyp0f1, hyp1f1, log_trapezoid, settled
from .spectrum import POSCHL_TELLER, SpectrumModel
from .tolerances import CHECK_GATE, SIZE_CEILING, UNIT_TOL

COHERENT = "coherent"
SQUEEZED = "squeezed"

# perfbench/tracing.py is the only reader: it wraps intelligent.mpmath when a traced run starts
mpmath = None

# coefficient size at which the recurrence prefix is divided down
_RESCALE = 1e150
# bands an automatic GIS state starts from
_GIS_FIRST = 90


def validate_lambda(lam: complex) -> str:
    """Classify a squeezing parameter, raising LambdaRejected when unusable.

    lam = -1 would make the raising operator the sole term and it has no
    normalizable eigenvector; Re lam <= 0 breaks analyticity of both
    function-space pictures.
    """
    lam = complex(lam)
    if lam == -1:
        raise LambdaRejected(lam, LambdaRejected.LAMBDA_MINUS_ONE)
    if lam.real <= 0:
        raise LambdaRejected(lam, LambdaRejected.NONPOSITIVE_REAL_PART)
    return COHERENT if abs(abs(lam) - 1.0) <= UNIT_TOL else SQUEEZED


@dataclass(frozen=True)
class GISParameters:
    """Defining data of one generalized intelligent state."""

    z: complex
    lam: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.z) and cmath.isfinite(self.lam)):
            raise DomainError(f"GIS labels must be finite (got z={self.z}, lambda={self.lam})")
        validate_lambda(self.lam)


def _branch_root(lam: complex) -> tuple[complex, complex]:
    """Principal s = sqrt((lam-1)/(lam+1)) and the paired sqrt(lam^2-1).

    The second value is defined as s*(lam+1) so that dividing by it is
    always consistent with the branch chosen for s.
    """
    lam = complex(lam)
    s = cmath.sqrt((lam - 1.0) / (lam + 1.0))
    return s, s * (lam + 1.0)


def _delta_triangle(energies) -> np.ndarray:
    """Nested energy sums Delta(m, k) for m = 0 .. len(energies), k = 0 .. len(energies) // 2.

    Row m + 1 follows from Delta(m+1, k) = Delta(m, k) + E_m Delta(m-1, k-1)
    with E_m = energies[m], starting from the empty sets of rows 0 and 1;
    entries with 2k > m are 0.
    """
    top = len(energies)
    table = np.zeros((top + 1, top // 2 + 1))
    table[:, 0] = 1.0
    for m in range(1, top):
        table[m + 1, 1:] = table[m, 1:] + energies[m] * table[m - 1, :-1]
    return table


def delta_nh(model: SpectrumModel, n: int, h: int) -> float:
    """Nested energy sum Delta(n, h): products of h energies E_{j} with
    indices strictly inside [1, n-1] and pairwise gaps >= 2.

    Delta(n, 0) = 1 by the empty-product convention.  Read from the
    _delta_triangle of E_0 .. E_{n-1}, the fill the closed-form
    cross-check of the gis verify suite uses for all of its n at once.
    """
    if n < 0:
        raise DomainError("delta_nh needs n >= 0")
    if h < 0 or 2 * h > n:
        raise DomainError(f"h={h} outside [0, floor(n/2)] for n={n}")
    if h == 0:
        return 1.0
    return float(_delta_triangle(model.energies(n - 1))[n, h])


def gis_coefficients(model: SpectrumModel, params: GISParameters,
                     n_max: int | None = None) -> FockVector:
    """State coefficients of the eigenvalue equation, normalized.

    The closed form

    d_n = e^{-i alpha E_n} / ((1+lam)^n sqrt(E(n)))
          * sum_h (-1)^h (1-lam^2)^h (2z)^{n-2h} Delta(n, h)

    obeys, through Delta(n, h) = Delta(n-1, h) + E_{n-1} Delta(n-2, h-1),
    the three-term recurrence of the eigenvalue equation

    (1+lam) sqrt(E_n) d_n = 2z d_{n-1} - (1-lam) sqrt(E_{n-1}) d_{n-2},

    which is run here in O(n_max) floats before the e^{-i alpha E_n}
    phases of the model's alpha are attached.  The prefix is divided down
    whenever a coefficient passes _RESCALE, so large displacements cannot
    overflow; a recurrence that overflows all the same is a ConvergenceError.

    With n_max the state must pass FockVector.certified.  Without it the
    recurrence runs to _GIS_FIRST bands, or a table's last level but one, so
    that a ladder one level longer fits, and extends the same prefix to the
    2 n_max + 16 the refusal suggests until the state passes that certificate
    and the variance certificate of fockspace.uncertainty.  It refuses once at
    that last level, or at SIZE_CEILING naming the ceiling.
    """
    validate_lambda(params.lam)
    if n_max is not None and n_max < 0:
        raise DomainError("n_max must be >= 0")
    within_ceiling(n_max)
    lam = complex(params.lam)
    two_z = 2.0 * complex(params.z)
    last = min(model.last_level - 1, SIZE_CEILING)
    top = min(_GIS_FIRST, last) if n_max is None else n_max
    # d[:zeros] are 0 and stay 0, so a rescale skips them: one per band is still O(n)
    d, zeros = [1.0 + 0.0j], 0
    while True:
        energies = model.energies(top)
        roots = np.sqrt(energies)
        up = ((1.0 + lam) * roots).tolist()
        back = ((1.0 - lam) * roots).tolist()
        try:
            for n in range(len(d), top + 1):
                acc = two_z * d[n - 1]
                if n >= 2:
                    acc -= back[n - 1] * d[n - 2]
                d.append(acc / up[n])
                if abs(d[n]) > _RESCALE:
                    scale = abs(d[n])
                    d[zeros: n + 1] = [c / scale for c in d[zeros: n + 1]]
                    while not d[zeros]:
                        zeros += 1
        except OverflowError:  # |d_n| past the float range, its parts within it
            d[-1] = math.inf
        if not cmath.isfinite(d[-1]):
            raise ConvergenceError(f"GIS recurrence leaves the float range by band {len(d) - 1}")
        coeffs = np.array(d) * np.exp(-1j * model.alpha * energies)
        state = FockVector(model, coeffs).normalized()
        try:
            state.certified("coefficient")
            if n_max is None:
                _moments(build_ladder(model, top), state)
            return state
        except TruncationError:
            if n_max is not None or top == last < SIZE_CEILING:
                raise  # at an explicit n_max, or once at a table's last level but one
            if top == SIZE_CEILING:
                raise TruncationError(f"GIS state: no n_max up to the size ceiling of "
                                      f"{SIZE_CEILING} certifies it") from None
        top = min(2 * top + 16, last)


def gis_state(model: SpectrumModel, params: GISParameters) -> FockVector:
    """gis_coefficients without n_max: the fewest bands of its growth rule whose mass and
    variances both certify."""
    return gis_coefficients(model, params)


def verify_rs(
    rep: LadderRep, state: FockVector, params: GISParameters
) -> tuple[UncertaintyReport, dict]:
    """Check every variance law the eigenvalue equation implies.

    Returns the uncertainty report and a dict of relative residuals:
    equality of var_x*var_p with delta^2, the |lam|-split of the two
    variances, the cross law Im(lam)<G> = Re(lam)<F>, and for |lam| = 1
    the equal-variance / tan(theta) laws.  Residuals above 1e-8 raise,
    since they contradict the defining equation.
    """
    kind = validate_lambda(params.lam)
    report = uncertainty(rep, state)
    lam = complex(params.lam)
    mod = abs(lam)
    delta = report.delta
    var_x, var_p = report.var_x, report.var_p
    mean_g, mean_f = report.mean_g, report.mean_f
    checks = {
        "equality_gap": abs(report.equality_gap) / report.rs_product,
        "var_x_split": abs(var_x - mod * delta) / var_x,
        "var_p_split": abs(var_p - delta / mod) / var_p,
        "cross_law": abs(lam.imag * mean_g - lam.real * mean_f) / (mod * mean_g),
    }
    if kind == COHERENT:
        theta = cmath.phase(lam)
        checks["equal_variance"] = abs(var_x - var_p) / var_x
        checks["variance_theta"] = abs(var_x - mean_g / (2.0 * abs(math.cos(theta)))) / var_x
        checks["anticommutator_theta"] = abs(mean_f - math.tan(theta) * mean_g) / mean_g
    worst = max(checks, key=checks.get)
    if checks[worst] > CHECK_GATE:
        raise ConvergenceError(
            f"variance law {worst} violated: residual {checks[worst]:.3e}")
    return report, checks


def gis_bargmann_function(nu: float, z_prime: complex, lam: complex, z, sign: int = 1):
    """Plane-picture analytic function of the state with eigenvalue z_prime.

    Phi(z) = exp(sign * s * z)
             * 1F1((nu+1)/2 - sign * z_prime / (s (lam+1)), nu+1; -sign * 2 s z)

    with s = sqrt((lam-1)/(lam+1)) on the principal branch.  Both sign
    choices describe the same function (Kummer's transformation maps one
    onto the other).  lam = 1 degenerates to 0F1(nu+1; z z_prime), the
    lowering-operator eigenfunction.  z may be an array, evaluated in one
    series pass; a scalar z gives a complex.
    """
    validate_lambda(lam)
    if sign not in (1, -1):
        raise DomainError("sign selects a branch and must be +1 or -1")
    lam = complex(lam)
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()  # numpy scalar arithmetic rounds differently from its array loops
    if lam == 1:
        out = hyp0f1(nu + 1.0, flat * complex(z_prime))
    else:
        s, root = _branch_root(lam)
        a = 0.5 * (nu + 1.0) - sign * complex(z_prime) / root
        out = np.exp(sign * s * flat) * hyp1f1(a, nu + 1.0, -sign * 2.0 * s * flat)
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def _disk_exponents(nu: float, zeta_prime: complex, lam: complex) -> tuple[complex, complex]:
    # exponents of the two branch factors (1 + s zeta), (1 - s zeta)
    _, root = _branch_root(lam)
    shift = complex(zeta_prime) / root
    base = -0.5 * (nu + 1.0)
    return base + shift, base - shift


def gis_disk_function(nu: float, zeta_prime: complex, lam: complex, zeta):
    """Disk-picture analytic function, unnormalized.

    Phi(zeta) = (1 + s zeta)^{a+} (1 - s zeta)^{a-} with the branch
    exponents a+- = -(nu+1)/2 +- zeta_prime / (s (lam+1)).  Principal
    logs are safe because |s zeta| < 1 keeps both factors in the right
    half plane.  lam = 1 degenerates to exp(zeta zeta_prime).  zeta may be
    a DiskPoint, a number (giving a complex) or an array of points, every
    one of which must satisfy |s zeta| < 1.
    """
    validate_lambda(lam)
    zs = np.asarray(getattr(zeta, "zeta", zeta), dtype=complex)
    flat = zs.ravel()  # as in gis_bargmann_function: array loops for a scalar too
    lam = complex(lam)
    if lam == 1:
        out = np.exp(flat * complex(zeta_prime))
    else:
        s, _ = _branch_root(lam)
        reach = float(np.max(np.abs(s * flat), initial=0.0))
        if reach >= 1.0:
            raise DomainError(f"|s zeta| = {reach:.3f} >= 1 leaves the analyticity disk")
        ap, am = _disk_exponents(nu, zeta_prime, lam)
        out = np.exp(ap * np.log(1.0 + s * flat) + am * np.log(1.0 - s * flat))
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def _nu_model(nu: float) -> SpectrumModel:
    # the symmetric well with gaps E_n = n (n + nu); nu = 2 is the square well
    if not nu >= 2.0:
        raise DomainError("no built-in spectrum with nu < 2; pass model= explicitly")
    return SpectrumModel(POSCHL_TELLER, kappa=0.5 * nu, kappa_prime=0.5 * nu)


def gis_disk_expansion(
    nu: float,
    zeta_prime: complex,
    lam: complex,
    n_max: int,
    *,
    model: SpectrumModel | None = None,
) -> FockVector:
    """Ladder-basis coefficients read off the disk-picture function.

    The Taylor coefficients t_n of (1 + s zeta)^{a+} (1 - s zeta)^{a-}
    (which equal (2s)^n P_n^{(a+ - n, a- - n)}(0), the Jacobi form the
    tests use as the oracle) follow from the first-order equation
    (1 - s^2 zeta^2) Phi' = [(a+ - a-) s - (a+ + a-) s^2 zeta] Phi.  With
    (a+ - a-) s = 2 zeta_prime / (lam + 1) and a+ + a- = -(nu + 1) that is

    (n+1) t_{n+1} = (2 zeta_prime / (lam + 1)) t_n + (n + nu) s^2 t_{n-1},

    t_0 = 1, which divides by nothing that vanishes: at lam = 1, s = 0 and
    t_n = zeta_prime^n / n!, the disk function exp(zeta zeta_prime).  Dividing by the disk
    monomial weights sqrt(Gamma(nu+1+n) / (n! Gamma(nu+1))) and attaching
    the e^{-i alpha E_n} phases of the model's alpha (0 on the default
    model) yields the state, normalized here.
    """
    validate_lambda(lam)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if model is None:
        model = _nu_model(nu)
    elif abs(model.nu - nu) > 1e-12:
        raise DomainError("model strength disagrees with nu")
    lam = complex(lam)
    zp = complex(zeta_prime)
    first, second = 2.0 * zp / (lam + 1.0), (lam - 1.0) / (lam + 1.0)  # second = s^2
    taylor, previous = [1.0 + 0.0j], 0.0
    for n in range(n_max):
        taylor.append((first * taylor[n] + (n + nu) * second * previous) / (n + 1))
        previous = taylor[n]
    weights = np.exp(-0.5 * _log_gamma_ratio(nu, n_max))
    phases = np.exp(-1j * model.alpha * model.energies(n_max))
    return FockVector(model, np.array(taylor) * weights * phases).normalized().certified(
        "disk expansion")


def laplace_bridge(nu: float, n: int, zeta):
    """Relative residual of the plane-to-disk monomial correspondence, at each zeta.

    The Laplace transform zeta^{-(nu+1)}/sqrt(Gamma(nu+1)) *
    integral z^nu [z^n / sqrt(n! Gamma(nu+n+1))] e^{-z/zeta} dz must equal
    the disk monomial zeta^n sqrt(Gamma(nu+n+1) / (n! Gamma(nu+1))).
    In s = log z = s* + u, e^{s*} = zeta m, m = nu + n + 1, the integrand is
    (zeta m / e)^m e^{m (u - expm1 u)}: curvature m at the peak, a tail e^{m u} (the
    z^nu power, a kink in z) and a double-exponential one.  Two trapezoid sums must agree
    to 1e-9 of the target.  The residual is |log(transform / target)|, the relative one
    to first order, and never below one ulp of the logs m log(zeta m) it subtracts.
    In s the sums do not depend on zeta: an array of zetas shares them (a scalar gives a float).
    """
    if not nu > -1.0:
        raise DomainError("laplace_bridge needs nu > -1")
    if n < 0:
        raise DomainError("monomial degree must be >= 0")
    zetas = np.asarray(zeta, dtype=float)
    if not (zetas.size and np.all((0.0 < zetas) & (zetas < 1.0))):
        raise DomainError("zeta must lie in (0, 1) for the transform to converge")
    m = nu + n + 1.0
    cases = [(f"Laplace bridge nu={nu} n={n} zeta={z}", z) for z in zetas.ravel().tolist()]
    coarse, fine = log_trapezoid(cases[0][0], lambda u: m * (u - np.expm1(u)), m, m, math.inf)
    log_norm = 0.5 * (math.lgamma(nu + 1.0) + math.lgamma(n + 1.0) + math.lgamma(m))
    log_weight = 0.5 * (math.lgamma(m) - math.lgamma(n + 1.0) - math.lgamma(nu + 1.0))
    residuals = []
    for case, z in cases:
        peak = m * math.log(z * m)
        log_front = peak - m - (nu + 1.0) * math.log(z) - log_norm
        log_target = n * math.log(z) + log_weight
        gap = settled(case, coarse + log_front - log_target, fine + log_front - log_target, 1e-9)
        residuals.append(max(abs(gap), math.ulp(peak)))
    return residuals[0] if zetas.ndim == 0 else np.reshape(residuals, zetas.shape)
