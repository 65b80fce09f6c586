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
  Jacobi-polynomial expansion does the same in the disk picture.

A Laplace transform sends plane-picture monomials onto disk-picture
monomials; laplace_bridge quantifies that correspondence by quadrature.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

# unused here, but perfbench/tracing.py wraps intelligent.mpmath, so the name stays bound
import mpmath
import numpy as np

from .errors import ConvergenceError, DomainError, LambdaRejected, TruncationError
from .fockspace import FockVector, LadderRep, UncertaintyReport, uncertainty
from .specfun import gauss_legendre, hyp0f1, hyp1f1, jacobi_p, log_gamma
from .spectrum import SpectrumModel

COHERENT = "coherent"
SQUEEZED = "squeezed"

# |lam| = 1 decided up to roundoff in e^{i theta}
_UNIT_TOL = 1e-12
_TAIL_CERT = 1e-10
_CHECK_GATE = 1e-8
# coefficient size at which the recurrence prefix is divided down
_RESCALE = 1e150

# Reference grids for cross-validating the closed form against the
# recurrence oracle.  Every lam here passes validate_lambda.
LAMBDA_GRID = (
    1.0,
    2.0,
    0.5 + 0.5j,
    cmath.exp(1j * math.pi / 6),
    cmath.exp(-1j * math.pi / 3),
)
Z_GRID = (0.0, 1.0, 2.0j, 1.5 * cmath.exp(1j * math.pi / 4))


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
    return COHERENT if abs(abs(lam) - 1.0) <= _UNIT_TOL else SQUEEZED


@dataclass(frozen=True)
class GISParameters:
    """Defining data of one generalized intelligent state.

    alpha_plus / alpha_minus are the disk branch exponents; they stay None
    until with_disk_exponents fills them for a given nu and disk eigenvalue.
    """

    z: complex
    lam: complex
    alpha: float = 0.0
    alpha_plus: complex | None = None
    alpha_minus: complex | None = None

    def __post_init__(self):
        validate_lambda(self.lam)

    @property
    def classification(self) -> str:
        return validate_lambda(self.lam)

    def with_disk_exponents(self, nu: float, zeta_prime: complex) -> "GISParameters":
        ap, am = _disk_exponents(nu, zeta_prime, self.lam)
        return dataclasses.replace(self, alpha_plus=ap, alpha_minus=am)


def _branch_root(lam: complex) -> tuple[complex, complex]:
    """Principal s = sqrt((lam-1)/(lam+1)) and the paired sqrt(lam^2-1).

    The second value is defined as s*(lam+1) so that dividing by it is
    always consistent with the branch chosen for s.
    """
    lam = complex(lam)
    s = cmath.sqrt((lam - 1.0) / (lam + 1.0))
    return s, s * (lam + 1.0)


def delta_nh(model: SpectrumModel, n: int, h: int) -> float:
    """Nested energy sum Delta(n, h): products of h energies E_{j} with
    indices strictly inside [1, n-1] and pairwise gaps >= 2.

    Delta(n, 0) = 1 by the empty-product convention.  Filled row by row
    from Delta(m+1, k) = Delta(m, k) + E_m Delta(m-1, k-1) on every call;
    meant for the small n of the closed-form cross-check.
    """
    if n < 0:
        raise DomainError("delta_nh needs n >= 0")
    if h < 0 or 2 * h > n:
        raise DomainError(f"h={h} outside [0, floor(n/2)] for n={n}")
    if h == 0:
        return 1.0
    # rows Delta(m-1, .) and Delta(m, .), starting from the empty sets at m = 1
    prev = cur = [1.0] + [0.0] * h
    for m in range(1, n):
        e_m = model.energy(m)
        prev, cur = cur, [1.0] + [cur[k] + e_m * prev[k - 1] for k in range(1, h + 1)]
    return cur[h]


def gis_coefficients(model: SpectrumModel, params: GISParameters, n_max: int) -> FockVector:
    """State coefficients of the eigenvalue equation, normalized.

    The closed form

    d_n = e^{-i alpha E_n} / ((1+lam)^n sqrt(E(n)))
          * sum_h (-1)^h (1-lam^2)^h (2z)^{n-2h} Delta(n, h)

    obeys, through Delta(n, h) = Delta(n-1, h) + E_{n-1} Delta(n-2, h-1),
    the three-term recurrence of the eigenvalue equation

    (1+lam) sqrt(E_n) d_n = 2z d_{n-1} - (1-lam) sqrt(E_{n-1}) d_{n-2},

    which is run here in O(n_max) floats before the e^{-i alpha E_n}
    phases are attached.  The prefix is divided down whenever a
    coefficient passes _RESCALE, so large displacements cannot overflow.
    """
    validate_lambda(params.lam)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if params.alpha != model.alpha:
        model = dataclasses.replace(model, alpha=params.alpha)
    lam = complex(params.lam)
    two_z = 2.0 * complex(params.z)
    energies = model.energies(n_max)
    roots = np.sqrt(energies)
    up = ((1.0 + lam) * roots).tolist()
    back = ((1.0 - lam) * roots).tolist()
    d = [1.0 + 0.0j] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = two_z * d[n - 1]
        if n >= 2:
            acc -= back[n - 1] * d[n - 2]
        d[n] = acc / up[n]
        if abs(d[n]) > _RESCALE:
            scale = abs(d[n])
            d[: n + 1] = [c / scale for c in d[: n + 1]]
    coeffs = np.array(d) * np.exp(-1j * model.alpha * energies)
    out = FockVector(model, coeffs).normalized()
    tail = out.tail_bound()
    if not (tail < _TAIL_CERT):
        raise TruncationError(
            f"coefficient tail bound {tail:.3e} not certified below {_TAIL_CERT:.0e}",
            suggested_n_max=2 * n_max + 16,
        )
    return out


def gis_state(
    model: SpectrumModel, params: GISParameters, n_max: int = 90, attempts: int = 4
) -> FockVector:
    """gis_coefficients with the truncation suggestion followed adaptively.

    Slowly decaying squeezed states (envelope ratio near 1 combined with a
    large displacement) can need a couple of growth rounds before the tail
    certifies; the last attempt propagates its failure untouched.
    """
    for _ in range(max(attempts - 1, 0)):
        try:
            return gis_coefficients(model, params, n_max)
        except TruncationError as err:
            n_max = max(err.suggested_n_max or 0, n_max + 16)
    return gis_coefficients(model, params, n_max)


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
    if checks[worst] > _CHECK_GATE:
        raise ConvergenceError(
            f"variance law {worst} violated: residual {checks[worst]:.3e}")
    return report, checks


def gis_bargmann_function(nu: float, z_prime: complex, lam: complex, z: complex, sign: int = 1) -> complex:
    """Plane-picture analytic function of the state with eigenvalue z_prime.

    Phi(z) = exp(sign * s * z)
             * 1F1((nu+1)/2 - sign * z_prime / (s (lam+1)), nu+1; -sign * 2 s z)

    with s = sqrt((lam-1)/(lam+1)) on the principal branch.  Both sign
    choices describe the same function (Kummer's transformation maps one
    onto the other).  lam = 1 degenerates to 0F1(nu+1; z z_prime), the
    lowering-operator eigenfunction.
    """
    validate_lambda(lam)
    if sign not in (1, -1):
        raise DomainError("sign selects a branch and must be +1 or -1")
    lam = complex(lam)
    if lam == 1:
        return hyp0f1(nu + 1.0, complex(z) * complex(z_prime))
    s, root = _branch_root(lam)
    a = 0.5 * (nu + 1.0) - sign * complex(z_prime) / root
    return cmath.exp(sign * s * z) * hyp1f1(a, nu + 1.0, -sign * 2.0 * s * z)


def _disk_exponents(nu: float, zeta_prime: complex, lam: complex) -> tuple[complex, complex]:
    # exponents of the two branch factors (1 + s zeta), (1 - s zeta)
    _, root = _branch_root(lam)
    shift = complex(zeta_prime) / root
    base = -0.5 * (nu + 1.0)
    return base + shift, base - shift


def gis_disk_function(nu: float, zeta_prime: complex, lam: complex, zeta) -> complex:
    """Disk-picture analytic function, unnormalized.

    Phi(zeta) = (1 + s zeta)^{a+} (1 - s zeta)^{a-} with the branch
    exponents a+- = -(nu+1)/2 +- zeta_prime / (s (lam+1)).  Principal
    logs are safe because |s zeta| < 1 keeps both factors in the right
    half plane.  lam = 1 degenerates to exp(zeta zeta_prime).
    """
    validate_lambda(lam)
    zeta = complex(getattr(zeta, "zeta", zeta))
    lam = complex(lam)
    if lam == 1:
        return cmath.exp(zeta * complex(zeta_prime))
    s, _ = _branch_root(lam)
    if abs(s * zeta) >= 1.0:
        raise DomainError(
            f"|s zeta| = {abs(s * zeta):.3f} >= 1 leaves the analyticity disk")
    ap, am = _disk_exponents(nu, zeta_prime, lam)
    return cmath.exp(ap * cmath.log(1.0 + s * zeta) + am * cmath.log(1.0 - s * zeta))


def _nu_model(nu: float) -> SpectrumModel:
    # smallest taxonomy member with gaps E_n = n (n + nu)
    if nu == 2.0:
        return SpectrumModel.square_well()
    if nu > 2.0:
        return SpectrumModel.poschl_teller(0.5 * nu, 0.5 * nu)
    raise DomainError("no built-in spectrum with nu < 2; pass model= explicitly")


def gis_disk_expansion(
    nu: float,
    zeta_prime: complex,
    lam: complex,
    n_max: int,
    alpha: float = 0.0,
    model: SpectrumModel | None = None,
) -> FockVector:
    """Ladder-basis coefficients read off the disk-picture function.

    Expanding the product of branch factors gives Taylor coefficients
    (2s)^n P_n^{(a+ - n, a- - n)}(0); dividing by the disk monomial
    weights sqrt(Gamma(nu+1+n) / (n! Gamma(nu+1))) and attaching the
    e^{-i alpha E_n} phases yields the state, normalized here.
    """
    validate_lambda(lam)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if model is None:
        model = _nu_model(nu)
    elif abs(model.nu - nu) > 1e-12:
        raise DomainError("model strength disagrees with nu")
    if alpha != model.alpha:
        model = dataclasses.replace(model, alpha=alpha)
    lam = complex(lam)
    zp = complex(zeta_prime)
    coeffs = np.zeros(n_max + 1, dtype=complex)
    if lam == 1:
        taylor = [zp**n / math.exp(log_gamma(n + 1.0)) for n in range(n_max + 1)]
    else:
        s, _ = _branch_root(lam)
        ap, am = _disk_exponents(nu, zp, lam)
        taylor = [
            (2.0 * s) ** n * jacobi_p(n, ap - n, am - n, 0.0) for n in range(n_max + 1)
        ]
    for n in range(n_max + 1):
        log_w = 0.5 * (
            log_gamma(n + 1.0) + log_gamma(nu + 1.0) - log_gamma(nu + 1.0 + n)
        )
        phase = cmath.exp(-1j * model.alpha * model.energy(n))
        coeffs[n] = taylor[n] * math.exp(log_w) * phase
    out = FockVector(model, coeffs).normalized()
    tail = out.tail_bound()
    if not (tail < _TAIL_CERT):
        raise TruncationError(
            f"disk expansion tail bound {tail:.3e} not certified below {_TAIL_CERT:.0e}",
            suggested_n_max=2 * n_max + 16,
        )
    return out


def _monomial_transform(nu: float, n: int, zeta: float, panels: int, order: int) -> float:
    # zeta^{-(nu+1)}/sqrt(Gamma(nu+1)) * integral_0^inf z^{nu+n} e^{-z/zeta} dz
    # times the plane monomial scale 1/sqrt(n! Gamma(nu+n+1))
    upper = max(60.0, zeta * (nu + n + 80.0))
    log_scale = -0.5 * (log_gamma(n + 1.0) + log_gamma(nu + n + 1.0))
    rule = gauss_legendre(order)
    total = 0.0
    for k in range(panels):
        xs, ws = rule.scaled(upper * k / panels, upper * (k + 1) / panels)
        total += float(np.sum(ws * xs ** (nu + n) * np.exp(-xs / zeta)))
    log_front = -(nu + 1.0) * math.log(zeta) - 0.5 * log_gamma(nu + 1.0) + log_scale
    return total * math.exp(log_front)


def laplace_bridge(nu: float, n: int, zeta: float) -> float:
    """Relative residual of the plane-to-disk monomial correspondence.

    The Laplace transform zeta^{-(nu+1)}/sqrt(Gamma(nu+1)) *
    integral z^nu [z^n / sqrt(n! Gamma(nu+n+1))] e^{-z/zeta} dz must equal
    the disk monomial zeta^n sqrt(Gamma(nu+n+1) / (n! Gamma(nu+1))).
    Evaluated by composite Gauss-Legendre quadrature at two resolutions.
    """
    if n < 0:
        raise DomainError("monomial degree must be >= 0")
    if not 0.0 < zeta < 1.0:
        raise DomainError("zeta must lie in (0, 1) for the transform to converge")
    target = zeta**n * math.exp(
        0.5 * (log_gamma(nu + n + 1.0) - log_gamma(n + 1.0) - log_gamma(nu + 1.0))
    )
    coarse = _monomial_transform(nu, n, zeta, panels=30, order=16)
    fine = _monomial_transform(nu, n, zeta, panels=45, order=24)
    if abs(fine - coarse) > 1e-9 * abs(target):
        raise ConvergenceError(
            f"quadrature resolutions disagree by {abs(fine - coarse):.3e}")
    return abs(fine - target) / target
