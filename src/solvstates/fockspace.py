"""Truncated number-basis workspace: ladder operators, quadratures, uncertainty reports.

Every state lives in the span of the first ``n_max + 1`` eigenvectors of a
:class:`~solvstates.spectrum.SpectrumModel`.  The ladder operators carry the
alpha phase twists

    a- |psi_n> = sqrt(E_n)  e^{+i alpha (E_n - E_{n-1})} |psi_{n-1}>
    a+ |psi_n> = sqrt(E_{n+1}) e^{-i alpha (E_{n+1} - E_n)} |psi_{n+1}>

so that a+ a- = H exactly and [a-, a+] = G = diag(E_{n+1} - E_n) on every
component except the top band, which a truncated a+ cannot reach.

Both ladder operators live on one band, so a :class:`LadderRep` stores only
that band and the H and G diagonals.  Every moment comes from two complex
band sums, <a-> and <a-^2>, and real sums over |c|^2, O(n) in time and
memory; dense matrices exist only on request, through ``a_minus`` /
``a_plus`` and :func:`quadratures`.

Every state the package returns or reads moments from passes
:meth:`FockVector.certified` (tail bound over mass below TAIL_CERT, else
TruncationError suggesting n_max >= 2 n_max + 16), and every mass is summed,
lifted from underflow or refused by :func:`_mass`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConvergenceError, DomainError, LambdaRejected, TruncationError
from .spectrum import SpectrumModel
from .tolerances import LENGTH_EPS, SIZE_CEILING, TAIL_CERT

_INV_RT2 = 1.0 / math.sqrt(2.0)
_ROOT2 = math.sqrt(2.0)
_TINY = float(np.finfo(float).tiny)


def _lifted(coeffs: np.ndarray) -> tuple[np.ndarray, int]:
    """(coeffs 2^k, k) for the k that takes the largest |c| into [1/2, 1).

    For a nonzero vector whose squares underflow: the scale is exact, so every
    normalized coefficient, moment and decay ratio stays what it is.  k is
    capped where 2^k would overflow; a subnormal largest |c| still comes out
    far above the square root of the smallest normal number.
    """
    k = min(-math.frexp(float(np.max(np.abs(coeffs))))[1], 1020)
    return coeffs * math.ldexp(1.0, k), k


def _mass(coeffs: np.ndarray) -> tuple[np.ndarray, float]:
    """(coeffs, sum |c|^2), lifted by _lifted where the sum underflows; refuses the zero
    vector and an overflowing sum, whose quotients would be zeros with a tail bound of 0."""
    mass = float(np.vdot(coeffs, coeffs).real)
    if mass < _TINY and coeffs.any():
        coeffs = _lifted(coeffs)[0]
        mass = float(np.vdot(coeffs, coeffs).real)
    if mass == 0.0:
        raise DomainError("the zero vector is not a state")
    if not math.isfinite(mass):
        raise ConvergenceError("coefficient norm overflows")
    return coeffs, mass


def _as_coeffs(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("coefficient array must be one-dimensional and nonempty")
    if not np.all(np.isfinite(arr)):
        raise DomainError("coefficient array contains non-finite entries")
    return arr


@dataclasses.dataclass(frozen=True)
class FockVector:
    """Finite coefficient vector over the model's energy eigenbasis."""

    model: SpectrumModel
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    @property
    def n_max(self) -> int:
        return self.coeffs.size - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "FockVector":
        coeffs, mass = _mass(self.coeffs)
        return FockVector(self.model, coeffs / math.sqrt(mass))

    def inner(self, other: "FockVector") -> complex:
        # conjugate-linear in self, padded with zeros to the longer length
        a, b = self.coeffs, other.coeffs
        n = min(a.size, b.size)
        return complex(np.vdot(a[:n], b[:n]))

    def energy_mean(self) -> float:
        coeffs, mass = _mass(self.coeffs)
        return float(np.dot(self.model.energies(self.n_max), np.abs(coeffs) ** 2) / mass)

    def tail_bound(self) -> float:
        """Certified upper bound on the truncated probability mass.

        Splits the trailing coefficients into two equal blocks and
        extrapolates the |c|^2 block masses geometrically.  Block masses
        rather than pairwise ratios carry the certificate because the
        magnitudes may oscillate under their decay envelope (near-zeros
        of the underlying polynomials).  Returns ``inf`` when the blocks
        are not decaying, i.e. when no certificate is possible.
        """
        coeffs = self.coeffs
        half = min(6, coeffs.size // 2)
        if half < 2:
            return math.inf if coeffs.any() else 0.0
        # summed in Python floats, in order, as numpy sums fewer than 8 terms
        tail = (np.abs(coeffs[-2 * half:]) ** 2).tolist()
        mass_a, mass_b = sum(tail[:half]), sum(tail[half:])
        lift = 0
        if mass_b == 0.0 and coeffs[-half:].any():
            # the squares underflow: judge the decay on the blocks times 2^lift
            block, lift = _lifted(coeffs[-2 * half:])
            tail = (np.abs(block) ** 2).tolist()
            mass_a, mass_b = sum(tail[:half]), sum(tail[half:])
        return math.ldexp(_extrapolated(mass_a, mass_b), -2 * lift)

    def padded(self, n_max: int) -> "FockVector":
        if n_max < self.n_max:
            raise DomainError("padding cannot shrink the vector")
        out = np.zeros(n_max + 1, dtype=complex)
        out[: self.coeffs.size] = self.coeffs
        return FockVector(self.model, out)

    def certified(self, what: str, cert: float = TAIL_CERT) -> "FockVector":
        """self, once its tail bound relative to its mass is below ``cert``; else
        TruncationError, labelled ``what``, suggesting n_max >= 2 n_max + 16, or
        a table's last level if that comes first, or nothing if none is left."""
        _certified_mass(self, what, cert)
        return self


def _extrapolated(mass_a: float, mass_b: float) -> float:
    """Mass past two equal trailing blocks of masses mass_a, mass_b, extrapolated
    geometrically: 0 when the last block is empty, inf when the blocks do not decay."""
    if mass_b == 0.0:
        # coefficients terminate exactly (or are all zero); nothing was dropped
        return 0.0
    if mass_a == 0.0 or not mass_b < mass_a:
        return math.inf
    q = mass_b / mass_a
    return mass_b * q / (1.0 - q)


def _refuse(what: str, state: "FockVector", bound: str, value: float, cert: float):
    """The TruncationError of a bound at or past cert, suggesting 2 n_max + 16 bands."""
    suggest = min(2 * state.n_max + 16, state.model.last_level)
    raise TruncationError(
        f"{what} {bound} {value:.3e} not certified below {cert:.0e} at n_max={state.n_max}",
        suggested_n_max=suggest if suggest > state.n_max else None)


def _certified_mass(state: FockVector, what: str, cert: float = TAIL_CERT):
    """_mass of the state's coefficients and the tail bound over that mass, once it is
    below cert."""
    coeffs, mass = _mass(state.coeffs)
    judged = state if coeffs is state.coeffs else FockVector(state.model, coeffs)
    tail = judged.tail_bound() / mass
    if not tail < cert:
        _refuse(what, state, "tail bound", tail, cert)
    return coeffs, mass, tail


def within_ceiling(size: int | None, name: str = "n_max") -> None:
    """Refuses by name a size past SIZE_CEILING, before anything is allocated."""
    if size is not None and size > SIZE_CEILING:
        raise DomainError(f"{name} = {size} is past the size ceiling of {SIZE_CEILING}")


def _log_sum(terms: np.ndarray) -> float:
    """log sum_n e^{terms_n}."""
    m = terms.max()
    return float(m + math.log(np.exp(terms - m).sum()))


def label_phases(model: SpectrumModel, z: complex, n_top: int) -> np.ndarray:
    """z^n / |z|^n e^{-i alpha E_n}, n = 0..n_top, alpha the model's: the phases of state z."""
    energies = model.energies(n_top)
    return np.exp(1j * (np.arange(n_top + 1) * np.angle(z) - model.alpha * energies))


def certified_length(what: str, model: SpectrumModel, z: complex, steps, cert: float,
                     n_max: int | None, first: float, last: int | float = math.inf) -> FockVector:
    """The closed-form state c_n = sqrt(t_n / sum_k t_k) label_phases(z)_n, normalized by the
    bands it keeps, once it passes FockVector.certified(what, cert).  steps(top) gives
    log rho_0 .. log rho_{top-1}, the ratios t_{n+1} / t_n of the band masses, which never
    grow past the peak.  The bands are 0..n_max or, without n_max, the fewest n >= 3 where
    the geometric bound t_n rho_n / (1 - rho_n) on the mass past band n is below LENGTH_EPS
    of the mass of bands 0..n and the certificate passes.  The scan doubles from ``first``
    bands; at ``last``, a table's last usable level, the certificate decides, and at
    SIZE_CEILING it refuses.
    """
    def build(n: int, log_t: np.ndarray) -> FockVector:
        coeffs = np.exp(0.5 * (log_t - _log_sum(log_t))) * label_phases(model, z, n)
        return FockVector(model, coeffs).certified(what, cert)

    if n_max is not None:
        within_ceiling(n_max)
        return build(n_max, np.concatenate(([0.0], np.cumsum(steps(n_max)))))
    top = first
    while True:
        top = int(min(top, last, SIZE_CEILING))
        log_rho = steps(top)
        log_t = np.concatenate(([0.0], np.cumsum(log_rho)))
        t = np.exp(log_t - log_t.max())
        # t_{n+1} = t_n rho_n below eps (1 - rho_n) sum_{k <= n} t_k; rho_n >= 1 fails
        ok = t[1:] < t[:-1].cumsum() * np.expm1(np.minimum(log_rho, 0.0)) * -LENGTH_EPS
        for n in np.flatnonzero(ok[3:]).tolist():
            try:
                return build(n + 3, log_t[: n + 4])
            except TruncationError:
                continue
        if top == last:
            return build(top, log_t)
        if top == SIZE_CEILING:
            raise TruncationError(f"{what}: no n_max up to the size ceiling of {SIZE_CEILING} "
                                  f"leaves out less than {LENGTH_EPS:.1e} of the mass")
        top *= 2


@dataclasses.dataclass(frozen=True)
class LadderRep:
    """Truncated ladder pair held as its one band plus the H and G diagonals.

    ``lower_band[m]`` is the entry a-[m, m+1] (the twist by model.alpha
    included), m = 0 .. n_max-1; a+ is its conjugate transpose.  Moments are
    read only from states on the same model.
    """

    model: SpectrumModel
    n_max: int
    lower_band: np.ndarray
    h_diag: np.ndarray
    g_diag: np.ndarray

    @property
    def a_minus(self) -> np.ndarray:
        """Dense (n_max+1)^2 lowering matrix, built on each access."""
        out = np.zeros((self.n_max + 1, self.n_max + 1), dtype=complex)
        idx = np.arange(self.n_max)
        out[idx, idx + 1] = self.lower_band
        return out

    @property
    def a_plus(self) -> np.ndarray:
        """Dense (n_max+1)^2 raising matrix, built on each access."""
        return self.a_minus.conj().T.copy()


def build_ladder(model: SpectrumModel, n_max: int) -> LadderRep:
    """Band of a- plus the H, G diagonals on the first ``n_max + 1`` levels."""
    if n_max < 2:
        raise DomainError("ladder truncation needs n_max >= 2")
    # the top commutator band needs E_{n_max + 1}
    energies = model.energies(n_max + 1)
    g_diag = energies[1:] - energies[:-1]
    band = np.sqrt(energies[1 : n_max + 1])
    if model.alpha == 0.0:
        band = band.astype(complex)
    else:
        band = band * np.exp(1j * model.alpha * g_diag[:n_max])
    return LadderRep(
        model=model,
        n_max=n_max,
        lower_band=band,
        h_diag=energies[: n_max + 1],
        g_diag=g_diag,
    )


def quadratures(rep: LadderRep):
    """Return (X, P, H, G) as dense matrices.

    X = (a+ + a-)/sqrt(2), P = i (a+ - a-)/sqrt(2); then [X, P] = i G on all
    components below the truncation band.
    """
    a_minus = rep.a_minus
    a_plus = a_minus.conj().T
    x = (a_plus + a_minus) * _INV_RT2
    p = 1j * (a_plus - a_minus) * _INV_RT2
    h = np.diag(rep.h_diag.astype(complex))
    g = np.diag(rep.g_diag.astype(complex))
    return x, p, h, g


def f_operator(rep: LadderRep, state: FockVector) -> np.ndarray:
    """Symmetrized covariance operator F = {X - <X>, P - <P>} for the state."""
    vec, mass, _ = _prepare(rep, state)
    a1 = _band_sums(rep, vec, mass)[0]
    mx, mp = _ROOT2 * a1.real, _ROOT2 * a1.imag
    x, p, _, _ = quadratures(rep)
    dx = x - mx * np.eye(rep.n_max + 1)
    dp = p - mp * np.eye(rep.n_max + 1)
    return dx @ dp + dp @ dx


@dataclasses.dataclass(frozen=True)
class UncertaintyReport:
    """Second moments of X and P plus the Robertson-Schrodinger bookkeeping."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    mean_g: float
    mean_f: float

    @property
    def delta(self) -> float:
        """Half the length of (<G>, <F>); squares to the RS lower bound."""
        return 0.5 * math.hypot(self.mean_g, self.mean_f)

    @property
    def rs_bound(self) -> float:
        return self.delta ** 2

    @property
    def rs_product(self) -> float:
        return self.var_x * self.var_p

    @property
    def equality_gap(self) -> float:
        return self.rs_product - self.rs_bound


def _prepare(rep: LadderRep, state: FockVector) -> tuple[np.ndarray, float, float]:
    """The state's coefficients over the whole ladder, lifted by _mass where their mass
    underflows, that mass and the tail bound over it, once the tail certifies."""
    if state.n_max > rep.n_max:
        raise DomainError("state is longer than the ladder truncation")
    if state.model is not rep.model and state.model != rep.model:
        raise DomainError("state and ladder are built on different models")
    coeffs, mass, tail = _certified_mass(state, "state")
    if state.n_max < rep.n_max:
        coeffs = np.concatenate((coeffs, np.zeros(rep.n_max - state.n_max, dtype=complex)))
    return coeffs, mass, tail


def _band_sums(rep: LadderRep, vec: np.ndarray, mass: float):
    """(<a->, <a-^2>, <a+ a- + a- a+>, <G>, |v|^2) in the state vec of the given mass,
    from the band b alone.

    <a-> = sum v*_m b_m v_{m+1} and <a-^2> = sum v*_m b_m b_{m+1} v_{m+2};
    the truncated a+ a- + a- a+ is diag(0, E_1 .. E_n) + diag(E_1 .. E_n, 0).
    Each sum is divided by the mass.
    """
    # an overflowing sum is reported by the caller as a moment that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.abs(vec) ** 2
        band = rep.lower_band
        lowered = band * vec[1:]  # (a- v)_m for m < n
        a1 = complex(np.vdot(vec[:-1], lowered)) / mass
        a2 = complex(np.vdot(vec[:-2], band[:-1] * lowered[1:])) / mass
        sym = float(np.dot(rep.h_diag[1:], weights[1:] + weights[:-1])) / mass
        mean_g = float(np.dot(rep.g_diag, weights)) / mass
    return a1, a2, sym, mean_g, weights


def _variance_bound(rep: LadderRep, weights: np.ndarray, mass: float, tau: float, n: int,
                    report: UncertaintyReport) -> float:
    """Bound on how far var_x and var_p move when the bands t past n join the state, over
    the smaller variance; tau is their mass, FockVector.tail_bound over the kept mass.

    Over the two blocks tail_bound reads, extrapolate s = sum (E_k + E_{k+1}) |t_k|^2
    >= <t|X^2 + P^2|t> the same way.  With the kept part u, |(X u)_{n+1}|^2 = b =
    E_{n+1} w_n / 2 and |(X u)_n|^2 + b = c, so 2 |<X u, t>| <= 2 sqrt(b tau) and
    2 |<X u, X t>| <= sqrt(2 c s): <X> moves by at most sqrt(tau) (2 sqrt(b) + sqrt(s))
    + tau |<X>|, and <X^2> by at most b + sqrt(2 c s) + s + tau <X^2>; likewise for P.
    """
    half = min(6, (n + 1) // 2)
    lo = n + 1 - 2 * half
    # in Python floats, which overflow to inf without a warning; E_{k+1} = E_k + G_k
    w = weights[lo:n + 1].tolist()
    energy = rep.h_diag[lo:n + 1].tolist()
    gap = rep.g_diag[lo:n + 1].tolist()
    level = [wk * (ek + ek + gk) for wk, ek, gk in zip(w, energy, gap)]
    s = _extrapolated(sum(level[:half]), sum(level[half:])) / mass
    b = 0.5 * (energy[-1] + gap[-1]) * w[-1] / mass
    c = 0.5 * energy[-1] * w[-2] / mass + b
    shift = math.sqrt(tau) * (2.0 * math.sqrt(b) + math.sqrt(s))
    square = b + math.sqrt(2.0 * c * s) + s
    mx, mp = abs(report.mean_x), abs(report.mean_p)
    drift_x, drift_p = shift + tau * mx, shift + tau * mp
    moved_x = square + tau * (report.var_x + mx * mx) + 2.0 * mx * shift + drift_x * drift_x
    moved_p = square + tau * (report.var_p + mp * mp) + 2.0 * mp * shift + drift_p * drift_p
    floor = min(report.var_x, report.var_p)
    # an inf or nan anywhere leaves nothing certified
    if not (floor > 0.0 and math.isfinite(moved_x + moved_p)):
        return math.inf
    return max(moved_x, moved_p) / floor


def uncertainty(rep: LadderRep, state: FockVector) -> UncertaintyReport:
    """Means and variances of X, P plus <G> and <F> in the given state.

    Every moment is a real combination of the band sums A1 = <a->,
    A2 = <a-^2> and N = <a+ a- + a- a+>, which hold for the truncated
    matrices themselves: <X> = sqrt2 Re A1, <P> = sqrt2 Im A1,
    <X^2> = N/2 + Re A2, <P^2> = N/2 - Re A2 and <XP + PX> = 2 Im A2.
    A moment, or var_x var_p - delta^2, that is not finite is refused with
    ConvergenceError.  The state must pass the tail certificate and, on the same
    |c|^2, the variance certificate: _variance_bound below TAIL_CERT, else a
    TruncationError suggesting n_max >= 2 n_max + 16.
    """
    return _moments(rep, state)


def _moments(rep: LadderRep, state: FockVector) -> UncertaintyReport:
    """The body of uncertainty, which the automatic GIS length calls as its certificate,
    so that perfbench's tracer counts only the calls of the public name."""
    vec, mass, tau = _prepare(rep, state)
    a1, a2, sym, mg, weights = _band_sums(rep, vec, mass)
    mx, mp = _ROOT2 * a1.real, _ROOT2 * a1.imag
    moments = (mx, mp, 0.5 * sym + a2.real - mx * mx, 0.5 * sym - a2.real - mp * mp,
               mg, 2.0 * a2.imag - 2.0 * mx * mp)
    report = UncertaintyReport(*moments)
    try:
        gap = report.equality_gap
    except OverflowError:  # delta ** 2 past the float range
        gap = math.inf
    if not all(map(math.isfinite, (*moments, gap))):
        raise ConvergenceError(f"moments (<X>, <P>, var X, var P, <G>, <F>) = {moments} and "
                               f"var_x var_p - delta^2 = {gap} are not all finite")
    bound = _variance_bound(rep, weights, mass, tau, state.n_max, report)
    if not bound < TAIL_CERT:
        _refuse("state", state, "variance bound", bound, TAIL_CERT)
    return report


def eigenvalue_residual(rep: LadderRep, vec: FockVector, z: complex, drop: int = 2) -> float:
    """2-norm of (a- - z) v on the components unaffected by truncation.

    The top ``drop`` components are excluded: a- forgets the coefficient just
    above the truncation band, so a perfect eigenvector still shows an O(|c_top|)
    defect there.
    """
    if drop < 1:
        raise DomainError("drop must keep at least the top component out")
    state = vec.padded(rep.n_max) if vec.n_max < rep.n_max else vec
    if state.n_max != rep.n_max:
        raise DomainError("state is longer than the ladder truncation")
    c = state.coeffs
    resid = -z * c
    resid[:-1] += rep.lower_band * c[1:]  # (a- c)[m] = lower[m] c[m+1]
    return float(np.linalg.norm(resid[: rep.n_max + 1 - drop]))


def gis_recurrence_oracle(rep: LadderRep, z: complex, lam: complex) -> FockVector:
    """Solve [(1+lam) a- + (1-lam) a+] d = 2 z d by forward substitution, on the ladder's bands.

    Independent of any closed form: component m of the eigenvalue equation
    fixes d_{m+1} from d_m and d_{m-1}.  Returns the normalized vector.
    """
    lam = complex(lam)
    if lam == -1:
        raise LambdaRejected(lam, LambdaRejected.LAMBDA_MINUS_ONE)
    if lam.real <= 0:
        raise LambdaRejected(lam, LambdaRejected.NONPOSITIVE_REAL_PART)
    lower = rep.lower_band  # lower[m] = a_minus[m, m+1]
    # Python complex scalars: the loop is O(n_max) and numpy scalars would dominate it
    up = ((1.0 + lam) * lower).tolist()
    # the a+ entry feeding component m is conj(lower[m-1])
    back = ((1.0 - lam) * lower.conj()).tolist()
    two_z = 2.0 * complex(z)
    d = [1.0 + 0.0j]
    for m in range(rep.n_max):
        acc = two_z * d[m]
        if m >= 1:
            acc -= back[m - 1] * d[m - 1]
        d.append(acc / up[m])
    return FockVector(rep.model, d).normalized().certified("recurrence")
