"""Truncated number-basis workspace: ladder operators, quadratures, uncertainty reports.

Every state lives in the span of the first ``n_max + 1`` eigenvectors of a
:class:`~solvstates.spectrum.SpectrumModel`.  The ladder operators carry the
alpha phase twists

    a- |psi_n> = sqrt(E_n)  e^{+i alpha (E_n - E_{n-1})} |psi_{n-1}>
    a+ |psi_n> = sqrt(E_{n+1}) e^{-i alpha (E_{n+1} - E_n)} |psi_{n+1}>

so that a+ a- = H exactly and [a-, a+] = G = diag(E_{n+1} - E_n) on every
component except the top band, which a truncated a+ cannot reach.

Both ladder operators live on one band, so a :class:`LadderRep` stores only
that band and the H and G diagonals.  Moments are shifted-vector products,
O(n) in time and memory; dense matrices exist only on request, through
``a_minus`` / ``a_plus`` and :func:`quadratures`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConvergenceError, DomainError, LambdaRejected, TruncationError
from .spectrum import SpectrumModel
from .tolerances import IMAG_TOL, TAIL_CERT

_INV_RT2 = 1.0 / math.sqrt(2.0)


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
        with np.errstate(over="ignore"):
            nrm = self.norm()
        if nrm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        if not math.isfinite(nrm):
            # dividing by an overflowed norm would return zeros that pass the tail check
            raise ConvergenceError("coefficient norm overflows; cannot normalize")
        return FockVector(self.model, self.coeffs / nrm)

    def inner(self, other: "FockVector") -> complex:
        # conjugate-linear in self, padded with zeros to the longer length
        a, b = self.coeffs, other.coeffs
        n = min(a.size, b.size)
        return complex(np.vdot(a[:n], b[:n]))

    def energy_mean(self) -> float:
        energies = self.model.energies(self.n_max)
        weights = np.abs(self.coeffs) ** 2
        total = weights.sum()
        if total == 0.0:
            raise DomainError("cannot average over the zero vector")
        return float(np.dot(energies, weights) / total)

    def tail_bound(self) -> float:
        """Certified upper bound on the truncated probability mass.

        Splits the trailing coefficients into two equal blocks and
        extrapolates the |c|^2 block masses geometrically.  Block masses
        rather than pairwise ratios carry the certificate because the
        magnitudes may oscillate under their decay envelope (near-zeros
        of the underlying polynomials).  Returns ``inf`` when the blocks
        are not decaying, i.e. when no certificate is possible.
        """
        mags = np.abs(self.coeffs)
        if not mags.any():
            return 0.0
        half = min(6, mags.size // 2)
        if half < 2:
            return math.inf
        tail = mags[-2 * half:]
        mass_a = float(np.sum(tail[:half] ** 2))
        mass_b = float(np.sum(tail[half:] ** 2))
        if mass_b == 0.0:
            # coefficients terminate exactly; nothing was dropped
            return 0.0
        if mass_a == 0.0 or mass_b >= mass_a:
            return math.inf
        q = mass_b / mass_a
        return mass_b * q / (1.0 - q)

    def padded(self, n_max: int) -> "FockVector":
        if n_max < self.n_max:
            raise DomainError("padding cannot shrink the vector")
        out = np.zeros(n_max + 1, dtype=complex)
        out[: self.coeffs.size] = self.coeffs
        return FockVector(self.model, out)


@dataclasses.dataclass(frozen=True)
class LadderRep:
    """Truncated ladder pair held as its one band plus the H and G diagonals.

    ``lower_band[m]`` is the entry a-[m, m+1] (alpha phase twist included),
    m = 0 .. n_max-1; a+ is its conjugate transpose.
    """

    model: SpectrumModel
    n_max: int
    alpha: float
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
    alpha = model.alpha
    g_diag = energies[1:] - energies[:-1]
    phases = np.exp(1j * alpha * g_diag[:n_max])
    return LadderRep(
        model=model,
        n_max=n_max,
        alpha=alpha,
        lower_band=np.sqrt(energies[1 : n_max + 1]) * phases,
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


def _apply_x(rep: LadderRep, vec: np.ndarray) -> np.ndarray:
    """X vec = (a+ + a-) vec / sqrt(2) from the band alone."""
    out = np.zeros_like(vec)
    out[1:] = rep.lower_band.conj() * vec[:-1]
    out[:-1] += rep.lower_band * vec[1:]
    return out * _INV_RT2


def _apply_p(rep: LadderRep, vec: np.ndarray) -> np.ndarray:
    """P vec = i (a+ - a-) vec / sqrt(2) from the band alone."""
    out = np.zeros_like(vec)
    out[1:] = rep.lower_band.conj() * vec[:-1]
    out[:-1] -= rep.lower_band * vec[1:]
    return out * (1j * _INV_RT2)


def _real_expect(vec: np.ndarray, op_vec: np.ndarray, label: str) -> float:
    """<vec | op vec> given op vec; the imaginary part must vanish."""
    value = complex(np.vdot(vec, op_vec))
    if abs(value.imag) > IMAG_TOL * max(1.0, abs(value.real)):
        raise ConvergenceError(
            f"<{label}> has imaginary part {value.imag:.3e}; truncation too aggressive"
        )
    return value.real


def f_operator(rep: LadderRep, state: FockVector) -> np.ndarray:
    """Symmetrized covariance operator F = {X - <X>, P - <P>} for the state."""
    vec = _prepare(rep, state)
    x, p, _, _ = quadratures(rep)
    mx = _real_expect(vec, _apply_x(rep, vec), "X")
    mp = _real_expect(vec, _apply_p(rep, vec), "P")
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


def _suggest_growth(state: FockVector, target: float) -> int:
    mags = np.abs(state.coeffs)
    nz = mags[mags > 0]
    if nz.size < 3:
        return state.n_max * 2 + 16
    rho = float((nz[-1] / nz.max()) ** (1.0 / max(1, nz.size - 1)))
    if rho >= 1.0:
        return state.n_max * 2 + 16
    need = math.log(max(target, 1e-300)) / math.log(rho)
    return state.n_max + int(need) + 8

def _prepare(rep: LadderRep, state: FockVector) -> np.ndarray:
    if state.n_max > rep.n_max:
        raise DomainError("state is longer than the ladder truncation")
    tail = state.tail_bound()
    if not (tail < TAIL_CERT):
        raise TruncationError(
            f"state tail bound {tail:.3e} exceeds {TAIL_CERT:.0e}",
            suggested_n_max=_suggest_growth(state, 1e-2 * TAIL_CERT),
        )
    vec = np.zeros(rep.n_max + 1, dtype=complex)
    vec[: state.coeffs.size] = state.coeffs
    nrm = np.linalg.norm(vec)
    if nrm == 0.0:
        raise DomainError("cannot report uncertainties of the zero vector")
    return vec / nrm


def uncertainty(rep: LadderRep, state: FockVector) -> UncertaintyReport:
    """Means and variances of X, P plus <G> and <F> in the given state.

    Every moment is <v| A B v>, taken by applying the banded X or P twice.
    """
    vec = _prepare(rep, state)
    xv = _apply_x(rep, vec)
    pv = _apply_p(rep, vec)
    mx = _real_expect(vec, xv, "X")
    mp = _real_expect(vec, pv, "P")
    var_x = _real_expect(vec, _apply_x(rep, xv), "X^2") - mx * mx
    var_p = _real_expect(vec, _apply_p(rep, pv), "P^2") - mp * mp
    mg = _real_expect(vec, rep.g_diag * vec, "G")
    dxv = xv - mx * vec
    dpv = pv - mp * vec
    fv = (_apply_x(rep, dpv) - mx * dpv) + (_apply_p(rep, dxv) - mp * dxv)
    mf = _real_expect(vec, fv, "F")
    return UncertaintyReport(
        mean_x=mx, mean_p=mp, var_x=var_x, var_p=var_p, mean_g=mg, mean_f=mf
    )


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


def gis_recurrence_oracle(
    rep: LadderRep, z: complex, lam: complex, n_max: int | None = None
) -> FockVector:
    """Solve [(1+lam) a- + (1-lam) a+] d = 2 z d by forward substitution.

    Independent of any closed form: component m of the eigenvalue equation
    fixes d_{m+1} from d_m and d_{m-1}.  Returns the normalized vector.
    """
    lam = complex(lam)
    if lam == -1:
        raise LambdaRejected(lam, LambdaRejected.LAMBDA_MINUS_ONE)
    if lam.real <= 0:
        raise LambdaRejected(lam, LambdaRejected.NONPOSITIVE_REAL_PART)
    if n_max is None:
        n_max = rep.n_max
    if n_max > rep.n_max:
        raise DomainError("oracle length exceeds the ladder truncation")
    lower = rep.lower_band  # lower[m] = a_minus[m, m+1]
    d = np.zeros(n_max + 1, dtype=complex)
    d[0] = 1.0
    for m in range(n_max):
        back = 0.0 + 0.0j
        if m >= 1:
            # a+ entry feeding component m is conj(lower[m-1])
            back = (1.0 - lam) * np.conj(lower[m - 1]) * d[m - 1]
        d[m + 1] = (2.0 * z * d[m] - back) / ((1.0 + lam) * lower[m])
    out = FockVector(rep.model, d).normalized()
    tail = out.tail_bound()
    if not (tail < TAIL_CERT):
        raise TruncationError(
            f"recurrence tail bound {tail:.3e} not certified below {TAIL_CERT:.0e}",
            suggested_n_max=_suggest_growth(out, 1e-2 * TAIL_CERT),
        )
    return out
