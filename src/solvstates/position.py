"""Position-space layer for the trigonometric Poschl-Teller box.

Everything lives on the open interval (0, pi*a): the confining potential,
its superpotential W = -psi_0'/psi_0, normalized bound states of
H = -d^2/dx^2 + V and of the factorized partner H_+ = A^- A^+, plus the
residuals and quadrature matrices used to check the factorization
numerically.  The residuals take psi' and psi'' in closed form and
integrate on the Gauss nodes the matrices use.  Energies scale as 1/a^2
with the box size; the a = 1 default reproduces E_n = n (n + kappa + kappa').
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import jacobi_rows, panel_rule, settled

#: quadrature grids exclude the walls with this relative margin
QUAD_MARGIN = 1e-6


@dataclass(frozen=True)
class PTParameters:
    """Well strengths and box scale; the box is (0, pi*a)."""

    kappa: float
    kappa_prime: float
    a: float = 1.0

    def __post_init__(self):
        if not (self.kappa > 1 and self.kappa_prime > 1):
            raise DomainError("PTParameters requires kappa > 1 and kappa' > 1")
        if not self.a > 0:
            raise DomainError("PTParameters requires a > 0")

    @property
    def nu(self) -> float:
        return self.kappa + self.kappa_prime

    @property
    def box(self) -> float:
        return math.pi * self.a


@dataclass(frozen=True)
class GridFunction:
    """Sampled real function on a strictly increasing interior grid."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape:
            raise DomainError("GridFunction needs matching 1-d xs and values")
        if xs.size and not (xs[0] > 0 and np.all(np.diff(xs) > 0)):
            raise DomainError("GridFunction grid must be positive and increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)

    def to_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "value"])
            for x, v in zip(self.xs, self.values):
                writer.writerow([f"{x:.17g}", f"{v:.17g}"])


def interior_grid(p: PTParameters, n_points: int = 401, margin: float | None = None):
    """Uniform grid strictly inside the box, default margin 1e-6 * pi * a."""
    if n_points < 2:
        raise DomainError("interior_grid needs at least two points")
    if margin is None:
        margin = QUAD_MARGIN * p.box
    if not 0 < margin < 0.5 * p.box:
        raise DomainError("interior_grid margin must sit inside the box")
    return np.linspace(margin, p.box - margin, n_points)


def _interior(p: PTParameters, x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= p.box):
        raise DomainError("x must lie strictly inside (0, pi*a)")
    return x


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def potential(p: PTParameters, x):
    """Trigonometric well with the ground energy subtracted off."""
    x = _interior(p, x)
    u = x / (2.0 * p.a)
    quarter = 1.0 / (4.0 * p.a * p.a)
    k, kp = p.kappa, p.kappa_prime
    out = quarter * (k * (k - 1.0) / np.sin(u) ** 2
                     + kp * (kp - 1.0) / np.cos(u) ** 2) - quarter * p.nu ** 2
    return _scalar_or_array(out)


def superpotential(p: PTParameters, x):
    """W = -psi_0'/psi_0 = (1/2a) [kappa' tan(x/2a) - kappa cot(x/2a)]."""
    x = _interior(p, x)
    u = x / (2.0 * p.a)
    out = (p.kappa_prime * np.tan(u) - p.kappa / np.tan(u)) / (2.0 * p.a)
    return _scalar_or_array(out)


def partner_potential(p: PTParameters, x):
    """V_+ = W^2 + W', the well confining the partner states.

    Equals potential(kappa+1, kappa'+1) shifted up by (nu + 1)/a^2, which is
    what makes the partner spectrum (n + 1)(n + nu + 1).
    """
    x = _interior(p, x)
    u = x / (2.0 * p.a)
    w = (p.kappa_prime * np.tan(u) - p.kappa / np.tan(u)) / (2.0 * p.a)
    w_prime = (p.kappa_prime / np.cos(u) ** 2
               + p.kappa / np.sin(u) ** 2) / (4.0 * p.a * p.a)
    return _scalar_or_array(w * w + w_prime)


def energy(p: PTParameters, n: int) -> float:
    """E_n = n (n + nu) / a^2."""
    if n < 0:
        raise DomainError("energy needs n >= 0")
    return n * (n + p.nu) / (p.a * p.a)


def partner_energy(p: PTParameters, n: int) -> float:
    """e_n = (n + 1)(n + nu + 1) / a^2."""
    if n < 0:
        raise DomainError("partner_energy needs n >= 0")
    return (n + 1) * (n + p.nu + 1) / (p.a * p.a)


def _log_norm(p: PTParameters, n: int) -> float:
    # c_n = a Gamma(n+k+1/2) Gamma(n+k'+1/2) / [n! Gamma(n+k+k') (2n+k+k')]
    k, kp = p.kappa, p.kappa_prime
    return (math.log(p.a)
            + math.lgamma(n + k + 0.5) + math.lgamma(n + kp + 0.5)
            - math.lgamma(n + 1.0) - math.lgamma(n + k + kp)
            - math.log(2.0 * n + k + kp))


def eigenfunctions(p: PTParameters, n_max: int, x):
    """Normalized bound states psi_0 .. psi_{n_max} at x, one row each.

    One pass of the Jacobi recurrence gives every row; each vanishes like
    x^kappa at the left wall.
    """
    if not 0 <= n_max <= 50:
        raise DomainError("eigenfunction covers 0 <= n <= 50")
    x = _interior(p, x)
    u = x / (2.0 * p.a)
    envelope = np.cos(u) ** p.kappa_prime * np.sin(u) ** p.kappa
    return _normalized(p, envelope, jacobi_rows(n_max, p.kappa - 0.5, p.kappa_prime - 0.5,
                                                np.cos(x / p.a)))


def _normalized(p: PTParameters, envelope, rows):
    # row n of rows times the envelope and c_n^(-1/2)
    return np.array([math.exp(-0.5 * _log_norm(p, n)) * (envelope * row)
                     for n, row in enumerate(rows)])


def eigenfunction(p: PTParameters, n: int, x):
    """Normalized bound state psi_n, vanishing like x^kappa at the left wall."""
    return _scalar_or_array(eigenfunctions(p, n, x)[n])


def _partner(p: PTParameters) -> PTParameters:
    # the partner states theta_n are the bound states of the (kappa+1, kappa'+1) well
    return PTParameters(p.kappa + 1.0, p.kappa_prime + 1.0, p.a)


def partner_eigenfunction(p: PTParameters, n: int, x):
    """Normalized bound state theta_n of the partner well."""
    return eigenfunction(_partner(p), n, x)


def _jet(p: PTParameters, n_max: int, x):
    """psi_n, psi_n' and psi_n'' for n = 0 .. n_max at the points x, three row arrays.

    The Jacobi factor P_n(t), t = cos(x/a), is differentiated by
    d/dt P_n^(al,be) = (n + al + be + 1)/2 P_{n-1}^(al+1,be+1) (DLMF 18.9.15),
    two more recurrence passes.  The envelope e = sin^kappa cos^kappa' enters
    through its own log-derivative L = e'/e, with e''/e = L' + L^2: W and V
    are not read, so the residuals that use them still check them.
    """
    x = _interior(p, x)
    u = x / (2.0 * p.a)
    s, c, t = np.sin(u), np.cos(u), np.cos(x / p.a)
    al, be = p.kappa - 0.5, p.kappa_prime - 0.5
    poly = [np.array(jacobi_rows(n_max, al + j, be + j, t)) for j in range(3)]
    # d^j/dt^j P_n = prod_{i=1..j} (n + al + be + i)/2 P_{n-j}^(al+j,be+j)
    ns, zero = np.arange(n_max + 1)[:, None] + (al + be), np.zeros_like(t)
    dp = 0.5 * (ns + 1) * np.vstack([zero, poly[1]])[:-1]
    ddp = 0.25 * (ns + 1) * (ns + 2) * np.vstack([zero, zero, poly[2]])[:-2]
    # chain rule through t(x): t' = -sin(x/a)/a, t'' = -t/a^2
    t1 = -np.sin(x / p.a) / p.a
    d1, d2 = t1 * dp, t1 * t1 * ddp - t / (p.a * p.a) * dp
    log_d = (p.kappa * c / s - p.kappa_prime * s / c) / (2.0 * p.a)
    log_d2 = log_d * log_d - (p.kappa / s ** 2 + p.kappa_prime / c ** 2) / (4.0 * p.a * p.a)
    envelope = c ** p.kappa_prime * s ** p.kappa
    return [_normalized(p, envelope, rows) for rows in (
        poly[0], log_d * poly[0] + d1, log_d2 * poly[0] + 2.0 * log_d * d1 + d2)]


def _quad_jet(p: PTParameters, n_max: int):
    """Nodes and weights of the order-200 Gauss rule, then psi, psi', psi'' on them."""
    nodes, weights = _quad_nodes(p, 200)
    return (nodes, weights, *_jet(p, n_max, nodes))


def _quad_norm(weights, values) -> float:
    return math.sqrt(float(np.dot(weights, values * values)))


def _factorization_rows(p: PTParameters, jet, theta):
    # A^- f = -f' - W f on every psi row.  H = A^+ A^- fixes the pair only up to
    # a joint sign; this choice is the one that sends psi_{n+1} onto
    # +sqrt(E_{n+1}) theta_n when both families carry their positive
    # normalization constants.
    nodes, weights, psi, d1, _ = jet
    lowered = -d1 - superpotential(p, nodes) * psi
    r1 = np.array([_quad_norm(weights, lowered[n + 1] - math.sqrt(energy(p, n + 1)) * theta[n])
                   for n in range(len(psi) - 1)])
    return r1, _quad_norm(weights, lowered[0])


def factorization_residuals(p: PTParameters, n_max: int):
    """Quadrature norms r1[n] of A^- psi_{n+1} - sqrt(E_{n+1}) theta_n for
    n = 0 .. n_max, and r2 of A^- psi_0, with exact psi' from one ``_jet`` pass."""
    if not 0 <= n_max <= 10:
        raise DomainError("factorization_residual covers 0 <= n <= 10")
    jet = _quad_jet(p, n_max + 1)
    return _factorization_rows(p, jet, eigenfunctions(_partner(p), n_max, jet[0]))


def factorization_residual(p: PTParameters, n: int):
    """(r1, r2) of ``factorization_residuals`` at row n."""
    r1, r2 = factorization_residuals(p, n)
    return float(r1[n]), r2


def _hamiltonian_rows(p: PTParameters, jet):
    """Schrodinger residual rows (row 0 NaN, since E_0 = 0) and Rayleigh quotients."""
    nodes, weights, psi, _, d2 = jet
    acted = -d2 + potential(p, nodes) * psi
    quotients = [np.dot(weights, f * h) / np.dot(weights, f * f) for f, h in zip(psi, acted)]
    return np.array([math.nan] + [_quad_norm(weights, acted[n] / energy(p, n) - psi[n])
                                  for n in range(1, len(psi))]), np.array(quotients)


def schrodinger_residuals(p: PTParameters, n_max: int):
    """Quadrature norms of (-psi_n'' + V psi_n)/E_n - psi_n for n = 0 .. n_max,
    with exact psi'' from one ``_jet`` pass; entry 0 is NaN because E_0 = 0."""
    if not 1 <= n_max <= 10:
        raise DomainError("schrodinger_residual covers 1 <= n <= 10")
    return _hamiltonian_rows(p, _quad_jet(p, n_max))[0]


def schrodinger_residual(p: PTParameters, n: int) -> float:
    """Row n of ``schrodinger_residuals``, 1 <= n <= 10."""
    return float(schrodinger_residuals(p, n)[n])


def rayleigh_quotients(p: PTParameters, n_max: int):
    """<psi_n|H|psi_n> / <psi_n|psi_n> for n = 0 .. n_max, by Gauss quadrature
    with exact psi'' from one ``_jet`` pass."""
    if not 0 <= n_max <= 10:
        raise DomainError("rayleigh_quotient covers 0 <= n <= 10")
    return _hamiltonian_rows(p, _quad_jet(p, n_max))[1]


def rayleigh_quotient(p: PTParameters, n: int) -> float:
    """Row n of ``rayleigh_quotients``."""
    return float(rayleigh_quotients(p, n)[n])


def _quad_nodes(p: PTParameters, order: int):
    margin = QUAD_MARGIN * p.box
    return panel_rule([margin, p.box - margin], order)


def _inner(left, weights, right):
    # quadrature inner products of every row of left with every row of right
    return left @ (weights[:, None] * right.T)


def gram_matrix(p: PTParameters, n_max: int):
    """Quadrature Gram matrix of psi_0..psi_{n_max} on 200 nodes; identity when exact."""
    if not 0 <= n_max <= 50:
        raise DomainError("gram_matrix covers 0 <= n_max <= 50")
    nodes, weights = _quad_nodes(p, 200)
    rows = eigenfunctions(p, n_max, nodes)
    return _inner(rows, weights, rows)


def _quad_rows(p: PTParameters, n_max: int, order: int):
    """Quadrature weights and psi_0..psi_n_max, theta_0..theta_n_max at the order nodes."""
    nodes, weights = _quad_nodes(p, order)
    return weights, eigenfunctions(p, n_max, nodes), eigenfunctions(_partner(p), n_max, nodes)


def _settled_overlap(n_max: int, coarse, fine):
    # coarse and fine are _quad_rows at 200 and 260 nodes
    (w_c, psi_c, theta_c), (w_f, psi_f, theta_f) = coarse, fine
    return settled(f"overlap n_max={n_max}", _inner(psi_c, w_c, theta_c),
                   _inner(psi_f, w_f, theta_f), 1e-9).astype(complex)


def overlap_matrix(p: PTParameters, n_max: int):
    """U_{nm} = integral of psi_n theta_m; rows approach unit norm as n_max grows.

    Returned complex for interface uniformity; the integrands are real, so
    every entry has zero imaginary part.
    """
    if not 0 <= n_max <= 20:
        raise DomainError("overlap_matrix covers 0 <= n_max <= 20")
    return _settled_overlap(n_max, _quad_rows(p, n_max, 200), _quad_rows(p, n_max, 260))
