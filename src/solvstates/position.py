"""Position-space layer for the trigonometric Poschl-Teller box.

Everything lives on the open interval (0, pi*a): the confining potential,
its superpotential W = -psi_0'/psi_0, normalized bound states of
H = -d^2/dx^2 + V and of the factorized partner H_+ = A^- A^+, plus the
finite-difference residuals and quadrature matrices used to check the
factorization numerically.  Energies scale as 1/a^2 with the box size;
the a = 1 default reproduces E_n = n (n + kappa + kappa').
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import jacobi_rows, panel_rule, settled

#: central-difference step for all finite-difference residuals
H_STEP = 1e-5
#: finite-difference grids stay this far from the walls so x +/- h is interior
FD_MARGIN = 10 * H_STEP
FD_POINTS = 2001
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
    polys = jacobi_rows(n_max, p.kappa - 0.5, p.kappa_prime - 0.5, np.cos(x / p.a))
    return np.array([math.exp(-0.5 * _log_norm(p, n)) * (envelope * poly)
                     for n, poly in enumerate(polys)])


def eigenfunction(p: PTParameters, n: int, x):
    """Normalized bound state psi_n, vanishing like x^kappa at the left wall."""
    return _scalar_or_array(eigenfunctions(p, n, x)[n])


def _partner(p: PTParameters) -> PTParameters:
    # the partner states theta_n are the bound states of the (kappa+1, kappa'+1) well
    return PTParameters(p.kappa + 1.0, p.kappa_prime + 1.0, p.a)


def partner_eigenfunction(p: PTParameters, n: int, x):
    """Normalized bound state theta_n of the partner well."""
    return eigenfunction(_partner(p), n, x)


def _fd_grid(p: PTParameters, margin: float = FD_MARGIN):
    return np.linspace(margin, p.box - margin, FD_POINTS)


def _second_diff_margin(p: PTParameters) -> float:
    # second differences see the fourth derivative, which grows like
    # t^(kappa-4) toward a wall; soft exponents below 2 need more room
    # than the first-derivative margin to keep the truncation error down
    return max(FD_MARGIN, 0.01 * p.a)


def _grid_norm(values, xs) -> float:
    # trapezoid L2 norm; xs is uniform
    dx = xs[1] - xs[0]
    mass = float(np.dot(values, values)
                 - 0.5 * (values[0] ** 2 + values[-1] ** 2))
    return math.sqrt(max(mass * dx, 0.0))


def _stencil(p: PTParameters, n_max: int, xs):
    """psi_0 .. psi_{n_max} at xs + h, xs and xs - h: shape (3, n_max + 1, xs.size)."""
    return eigenfunctions(p, n_max, np.stack([xs + H_STEP, xs, xs - H_STEP])).transpose(1, 0, 2)


def _lower_apply(p: PTParameters, stencil, xs):
    # A^- f = -f' - W f on every row of the stencil.  H = A^+ A^- fixes the pair
    # only up to a joint sign; this choice is the one that sends psi_{n+1}
    # onto +sqrt(E_{n+1}) theta_n when both families carry their positive
    # normalization constants.
    up, mid, down = stencil
    return -(up - down) / (2.0 * H_STEP) - superpotential(p, xs) * mid


def factorization_residuals(p: PTParameters, n_max: int):
    """Grid norms r1[n] of A^- psi_{n+1} - sqrt(E_{n+1}) theta_n for n = 0 .. n_max,
    and r2 of A^- psi_0.

    Derivatives are central differences with step H_STEP on a grid that
    keeps FD_MARGIN away from the walls; both residuals should come out
    finite-difference-limited, well under 1e-4.  One stencil pass of psi
    and one pass of theta on the grid give every row.
    """
    if not 0 <= n_max <= 10:
        raise DomainError("factorization_residual covers 0 <= n <= 10")
    xs = _fd_grid(p)
    lowered = _lower_apply(p, _stencil(p, n_max + 1, xs), xs)
    theta = eigenfunctions(_partner(p), n_max, xs)
    r1 = np.array([_grid_norm(lowered[n + 1] - math.sqrt(energy(p, n + 1)) * theta[n], xs)
                   for n in range(n_max + 1)])
    return r1, _grid_norm(lowered[0], xs)


def factorization_residual(p: PTParameters, n: int):
    """(r1, r2) of ``factorization_residuals`` at row n."""
    r1, r2 = factorization_residuals(p, n)
    return float(r1[n]), r2


def _second_differences(p: PTParameters, n_max: int):
    # the second-difference grid, psi_0 .. psi_n_max on it and -psi_n'' + V psi_n
    xs = _fd_grid(p, _second_diff_margin(p))
    up, mid, down = _stencil(p, n_max, xs)
    second = (up - 2.0 * mid + down) / (H_STEP * H_STEP)
    return xs, mid, -second + potential(p, xs) * mid


def _schrodinger_rows(p: PTParameters, xs, mid, acted):
    # row 0 has E_0 = 0 and no relative residual
    return np.array([math.nan] + [_grid_norm(acted[n] / energy(p, n) - mid[n], xs)
                                  for n in range(1, len(mid))])


def _rayleigh_rows(xs, mid, acted):
    dx = xs[1] - xs[0]
    out = []
    for psi, h_psi in zip(mid, acted):
        num = float(np.dot(psi, h_psi) - 0.5 * (psi[0] * h_psi[0] + psi[-1] * h_psi[-1]))
        den = float(np.dot(psi, psi) - 0.5 * (psi[0] ** 2 + psi[-1] ** 2))
        out.append((num * dx) / (den * dx))
    return np.array(out)


def schrodinger_residuals(p: PTParameters, n_max: int):
    """Grid norms of (-psi_n'' + V psi_n)/E_n - psi_n for n = 0 .. n_max, second
    differences from one stencil pass; entry 0 is NaN because E_0 = 0."""
    if not 1 <= n_max <= 10:
        raise DomainError("schrodinger_residual covers 1 <= n <= 10")
    return _schrodinger_rows(p, *_second_differences(p, n_max))


def schrodinger_residual(p: PTParameters, n: int) -> float:
    """Row n of ``schrodinger_residuals``, 1 <= n <= 10."""
    return float(schrodinger_residuals(p, n)[n])


def rayleigh_quotients(p: PTParameters, n_max: int):
    """<psi_n|H|psi_n> / <psi_n|psi_n> for n = 0 .. n_max, with finite-difference
    derivatives from one stencil pass."""
    if not 0 <= n_max <= 10:
        raise DomainError("rayleigh_quotient covers 0 <= n <= 10")
    return _rayleigh_rows(*_second_differences(p, n_max))


def rayleigh_quotient(p: PTParameters, n: int) -> float:
    """Row n of ``rayleigh_quotients``."""
    return float(rayleigh_quotients(p, n)[n])


def _quad_nodes(p: PTParameters, order: int):
    margin = QUAD_MARGIN * p.box
    return panel_rule([margin, p.box - margin], order)


def _inner(left, weights, right):
    # quadrature inner products of every row of left with every row of right
    return left @ (weights[:, None] * right.T)


def gram_matrix(p: PTParameters, n_max: int, order: int = 200):
    """Quadrature Gram matrix of psi_0..psi_{n_max}; identity when exact."""
    if not 0 <= n_max <= 50:
        raise DomainError("gram_matrix covers 0 <= n_max <= 50")
    nodes, weights = _quad_nodes(p, order)
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
