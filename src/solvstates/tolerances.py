"""Numerical bounds, in one module for the whole package.

``DEFAULTS`` holds the threshold of every verification case; each case looks
its threshold up here by name, and callers may override a whole run with a
single value (the CLI --tol flag does exactly that).  Keys group as
suite.check.

The constants below it are the certificates and gates the constructors apply
before they return a result, and the settling thresholds of the displacement
series and the disk-kernel series.  No flag overrides them.  The settling
rules of the special-function kernels and of the propagator's Taylor sum stay
next to their loops.
"""
from .errors import DomainError

DEFAULTS = {
    # truncated ladder representation
    "ladder.number_operator": 1e-12,
    "ladder.commutator_gaps": 1e-12,
    "ladder.hermiticity": 1e-12,
    # lowering-operator eigenstates
    "gk.eigenstate_residual": 1e-9,
    "gk.tail_bound": 1e-12,
    "gk.action_identity": 1e-8,
    "gk.normalization_closed": 1e-9,
    "gk.identity_moments": 1e-6,
    "gk.temporal_stability": 1e-12,
    # displacement states
    "perelomov.route_agreement": 1e-7,
    "perelomov.harmonic_weights": 1e-10,
    "perelomov.disk_moments": 1e-8,
    "perelomov.kernel_normalization": 1e-12,
    # minimum-uncertainty states
    "gis.closed_vs_recurrence": 1e-10,
    "gis.rs_equality": 1e-8,
    "gis.variance_ratio": 1e-8,
    "gis.theta_laws": 1e-8,
    "gis.lambda_one": 1e-10,
    "gis.bargmann_taylor": 1e-8,
    "gis.kummer_signs": 1e-10,
    "gis.disk_expansion": 1e-8,
    "gis.laplace_bridge": 1e-6,
    # position-space layer
    "position.gram": 1e-8,
    "position.factorization": 1e-4,
    "position.schrodinger": 1e-4,
    "position.overlap_rows": 1e-4,
    "position.rayleigh": 1e-3,
    "position.susy_shift": 1e-6,
    # special-function kernel
    "specfun.kummer_transform": 1e-10,
    "specfun.bessel_wronskian": 1e-10,
    "specfun.jacobi_symmetry": 1e-12,
    "specfun.quadrature_exactness": 1e-13,
}

#: mass a state may leave beyond its last band (FockVector.certified, perelomov closed forms)
TAIL_CERT = 1e-10
#: the same certificate for lowering-operator eigenstates (gk_state)
GK_TAIL_CERT = 1e-12
#: mass, relative to the kept mass, that an automatic n_max leaves out: one ulp
LENGTH_EPS = 2.0 ** -52
#: most bands of a state or points of a sweep; at about 290 bytes a row, 0.3 GB of CSV
SIZE_CEILING = 2 ** 20
#: distance of |lambda| from 1 within which a GIS state counts as coherent
#: (|lambda| = 1 decided up to roundoff in e^{i theta})
UNIT_TOL = 1e-12
#: largest self-check residual a GIS state may carry
CHECK_GATE = 1e-8
#: a displacement-series term this far below the running sum settles the tail
SERIES_TOL = 1e-15
#: largest rounding bound 16 eps sum |t_j| (|log |t_j|| + j + 2) / |sum t_j| a
#: settled displacement series may carry; its alternating terms can cancel
SERIES_ROUNDING = 1e-10
#: a disk-kernel series term this far below the running sum, three in a row,
#: settles the tail
KERNEL_TOL = 1e-16
#: per-band relative agreement of two displacement-flow truncations, and the
#: drift of the flow's norm from 1 that counts as a blow-up
FLOW_GATE = 1e-8
#: top band N of the largest displacement-flow truncation
FLOW_BAND_CAP = 384
#: most propagator steps one displacement-flow truncation may take
FLOW_STEP_CAP = 4096


def resolve(name: str, override: float | None = None) -> float:
    """Tolerance for a named check, with an optional run-wide override (--tol),
    finite and nonnegative."""
    if name not in DEFAULTS:
        raise DomainError(f"unknown tolerance name: {name}")
    if override is not None and not 0.0 <= override < float("inf"):
        raise DomainError(f"--tol must be finite and >= 0 (got {override!r})")
    return DEFAULTS[name] if override is None else float(override)
