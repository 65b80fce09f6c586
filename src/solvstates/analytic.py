"""Taylor coefficients of analytic functions, extracted from ring samples."""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def taylor_coefficients(f, n_max, radius=1.0):
    """Coefficients t_0 .. t_n_max of f about 0, via FFT on |w| = radius.

    Aliasing folds t_{n + samples} * radius**samples back onto t_n, so the
    radius must lie inside the disk of analyticity.  The sample count (a power
    of two, at least 64 and 8 * (n_max + 1)) keeps the fold-back negligible for
    functions whose coefficients do not grow along the ring.  f is called once, with the
    whole ring as a complex array, and must return its values there.
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if not radius > 0.0:
        raise DomainError("ring radius must be positive")
    samples = 64
    while samples < 8 * (n_max + 1):
        samples *= 2
    k = np.arange(samples)
    ring = radius * np.exp(2j * np.pi * k / samples)
    vals = np.asarray(f(ring), dtype=complex)
    hat = np.fft.fft(vals) / samples
    return hat[: n_max + 1] / radius ** np.arange(n_max + 1, dtype=float)
