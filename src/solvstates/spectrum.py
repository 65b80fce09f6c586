"""Energy spectra of exactly solvable systems.

A model fixes a dimensionless sequence E_0 = 0 < E_1 < E_2 < ... together
with the cumulative products E(n) = E_1 E_2 ... E_n, E(0) = 1.  Those
products normalize every state family built on top, so they are accumulated
in the log domain to keep large levels representable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, TruncationError

HARMONIC = "harmonic"
POSCHL_TELLER = "poschl_teller"
CUSTOM = "custom"

#: ratio of end-to-midpoint growth factors beyond which the convergence
#: radius estimate is reported as infinite
_DIVERGENCE_RATIO = 1.2


@dataclass(frozen=True)
class SpectrumModel:
    """A solvable spectrum plus the phase parameter used by state families."""

    kind: str
    alpha: float = 0.0
    kappa: float | None = None
    kappa_prime: float | None = None
    table: tuple[float, ...] = field(default=())

    # -- constructors --------------------------------------------------

    @classmethod
    def harmonic(cls, alpha=0.0):
        """E_n = n."""
        return cls(HARMONIC, alpha=alpha)

    @classmethod
    def poschl_teller(cls, kappa, kappa_prime, alpha=0.0):
        """E_n = n (n + kappa + kappa'), both strengths finite and > 1."""
        if not (1 < kappa < math.inf and 1 < kappa_prime < math.inf):
            raise DomainError(f"poschl_teller requires finite kappa, kappa' > 1 "
                              f"(got kappa={kappa!r}, kappa'={kappa_prime!r})")
        return cls(POSCHL_TELLER, alpha=alpha, kappa=float(kappa),
                   kappa_prime=float(kappa_prime))

    @classmethod
    def square_well(cls, alpha=0.0):
        """E_n = n (n + 2): Poschl-Teller at kappa = kappa' = 1, which poschl_teller refuses."""
        return cls(POSCHL_TELLER, alpha=alpha, kappa=1.0, kappa_prime=1.0)

    @classmethod
    def custom(cls, energies, alpha=0.0):
        """Finite table of energies, one per level, starting at exactly 0."""
        table = tuple(float(e) for e in energies)
        bad = next((k for k, e in enumerate(table) if not math.isfinite(e)), None)
        if bad is not None:
            raise DomainError(f"custom spectrum level {bad} is not finite: {table[bad]!r}")
        if len(table) < 2:
            raise DomainError("custom spectrum needs at least two levels")
        if table[0] != 0.0:
            raise DomainError("custom spectrum must start at E_0 = 0")
        if any(b <= a for a, b in zip(table, table[1:])):
            raise DomainError("custom spectrum must be strictly increasing")
        return cls(CUSTOM, alpha=alpha, table=table)

    @classmethod
    def from_file(cls, path, alpha=0.0):
        """Load a custom spectrum from a text file, one energy per line."""
        values = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    values.append(float(text))
                except ValueError as exc:
                    raise DomainError(f"{path}:{lineno}: not a number: {text!r}") from exc
        return cls.custom(values, alpha=alpha)

    def with_alpha(self, alpha: float) -> SpectrumModel:
        """The same spectrum with phase parameter alpha, the one place a label is set."""
        if not math.isfinite(alpha):
            raise DomainError(f"alpha must be finite (got {alpha!r})")
        if alpha == self.alpha:
            return self
        return replace(self, alpha=alpha)

    # -- spectral data ---------------------------------------------------

    @property
    def nu(self) -> float:
        """Combined strength kappa + kappa' controlling closed forms."""
        if self.kind == POSCHL_TELLER:
            return self.kappa + self.kappa_prime
        raise DomainError(f"nu is undefined for kind={self.kind!r}")

    @property
    def last_level(self) -> int | float:
        """Index of a table's last level; math.inf for the analytic spectra."""
        return len(self.table) - 1 if self.kind == CUSTOM else math.inf

    def energy(self, n: int) -> float:
        """E_n; a DomainError for n < 0, past a table's end the TruncationError of energies."""
        if n < 0:
            raise DomainError("level index must be >= 0")
        return float(self.energies(n)[n])

    def energies(self, n_max: int) -> np.ndarray:
        """E_0 .. E_{n_max} as a float64 array.  Past a table's end it raises a
        TruncationError that suggests no n_max, since no larger one can help."""
        if self.kind == CUSTOM:
            if n_max > self.last_level:
                raise TruncationError(f"custom spectrum has {len(self.table)} levels, "
                                      f"index {len(self.table)} out of range")
            return np.array(self.table[: n_max + 1], dtype=float)
        ns = np.arange(n_max + 1, dtype=float)
        if self.kind == HARMONIC:
            return ns
        return ns * (ns + self.nu)

    def log_products(self, n_max: int) -> np.ndarray:
        """Array of log E(n) for n = 0 .. n_max."""
        return np.concatenate([[0.0], np.cumsum(np.log(self.energies(n_max)[1:]))])

    def radius_estimate(self, n_max: int = 200) -> float:
        """Numerical estimate of lim E(n)^(1/n), the convergence radius of
        sum z^(2n)/E(n).

        Returns math.inf when the geometric-mean sequence is still growing
        strongly at n_max (superlinear spectra).
        """
        if n_max < 10:
            raise DomainError("radius estimate needs n_max >= 10")
        n_max = min(n_max, self.last_level)
        half = n_max // 2
        logs = self.log_products(n_max)
        s_half = math.exp(logs[half] / half)
        s_full = math.exp(logs[n_max] / n_max)
        if s_full / s_half > _DIVERGENCE_RATIO:
            return math.inf
        return s_full
