import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from solvstates import SpectrumModel

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def harmonic():
    return SpectrumModel.harmonic()


@pytest.fixture(scope="session")
def pt22():
    return SpectrumModel.poschl_teller(2.0, 2.0)


@pytest.fixture(scope="session")
def pt_soft():
    return SpectrumModel.poschl_teller(3.5, 1.2)


@pytest.fixture(scope="session")
def well():
    return SpectrumModel.square_well()


def _table_levels(count):
    # strictly increasing, zero ground level, mildly irregular gaps; a longer table
    # draws more of the same stream, so its first levels are the shorter one's
    rng = np.random.default_rng(20260814)
    gaps = 1.0 + 0.35 * rng.random(count - 1)
    return np.concatenate(([0.0], np.cumsum(gaps)))


@pytest.fixture(scope="session")
def custom_table():
    return SpectrumModel.custom(_table_levels(40))


@pytest.fixture(scope="session")
def long_table():
    """custom_table continued to 240 levels: an oracle for what its end cuts off."""
    return SpectrumModel.custom(_table_levels(240))


@pytest.fixture(scope="session")
def all_models(harmonic, pt22, pt_soft, well, custom_table):
    return {
        "harmonic": harmonic,
        "pt22": pt22,
        "pt_soft": pt_soft,
        "well": well,
        "custom": custom_table,
    }


@pytest.fixture(scope="session")
def dense_lowering():
    """Builds the dense twisted lowering matrix, a-[n-1, n] = sqrt(E_n) e^{i alpha (E_n - E_{n-1})}
    on bands 0..n_max, one entry at a time from the model's levels and alpha alone: an oracle
    for the ladder's band that does not read it."""
    def build(model, n_max):
        energies = model.energies(n_max).tolist()
        a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        for n in range(1, n_max + 1):
            twist = cmath.exp(1j * model.alpha * (energies[n] - energies[n - 1]))
            a[n - 1, n] = math.sqrt(energies[n]) * twist
        return a

    return build
