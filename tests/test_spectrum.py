"""Spectrum models: energy laws, gaps, factorial-like products, guards."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from solvstates import DomainError, SpectrumModel, TruncationError
from solvstates.intelligent import _nu_model


def test_harmonic_levels(harmonic):
    assert [harmonic.energy(n) for n in range(5)] == [0.0, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(DomainError):
        harmonic.nu  # no nu-indexed picture for equally spaced levels
    assert math.isinf(harmonic.radius_estimate())


@pytest.mark.parametrize("kappa,kappa_prime", [(2.0, 2.0), (3.5, 1.2), (4.0, 2.5)])
def test_pt_levels(kappa, kappa_prime):
    model = SpectrumModel.poschl_teller(kappa, kappa_prime)
    nu = kappa + kappa_prime
    assert model.nu == pytest.approx(nu)
    for n in range(8):
        assert model.energy(n) == pytest.approx(n * (n + nu))


def test_well_is_nu_two(well):
    # infinite well levels n(n+2) shifted to zero ground energy
    assert well.nu == pytest.approx(2.0)
    assert [well.energy(n) for n in range(4)] == [0.0, 3.0, 8.0, 15.0]


def test_well_is_poschl_teller_at_kappa_one(well):
    assert (well.kind, well.kappa, well.kappa_prime) == ("poschl_teller", 1.0, 1.0)
    assert _nu_model(2.0) == well
    with pytest.raises(DomainError):
        SpectrumModel.poschl_teller(1.0, 1.0)  # the public constructor keeps kappa > 1


def test_last_level(all_models):
    assert all_models["custom"].last_level == 39
    for name in ("harmonic", "pt22", "pt_soft", "well"):
        assert all_models[name].last_level == math.inf


@given(name=st.sampled_from(["harmonic", "pt22", "pt_soft", "well", "custom"]),
       n=st.integers(min_value=0, max_value=39), extra=st.integers(min_value=0, max_value=300))
def test_energy_is_a_row_of_energies(all_models, name, n, extra):
    model = all_models[name]
    top = min(n + extra, model.last_level)
    assert model.energy(n).hex() == float(model.energies(top)[n]).hex()


def test_log_products_match_direct_sum(pt_soft):
    logs = pt_soft.log_products(12)
    acc = 0.0
    for n in range(1, 13):
        acc += math.log(pt_soft.energy(n))
        assert logs[n] == pytest.approx(acc, rel=1e-13)
    assert logs[0] == 0.0


@given(st.integers(min_value=0, max_value=30))
def test_custom_energy_matches_table(custom_table, n):
    assert custom_table.energy(n) == pytest.approx(custom_table.table[n])


def test_table_end_is_a_truncation(custom_table):
    end = custom_table.last_level + 1
    for past_end in (lambda: custom_table.energy(end), lambda: custom_table.energies(end)):
        with pytest.raises(TruncationError, match="index 40 out of range") as err:
            past_end()
        assert err.value.suggested_n_max is None  # no larger n_max can help
    with pytest.raises(DomainError, match="level index must be >= 0"):
        custom_table.energy(-1)


def test_custom_guards():
    with pytest.raises(DomainError):
        SpectrumModel.custom([0.0, 1.0, 0.5])  # not increasing
    with pytest.raises(DomainError):
        SpectrumModel.custom([0.5, 1.0, 2.0])  # ground level must be zero
    with pytest.raises(DomainError):
        SpectrumModel.custom([0.0])  # too short
    with pytest.raises(DomainError, match="level 2 is not finite: nan"):
        SpectrumModel.custom([0.0, 1.0, math.nan, 3.0, 4.0])  # NaN compares false
    with pytest.raises(DomainError, match="level 2 is not finite: inf"):
        SpectrumModel.custom([0.0, 1.0, math.inf])


def test_pt_guards():
    for bad in ((1.0, 2.0), (2.0, 0.5), (0.0, 0.0)):
        with pytest.raises(DomainError):
            SpectrumModel.poschl_teller(*bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_parameters_are_refused_by_name(pt22, bad):
    with pytest.raises(DomainError, match=f"kappa={bad!r},"):
        SpectrumModel.poschl_teller(bad, 2.0)
    with pytest.raises(DomainError, match=f"kappa'={bad!r}"):
        SpectrumModel.poschl_teller(2.0, bad)
    with pytest.raises(DomainError, match=rf"alpha must be finite \(got {bad!r}\)"):
        pt22.with_alpha(bad)


def test_products_and_radius_match_a_per_level_loop(custom_table):
    models = [SpectrumModel.harmonic(), SpectrumModel.square_well(),
              SpectrumModel.poschl_teller(3.5, 1.2), custom_table]
    for model in models:
        n_max = min(200, model.last_level)
        logs = [0.0]
        for k in range(1, n_max + 1):
            logs.append(logs[-1] + math.log(model.energy(k)))
        half = n_max // 2
        s_half, s_full = math.exp(logs[half] / half), math.exp(logs[-1] / n_max)
        want = math.inf if s_full / s_half > 1.2 else s_full
        assert model.radius_estimate(n_max) == pytest.approx(want, rel=1e-14)


def test_custom_radius_finite():
    table = [0.0] + [1.0 - 0.5 ** n for n in range(1, 30)]
    model = SpectrumModel.custom(table)
    # bounded energies force a finite amplitude disk
    assert model.radius_estimate() < 1.5


def test_alpha_carried(pt22):
    shifted = SpectrumModel.poschl_teller(2.0, 2.0, alpha=0.7)
    assert shifted.alpha == pytest.approx(0.7)
    assert pt22.alpha == 0.0


def test_with_alpha_keeps_the_spectrum(pt22, custom_table):
    assert pt22.with_alpha(0.0) is pt22
    shifted = pt22.with_alpha(0.7)
    assert shifted == SpectrumModel.poschl_teller(2.0, 2.0, alpha=0.7)
    assert shifted.with_alpha(0.0) == pt22
    assert custom_table.with_alpha(0.3).table == custom_table.table
