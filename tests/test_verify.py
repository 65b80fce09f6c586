"""Verification report machinery: statuses, schema, overrides."""
import dataclasses
import json

import numpy as np
import pytest

from solvstates import ConvergenceError, DomainError, SpectrumModel, TruncationError
from solvstates import intelligent
from solvstates import perelomov as pe
from solvstates import verify
from solvstates.cli import main
from solvstates.verify import SUITE_NAMES, run_suite
from solvstates.tolerances import DEFAULTS, resolve


def test_default_table_resolves_every_suite_case(pt22):
    report = run_suite("all", pt22)
    for case in report.cases:
        assert case.tolerance == DEFAULTS[case.name]


def test_resolve_rejects_unknown_name():
    with pytest.raises(DomainError):
        resolve("gk.not_a_case")


def test_resolve_override_wins():
    assert resolve("gk.tail_bound", 0.5) == 0.5
    assert resolve("gk.tail_bound") == DEFAULTS["gk.tail_bound"]


def test_full_run_passes_on_reference_model(pt22):
    report = run_suite("all", pt22)
    assert report.ok
    # harmonic_weights checks the harmonic spectrum only, and says so off it
    assert report.summary == {"pass": 31, "fail": 0, "skipped": 1}
    assert [c.name for c in report.cases if c.status == "SKIPPED"] == ["perelomov.harmonic_weights"]


# the verify zoo: every model kind, soft and asymmetric walls, and a 60-level table
_ZOO = {
    "harmonic": SpectrumModel.harmonic(),
    "well": SpectrumModel.square_well(),
    "pt22": SpectrumModel.poschl_teller(2.0, 2.0),
    "pt27_31": SpectrumModel.poschl_teller(2.7, 3.1),
    "pt12_12": SpectrumModel.poschl_teller(1.2, 1.2),
    "table60": SpectrumModel.custom([0.5 * n * (n + 3) + 0.01 * (n % 3) for n in range(60)]),
}


@pytest.mark.parametrize("name", sorted(_ZOO))
def test_alpha_moves_no_status(name):
    # every state and ladder a suite builds reads the one alpha its model carries
    model = _ZOO[name]
    want = [(case.name, case.status) for case in run_suite("all", model).cases]
    got = [(case.name, case.status) for case in run_suite("all", model.with_alpha(0.7)).cases]
    assert got == want


_WELL_PREMISE = "needs a Poschl-Teller well with kappa, kappa' > 1"


@pytest.mark.parametrize("name", ["harmonic", "well", "table60", "pt22", "pt27_31"])
def test_cases_skip_where_their_premise_fails(name):
    # each case checks the model it is given, or skips naming what it needs
    cases = {c.name: c for c in run_suite("all", _ZOO[name]).cases}
    position = [c for key, c in cases.items() if key.startswith("position.")]
    assert len(position) == 6
    weights = cases["perelomov.harmonic_weights"]
    if name.startswith("pt"):
        assert all(c.status == "PASS" for c in position)
    else:
        assert all(c.status == "SKIPPED" and c.reason == _WELL_PREMISE for c in position)
    if name == "harmonic":
        assert weights.status == "PASS"
    else:
        assert (weights.status, weights.reason) == ("SKIPPED", "needs the harmonic spectrum")


@pytest.mark.parametrize("model", [SpectrumModel.square_well(alpha=0.7),
                                   SpectrumModel.poschl_teller(2.7, 3.1, alpha=0.7)],
                         ids=["well", "pt:2.7,3.1"])
def test_disk_expansion_checks_the_reports_model(monkeypatch, model):
    # the expansion and the symbol both carry the model's e^{-i alpha E_n}
    seen = []
    expansion = intelligent.gis_disk_expansion

    def spy(*args, **kwargs):
        seen.append(kwargs.get("model"))
        return expansion(*args, **kwargs)

    monkeypatch.setattr(intelligent, "gis_disk_expansion", spy)
    (case,) = [c for c in run_suite("gis", model).cases if c.name == "gis.disk_expansion"]
    assert len(seen) == 1 and seen[0] is model
    assert case.status == "PASS", case


def test_suite_subset_runs_alone(pt_soft):
    report = run_suite("position", pt_soft)
    assert report.suite == "position"
    assert report.ok
    assert {c.name.split(".")[0] for c in report.cases} == {"position"}


def test_unknown_suite_rejected(pt22):
    with pytest.raises(DomainError):
        run_suite("nonsense", pt22)


def test_harmonic_skips_carry_reasons(harmonic):
    report = run_suite("all", harmonic)
    assert report.ok
    skipped = [c for c in report.cases if c.status == "SKIPPED"]
    assert skipped
    for case in skipped:
        assert case.reason
        assert case.residual is None


def test_absurd_tolerance_forces_failures(pt22):
    report = run_suite("gis", pt22, tol=1e-30)
    assert not report.ok
    assert report.summary["fail"] > 0
    failed = [c for c in report.cases if c.status == "FAIL"]
    for case in failed:
        assert case.residual > case.tolerance


def test_report_dict_schema(pt22):
    d = run_suite("gk", pt22).to_dict()
    assert d["schema"] == 1
    assert d["suite"] == "gk"
    assert set(d["summary"]) == {"pass", "fail", "skipped"}
    for case in d["cases"]:
        assert set(case) >= {"name", "status", "residual", "tolerance", "runtime_ms"}
        if case["status"] == "SKIPPED":
            assert case["reason"]


def test_all_runs_suites_in_declared_order(pt22):
    report = run_suite("all", pt22)
    prefixes = [c.name.split(".")[0] for c in report.cases]
    seen = []
    for p in prefixes:
        if not seen or seen[-1] != p:
            seen.append(p)
    assert tuple(seen) == SUITE_NAMES


def test_short_custom_table_degrades_to_skips():
    tiny = SpectrumModel.custom([0.0, 2.1, 4.6, 7.5, 10.8, 14.5])
    report = run_suite("all", tiny)
    assert report.ok
    assert report.summary["skipped"] >= 10
    gk_cases = [c for c in report.cases if c.name.startswith("gk.")]
    assert all(c.status == "SKIPPED" for c in gk_cases)
    # each gk case skips on its own premise: the two closed forms name theirs, the rest the state
    reasons = {c.name: c.reason for c in gk_cases}
    assert reasons.pop("gk.normalization_closed") == "no closed normalization"
    assert reasons.pop("gk.identity_moments") == "no closed measure"
    assert all(r.startswith("state construction failed: ") for r in reasons.values())


def test_default_model_is_reference_well():
    report = run_suite("ladder")
    assert report.ok


def _route_agreement(model):
    """The three-route agreement with one cn_series call per band of the series column."""
    r, top = 0.5, 8
    builders = (
        lambda: np.array([pe.cn_series(model, n, r) for n in range(top + 1)]),
        lambda: pe.cn_ode(model, r, top).values,
        lambda: pe.cn_closed(model, top, r).values,
    )
    columns = []
    for build in builders:
        try:
            columns.append(build())
        except (DomainError, TruncationError, ConvergenceError):
            continue
    if len(columns) < 2:
        return None
    worst = 0.0
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            scale = np.maximum(np.abs(columns[i]), 1e-300)
            worst = max(worst, float(np.max(np.abs(columns[i] - columns[j]) / scale)))
    return worst


def test_route_agreement_equals_the_per_band_series(all_models):
    # on a 16-level table no route certifies, so every column drops and the case skips
    short = SpectrumModel.custom(np.concatenate(([0.0], np.cumsum(np.linspace(1.0, 1.5, 15)))))
    for name, model in {**all_models, "short": short}.items():
        (case,) = [c for c in run_suite("perelomov", model).cases
                   if c.name == "perelomov.route_agreement"]
        want = _route_agreement(model)
        if want is None:
            assert case.status == "SKIPPED", name
        else:
            assert case.residual == want, name


def _verify_cli(capsys, *argv):
    code = main(["verify", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_case_runtimes_are_fractional_milliseconds(capsys):
    code, doc = _verify_cli(capsys, "--suite", "all", "--model", "pt:2,2")
    assert code == 0 and doc["schema"] == 1
    timed = [c for c in doc["cases"] if c["status"] != "SKIPPED"]
    assert len(timed) == 31  # all but perelomov.harmonic_weights, which needs harmonic
    for case in timed:
        assert isinstance(case["runtime_ms"], float)
        assert case["runtime_ms"] > 0.0, case["name"]


@pytest.mark.parametrize("power, scale", [(3, 1.0), (2, 10.0)])
def test_ladder_identities_are_measured_against_the_level_size(capsys, tmp_path, power, scale):
    # E_40 = 64,000 on the cubic table: one ulp of it is 7e-12, far above an absolute 1e-12
    table = tmp_path / "levels.txt"
    table.write_text("".join(f"{scale * n ** power!r}\n" for n in range(120)))
    code, doc = _verify_cli(capsys, "--suite", "ladder", "--model", f"custom:{table}")
    assert code == 0, doc
    assert all(c["status"] == "PASS" for c in doc["cases"])


@pytest.mark.parametrize("levels", ["cube", "pt22"])
def test_ladder_identities_still_fail_on_a_perturbed_band(monkeypatch, levels):
    model = (SpectrumModel.custom([float(n ** 3) for n in range(120)]) if levels == "cube"
             else SpectrumModel.poschl_teller(2.0, 2.0))
    exact = verify.build_ladder

    def perturbed(model, n_max):
        rep = exact(model, n_max)
        return dataclasses.replace(rep, lower_band=rep.lower_band * (1.0 + 1e-9))

    monkeypatch.setattr(verify, "build_ladder", perturbed)
    status = {c.name: c.status for c in run_suite("ladder", model).cases}
    assert status["ladder.number_operator"] == "FAIL"
    assert status["ladder.commutator_gaps"] == "FAIL"
