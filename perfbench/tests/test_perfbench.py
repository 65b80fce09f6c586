"""The benchmark's own checks: tiny runs of each workload, oracles that reject
corrupted outputs, tracing that reaches every binding, and the compare step.

    python3 -m pytest -q perfbench/tests
"""
import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import compare
import inputs
import oracles
import run
import tracing
import worker
from solvstates import cli
from solvstates.tolerances import DEFAULTS

from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _bench(workload, trace, seconds=1):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


# -- tiny runs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0


def test_smoke_traced_run_prints_every_per_layer_metric():
    result = _bench("large-ladder", trace=1, seconds=2)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert result["metrics"]["fockspace.uncertainty.calls"]["value"] >= 1


def test_benchmark_refuses_a_directory_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "gis-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


# -- inputs -------------------------------------------------------------------


def test_inputs_follow_the_seed():
    for workload in inputs.WORKLOADS:
        a = inputs.generate(workload, 3, blocks=4)
        assert inputs.digest(a) == inputs.digest(inputs.generate(workload, 3, blocks=4))
        assert inputs.digest(a) != inputs.digest(inputs.generate(workload, 4, blocks=4))


def test_strata_cover_every_stratum_once():
    import random
    values = inputs._strata(random.Random(1), 8)
    assert sorted(int(v * 8) for v in values) == list(range(8))


# -- oracles reject corrupted outputs ---------------------------------------------


def test_state_oracle_rejects_a_flipped_coefficient_sign():
    argv = ["state", "--model", "pt:2,2", "--family", "gis", "--z", "0.7,0.2",
            "--lambda", "0.8,0.3", "--nmax", "60"]
    text = _cli(argv)
    tol = DEFAULTS["gis.closed_vs_recurrence"]
    assert oracles.check_gis_state(text, "pt:2,2", "0.7,0.2", "0.8,0.3", 60, tol) is None
    lines = text.splitlines()
    row = lines[4].split(",")
    row[1] = repr(-float(row[1]))
    bad = "\n".join(lines[:4] + [",".join(row)] + lines[5:])
    assert oracles.check_gis_state(bad, "pt:2,2", "0.7,0.2", "0.8,0.3", 60, tol) == \
        "state_eigen_residual"


def test_state_oracle_rejects_a_lost_probability():
    text = _cli(["state", "--model", "harmonic", "--family", "gis", "--z", "1,0",
                 "--lambda", "0.5,0", "--nmax", "60"])
    lines = text.splitlines()
    row = lines[1].split(",")
    row[3] = repr(float(row[3]) * 0.9)
    bad = "\n".join([lines[0], ",".join(row)] + lines[2:])
    assert oracles.check_gis_state(bad, "harmonic", "1,0", "0.5,0", 60, 1e-10) == \
        "state_probability_sum"


def test_sweep_oracle_rejects_perturbed_variance_and_gap():
    grid = "lambda-mod:0.5:1.5:3"
    text = _cli(["sweep", "--family", "gis", "--grid", grid, "--model", "pt:2,2",
                 "--z", "0.5,0"])
    ratio, gap = DEFAULTS["gis.variance_ratio"], DEFAULTS["gis.rs_equality"]
    assert oracles.check_sweep(text, grid, ratio, gap) is None
    header, data = oracles._rows(text)

    def render(rows):
        return "\n".join([",".join(header)] + [",".join(repr(float(v)) for v in r) for r in rows])

    worse = data.copy()
    worse[1, 1] *= 1.0 + 1e-6
    assert oracles.check_sweep(render(worse), grid, ratio, gap) == "sweep_variance_ratio"
    worse = data.copy()
    worse[2, 5] = 1e-6 * worse[2, 1] * worse[2, 2]
    assert oracles.check_sweep(render(worse), grid, ratio, gap) == "sweep_equality_gap"


def test_verify_oracle_rejects_a_failed_case():
    text = _cli(["verify", "--suite", "specfun", "--model", "harmonic"])
    assert oracles.check_verify(text, "specfun") is None
    report = json.loads(text)
    report["cases"][0]["status"] = "FAIL"
    assert oracles.check_verify(json.dumps(report), "specfun") == "verify_fail_case"


def test_ladder_oracle_rejects_perturbed_moments():
    op = {"kind": "ladder", "family": "gk", "model": "harmonic", "z": [3.0, 1.0]}
    vector, report = worker._run_ladder(op)
    moments = {k: getattr(report, k) for k in
               ("mean_x", "mean_p", "var_x", "var_p", "mean_g", "mean_f")}
    z = complex(3.0, 1.0)
    assert oracles.check_ladder("gk", "harmonic", z, vector.coeffs, moments) is None
    assert oracles.check_ladder("gk", "harmonic", z, vector.coeffs,
                                dict(moments, var_x=moments["var_x"] * (1 + 1e-6))) == \
        "ladder_harmonic_variance"
    shifted = vector.coeffs * np.sqrt(np.arange(vector.coeffs.size) + 1.0)
    assert oracles.check_ladder("gk", "harmonic", z, shifted, moments) == \
        "ladder_harmonic_energy"
    assert oracles.check_ladder("perelomov", "pt:2,2", z, vector.coeffs,
                                dict(moments, var_x=0.1, var_p=0.1)) == "ladder_rs_inequality"


# -- tracing ------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_nests_spans():
    import solvstates
    from solvstates import fockspace, intelligent, verify

    originals = (fockspace.uncertainty, cli.main, verify.run_suite)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = fockspace.uncertainty
        assert wrapped is not originals[0]
        for module in (solvstates, cli, intelligent, verify):
            assert module.uncertainty is wrapped
        assert tracer.unwrapped_bindings() == []
        _cli(["sweep", "--family", "gis", "--grid", "lambda-theta:0:0.5:2", "--model",
              "pt:2,2", "--z", "1,0"])
        _cli(["verify", "--suite", "ladder", "--model", "harmonic"])
    finally:
        tracer.uninstall()
    assert (fockspace.uncertainty, cli.main, verify.run_suite) == originals
    assert tracer.calls["cli.main"] == 2
    assert tracer.calls["fockspace.uncertainty"] == 2
    assert tracer.calls["intelligent.gis_state"] == 2
    assert tracer.counters["intelligent.gis_state.attempts"] >= 2
    assert tracer.counters["fockspace.dense_bytes_computed"] > 0
    assert "ladder" in tracer.suite_self_s
    by_id = {span[0]: span for span in tracer.spans}
    roots = [s for s in tracer.spans if s[4] is None]
    assert [s[1] for s in roots] == ["cli.main", "cli.main"]
    for span_id, name, start, end, parent, op in tracer.spans:
        if parent is not None:
            outer = by_id[parent]
            assert outer[2] <= start <= end <= outer[3]
    total = sum(end - start for _, _, start, end, _, _ in roots)
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)


# -- reporting and compare -------------------------------------------------------


def test_tail_latency_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    value, pct, beyond = run.tail_latency(values)
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(v > value for v in values) == 10


def test_compare_marks_wide_spread_unresolved():
    assert compare.verdict([1.0, 1.0, 1.0, 1.0], [1.5, 1.5, 1.5, 1.5], 0.1, "higher") == \
        "better"
    assert compare.verdict([1.0, 1.0, 1.0, 1.0], [0.5, 0.5, 0.5, 0.5], 0.1, "higher") == \
        "worse"
    assert compare.verdict([1.0, 1.01, 0.99, 1.0], [1.0, 1.02, 0.98, 1.0], 0.1, "lower") == \
        "same"
    assert compare.verdict([1.0, 2.0, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0], 0.1, "lower") == \
        "unresolved"


def test_verify_suites_keep_away_from_the_inputs_that_break_the_gis_suite():
    ops = inputs.generate("verify-suites", 5, blocks=8)
    assert len(ops) == 4 * 8
    for op in ops:
        assert [call["argv"][2] for call in op["calls"]] == list(inputs.SUITES)
        if "table" in op:
            assert inputs.VERIFY_LEVELS[0] <= len(op["table"]) <= inputs.VERIFY_LEVELS[1]
        model = op["calls"][0]["argv"][4]
        if model.startswith("pt:"):
            assert sum(float(k) for k in model[3:].split(",")) > 3.0
    broken = [op for op in inputs.generate("gis-sweep", 5, blocks=2)
              if op["calls"][0]["argv"][0] == "verify"]
    assert len(broken) == 4
    for op in broken:
        if "table" in op:
            assert inputs.BROKEN_GIS_LEVELS[0] <= len(op["table"]) <= inputs.BROKEN_GIS_LEVELS[1]
