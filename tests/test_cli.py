"""Command line surface: subcommands, formats, exit codes."""
import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solvstates.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_state_csv_rows(capsys):
    code, out, _ = run(capsys, "state", "--model", "harmonic", "--family", "gk",
                       "--z", "1,0", "--nmax", "20")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 21
    mag0 = math.hypot(float(rows[0]["re"]), float(rows[0]["im"]))
    assert mag0 == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert float(rows[-1]["cum_mass"]) == pytest.approx(1.0, abs=1e-12)


def test_state_json_schema(capsys, tmp_path):
    out_file = tmp_path / "state.json"
    code, _, _ = run(capsys, "state", "--model", "pt:2,2", "--family", "gis",
                     "--z", "1,0", "--lambda", "2,0", "--nmax", "40",
                     "--format", "json", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == 1
    assert doc["family"] == "gis"
    assert len(doc["rows"]) == 41
    assert doc["rows"][0]["n"] == 0


def test_state_perelomov_family(capsys):
    code, out, _ = run(capsys, "state", "--model", "pt:3.5,1.2", "--family",
                       "perelomov", "--z", "0.5,0.2", "--nmax", "40")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert float(rows[-1]["cum_mass"]) == pytest.approx(1.0, abs=1e-10)


def test_lambda_minus_one_is_domain_rejection(capsys):
    code, _, err = run(capsys, "state", "--model", "pt:2,2", "--family", "gis",
                       "--z", "1,0", "--lambda", "-1,0", "--nmax", "30")
    assert code == 3
    assert "lambda_minus_one" in err


def test_left_halfplane_lambda_rejected(capsys):
    code, _, err = run(capsys, "state", "--model", "pt:2,2", "--family", "gis",
                       "--z", "1,0", "--lambda", "0,1", "--nmax", "30")
    assert code == 3
    assert "nonpositive_real_part" in err


def test_bad_model_grammar_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["state", "--model", "bogus", "--family", "gk", "--z", "1,0",
              "--nmax", "5"])
    assert exc.value.code == 2


def test_gis_requires_lambda(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["state", "--model", "pt:2,2", "--family", "gis", "--z", "1,0",
              "--nmax", "5"])
    assert exc.value.code == 2


def test_gk_rejects_lambda_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["state", "--model", "pt:2,2", "--family", "gk", "--z", "1,0",
              "--lambda", "2,0", "--nmax", "5"])
    assert exc.value.code == 2


def test_semantic_model_error_is_domain_rejection(capsys):
    code, _, err = run(capsys, "state", "--model", "pt:0.5,2", "--family", "gk",
                       "--z", "1,0", "--nmax", "5")
    assert code == 3
    assert "rejected" in err


def test_under_resolved_request_is_numerical_failure(capsys, tmp_path):
    table = tmp_path / "levels.txt"
    table.write_text("0\n2.1\n4.6\n7.5\n10.8\n14.5\n")
    code, _, err = run(capsys, "state", "--model", f"custom:{table}",
                       "--family", "gk", "--z", "0.8,0", "--nmax", "4")
    assert code == 4
    assert "numerical failure" in err


def test_custom_table_state(capsys, tmp_path):
    table = tmp_path / "levels.txt"
    table.write_text("0\n2.1\n4.6\n7.5\n10.8\n14.5\n")
    code, out, _ = run(capsys, "state", "--model", f"custom:{table}",
                       "--family", "gk", "--z", "0.1,0", "--nmax", "4")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_verify_json_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gk", "--model", "harmonic")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["summary"]["fail"] == 0


def test_verify_custom_skips_unmeasured_identity(capsys, tmp_path):
    table = tmp_path / "levels.txt"
    table.write_text("\n".join(str(0.5 * n * (n + 3)) for n in range(40)) + "\n")
    code, out, _ = run(capsys, "verify", "--suite", "gk", "--model",
                       f"custom:{table}")
    assert code == 0
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["cases"]}
    case = by_name["gk.identity_moments"]
    assert case["status"] == "SKIPPED"
    assert case["reason"] == "no closed measure"


def test_verify_absurd_tolerance_exits_four(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gis", "--tol", "1e-30")
    assert code == 4
    doc = json.loads(out)
    assert doc["summary"]["fail"] > 0


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


def test_sweep_theta_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "gis", "--grid",
                       "lambda-theta:-1.3:1.3:13")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 13
    for row in rows:
        theta = float(row["theta"])
        lhs = float(row["mean_f"])
        rhs = math.tan(theta) * float(row["mean_g"])
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-8)
        assert float(row["equality_gap"]) < 1e-7


def test_sweep_modulus_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "gis", "--grid",
                       "lambda-mod:0.5:2:4", "--model", "harmonic")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [float(r["lam_mod"]) for r in rows] == [0.5, 1.0, 1.5, 2.0]
    for row in rows:
        m = float(row["lam_mod"])
        assert float(row["var_x"]) / float(row["var_p"]) == pytest.approx(
            m * m, rel=1e-10)


def test_sweep_grid_grammar_errors(capsys):
    for grid in ("lambda-theta:0:1", "lambda-mod:1:2:0", "radius:0:1:5"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "gis", "--grid", grid])
        assert exc.value.code == 2


def test_sweep_is_deterministic(capsys):
    args = ("sweep", "--family", "gis", "--grid", "lambda-theta:0.1:0.9:5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("argv", [
    ("state", "--model", "pt:2,2", "--family", "gis", "--z", "1,0",
     "--lambda", "2,0", "--nmax", "200"),
    ("state", "--model", "pt:2,2", "--family", "gis", "--z", "0,2",
     "--lambda", "0.5,0.5", "--nmax", "200"),
    ("sweep", "--family", "gis", "--grid", "lambda-mod:0.1:0.3:3", "--z", "3,0"),
    ("sweep", "--family", "gis", "--grid", "lambda-mod:0.1:0.3:3", "--z", "3,0",
     "--model", "harmonic"),
])
def test_large_gis_requests_succeed(capsys, argv):
    # these once overflowed the nested-sum tables (exit 3 or a traceback)
    code, _, err = run(capsys, *argv)
    assert code == 0, err


def test_verify_gis_on_long_custom_table(capsys, tmp_path):
    rng = np.random.default_rng(280)
    table = tmp_path / "levels.txt"
    levels = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, 279))))
    table.write_text("\n".join(repr(float(e)) for e in levels) + "\n")
    code, out, _ = run(capsys, "verify", "--suite", "gis", "--model", f"custom:{table}")
    assert code == 0
    assert json.loads(out)["summary"]["fail"] == 0


def _run_quiet(argv):
    """Exit code of main(argv), with SystemExit read as its code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _inadmissible(lams, strengths) -> bool:
    return any(lam == -1 or lam.real <= 0 for lam in lams) or any(k <= 1 for k in strengths)


_strength = st.floats(min_value=0.5, max_value=4.0, exclude_min=True, exclude_max=True)
_models = st.one_of(
    st.sampled_from([("harmonic", ()), ("well", ())]),
    st.tuples(_strength, _strength).map(lambda k: (f"pt:{k[0]!r},{k[1]!r}", k)),
)
_coord = st.floats(min_value=-60.0, max_value=60.0)
# mostly admissible, so that most examples reach the numerics
_lambda = st.builds(complex, st.floats(min_value=-2.0, max_value=5.0),
                    st.floats(min_value=-5.0, max_value=5.0))


def _flag(value: complex) -> str:
    return f"{value.real!r},{value.imag!r}"


@settings(max_examples=300)
@example(model=("pt:2.0,2.0", (2.0, 2.0)), z=(1.0, 0.0), lam=-1.0 + 0.0j, nmax=30)
@given(model=_models, z=st.tuples(_coord, _coord), lam=_lambda,
       nmax=st.integers(min_value=0, max_value=800))
def test_state_gis_exit_code_contract(model, z, lam, nmax):
    name, strengths = model
    argv = ["state", "--model", name, "--family", "gis", "--z", _flag(complex(*z)),
            "--lambda", _flag(lam), "--nmax", str(nmax)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = _run_quiet(argv)
    assert code in (0, 2, 3, 4)
    if code == 3:
        assert _inadmissible([lam], strengths), argv


@settings(max_examples=300)
@given(model=_models, z=st.tuples(_coord, _coord),
       kind=st.sampled_from(["lambda-mod", "lambda-theta"]),
       bounds=st.tuples(st.floats(-1.0, 4.0), st.floats(-1.0, 4.0)),
       steps=st.integers(min_value=1, max_value=3))
def test_sweep_gis_exit_code_contract(model, z, kind, bounds, steps):
    name, strengths = model
    argv = ["sweep", "--family", "gis", "--grid", f"{kind}:{bounds[0]!r}:{bounds[1]!r}:{steps}",
            "--model", name, "--z", _flag(complex(*z))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = _run_quiet(argv)
    assert code in (0, 2, 3, 4)
    if code == 3:
        values = np.linspace(bounds[0], bounds[1], steps)
        lams = [np.exp(1j * v) if kind == "lambda-theta" else complex(v) for v in values]
        assert _inadmissible(lams, strengths), argv
