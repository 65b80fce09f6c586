"""Command line surface: subcommands, formats, exit codes."""
import cmath
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solvstates import GISParameters, SpectrumModel, cli, gis_state, perelomov_state, verify
from solvstates.cli import main
from solvstates.tolerances import DEFAULTS, SIZE_CEILING


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


def test_gis_without_nmax_chooses_its_length(capsys):
    code, out, _ = run(capsys, "state", "--model", "pt:2,2", "--family", "gis", "--z", "1,0",
                       "--lambda", "2,0")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    auto = gis_state(SpectrumModel.poschl_teller(2.0, 2.0), GISParameters(1.0, 2.0))
    assert len(rows) == auto.n_max + 1
    assert float(rows[-1]["cum_mass"]) == pytest.approx(1.0, abs=1e-12)


def test_state_without_nmax_chooses_the_last_band(capsys):
    code, out, _ = run(capsys, "state", "--model", "pt:3.5,1.2", "--family",
                       "perelomov", "--z", "0.5,0.2")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    auto = perelomov_state(SpectrumModel.poschl_teller(3.5, 1.2), 0.5 + 0.2j)
    assert len(rows) == auto.n_max + 1
    assert float(rows[-1]["cum_mass"]) == pytest.approx(1.0, abs=1e-12)


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


def test_verify_gis_on_soft_poschl_teller(capsys):
    # nu = 2.4: the Laplace bridge integrand has a z^2.4 kink at 0
    code, out, _ = run(capsys, "verify", "--suite", "gis", "--model", "pt:1.2,1.2")
    assert code == 0
    assert json.loads(out)["summary"]["fail"] == 0


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


@pytest.mark.parametrize("argv", [
    ("--grid", "lambda-mod:0.115545:0.377359:9", "--model", "well", "--z=0.154640,-0.243315"),
    ("--grid", "lambda-mod:0.141090:0.941456:7", "--model", "harmonic", "--z=-0.660986,2.834716"),
])
def test_sweep_rows_keep_the_variance_ratio_law(capsys, argv):
    # rows that once passed the mass certificate and missed var_x / var_p = |lambda|^2 by
    # up to 2.9e-7: the variance certificate grows their states
    code, out, err = run(capsys, "sweep", "--family", "gis", *argv)
    assert code == 0, err
    for row in csv.DictReader(out.splitlines()):
        target = float(row["lam_mod"]) ** 2
        assert abs(float(row["var_x"]) / float(row["var_p"]) / target - 1.0) <= 1e-9, row


def test_moments_past_the_float_range_are_a_numerical_failure(capsys):
    # on pt:1e200,2, <G> is near 1e200 and delta^2 overflows: refused, not a traceback
    code, _, err = run(capsys, "sweep", "--family", "gis", "--grid", "lambda-mod:0.5:2:3",
                       "--model", "pt:1e200,2")
    assert code == 4
    assert "var_x var_p - delta^2 = inf are not all finite" in err


@pytest.mark.parametrize("family", ["gk", "perelomov", "gis"])
def test_overflowing_nu_is_a_numerical_failure(capsys, family):
    # both strengths are legal; their sum is not a float
    code, _, err = run(capsys, "state", "--model", "pt:1e308,1e308", "--family", family,
                       "--z", "1,0", *(("--lambda", "2,0") if family == "gis" else ()))
    assert code == 4
    assert "nu = kappa + kappa' = 1e+308 + 1e+308 overflows" in err


@pytest.mark.parametrize("argv", [("--family", "gk"), ("--family", "gis", "--lambda", "2,0")])
def test_energies_past_the_float_range_are_a_numerical_failure(capsys, argv):
    # nu = 2e307 is a float, E_n = n (n + nu) is not from n = 9 on
    code, _, err = run(capsys, "state", "--model", "pt:1e307,1e307", "--z", "1,0", *argv)
    assert code == 4
    assert "= n (n + nu) at nu = 2e+307 overflows" in err


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


@pytest.mark.parametrize("content", ["0\n1.5\nabc\n3\n", None], ids=["non-numeric", "missing"])
def test_unreadable_energy_table_is_usage_error(capsys, tmp_path, content):
    table = tmp_path / "levels.txt"
    if content is not None:
        table.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "ladder", "--model", f"custom:{table}"])
    assert exc.value.code == 2
    assert "cannot read energy table" in capsys.readouterr().err


def test_inadmissible_energy_table_is_domain_rejection(capsys, tmp_path):
    table = tmp_path / "levels.txt"
    table.write_text("0\n2\n1\n")
    code, _, err = run(capsys, "verify", "--suite", "ladder", "--model", f"custom:{table}")
    assert code == 3
    assert "strictly increasing" in err
    table.write_text("0\n1\nnan\n3\n")
    code, _, err = run(capsys, "state", "--model", f"custom:{table}", "--family", "gk",
                       "--z", "0.5,0", "--nmax", "2")
    assert code == 3
    assert "level 2 is not finite: nan" in err


def test_energy_table_file_verifies_like_the_levels_it_holds(capsys, tmp_path, monkeypatch):
    levels = [0.5 * n * (n + 3) for n in range(40)]
    table = tmp_path / "levels.txt"
    table.write_text("\n".join(f" {e!r} " for e in levels) + "\n\n")
    # freeze the case timer so the two reports can be compared byte for byte
    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    code, out, _ = run(capsys, "verify", "--suite", "perelomov", "--model", f"custom:{table}")
    assert code == 0
    report = verify.run_suite("perelomov", SpectrumModel.custom(levels))
    assert out == json.dumps(report.to_dict(), indent=2) + "\n"


@pytest.mark.parametrize("model", ["harmonic", "pt:2,2", "well"])
def test_sweep_alpha_keeps_the_intelligent_state_laws(capsys, model):
    # the ladder of every row is built on the state's model, alpha included
    code, out, _ = run(capsys, "sweep", "--family", "gis", "--grid", "lambda-mod:0.5:2:3",
                       "--z", "1,0.3", "--model", model, "--alpha", "0.7")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    for row in rows:
        lam2 = float(row["lam_mod"]) ** 2
        var_x, var_p = float(row["var_x"]), float(row["var_p"])
        assert abs(var_x / var_p - lam2) / lam2 <= DEFAULTS["gis.variance_ratio"], row
        assert abs(float(row["equality_gap"])) / (var_x * var_p) <= DEFAULTS["gis.rs_equality"]


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # flags set on one call (--alpha, --format, --z) must not carry into the next
    calls = [
        ("state", "--model", "pt:2,2", "--family", "gk", "--z", "1,0.5", "--nmax", "20",
         "--alpha", "0.3", "--format", "json"),
        ("verify", "--suite", "specfun", "--model", "pt:2.7,3.1"),
        ("state", "--model", "pt:2,2", "--family", "gk", "--z", "1,0.5", "--nmax", "20"),
        ("sweep", "--family", "gis", "--grid", "lambda-mod:0.5:2:3", "--z", "0.5,0",
         "--format", "json"),
        ("state", "--model", "well", "--family", "perelomov", "--z", "0.4,0", "--nmax", "30"),
        ("sweep", "--family", "gis", "--grid", "lambda-theta:-0.5:0.5:3"),
        ("state", "--model", "pt:2,2", "--family", "gk", "--z", "1,0", "--nmax", "3"),
        ("verify", "--suite", "specfun", "--model", "pt:2.7,3.1", "--tol", "1e-30"),
        ("verify", "--suite", "specfun", "--model", "pt:2.7,3.1"),
    ]
    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))

    def outputs():
        return [run(capsys, *argv) for argv in calls]

    shared = outputs()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = outputs()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 4, 4, 0]
    assert shared[0][1] != shared[2][1]


def _python(code, *args):
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_mpmath_unloaded():
    done = _python("import sys, solvstates.cli; print('mpmath' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    "state --family gk --model harmonic --z=1,0",
    "verify --suite all --model harmonic",
    "sweep --family gis --grid lambda-mod:0.5:2:3 --model well --z=1,0.5",
])
def test_commands_run_without_mpmath(argv):
    # mpmath is a test oracle only: with every import of it failing, each command still runs
    done = _python("import sys; sys.modules['mpmath'] = None\n"
                   "from solvstates.cli import main; sys.exit(main(sys.argv[1:]))", *argv.split())
    assert done.returncode == 0, done.stderr


def _run_quiet(argv):
    """Exit code of main(argv), with SystemExit read as its code; output is dropped, since
    an automatic length may print a state of 10^5 bands and more."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("named,argv", [
    ("z = (nan+0j)", "state --model pt:2,2 --family gk --z=nan,0"),
    ("z = (1+nanj)", "state --model harmonic --family gk --z=1,nan"),
    ("z = (nan+0j)", "state --model pt:2,2 --family perelomov --z=nan,0"),
    ("lambda=(inf+0j)", "state --model harmonic --family gis --z=1,0 --lambda inf,0 --nmax 40"),
    ("kappa=inf", "state --model pt:inf,2 --family gk --z=1,0"),
    ("alpha must be finite (got inf)", "state --model well --family gk --z=1,0 --alpha inf"),
    ("alpha must be finite (got nan)", "state --model well --family gk --z=1,0 --alpha nan"),
    ("grid bounds must be finite (got 0.5, inf)", "sweep --family gis --grid lambda-mod:0.5:inf:3"),
])
def test_nonfinite_input_is_refused_by_name(capsys, named, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == 3 and named in err, err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-inf"])
def test_tol_override_must_be_finite_and_nonnegative(capsys, tol):
    code, out, err = run(capsys, "verify", "--suite", "position", "--model", "harmonic",
                         f"--tol={tol}")
    assert code == 3 and out == "", out
    assert f"--tol must be finite and >= 0 (got {float(tol)!r})" in err, err


def test_tol_override_zero_is_legal(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "specfun", "--tol", "0")
    assert code in (0, 4)
    assert {case["tolerance"] for case in json.loads(out)["cases"]} == {0.0}


def test_oversize_request_is_refused_before_it_allocates():
    # under a 1.5 GB address-space limit an array of 2e9 bands or grid points could not
    # even be asked for: each request is refused by name (exit 3) before any is made
    probes = [
        ("n_max = 2000000000", "state --model harmonic --family gk --z=1,0 --nmax 2000000000"),
        ("n_max = 2000000000", "state --model pt:2,2 --family perelomov --z=1,0 --nmax 2000000000"),
        ("n_max = 2000000000",
         "state --model harmonic --family gis --z=1,0 --lambda 2,0 --nmax 2000000000"),
        ("grid STEPS = 2000000000", "sweep --family gis --grid lambda-mod:0.5:2:2000000000"),
    ]
    code = ("import contextlib, io, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1500 * 2 ** 20, 1500 * 2 ** 20))\n"
            "from solvstates.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
            "        exit_code = main(argv.split())\n"
            "    print(exit_code, err.getvalue().strip())\n")
    done = _python(code, *(argv for _, argv in probes))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(probes)
    for (named, _), line in zip(probes, lines):
        assert line.startswith("3 rejected: ") and f"{named} is past the size ceiling" in line, line


def _inadmissible(lams, strengths, *labels) -> bool:
    """A squeezing parameter or strength out of range, or any non-finite input."""
    if not all(cmath.isfinite(value) for value in (*lams, *strengths, *labels)):
        return True
    return any(lam == -1 or lam.real <= 0 for lam in lams) or any(k <= 1 for k in strengths)


def _or_nonfinite(finite):
    """finite, or now and then nan, inf or -inf: every one is refused where it enters."""
    return st.integers(0, 31).flatmap(
        lambda k: st.sampled_from([math.nan, math.inf, -math.inf]) if k == 31 else finite)


def _or_strong(finite):
    """finite, or now and then a strength log-uniform in [1, 1e300]."""
    strong = st.floats(min_value=0.0, max_value=300.0).map(lambda exponent: 10.0 ** exponent)
    return st.integers(0, 15).flatmap(lambda k: strong if k == 15 else finite)


_strength = _or_nonfinite(_or_strong(
    st.floats(min_value=0.5, max_value=4.0, exclude_min=True, exclude_max=True)))
_models = st.one_of(
    st.sampled_from([("harmonic", ()), ("well", ())]),
    st.tuples(_strength, _strength).map(lambda k: (f"pt:{k[0]!r},{k[1]!r}", k)),
)
def _or_extreme(finite):
    """finite, or now and then a modulus log-uniform in [1e-300, 1e300] with either sign."""
    extreme = st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
                        st.floats(min_value=-300.0, max_value=300.0), st.sampled_from([1.0, -1.0]))
    return st.integers(0, 15).flatmap(lambda k: extreme if k == 15 else finite)


_coord = _or_nonfinite(_or_extreme(st.floats(min_value=-60.0, max_value=60.0)))


def _or_oversize(sizes):
    """sizes, or now and then one past the size ceiling, up to 2^31 (refused with exit 3)."""
    return st.integers(0, 31).flatmap(
        lambda k: st.integers(min_value=SIZE_CEILING + 1, max_value=2 ** 31) if k == 31 else sizes)


_nmax = _or_oversize(st.integers(min_value=0, max_value=800))
# mostly admissible, so that most examples reach the numerics
_lambda = st.builds(complex, _or_nonfinite(st.floats(min_value=-2.0, max_value=5.0)),
                    _or_nonfinite(st.floats(min_value=-5.0, max_value=5.0)))


def _flag(value: complex) -> str:
    return f"{value.real!r},{value.imag!r}"


def _perturbed_linear(levels, spread, seed):
    gaps = 1.0 + spread * np.random.default_rng(seed).random(levels - 1)
    return tuple(np.concatenate(([0.0], np.cumsum(gaps))).tolist())


def _ladder_copy(levels, kappa, kappa_prime):
    ns = np.arange(levels, dtype=float)
    return tuple((ns * (ns + kappa + kappa_prime)).tolist())


_levels = st.integers(min_value=12, max_value=400)
_ladder_strength = st.floats(min_value=1.0, max_value=4.0, exclude_min=True)
# (levels, None): an energy table, written to a file for the custom: model flag
_tables = st.one_of(
    st.builds(_perturbed_linear, _levels, st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1)),
    st.builds(_ladder_copy, _levels, _ladder_strength, _ladder_strength),
).map(lambda levels: (levels, None))


def _run_model(model, argv):
    """Exit code and argv of argv[0] --model <drawn model> argv[1:], RuntimeWarning as error.

    A table (strengths None) is written to a file for the custom: model flag.
    """
    name, strengths = model
    with tempfile.TemporaryDirectory() as tmp:
        if strengths is None:
            path = os.path.join(tmp, "levels.txt")
            with open(path, "w") as fh:
                fh.write("\n".join(repr(level) for level in name))
            name = f"custom:{path}"
        argv = [argv[0], "--model", name, *argv[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return _run_quiet(argv), argv


# a 40-level table: --nmax 60 runs past its end; an automatic length stops at band 38
_TABLE40 = (_perturbed_linear(40, 0.35, 20260814), None)


@settings(max_examples=300)
@example(model=("pt:2.0,2.0", (2.0, 2.0)), z=(1.0, 0.0), lam=-1.0 + 0.0j, nmax=30)
@example(model=_TABLE40, z=(0.5, 0.0), lam=2.0 + 0.0j, nmax=60)
@example(model=("harmonic", ()), z=(1.0, 0.0), lam=2.0 + 0.0j, nmax=2 ** 31)
@example(model=("pt:2.0,2.0", (2.0, 2.0)), z=(1.0, 0.0), lam=2.0 + 0.0j, nmax=None)
@example(model=_TABLE40, z=(0.5, 0.0), lam=0.2 + 0.0j, nmax=None)
@example(model=("harmonic", ()), z=(1e4, 0.0), lam=2.0 + 0.0j, nmax=None)
@given(model=_models | _tables, z=st.tuples(_coord, _coord), lam=_lambda, nmax=st.none() | _nmax)
def test_state_gis_exit_code_contract(model, z, lam, nmax):
    argv = ["state", "--family", "gis", "--z", _flag(complex(*z)), "--lambda", _flag(lam)]
    if nmax is not None:
        argv += ["--nmax", str(nmax)]
    code, argv = _run_model(model, argv)
    assert code in (0, 2, 3, 4)
    if code == 3 and (nmax or 0) <= SIZE_CEILING:
        assert _inadmissible([lam], model[1] or (), complex(*z)), argv


@settings(max_examples=300)
@example(model=("harmonic", ()), z=(5.0, 0.0), nmax=10)
@example(model=_TABLE40, z=(0.5, 0.0), nmax=60)
@example(model=("harmonic", ()), z=(1e200, 0.0), nmax=None)
@example(model=("harmonic", ()), z=(150.0, 0.0), nmax=None)
@example(model=("pt:2.0,2.0", (2.0, 2.0)), z=(1.0, 0.0), nmax=2 ** 31)
@example(model=("pt:1e+308,1e+308", (1e308, 1e308)), z=(1.0, 0.0), nmax=None)
@given(model=_models | _tables, z=st.tuples(_coord, _coord), nmax=st.none() | _nmax)
def test_state_gk_exit_code_contract(model, z, nmax):
    argv = ["state", "--family", "gk", "--z", _flag(complex(*z))]
    if nmax is not None:
        argv += ["--nmax", str(nmax)]
    code, argv = _run_model(model, argv)
    assert code in (0, 2, 3, 4)
    if code == 3 and (nmax or 0) <= SIZE_CEILING:
        name, strengths = model
        if strengths is None and cmath.isfinite(complex(*z)):
            # the one inadmissible finite input on a table: |z|^2 at or past its series radius
            r = abs(complex(*z))
            assert r * r >= SpectrumModel.custom(name).radius_estimate(), argv
        else:
            assert _inadmissible([], strengths or (), complex(*z)), argv


@settings(max_examples=300)
@example(model=("pt:2.0,2.0", (2.0, 2.0)), z=(20.0, 0.0), nmax=10)
@example(model=("pt:2.0,2.0", (2.0, 2.0)), z=(20.0, 0.0), nmax=None)
@example(model=(_ladder_copy(400, 2.0, 2.0), None), z=(0.5, 0.0), nmax=None)
@example(model=("harmonic", ()), z=(1e200, 0.0), nmax=None)
@example(model=("pt:2.0,2.0", (2.0, 2.0)), z=(-1e200, 3.0), nmax=None)
@example(model=("harmonic", ()), z=(1.0, 0.0), nmax=2 ** 31)
@example(model=("pt:1e+308,1e+308", (1e308, 1e308)), z=(1.0, 0.0), nmax=None)
@example(model=("pt:9.074316606177094e+119,1.0316930944780123",
                (9.074316606177094e119, 1.0316930944780123)),
         z=(-6.870216817740281e-28, 2.701340081058529e-230), nmax=653)
@given(model=_models | _tables, z=st.tuples(_coord, _coord), nmax=st.none() | _nmax)
def test_state_perelomov_exit_code_contract(model, z, nmax):
    argv = ["state", "--family", "perelomov", "--z", _flag(complex(*z))]
    if nmax is not None:
        argv += ["--nmax", str(nmax)]
    code, argv = _run_model(model, argv)
    # a table is admissible by construction: on one, only a non-finite z (or an
    # oversize --nmax) may exit 3
    assert code in (0, 2, 3, 4)
    if code == 3 and (nmax or 0) <= SIZE_CEILING:
        assert _inadmissible([], model[1] or (), complex(*z)), argv


@settings(max_examples=300)
@example(model=_TABLE40, z=(0.5, 0.0), kind="lambda-mod", bounds=(0.5, 2.0), steps=3,
         alpha=None)
@example(model=("pt:2.0,2.0", (2.0, 2.0)), z=(1.0, 0.3), kind="lambda-mod", bounds=(0.5, 2.0),
         steps=3, alpha=0.7)
@example(model=("harmonic", ()), z=(1.0, 0.0), kind="lambda-mod", bounds=(0.5, 2.0),
         steps=2 ** 31, alpha=None)
@example(model=("pt:1e+200,2.0", (1e200, 2.0)), z=(1.0, 0.0), kind="lambda-mod",
         bounds=(0.5, 2.0), steps=3, alpha=None)
@given(model=_models | _tables, z=st.tuples(_coord, _coord),
       kind=st.sampled_from(["lambda-mod", "lambda-theta"]),
       bounds=st.tuples(_or_nonfinite(st.floats(-1.0, 4.0)), _or_nonfinite(st.floats(-1.0, 4.0))),
       steps=_or_oversize(st.integers(min_value=1, max_value=3)),
       alpha=st.none() | _or_nonfinite(st.floats(min_value=-10.0, max_value=10.0)))
def test_sweep_gis_exit_code_contract(model, z, kind, bounds, steps, alpha):
    argv = ["sweep", "--family", "gis", "--grid", f"{kind}:{bounds[0]!r}:{bounds[1]!r}:{steps}",
            "--z", _flag(complex(*z))]
    if alpha is not None:
        argv.append(f"--alpha={alpha!r}")  # one token, so that -inf is not read as an option
    code, argv = _run_model(model, argv)
    assert code in (0, 2, 3, 4)
    if code == 3 and steps <= SIZE_CEILING:
        labels = (complex(*z), *bounds, alpha or 0.0)
        values = np.linspace(bounds[0], bounds[1], steps) if all(map(math.isfinite, bounds)) else []
        lams = [np.exp(1j * v) if kind == "lambda-theta" else complex(v) for v in values]
        assert _inadmissible(lams, model[1] or (), *labels), argv


@settings(max_examples=60)
@example(model=_TABLE40, tol=math.nan)
@given(model=_tables, tol=st.none() | st.sampled_from([math.nan, math.inf, -1.0, 0.0]))
def test_verify_exit_code_contract_on_tables(model, tol):
    # a table is admissible by construction: a report (exit 0 or 4) or a usage error,
    # never a domain rejection but of a --tol that is not finite and >= 0; a traceback
    # or RuntimeWarning would escape _run_model
    argv = ["verify", "--suite", "all"] + ([] if tol is None else [f"--tol={tol!r}"])
    code, argv = _run_model(model, argv)
    assert code in ((0, 2, 4) if tol is None or tol == 0.0 else (2, 3)), argv
