"""Independent checks of each operation's output.

None of these calls into ``solvstates``: they re-derive what the output must
satisfy from the printed numbers and from the model energies computed here.
Each check returns ``None`` when the output passes, or a short reason.
The tolerances passed in are the package's own (``tolerances.DEFAULTS``);
the ladder checks use the constants below.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# ladder workload: relative slack on the Robertson-Schrodinger inequality,
# and how closely a harmonic eigenstate of a- must give var = 1/2, <H> = |z|^2
RS_SLACK = 1e-9
HARMONIC_TOL = 1e-8
# state rows: the printed probabilities must sum to one this closely
PROB_SUM_TOL = 1e-10


def energies(model: str, n_top: int) -> np.ndarray:
    """E_0 .. E_{n_top} for the model specs the workloads use."""
    n = np.arange(n_top + 1, dtype=float)
    if model == "harmonic":
        return n
    if model == "well":
        return n * (n + 2.0)
    if model.startswith("pt:"):
        kappa, kappa_prime = (float(v) for v in model[3:].split(","))
        return n * (n + kappa + kappa_prime)
    raise ValueError(f"no energies for model {model!r}")


def parse_complex(text: str) -> complex:
    re_part, im_part = text.split(",")
    return complex(float(re_part), float(im_part))


def _rows(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("no data rows")
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def check_verify(stdout: str, suite: str) -> str | None:
    report = json.loads(stdout)
    if report.get("suite") != suite or not report.get("cases"):
        return "verify_report"
    if any(case["status"] == "FAIL" for case in report["cases"]):
        return "verify_fail_case"
    if report["summary"]["fail"] != 0:
        return "verify_summary"
    return None


def check_sweep(stdout: str, grid: str, ratio_tol: float, gap_tol: float) -> str | None:
    """var_x / var_p = |lambda|^2 and a saturated RS inequality on every row."""
    kind, lo, hi, steps = grid.split(":")
    header, data = _rows(stdout)
    if header[1:] != ["var_x", "var_p", "mean_g", "mean_f", "equality_gap"]:
        return "sweep_header"
    expected = np.linspace(float(lo), float(hi), int(steps))
    if data.shape != (int(steps), 6) or not np.allclose(data[:, 0], expected, rtol=0, atol=1e-12):
        return "sweep_grid"
    if not np.all(np.isfinite(data)):
        return "sweep_nonfinite"
    var_x, var_p, gap = data[:, 1], data[:, 2], data[:, 5]
    if np.any(var_x <= 0) or np.any(var_p <= 0):
        return "sweep_variance_sign"
    lam_sq = np.ones_like(var_x) if kind == "lambda-theta" else data[:, 0] ** 2
    if np.any(np.abs(var_x / var_p - lam_sq) > ratio_tol * lam_sq):
        return "sweep_variance_ratio"
    if np.any(np.abs(gap) > gap_tol * var_x * var_p):
        return "sweep_equality_gap"
    return None


def gis_residual(coeffs: np.ndarray, e: np.ndarray, z: complex, lam: complex) -> float:
    """max |[(1+lam) a- + (1-lam) a+ - 2z] d| over rows 0 .. n_max-2, relative
    to the largest of the three terms.  The top two rows feel the truncation."""
    root = np.sqrt(e)
    lower = (1.0 + lam) * root[1:-1] * coeffs[1:-1]            # row m uses d_{m+1}
    upper = np.zeros_like(lower)
    upper[1:] = (1.0 - lam) * root[1:-2] * coeffs[:-3]          # row m uses d_{m-1}
    diag = 2.0 * z * coeffs[:-2]
    scale = max(np.max(np.abs(lower)), np.max(np.abs(upper)), np.max(np.abs(diag)))
    if scale == 0.0:
        return math.inf
    return float(np.max(np.abs(lower + upper - diag)) / scale)


def check_gis_state(stdout: str, model: str, z: str, lam: str, n_max: int,
                    tol: float) -> str | None:
    header, data = _rows(stdout)
    if header != ["n", "re", "im", "prob", "cum_mass"]:
        return "state_header"
    if data.shape != (n_max + 1, 5) or not np.array_equal(data[:, 0], np.arange(n_max + 1)):
        return "state_rows"
    if not np.all(np.isfinite(data)):
        return "state_nonfinite"
    coeffs = data[:, 1] + 1j * data[:, 2]
    if abs(data[:, 3].sum() - 1.0) > PROB_SUM_TOL or abs(np.sum(np.abs(coeffs) ** 2) - 1.0) > PROB_SUM_TOL:
        return "state_probability_sum"
    if gis_residual(coeffs, energies(model, n_max), parse_complex(z), parse_complex(lam)) > tol:
        return "state_eigen_residual"
    return None


def check_ladder(family: str, model: str, z: complex, coeffs: np.ndarray,
                 moments: dict) -> str | None:
    """Finite moments obeying var_x var_p >= (<G>^2 + <F>^2) / 4; for the
    harmonic eigenstate of a- also var_x = var_p = 1/2 and <H> = |z|^2."""
    values = [moments[k] for k in ("mean_x", "mean_p", "var_x", "var_p", "mean_g", "mean_f")]
    if not all(math.isfinite(v) for v in values):
        return "ladder_nonfinite"
    var_x, var_p = moments["var_x"], moments["var_p"]
    bound = 0.25 * (moments["mean_g"] ** 2 + moments["mean_f"] ** 2)
    if var_x <= 0 or var_p <= 0 or var_x * var_p < bound * (1.0 - RS_SLACK):
        return "ladder_rs_inequality"
    if family == "gk" and model == "harmonic":
        if abs(var_x - 0.5) > HARMONIC_TOL or abs(var_p - 0.5) > HARMONIC_TOL:
            return "ladder_harmonic_variance"
        weights = np.abs(coeffs) ** 2
        mean_h = float(np.dot(energies(model, coeffs.size - 1), weights) / weights.sum())
        r2 = abs(z) ** 2
        if abs(mean_h - r2) > HARMONIC_TOL * max(1.0, r2):
            return "ladder_harmonic_energy"
    return None
