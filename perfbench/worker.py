"""One benchmark worker: a fresh process that imports solvstates and runs operations.

Started by run.py with the BLAS thread variables already set.  Reads the
operation list, times ``import solvstates``, runs operations in a closed
loop (one caller, one thread) until ``--seconds`` have passed or ``--limit``
operations are done, checks each output with its oracle, and writes a JSON
result file.  With ``--trace 1`` every public solvstates function is wrapped
(see tracing.py) and the per-layer numbers go into the result as well.

    python3 perfbench/worker.py --ops OPS.json --result OUT.json --tmp DIR \
        [--seconds S | --limit K] [--trace 0|1] [--spans SPANS.jsonl.gz]
"""
from __future__ import annotations

import time

# timed first, before anything else loads numpy, as a CLI invocation pays it
_START = time.perf_counter()
import solvstates  # noqa: E402
SETUP_S = time.perf_counter() - _START

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import warnings

import numpy as np

import oracles


def _run_cli(main, argv: list[str]) -> tuple[str, str | None]:
    """Call cli.main in-process; return (stdout, failure) where anything that
    escapes it -- an exception, a warning, a non-zero exit -- is a failure."""
    out = io.StringIO()
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
            except Exception as err:  # every escaping exception is a counted failure
                code = None
                failure = f"exception:{type(err).__name__}"
    if failure is None and code != 0:
        failure = f"exit:{code}"
    if failure is None and caught:
        failure = f"warning:{caught[0].category.__name__}"
    return out.getvalue(), failure


def _run_ladder(op: dict):
    """Library route: state with automatic n_max, then uncertainty on its ladder."""
    model_text = op["model"]
    if model_text == "harmonic":
        model = solvstates.SpectrumModel.harmonic()
    else:
        kappa, kappa_prime = (float(v) for v in model_text[3:].split(","))
        model = solvstates.SpectrumModel.poschl_teller(kappa, kappa_prime)
    z = complex(*op["z"])
    if op["family"] == "gk":
        vector = solvstates.gk_state(model, z).vector
    else:
        vector = solvstates.perelomov_state(model, z)
    report = solvstates.uncertainty(solvstates.build_ladder(model, vector.n_max), vector)
    return vector, report


def _check(call: dict, stdout: str, tolerances: dict) -> str | None:
    try:
        return _check_output(call["check"], stdout, tolerances)
    except (ValueError, KeyError, IndexError) as err:  # unparseable output
        return f"oracle_parse:{type(err).__name__}"


def _check_output(check: dict, stdout: str, tolerances: dict) -> str | None:
    if check["type"] == "verify":
        return oracles.check_verify(stdout, check["suite"])
    if check["type"] == "sweep":
        return oracles.check_sweep(stdout, check["grid"], tolerances["gis.variance_ratio"],
                                   tolerances["gis.rs_equality"])
    return oracles.check_gis_state(stdout, check["model"], check["z"], check["lam"],
                                   check["n_max"], tolerances["gis.closed_vs_recurrence"])


def _blas_name() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def run(args) -> dict:
    with open(args.ops) as handle:
        ops = json.load(handle)
    from solvstates import cli
    from solvstates.tolerances import DEFAULTS

    for i, op in enumerate(ops):
        if "table" in op:
            path = os.path.join(args.tmp, f"table-{i}.txt")
            with open(path, "w") as handle:
                handle.write("\n".join(repr(e) for e in op["table"]) + "\n")
            for call in op["calls"]:
                call["argv"] = [a.replace("{table}", path) for a in call["argv"]]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    latencies, outcomes, failures = [], [], {}
    loop_start = time.perf_counter()
    for i, op in enumerate(ops):
        if args.limit is not None and i >= args.limit:
            break
        if args.limit is None and time.perf_counter() - loop_start >= args.seconds:
            break
        if tracer is not None:
            tracer.op_id = i
        if op["kind"] == "cli":
            latency, failure = 0.0, None
            for call in op["calls"]:
                t0 = time.perf_counter()
                # looked up per call, so a traced run goes through the wrapper
                stdout, failure = _run_cli(cli.main, call["argv"])
                latency += time.perf_counter() - t0
                if failure is None:
                    failure = _check(call, stdout, DEFAULTS)
                if failure is not None:
                    break
        else:
            t0 = time.perf_counter()
            failure = None
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    vector, report = _run_ladder(op)
            except Exception as err:  # counted, never fatal
                failure = f"exception:{type(err).__name__}"
            latency = time.perf_counter() - t0
            if failure is None and caught:
                failure = f"warning:{caught[0].category.__name__}"
            if failure is None:
                moments = {k: getattr(report, k) for k in
                           ("mean_x", "mean_p", "var_x", "var_p", "mean_g", "mean_f")}
                failure = oracles.check_ladder(op["family"], op["model"], complex(*op["z"]),
                                               vector.coeffs, moments)
        latencies.append(latency)
        outcomes.append(failure is None)
        if failure is not None:
            failures[failure] = failures.get(failure, 0) + 1
    loop_s = time.perf_counter() - loop_start

    result = {
        "setup_s": SETUP_S,
        "attempted": len(outcomes),
        "ok": sum(outcomes),
        "outcomes": outcomes,
        "latencies_s": latencies,
        "busy_s": sum(latencies),
        "loop_s": loop_s,
        "exhausted": len(outcomes) == len(ops),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_name(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "solvstates": os.path.dirname(solvstates.__file__),
        },
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {
            "calls": tracer.calls,
            "self_ms": {name: tracer.self_ms(name) for name in tracer.calls},
            "layer_self_ms": tracer.layer_self_ms(),
            "suite_self_ms": {k: 1000.0 * v for k, v in tracer.suite_self_s.items()},
            "counters": tracer.counters,
            "spans": len(tracer.spans),
        }
        if args.spans:
            tracer.write_spans(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--limit", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
