"""solvstates benchmark: one seeded workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload verify-suites|gis-sweep|large-ladder \
        --seed N --seconds S --trace 0|1 [--out RESULTS.jsonl]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Each run generates its operations from the seed (inputs.py),
measures ``import solvstates`` in fresh processes, then runs the operations
in a fresh worker process (worker.py) with OPENBLAS_NUM_THREADS=1 and
OMP_NUM_THREADS=1: a closed loop, one caller, one BLAS thread.  Every
operation's output is checked by an oracle (oracles.py) that does not use
the package's own result; an operation fails if it exits non-zero, lets an
exception or warning escape, or fails its oracle.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
operations untraced for half the time, then replays exactly the same
operations in a second worker with every public function wrapped
(tracing.py), and prints the per-layer metrics and the tracing overhead
(traced minus untraced time over the same operations).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
the failed operations (``fail_share`` is printed above it); ``correct`` is
true when every attempted operation ran to a classified outcome, the
package came from this checkout, and a traced replay reproduced every
outcome of the untraced run.  ``--out`` also appends the full record to a
JSON-lines file that compare.py reads.

BENCHMARK.json lists verify-suites and large-ladder.  gis-sweep runs the
same way but is left out there: its operations take from 5 ms to 6 s
(120-digit fallbacks, growth retries), so a 50-second run sees too few of
them for its throughput to repeat from seed to seed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "solvstates")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 10  # fresh-process imports timed per run, besides the worker's own

# per-layer self times reported in the JSON line: only functions every
# workload calls, so none of them reads a constant zero (all are printed)
ALWAYS_CALLED = ("spectrum.log_products", "fockspace.build_ladder", "fockspace.uncertainty")
COUNTER_UNITS = {
    "fockspace.dense_bytes_computed": "B",
    "fockspace.uncertainty.flops_computed": "flop",
    "perelomov.cn_ode.refusals": "count",
    "intelligent.gis_coefficients.truncations": "count",
    "intelligent.mp_fallbacks": "count",
}


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _probe_import(env: dict, timeout: float) -> float:
    code = ("import time; t = time.perf_counter(); import solvstates; "
            "print(repr(time.perf_counter() - t))")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout, check=True)
    return float(done.stdout.strip())


def _run_worker(env: dict, tmp: str, ops_path: str, tag: str, timeout: float,
                extra: list[str]) -> dict:
    result_path = os.path.join(tmp, f"result-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--ops", ops_path,
           "--result", result_path, "--tmp", tmp] + extra
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker {tag} exited {done.returncode}")
    with open(result_path) as handle:
        return json.load(handle)


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it; the maximum when fewer than eleven exist."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(worker: dict, setup: list[float]) -> tuple[dict, list[str]]:
    ok_lat = [t for t, ok in zip(worker["latencies_s"], worker["outcomes"]) if ok]
    attempted, ok = worker["attempted"], worker["ok"]
    tail, pct, beyond = tail_latency(ok_lat) if ok_lat else (float("nan"), 0.0, 0)
    metrics = {
        "ok_ops_per_s": (ok / worker["busy_s"], "ops/s"),
        "op_p50_ms": (1000.0 * statistics.median(ok_lat) if ok_lat else float("nan"), "ms"),
        "op_tail_ms": (1000.0 * tail, "ms"),
        "ok_share": (ok / attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }
    notes = [
        f"op_tail_ms is p{pct:.2f} of {len(ok_lat)} successful operations, "
        f"{beyond} beyond it",
        f"fail_share = {attempted - ok}/{attempted} = {(attempted - ok) / attempted:.4f}"
        + (f" ({_failure_text(worker['failures'])})" if worker["failures"] else ""),
        f"setup_s is the median of {len(setup)} fresh-process imports: "
        + ", ".join(f"{s:.4f}" for s in setup),
        f"ok_ops_per_s counts {worker['busy_s']:.3f} s spent inside operations "
        f"(loop {worker['loop_s']:.3f} s including oracle checks)",
    ]
    return metrics, notes


def _failure_text(failures: dict) -> str:
    return ", ".join(f"{k} {v}" for k, v in sorted(failures.items(), key=lambda kv: -kv[1]))


def per_layer(traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    trace = traced["trace"]
    metrics = {f"{name}.calls": (count, "count") for name, count in trace["calls"].items()}
    for name, unit in COUNTER_UNITS.items():
        metrics[name] = (trace["counters"][name], unit)
    states = trace["calls"]["intelligent.gis_state"]
    attempts = trace["counters"]["intelligent.gis_state.attempts"]
    metrics["intelligent.gis_state.attempts_per_call"] = (
        attempts / states if states else 0.0, "ratio")
    for name in ALWAYS_CALLED:
        metrics[f"{name}.self_ms"] = (trace["self_ms"][name], "ms")
    busy_ms = 1000.0 * traced["busy_s"]
    for layer, ms in trace["layer_self_ms"].items():
        metrics[f"{layer}.self_pct"] = (100.0 * ms / busy_ms, "%")
    overhead_ms = busy_ms - 1000.0 * untraced["busy_s"]
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    metrics["trace.spans"] = (trace["spans"], "count")

    lines = [f"{'function':44s} {'calls':>9s} {'self_ms':>12s}"]
    for layer, fns in tracing.LAYERS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            lines.append(f"{name:44s} {trace['calls'][name]:9d} {trace['self_ms'][name]:12.3f}")
        lines.append(f"{layer + ' (layer total)':44s} {'':9s} "
                     f"{trace['layer_self_ms'][layer]:12.3f}")
    for suite, ms in sorted(trace["suite_self_ms"].items()):
        lines.append(f"{'verify.run_suite.' + suite + '.self_ms':44s} {'':9s} {ms:12.3f}")
    lines.append(f"intelligent.gis_state.attempts_per_call = "
                 f"{attempts}/{states} (base: {states} gis_state calls)")
    lines.append("waiting time: not applicable (one thread, no queues, no I/O)")
    lines.append(f"tracing overhead: {overhead_ms:.1f} ms over {traced['attempted']} "
                 f"operations ({busy_ms:.1f} ms traced vs "
                 f"{1000.0 * untraced['busy_s']:.1f} ms untraced, "
                 f"{100.0 * overhead_ms / max(busy_ms - overhead_ms, 1e-9):.1f}%)")
    return metrics, lines


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def measure(args, tmp: str) -> tuple[dict, list[str]]:
    ops = inputs.generate(args.workload, args.seed)
    ops_path = os.path.join(tmp, "ops.json")
    with open(ops_path, "w") as handle:
        json.dump(ops, handle)
    env = _worker_env()
    timeout = 3.0 * args.seconds + 120.0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_generated": len(ops),
              "inputs_sha256": inputs.digest(ops)}
    notes = []
    if args.trace:
        untraced = _run_worker(env, tmp, ops_path, "untraced", timeout,
                               ["--seconds", str(args.seconds / 2.0)])
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        spans = os.path.join(ROOT, ".perfbench_out",
                             f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        traced = _run_worker(env, tmp, ops_path, "traced", timeout,
                             ["--limit", str(untraced["attempted"]), "--trace", "1",
                              "--spans", spans])
        metrics, notes = per_layer(traced, untraced)
        notes.append(f"spans written to {os.path.relpath(spans, ROOT)}")
        worker = traced
        # tracing must not change a single outcome
        consistent = traced["outcomes"] == untraced["outcomes"]
    else:
        setup = [_probe_import(env, timeout) for _ in range(SETUP_PROBES)]
        worker = _run_worker(env, tmp, ops_path, "run", timeout,
                             ["--seconds", str(args.seconds)])
        metrics, notes = end_to_end(worker, setup + [worker["setup_s"]])
        consistent = True
    record["env"] = dict(worker["env"], nproc=_nproc(), cpu=_cpu_model())
    record["attempted"] = worker["attempted"]
    record["failed"] = worker["attempted"] - worker["ok"]
    record["failures"] = worker["failures"]
    record["exhausted"] = worker["exhausted"]
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    in_checkout = os.path.samefile(worker["env"]["solvstates"], PACKAGE)
    record["correct"] = bool(consistent and in_checkout and worker["attempted"] > 0)
    return record, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="solvstates benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSON-lines file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no solvstates package at {os.path.relpath(PACKAGE)}; run from a checkout",
              file=sys.stderr)
        return 2

    tmp = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    started = time.perf_counter()
    try:
        record, notes = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = record["env"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ({time.perf_counter() - started:.1f} s)")
    print(f"env: python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}, "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, "
          f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']}, nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"inputs: seed {args.seed}, {record['inputs_generated']} operations generated, "
          f"sha256 {record['inputs_sha256']}, {record['attempted']} attempted"
          + (" (list exhausted)" if record["exhausted"] else ""))
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for line in notes:
        print(line)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
