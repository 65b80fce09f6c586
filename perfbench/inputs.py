"""Seeded operation lists for the three benchmark workloads.

Nothing here imports ``solvstates``: the package only ever sees the
operations generated below.  Every parameter is drawn by Latin-hypercube
sampling inside fixed-size blocks (each block covers every stratum of every
range once), so two seeds exercise the same mix of cheap and expensive
inputs and a run's averages depend little on which seed it got.

An operation is a JSON-serialisable dict:

* ``{"kind": "cli", "calls": [{"argv": [...], "check": {...}}, ...]}`` runs
  ``solvstates.cli.main(argv)`` in-process for each call in turn; ``check``
  carries what the oracle needs.  The operation's latency is the sum of its
  calls, and it fails at its first failing call.  ``"table"`` (optional)
  holds custom-spectrum energies the worker writes to a file and substitutes
  for ``{table}`` in every ``argv``.
* ``{"kind": "ladder", "family": "gk" | "perelomov", "model": str,
  "z": [re, im]}`` builds the state with automatic ``n_max`` and calls
  ``uncertainty(build_ladder(model, n_max), state)``.
"""
from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("verify-suites", "gis-sweep", "large-ladder")

SUITES = ("ladder", "gk", "perelomov", "gis", "position", "specfun")

# operations generated per run; each workload finishes far fewer than this
# within the longest allowed run on a 2-core machine
_BLOCKS = {"verify-suites": 64, "gis-sweep": 400, "large-ladder": 100}


def _strata(rng: random.Random, k: int) -> list[float]:
    """k uniforms in [0, 1), one per stratum [i/k, (i+1)/k), in random order."""
    order = list(range(k))
    rng.shuffle(order)
    return [(i + rng.random()) / k for i in order]


def _span(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _log_span(u: float, lo: float, hi: float) -> float:
    return math.exp(_span(u, math.log(lo), math.log(hi)))


def _num(x: float) -> str:
    return f"{x:.6f}"


def _pt_model(u1: float, u2: float, lo: float = 1.1001) -> str:
    # kappa, kappa' in the open interval (lo, 4)
    return f"pt:{_num(_span(u1, lo, 3.9999))},{_num(_span(u2, lo, 3.9999))}"


def _custom_table(rng: random.Random, levels: int) -> list[float]:
    """A perturbed harmonic ladder: E_0 = 0 and gaps drawn from [0.5, 1.5]."""
    table = [0.0]
    for _ in range(levels - 1):
        table.append(round(table[-1] + rng.uniform(0.5, 1.5), 12))
    return table


# verify-suites keeps away from the two inputs on which the gis suite breaks,
# and gis-sweep runs the gis suite on them, where those failures count:
# custom tables of 250 levels or more FAIL cases (exit 4) or raise
# OverflowError, and gis.laplace_bridge raises ConvergenceError for Poschl-Teller
# strengths with nu = kappa + kappa' in about [2.2, 2.9].
VERIFY_LEVELS = (40, 240)
VERIFY_PT_LOW = 1.5001  # so nu > 3
BROKEN_GIS_LEVELS = (250, 300)
BROKEN_GIS_PT = (1.1001, 1.45)


def _verify_calls(model: str, suites=SUITES) -> list[dict]:
    return [{"argv": ["verify", "--suite", suite, "--model", model],
             "check": {"type": "verify", "suite": suite}} for suite in suites]


def _verify_block(rng: random.Random, u_pt: tuple, u_len: float) -> list[dict]:
    """One round: each model verified under all six suites, one operation
    per model, so an operation is what checking a model costs a user."""
    levels = int(round(_span(u_len, *VERIFY_LEVELS)))
    ops = [{"kind": "cli", "calls": _verify_calls(model)}
           for model in ("harmonic", "well", _pt_model(*u_pt, lo=VERIFY_PT_LOW))]
    ops.append({"kind": "cli", "calls": _verify_calls("custom:{table}"),
                "table": _custom_table(rng, levels)})
    rng.shuffle(ops)
    return ops


def _balanced_order(rng: random.Random, k: int) -> list[int]:
    """Strata 0..k-1 alternating high and low, so that every prefix of a
    group of rounds spans about the same range."""
    order = []
    for lo, hi in zip(range(k // 2), range(k - 1, k // 2 - 1, -1)):
        order.extend((hi, lo) if rng.random() < 0.5 else (lo, hi))
    return order


def _verify_suites(rng: random.Random, blocks: int) -> list[dict]:
    # the custom table length sets most of a round's cost, so it is stratified
    # across groups of eight rounds; pt strengths across the same groups
    group = 8
    ops = []
    for _ in range(0, blocks, group):
        u_k1, u_k2 = _strata(rng, group), _strata(rng, group)
        for i, stratum in enumerate(_balanced_order(rng, group)):
            u_len = (stratum + rng.random()) / group
            ops.extend(_verify_block(rng, (u_k1[i], u_k2[i]), u_len))
    return ops


def _complex_arg(z: complex) -> str:
    return f"{_num(z.real)},{_num(z.imag)}"


def _gis_block(rng: random.Random, pool: tuple) -> list[dict]:
    k = 8  # sweeps and states per block
    u_zs, u_za = _strata(rng, 2 * k), _strata(rng, 2 * k)
    u_model = _strata(rng, 2 * k)
    u_steps, u_grid = _strata(rng, k), _strata(rng, k)
    u_lo, u_hi = _strata(rng, k), _strata(rng, k)
    u_lm, u_la, u_n = _strata(rng, k), _strata(rng, k), _strata(rng, k)
    ops = []
    for i in range(2 * k):
        z = complex(_span(u_zs[i], 0.0, 3.0) * math.cos(2 * math.pi * u_za[i]),
                    _span(u_zs[i], 0.0, 3.0) * math.sin(2 * math.pi * u_za[i]))
        model = pool[int(u_model[i] * len(pool))]
        j = i // 2
        if i % 2 == 0:
            steps = 3 + int(u_steps[j] * 7)
            if u_grid[j] < 0.5:
                a, b = sorted((_span(u_lo[j], -1.3, 1.3), _span(u_hi[j], -1.3, 1.3)))
                grid = f"lambda-theta:{_num(a)}:{_num(b)}:{steps}"
            else:
                a, b = sorted((_log_span(u_lo[j], 0.1, 3.0), _log_span(u_hi[j], 0.1, 3.0)))
                grid = f"lambda-mod:{_num(a)}:{_num(b)}:{steps}"
            ops.append({"kind": "cli", "calls": [
                {"argv": ["sweep", "--family", "gis", "--grid", grid,
                          "--model", model, "--z", _complex_arg(z)],
                 "check": {"type": "sweep", "grid": grid}}]})
        else:
            mod = _log_span(u_lm[j], 0.1, 3.0)
            arg = _span(u_la[j], -1.2999, 1.2999)
            lam = complex(mod * math.cos(arg), mod * math.sin(arg))
            n_max = int(round(_span(u_n[j], 60, 400)))
            ops.append({"kind": "cli", "calls": [
                {"argv": ["state", "--model", model, "--family", "gis",
                          "--z", _complex_arg(z), "--lambda", _complex_arg(lam),
                          "--nmax", str(n_max)],
                 "check": {"type": "gis_state", "model": model, "z": _complex_arg(z),
                           "lam": _complex_arg(lam), "n_max": n_max}}]})
    # and the gis suite on the two kinds of input that break it
    levels = int(round(_span(rng.random(), *BROKEN_GIS_LEVELS)))
    kappa = [_num(_span(rng.random(), *BROKEN_GIS_PT)) for _ in range(2)]
    for op in ({"kind": "cli", "calls": _verify_calls("custom:{table}", ("gis",)),
                "table": _custom_table(rng, levels)},
               {"kind": "cli", "calls": _verify_calls(f"pt:{kappa[0]},{kappa[1]}", ("gis",))}):
        ops.insert(rng.randrange(len(ops) + 1), op)
    return ops


# a scan revisits a handful of models; the same ones for every seed, so the
# seed varies only the scan points
GIS_MODELS = ("harmonic", "well", "pt:2.000000,2.000000", "pt:3.500000,1.200000")


def _gis_sweep(rng: random.Random, blocks: int) -> list[dict]:
    ops = []
    for _ in range(blocks):
        ops.extend(_gis_block(rng, GIS_MODELS))
    return ops


def _ladder_block(rng: random.Random) -> list[dict]:
    k = 16
    u_gk, u_pr = _strata(rng, k), _strata(rng, k)
    u_k1, u_k2 = _strata(rng, k), _strata(rng, k)
    ops = []
    for i in range(k):
        for family, radius, model in (
                ("gk", _span(u_gk[i], 3.0, 20.0), "harmonic"),
                ("perelomov", _span(u_pr[i], 0.5, 1.5), _pt_model(u_k1[i], u_k2[i]))):
            phase = 2 * math.pi * rng.random()
            ops.append({"kind": "ladder", "family": family, "model": model,
                        "z": [radius * math.cos(phase), radius * math.sin(phase)]})
    rng.shuffle(ops)
    return ops


def _large_ladder(rng: random.Random, blocks: int) -> list[dict]:
    ops = []
    for _ in range(blocks):
        ops.extend(_ladder_block(rng))
    return ops


_GENERATORS = {"verify-suites": _verify_suites, "gis-sweep": _gis_sweep,
               "large-ladder": _large_ladder}


def generate(workload: str, seed: int, blocks: int | None = None) -> list[dict]:
    """The operation list for one (workload, seed); same seed, same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    return _GENERATORS[workload](rng, _BLOCKS[workload] if blocks is None else blocks)


def digest(ops: list[dict]) -> str:
    """sha256 of the canonical JSON of an operation list."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
