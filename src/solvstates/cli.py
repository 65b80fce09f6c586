"""Command-line front end: coefficient tables, verification suites, grid sweeps.

Exit codes are a stable contract: 0 success, 2 usage error, 3 domain
rejection (inadmissible z, lambda, or model parameters), 4 numerical
failure (an uncertified tail, unsettled quadrature, or a failed suite).
Output is deterministic for a given flag set; nothing here draws random
numbers.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, LambdaRejected, TruncationError
from .fockspace import build_ladder, uncertainty, within_ceiling
from .gazeau_klauder import gk_state
from .intelligent import GISParameters, gis_coefficients, gis_state
from .perelomov import perelomov_state
from .spectrum import SpectrumModel
from .verify import SUITE_NAMES, run_suite


def _build_model(text: str, parser: argparse.ArgumentParser) -> SpectrumModel:
    """Grammar errors go through parser.error (exit 2); domain checks are
    left to SpectrumModel so inadmissible parameters exit 3."""
    if text == "harmonic":
        return SpectrumModel.harmonic()
    if text == "well":
        return SpectrumModel.square_well()
    if text.startswith("pt:"):
        parts = text[len("pt:"):].split(",")
        if len(parts) != 2:
            parser.error(f"--model pt takes kappa,kappa' (got {text!r})")
        try:
            kappa, kappa_prime = float(parts[0]), float(parts[1])
        except ValueError:
            parser.error(f"--model pt needs numeric strengths (got {text!r})")
        return SpectrumModel.poschl_teller(kappa, kappa_prime)
    if text.startswith("custom:"):
        path = text[len("custom:"):]
        try:
            return SpectrumModel.from_file(path)
        except (OSError, ValueError) as err:
            if isinstance(err, DomainError) and err.__cause__ is None:
                raise  # every line parsed, but the levels are inadmissible
            parser.error(f"cannot read energy table {path!r}: {err}")
    parser.error(f"unknown model {text!r}; use harmonic, pt:K,K', well, or custom:FILE")
    raise AssertionError("unreachable")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected RE,IM (got {text!r})")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric RE,IM (got {text!r})")


def _write_rows(out_path, header, rows, fmt, meta):
    if fmt == "json":
        payload = dict(meta)
        payload["rows"] = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2)
        if out_path:
            with open(out_path, "w") as handle:
                handle.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
        return
    handle = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    finally:
        if out_path:
            handle.close()


def _cmd_state(args, parser) -> int:
    model = _build_model(args.model, parser).with_alpha(args.alpha)
    if args.family in ("gk", "perelomov"):
        if args.lam is not None:
            parser.error("--lambda only applies to --family gis")
        if args.family == "gk":
            vec = gk_state(model, args.z, n_max=args.nmax).vector
        else:
            vec = perelomov_state(model, args.z, n_max=args.nmax)
    else:
        if args.lam is None:
            parser.error("--family gis requires --lambda RE,IM")
        vec = gis_coefficients(model, GISParameters(args.z, args.lam), args.nmax)
    probs = np.abs(vec.coeffs) ** 2
    cum = np.cumsum(probs)
    rows = [
        (n, float(c.real), float(c.imag), float(p), float(s))
        for n, (c, p, s) in enumerate(zip(vec.coeffs, probs, cum))
    ]
    meta = {"schema": 1, "family": args.family, "model": args.model,
            "n_max": vec.n_max}
    _write_rows(args.out, ["n", "re", "im", "prob", "cum_mass"], rows,
                args.format, meta)
    return 0


def _cmd_verify(args, parser) -> int:
    model = _build_model(args.model, parser) if args.model else None
    report = run_suite(args.suite, model, args.tol)
    text = json.dumps(report.to_dict(), indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0 if report.ok else 4


def _cmd_sweep(args, parser) -> int:
    parts = args.grid.split(":")
    if len(parts) != 4 or parts[0] not in ("lambda-theta", "lambda-mod"):
        parser.error("--grid takes lambda-theta:T0:T1:STEPS or lambda-mod:M0:M1:STEPS")
    try:
        lo, hi, steps = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        parser.error(f"malformed grid bounds in {args.grid!r}")
    if steps < 1:
        parser.error("empty grid: STEPS must be >= 1")
    within_ceiling(steps, "grid STEPS")
    if not np.isfinite([lo, hi]).all():
        raise DomainError(f"grid bounds must be finite (got {lo!r}, {hi!r})")
    model = _build_model(args.model, parser).with_alpha(args.alpha)
    rows = []
    for value in np.linspace(lo, hi, steps):
        lam = cmath.exp(1j * value) if parts[0] == "lambda-theta" else complex(value)
        state = gis_state(model, GISParameters(args.z, lam))
        rep = build_ladder(state.model, state.n_max)
        report = uncertainty(rep, state)
        rows.append((float(value), report.var_x, report.var_p,
                     report.mean_g, report.mean_f, report.equality_gap))
    label = "theta" if parts[0] == "lambda-theta" else "lam_mod"
    header = [label, "var_x", "var_p", "mean_g", "mean_f", "equality_gap"]
    meta = {"schema": 1, "family": args.family, "model": args.model,
            "grid": args.grid}
    _write_rows(args.out, header, rows, args.format, meta)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvstates",
        description="Coefficient tables, verification suites, and uncertainty "
                    "sweeps for states on exactly solvable spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    state = sub.add_parser("state", help="emit state coefficients")
    state.add_argument("--model", required=True,
                       help="harmonic | pt:K,K' | well | custom:FILE")
    state.add_argument("--family", required=True,
                       choices=("gk", "perelomov", "gis"))
    state.add_argument("--z", required=True, type=_parse_complex, metavar="RE,IM")
    state.add_argument("--lambda", dest="lam", type=_parse_complex,
                       metavar="RE,IM", help="squeezing parameter (gis only)")
    state.add_argument("--alpha", type=float, default=0.0)
    state.add_argument("--nmax", type=int,
                       help="last band; chosen when omitted")
    state.add_argument("--out", help="write to a file instead of stdout")
    state.add_argument("--format", choices=("csv", "json"), default="csv")
    state.set_defaults(handler=_cmd_state)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True,
                        choices=SUITE_NAMES + ("all",))
    verify.add_argument("--model",
                        help="harmonic | pt:K,K' | well | custom:FILE "
                             "(default pt:2,2)")
    verify.add_argument("--tol", type=float,
                        help="override every case tolerance for this run")
    verify.add_argument("--out", help="write the JSON report to a file")
    verify.set_defaults(handler=_cmd_verify)

    sweep = sub.add_parser("sweep", help="sweep a lambda grid, emit variances")
    sweep.add_argument("--family", required=True, choices=("gis",))
    sweep.add_argument("--grid", required=True,
                       help="lambda-theta:T0:T1:STEPS or lambda-mod:M0:M1:STEPS")
    sweep.add_argument("--model", default="pt:2,2")
    sweep.add_argument("--z", type=_parse_complex, default=1.0 + 0.0j,
                       metavar="RE,IM")
    sweep.add_argument("--alpha", type=float, default=0.0)
    sweep.add_argument("--out", help="write to a file instead of stdout")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(handler=_cmd_sweep)
    return parser


def _glue_complex_flags(argv):
    # argparse reads "-1,0" after --lambda as a new option; join them so
    # negative components reach the domain checks instead of usage errors.
    glued = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--lambda", "--z") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            glued.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            glued.append(tok)
            i += 1
    return glued


# built on first use and shared by every call; parse_args leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_complex_flags(list(argv)))
    try:
        return args.handler(args, parser)
    except LambdaRejected as err:
        print(f"rejected: {err.reason}", file=sys.stderr)
        return 3
    except DomainError as err:
        print(f"rejected: {err}", file=sys.stderr)
        return 3
    except (TruncationError, ConvergenceError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
