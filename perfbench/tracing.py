"""Spans around the public functions of every solvstates module, installed from outside.

``Tracer.install()`` replaces each listed function with a wrapper in every
namespace that holds it: the defining module, every module that imported it
by name (``from .fockspace import uncertainty``) and the package itself.  A
wrapper records one span (name, start, end, parent span, operation id) per
call; spans stay in memory until ``write_spans`` is called at the end of the
run.  Self time is a span's duration minus the time its child spans cover;
the program is single-threaded, so children nest strictly and that is a
plain subtraction.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time

LAYERS = {
    "spectrum": ("log_products", "radius_estimate"),
    "specfun": ("bessel_k", "bessel_i", "hyp1f1", "gauss_legendre"),
    "fockspace": ("build_ladder", "uncertainty", "f_operator", "eigenvalue_residual",
                  "gis_recurrence_oracle"),
    "gazeau_klauder": ("gk_state", "gk_normalization", "identity_moment_check"),
    "perelomov": ("perelomov_state", "cn_series", "cn_ode", "cn_closed",
                  "disk_identity_check"),
    "intelligent": ("gis_state", "gis_coefficients", "verify_rs", "gis_disk_expansion",
                    "laplace_bridge"),
    "position": ("gram_matrix", "overlap_matrix", "schrodinger_residual",
                 "factorization_residual"),
    "analytic": ("taylor_coefficients",),
    "verify": ("run_suite",),
    "cli": ("main",),
}

COUNTERS = ("fockspace.dense_bytes_computed", "fockspace.uncertainty.flops_computed",
            "perelomov.cn_ode.refusals", "intelligent.gis_coefficients.truncations",
            "intelligent.gis_state.attempts", "intelligent.mp_fallbacks")


class _WorkdpsCounter:
    """Stands in for the ``mpmath`` module bound in ``intelligent``; counts workdps."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def workdps(self, *args, **kwargs):
        self._tracer.counters["intelligent.mp_fallbacks"] += 1
        return self._module.workdps(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self.calls = {f"{layer}.{fn}": 0 for layer, fns in LAYERS.items() for fn in fns}
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.suite_self_s: dict[str, float] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []  # [span id, name, seconds covered by children]
        self._next_id = 0
        self._restore: list[tuple] = []
        self._originals: list = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, name, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                error = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                tracer.spans.append((frame[0], name, start, end,
                                     None if parent is None else parent[0], tracer.op_id))
                if hook is not None:
                    hook(tracer, args, kwargs, error, parent, own)

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in every solvstates namespace that binds it."""
        from solvstates import intelligent, spectrum

        for layer, fns in LAYERS.items():
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if layer == "spectrum":
                    # methods of SpectrumModel: one class attribute serves every caller
                    owner = spectrum.SpectrumModel
                    self._set(owner, fn_name, self._wrap(name, owner.__dict__[fn_name]))
                    continue
                original = getattr(sys.modules[f"solvstates.{layer}"], fn_name)
                self._originals.append(original)
                wrapper = self._wrap(name, original)
                for module in _package_modules():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)
        self._set(intelligent, "mpmath", _WorkdpsCounter(intelligent.mpmath, self))
        leftover = self.unwrapped_bindings()
        if leftover:
            raise RuntimeError(f"bindings left unwrapped: {leftover}")

    def unwrapped_bindings(self) -> list[str]:
        """Names in solvstates namespaces still bound to an original listed function."""
        return [f"{module.__name__}.{attr}" for module in _package_modules()
                for attr, value in vars(module).items()
                if any(value is original for original in self._originals)]

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.self_s[name]

    def layer_self_ms(self) -> dict[str, float]:
        return {layer: 1000.0 * sum(self.self_s[f"{layer}.{fn}"] for fn in fns)
                for layer, fns in LAYERS.items()}

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")


def _package_modules() -> list:
    return [module for key, module in list(sys.modules.items())
            if key == "solvstates" or key.startswith("solvstates.")]


# -- counters recorded at function boundaries ----------------------------------


def _ladder_bytes(tracer, args, kwargs, error, parent, own):
    if error is not None:
        return
    n_max = args[1] if len(args) > 1 else kwargs["n_max"]
    tracer.counters["fockspace.dense_bytes_computed"] += 2 * 16 * (n_max + 1) ** 2


def _uncertainty_flops(tracer, args, kwargs, error, parent, own):
    if error is not None:
        return
    rep = args[0] if args else kwargs["rep"]
    tracer.counters["fockspace.uncertainty.flops_computed"] += 4 * 8 * (rep.n_max + 1) ** 3


def _ode_refusal(tracer, args, kwargs, error, parent, own):
    from solvstates.errors import SolvStatesError
    if isinstance(error, SolvStatesError):
        tracer.counters["perelomov.cn_ode.refusals"] += 1


def _gis_attempt(tracer, args, kwargs, error, parent, own):
    from solvstates.errors import TruncationError
    if isinstance(error, TruncationError):
        tracer.counters["intelligent.gis_coefficients.truncations"] += 1
    if parent is not None and parent[1] == "intelligent.gis_state":
        tracer.counters["intelligent.gis_state.attempts"] += 1


def _suite_time(tracer, args, kwargs, error, parent, own):
    suite = args[0] if args else kwargs["suite"]
    tracer.suite_self_s[suite] = tracer.suite_self_s.get(suite, 0.0) + own


_HOOKS = {
    "fockspace.build_ladder": _ladder_bytes,
    "fockspace.uncertainty": _uncertainty_flops,
    "perelomov.cn_ode": _ode_refusal,
    "intelligent.gis_coefficients": _gis_attempt,
    "verify.run_suite": _suite_time,
}
