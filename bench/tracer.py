"""Outside-in layer tracing for one oscym CLI call.

`install` replaces each listed public function, at every `oscym.*` module
binding that holds it, with a wrapper that counts its calls and the
exceptions that leave it.  Timed functions also record a span (id, name,
start, end, parent span) in memory; the shim writes the spans out when the
call ends and the benchmark computes self time from them.

`young_density` and `inverse_slope` are hot leaves (1e5-1e6 calls in one
`converge`): timing each call would double the work and bury the self time
of their callers, so they are counted only and their time stays in the
caller's self time.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

TIMED = (
    "cli.main", "cli.emit",
    "funcspec.parse_spec",
    "domain.validate", "domain.evaluate_many", "domain.invert_piece",
    "measures.young_measure", "measures.total_slope", "measures.integrate_density",
    "quadrature.integrate",
    "sampling.pushforward_empirical", "sampling.oracle_report",
    "convergence.monotone_slope_check", "convergence.dieudonne_check",
    "convergence.weak_continuity_check", "convergence.homogeneity_check",
    "relaxation.bolza_functional",
)
COUNTED = ("measures.young_density", "domain.inverse_slope")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [id, name, start, end, parent]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.extra: Counter = Counter()

    def timed(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if hook is not None:
                hook(self.extra, args, kwargs)
            span = [len(self.spans), name, 0.0, 0.0, self.stack[-1] if self.stack else None]
            self.spans.append(span)
            self.stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
        return wrapper

    def counted(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if hook is not None:
                hook(self.extra, args, kwargs)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
        return wrapper

    def record(self) -> dict:
        return {"calls": dict(self.calls), "raised": dict(self.raised),
                "extra": dict(self.extra), "spans": self.spans}


def _pieces_scanned(extra, args, kwargs):
    f = args[0] if args else kwargs["f"]
    extra["slope_sum.pieces_scanned"] += len(f.pieces)


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bind


def _hooks(modules):
    push = _bound(modules["sampling"].pushforward_empirical)
    dieu = _bound(modules["convergence"].dieudonne_check)

    def samples(extra, args, kwargs):
        extra["sampling.samples"] += push(args, kwargs)["n_samples"]

    def leaves(extra, args, kwargs):
        a = dieu(args, kwargs)
        extra["convergence.leaf_masses"] += (a["n_max"] - a["n_min"] + 1) * 2 ** a["family"].depth

    return {
        "measures.young_density": _pieces_scanned,
        "measures.total_slope": _pieces_scanned,
        "sampling.pushforward_empirical": samples,
        "convergence.dieudonne_check": leaves,
    }


def install() -> Tracer:
    """Wrap every listed function at every oscym.* binding of it."""
    modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("oscym.")}
    tracer = Tracer()
    hooks = _hooks(modules)
    wrappers = {}
    for names, make in ((TIMED, tracer.timed), (COUNTED, tracer.counted)):
        for qual in names:
            mod, attr = qual.split(".")
            fn = getattr(modules[mod], attr)
            wrappers[id(fn)] = make(qual, fn, hooks.get(qual))
    for name, mod in list(sys.modules.items()):
        if name != "oscym" and not name.startswith("oscym."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
    return tracer
