"""Spans and counters around cmrank's public functions, installed from outside
the package, and the per-layer metrics computed from them.

`install` replaces every public function of each cmrank module (and a short
list of `DensePoly` / `LegendreCurve` methods) with a wrapper that opens a
span named `<module>.<qualname>`, and every binding of that function in any
cmrank module namespace or module-level dict (such as `verify.SUITES`), so
calls between modules are seen too.  FieldElement arithmetic is counted, not
spanned: a span per field operation would cost more than the operation.

A layer's self time is the time its spans cover minus the time their child
spans cover.  The workloads run single-threaded (`--threads 1`), so child
spans nest sequentially inside their parent and a stack of open spans gives
self time without keeping the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("poly", "cartier", "curves", "covers", "search", "strata", "verify", "cli")
SPANNED_METHODS = {
    "DensePoly": (
        "__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__divmod__",
        "scale", "shift_x", "monic", "derivative", "reverse", "evaluate",
        "compose_linear", "from_roots",
    ),
    "LegendreCurve": ("model",),
}
FF_COUNTED = ("__mul__", "__add__", "__sub__", "__neg__", "inverse", "__pow__", "frobenius")
NS = 1e-9


class Tracer:
    """Open-span stack plus per-span-name call counts, self and inclusive time."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack = []  # [name, start_ns, child_ns]
        self.calls = Counter()
        self.self_ns = Counter()
        self.incl_ns = Counter()  # outermost spans of a name only, so recursion counts once
        self.counts = Counter()
        self.distinct = defaultdict(set)

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        self.stack.append([name, self.clock(), 0])

    def exit(self) -> None:
        name, start, child_ns = self.stack.pop()
        duration = self.clock() - start
        self.self_ns[name] += duration - child_ns
        if self.stack:
            self.stack[-1][2] += duration
        if not self.inside(name):
            self.incl_ns[name] += duration

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(prefix)) * NS


# -- observers: counts read from arguments and results at a layer boundary ------


def _sweep_done(tr, args, kwargs, result):
    tr.counts["search.candidates"] += result.counts["tested"]


def _check_pair_done(tr, args, kwargs, result):
    if tr.inside("search.ss5_sweep"):
        tr.counts["search.fallback_checks"] += 1


def _matrix_done(tr, args, kwargs, result):
    if result.strategy == "recurrence":
        tr.counts["cartier.recurrence_matrices"] += 1


def _ss_lambdas_done(tr, args, kwargs, result):
    tr.distinct["curves.ss_lambdas_p"].add(args[0] if args else kwargs["p"])


OBSERVERS = {
    "search.ss5_sweep": _sweep_done,
    "search.ss5_check_pair": _check_pair_done,
    "cartier.cartier_matrix": _matrix_done,
    "curves.supersingular_lambdas": _ss_lambdas_done,
}


def _spanned(tracer: Tracer, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result
        finally:
            tracer.exit()

    return wrapper


def _counted(counts: Counter, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        counts["ff.elem_ops"] += 1
        return fn(*args)

    return wrapper


def install(tracer: Tracer):
    """Wrap cmrank's public functions; returns a callable that undoes it."""
    modules = {layer: importlib.import_module(f"cmrank.{layer}") for layer in LAYERS}
    namespaces = [vars(m) for m in modules.values()] + [vars(importlib.import_module("cmrank"))]
    undo = []

    def patch(cls, attr, value):
        undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, value)

    wrapped = {}  # original function -> wrapper
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                wrapped[obj] = _spanned(tracer, f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth in SPANNED_METHODS.get(attr, ()):
                    raw = vars(obj)[meth]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    span = _spanned(tracer, f"{layer}.{attr}.{meth}", fn)
                    patch(obj, meth, classmethod(span) if isinstance(raw, classmethod) else span)

    for ns in namespaces:
        for attr, obj in list(ns.items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((ns, attr, obj))
                ns[attr] = wrapped[obj]
            elif type(obj) is dict:
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in wrapped:
                        undo.append((obj, key, val))
                        obj[key] = wrapped[val]

    element = importlib.import_module("cmrank.ff").FieldElement
    for meth in FF_COUNTED:
        patch(element, meth, _counted(tracer.counts, vars(element)[meth]))

    def uninstall():
        for target, attr, value in reversed(undo):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)

    return uninstall


# -- per-layer metrics ------------------------------------------------------------

PER_LAYER_UNITS = {
    "ff.elem_ops": "count",
    "poly.mul_calls": "count",
    "poly.pow_naive_calls": "count",
    "poly.gcd_calls": "count",
    "poly.evaluate_calls": "count",
    "poly.self_s": "s",
    "cartier.matrix_calls": "count",
    "cartier.power_coeffs_calls": "count",
    "cartier.recurrence_share": "ratio",
    "cartier.oracle_s": "s",
    "cartier.self_s": "s",
    "curves.ss_lambdas_calls": "count",
    "curves.ss_lambdas_distinct_p": "count",
    "curves.self_s": "s",
    "covers.fiber_calls": "count",
    "covers.self_s": "s",
    "search.candidates": "count",
    "search.kernel_s": "s",
    "search.candidates_per_s": "1/s",
    "search.fallback_checks": "count",
    "search.cache_write_s": "s",
    "search.enum_s": "s",
    "search.reverify_calls": "count",
    "search.reverify_s": "s",
    "search.reverify_ms_per_call": "ms",
    "strata.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "verify.checks_failed": "count",
    "trace.overhead_share": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass (everything but the verify suite
    times and the trace overhead, which come from the untraced pass)."""
    kernel_s = tr.self_ns["search.ss5_sweep"] * NS
    reverify_s = tr.incl_ns["search.verify_solution_story"] * NS
    reverify_calls = tr.calls["search.verify_solution_story"]
    return {
        "ff.elem_ops": tr.counts["ff.elem_ops"],
        "poly.mul_calls": tr.calls["poly.DensePoly.__mul__"],
        "poly.pow_naive_calls": tr.calls["poly.poly_pow_naive"],
        "poly.gcd_calls": tr.calls["poly.poly_gcd"],
        "poly.evaluate_calls": tr.calls["poly.DensePoly.evaluate"],
        "poly.self_s": tr.layer_self_s("poly"),
        "cartier.matrix_calls": tr.calls["cartier.cartier_matrix"],
        "cartier.power_coeffs_calls": tr.calls["cartier.power_coeffs"],
        "cartier.recurrence_share": _ratio(
            tr.counts["cartier.recurrence_matrices"], tr.calls["cartier.cartier_matrix"]
        ),
        "cartier.oracle_s": tr.incl_ns["cartier.prank_oracle"] * NS,
        "cartier.self_s": tr.layer_self_s("cartier"),
        "curves.ss_lambdas_calls": tr.calls["curves.supersingular_lambdas"],
        "curves.ss_lambdas_distinct_p": len(tr.distinct["curves.ss_lambdas_p"]),
        "curves.self_s": tr.layer_self_s("curves"),
        "covers.fiber_calls": tr.calls["covers.kani_rosen_triple"],
        "covers.self_s": tr.layer_self_s("covers"),
        "search.candidates": tr.counts["search.candidates"],
        "search.kernel_s": kernel_s,
        "search.candidates_per_s": _ratio(tr.counts["search.candidates"], kernel_s),
        "search.fallback_checks": tr.counts["search.fallback_checks"],
        "search.cache_write_s": tr.incl_ns["search.write_result"] * NS,
        "search.enum_s": tr.self_ns["search.superspecial_g2_enumeration"] * NS,
        "search.reverify_calls": reverify_calls,
        "search.reverify_s": reverify_s,
        "search.reverify_ms_per_call": _ratio(reverify_s * 1e3, reverify_calls),
        "strata.self_s": tr.layer_self_s("strata"),
        "cli.calls": tr.calls["cli.main"],
        "cli.self_s": tr.layer_self_s("cli"),
    }
