"""Span tracing of the predegree layers, installed from outside the package.

``Tracer.install`` replaces every public function and method of the modules
chow, segre, polynomial, quadric, tangent, linalg and cli with a wrapper that
records a span, in every module namespace that holds a reference to it, so a
call from one layer into another is seen at the boundary.  ``uninstall``
puts the originals back; untraced passes run the unmodified code.

A span's self time is its duration minus the time covered by its child spans,
and the wrappers' own bookkeeping is measured and subtracted from every
enclosing span, so self times stay comparable with untraced runs.  The total
cost of tracing shows instead in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("chow", "segre", "polynomial", "quadric", "tangent", "linalg", "cli")

# Operators are the public interface of a Chow class; __post_init__ is where
# every class built in any layer is normalized, which is Chow-ring work.
TRACED_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__post_init__",
}


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Collects spans, self times, call counts and layer counters."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"predegree.{layer}") for layer in LAYERS}
        self.package = importlib.import_module("predegree")
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.maxima: Counter[str] = Counter()
        self.errors: Counter[tuple[str, str]] = Counter()
        self.spans: list[tuple] | None = None
        self._next_id = 0
        self.query_id = 0

    # -- installation ------------------------------------------------------

    def install(self):
        wrapped = {}  # id of an original function -> its wrapper
        namespaces = [self.package, *self.modules.values()]
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if callable(obj) and not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__:
                    if isinstance(obj, type):
                        self._install_class(layer, obj)
                    else:
                        wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if not name.startswith("_") and id(obj) in wrapped:
                    self._set(ns, name, wrapped[id(obj)])

    def _install_class(self, layer: str, cls: type):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self._wrap(span, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(span, raw.__func__)))
            elif callable(raw) and not isinstance(raw, type):
                self._set(cls, name, self._wrap(span, raw))

    def _set(self, owner, name, value):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- the span wrapper --------------------------------------------------

    def _wrap(self, span: str, fn):
        clock = time.perf_counter
        stack = self._stack
        prepare = PREPARE.get(span)
        observe = OBSERVE.get(span)
        tracer = self

        def traced(*args, **kwargs):
            t_enter = clock()
            if prepare is not None:
                args = prepare(tracer, args)
            span_id = tracer._next_id = tracer._next_id + 1
            frame = [0.0, 0.0, span_id]  # child time, overhead inside, id
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                tracer.errors[(span, type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0 - frame[1]
                tracer.self_s[span] += duration - frame[0]
                tracer.calls[span] += 1
                if observe is not None and result is not None and result is not NotImplemented:
                    observe(tracer, args, result)
                if tracer.spans is not None:
                    parent = stack[-1][2] if stack else 0
                    tracer.spans.append((span_id, parent, tracer.query_id, span, t0, t1))
                if stack:
                    outer = stack[-1]
                    outer[0] += duration
                    outer[1] += frame[1] + (t0 - t_enter) + (clock() - t1)

        traced.__wrapped__ = fn
        return traced

    def query(self, query_id: int, call):
        """Run one benchmark query as a root span."""
        self.query_id = query_id
        return self._wrap("query", call)()

    # -- reporting -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, seconds in self.self_s.items():
            layer = span.split(".", 1)[0]
            if layer in totals:
                totals[layer] += seconds
        return totals

    def write_spans(self, path):
        with open(path, "w") as out:
            for span_id, parent, query_id, name, t0, t1 in self.spans or ():
                out.write(json.dumps({"id": span_id, "parent": parent, "query": query_id, "name": name,
                                      "start": t0, "end": t1}) + "\n")


# -- layer counters --------------------------------------------------------


def _materialize_rows(tracer, args):
    rows = [tuple(r) for r in args[0]]
    return (rows, *args[1:])


def _observe_mul(tracer, args, result):
    left, right = args
    dims = left.ambient.factor_dims
    right_terms = right.terms if hasattr(right, "terms") else ({(0,) * len(dims): right} if right else {})
    tracer.counts["chow.mul_term_pairs"] += len(left.terms) * len(right_terms)
    tracer.counts["chow.mul_kept_pairs"] += sum(
        all(a + b <= n for a, b, n in zip(e1, e2, dims)) for e1 in left.terms for e2 in right_terms
    )
    _observe_chow_bits(tracer, args, result)


def _observe_chow_bits(tracer, args, result):
    bits = max((_bits(c) for c in result.terms.values()), default=0)
    if bits > tracer.maxima["chow.max_coeff_bits"]:
        tracer.maxima["chow.max_coeff_bits"] = bits


def _observe_rref(tracer, args, result):
    tracer.counts["linalg.rref_entries"] += sum(len(r) for r in args[0])


def _observe_det(tracer, args, result):
    bits = max([_bits(result)] + [_bits(Fraction(x)) for row in args[0] for x in row])
    if bits > tracer.maxima["linalg.det_max_bits"]:
        tracer.maxima["linalg.det_max_bits"] = bits


PREPARE = {"linalg.rref": _materialize_rows, "linalg.det": _materialize_rows}
OBSERVE = {
    "chow.ChowClass.__mul__": _observe_mul,
    "chow.ChowClass.__rmul__": _observe_mul,
    "chow.ChowClass.__pow__": _observe_chow_bits,
    "chow.ChowClass.invert_unit": _observe_chow_bits,
    "chow.ChowClass.__add__": _observe_chow_bits,
    "chow.ChowClass.__radd__": _observe_chow_bits,
    "linalg.rref": _observe_rref,
    "linalg.det": _observe_det,
}
