"""Per-layer call tracer for logfan, installed from outside the package.

`install` wraps every public module-level function of each layer module,
plus the static constructors `Cone.make` and `ConeGeometry.of`, and rebinds
every module-level reference to a wrapped function in every layer namespace
and in the package namespace.  The rebinding matters: a name imported with
`from .lattice import hnf_rows` is a separate module global, and a wrapper
installed only on `logfan.lattice` would never see calls made through it.

Each wrapped call records a span (function, parent span, start, end) in flat
in-memory arrays.  `summary` turns the spans into per-layer call counts and
self times (a span's duration minus the durations of its direct children)
and adds the work counters that the benchmark reports.
"""

from __future__ import annotations

import importlib
import time
import types
from array import array

LAYERS = ("cli", "suite", "hkr", "orbifold", "logmodel", "conecomplex",
          "monoid", "_geometry", "lattice")

STATIC_CONSTRUCTORS = (("conecomplex", "Cone", "make"),
                       ("_geometry", "ConeGeometry", "of"))


class Tracer:
    def __init__(self):
        self.functions: list[tuple[str, str]] = []     # index -> (layer, name)
        self.span_func = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._distinct = {"snf": set(), "dd": set(), "cone": set()}
        self._parallelepiped_points = 0
        self._hb_kept = 0
        self._hb_candidates = 0
        self._hb_open: list[set] = []

    def wrap(self, layer: str, name: str, fn):
        """Return a span-recording stand-in for `fn`."""
        index = len(self.functions)
        self.functions.append((layer, name))
        observe, enter, leave = self._hooks().get((layer, name), (None, None, None))
        span_func, span_parent = self.span_func, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(span_func)
            span_func.append(index)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(sid)
            if enter is not None:
                enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span_end[sid] = clock()
                span_start[sid] = t0
                stack.pop()
                if leave is not None:
                    leave()
                raise
            span_end[sid] = clock()
            span_start[sid] = t0
            stack.pop()
            if observe is not None:
                observe(args, result)
            if leave is not None:
                leave()
            return result

        traced.__wrapped__ = fn
        return traced

    # The hooks see the arguments and results of the few functions whose
    # reuse or waste the benchmark reports as work counters.

    def _hooks(self):
        return {
            ("lattice", "smith_normal_form"): (self._on_snf, None, None),
            ("_geometry", "dual_generators"): (self._on_dd, None, None),
            ("conecomplex", "Cone.make"): (self._on_cone, None, None),
            ("_geometry", "parallelepiped_points"): (self._on_parallelepiped, None, None),
            ("_geometry", "triangulate"): (self._on_triangulate, None, None),
            ("monoid", "hilbert_basis"): (self._on_hilbert_basis,
                                          self._hb_open_set, self._hb_close_set),
        }

    def _on_snf(self, args, result):
        A = args[0]
        self._distinct["snf"].add((A.rows, A.cols, A.entries))

    def _on_dd(self, args, result):
        self._distinct["dd"].add((tuple(tuple(c) for c in args[0]), args[1]))

    def _on_cone(self, args, result):
        self._distinct["cone"].add(result)

    def _on_parallelepiped(self, args, result):
        self._parallelepiped_points += len(result)
        if self._hb_open:
            self._hb_open[-1].update(p for p in result if any(p))

    def _on_triangulate(self, args, result):
        if self._hb_open:
            self._hb_open[-1].update(tuple(r) for r in args[0])

    def _hb_open_set(self):
        self._hb_open.append(set())

    def _on_hilbert_basis(self, args, result):
        # Candidates: the nonzero parallelepiped points and the extreme rays
        # that the minimisation step starts from.
        self._hb_kept += len(result)
        self._hb_candidates += len(self._hb_open[-1])

    def _hb_close_set(self):
        self._hb_open.pop()

    # ------------------------------------------------------------ summary

    def summary(self) -> dict:
        """Per-layer calls and self times, per-function inclusive times and
        the work counters, all computed from the recorded spans."""
        n = len(self.span_func)
        func, parent = self.span_func, self.span_parent
        start, end = self.span_start, self.span_end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        nfunc = len(self.functions)
        calls = [0] * nfunc
        inclusive = [0.0] * nfunc
        self_time = [0.0] * nfunc
        for i in range(n):
            f = func[i]
            d = end[i] - start[i]
            calls[f] += 1
            inclusive[f] += d
            self_time[f] += d - child[i]
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        functions = {}
        for f, (layer, name) in enumerate(self.functions):
            layers[layer]["calls"] += calls[f]
            layers[layer]["self_s"] += self_time[f]
            if calls[f]:
                functions[f"{layer}.{name}"] = {"calls": calls[f],
                                                "inclusive_s": inclusive[f]}
        by_name = {name: f for f, name in enumerate(self.functions)}

        def count(layer, name):
            return calls[by_name[(layer, name)]]

        return {
            "spans": n,
            "layers": layers,
            "functions": functions,
            "counters": {
                "snf_calls": count("lattice", "smith_normal_form"),
                "snf_distinct": len(self._distinct["snf"]),
                "dd_calls": count("_geometry", "dual_generators"),
                "dd_distinct": len(self._distinct["dd"]),
                "cone_make_calls": count("conecomplex", "Cone.make"),
                "cone_distinct": len(self._distinct["cone"]),
                "parallelepiped_points": self._parallelepiped_points,
                "hb_kept": self._hb_kept,
                "hb_candidates": self._hb_candidates,
            },
        }


def install(tracer: Tracer) -> None:
    """Route every call into a layer's public functions through `tracer`."""
    modules = {layer: importlib.import_module(f"logfan.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                replaced[obj] = tracer.wrap(layer, name, obj)
    for layer, cls_name, name in STATIC_CONSTRUCTORS:
        cls = getattr(modules[layer], cls_name)
        fn = cls.__dict__[name].__func__
        setattr(cls, name, staticmethod(tracer.wrap(layer, f"{cls_name}.{name}", fn)))
    namespaces = list(modules.values()) + [importlib.import_module("logfan")]
    for mod in namespaces:
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in replaced:
                setattr(mod, name, replaced[obj])
