"""Span tracing of the perfolayer layers from outside the package.

``Tracer.install`` replaces every public module-level function of the layer
modules with a wrapper that records a span (name, start, end, parent) and
counts the call.  Functions that other package modules imported by name
(``from .plate import evaluate_deflection``) are replaced there too, so their
calls are not missed.  A few methods are wrapped as well: the load-model
evaluations (one span name, ``loads.eval``) and ``SymmetricOperator.matvec``,
which is only counted, as CG iterations when called from ``fem.solve_spd``.

Spans stay in memory; ``summary`` reduces them to per-function and per-layer
inclusive and self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

PACKAGE = "perfolayer"
LAYERS = ("geometry", "fem", "cell", "plate", "micro", "inequalities", "loads")
# methods wrapped as spans, under a span name of their own
METHOD_SPANS = {
    ("loads", "LoadModel", "eval_f"): "loads.eval",
    ("loads", "LoadModel", "eval_g"): "loads.eval",
    ("loads", "LoadModel", "effective_loads"): "loads.eval",
}


class Tracer:
    """Records spans around the public functions of the layer modules."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()  # counters read from results and matvecs
        self.failed = Counter()  # per layer: exceptions raised in its spans
        self.maxima = {}         # largest value seen, e.g. eigen residuals
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # --- installation ------------------------------------------------------
    def install(self):
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in LAYERS}
        # every module of the package that may hold a name-imported copy
        holders = list(modules.values()) + [
            importlib.import_module(f"{PACKAGE}.{name}")
            for name in ("config", "cli", "reporting")]
        holders.append(importlib.import_module(PACKAGE))
        replaced = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                replaced[fn] = self._span_wrapper(f"{layer}.{attr}", fn,
                                                  self._result_hook(layer, attr))
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._patch(mod, attr, replaced[value])
        for (layer, cls_name, meth), span in METHOD_SPANS.items():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._span_wrapper(span, getattr(cls, meth)))
        op_cls = modules["fem"].SymmetricOperator
        self._patch(op_cls, "matvec", self._matvec_counter(op_cls.matvec))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # --- wrappers ------------------------------------------------------------
    def _span_wrapper(self, name, fn, on_result=None):
        layer = name.split(".")[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # charge the failure to the innermost wrapped call only
                if not getattr(exc, "_perfbench_counted", False):
                    self.failed[layer] += 1
                    try:
                        exc._perfbench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _matvec_counter(self, matvec):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(matvec)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "fem.solve_spd":
                counts["fem.cg_iters"] += 1
            return matvec(*args, **kwargs)

        return wrapper

    def _result_hook(self, layer, attr):
        if (layer, attr) == ("fem", "max_rayleigh_pair"):
            def hook(res):
                self.counts["fem.eigen_sweeps"] += res.iterations
                self._maximum("fem.eigen_residual", res.residual)
            return hook
        if (layer, attr) == ("micro", "micro_step"):
            def hook(state):
                self.counts["micro.picard_iters"] += state.picard_iters
            return hook
        return None

    def _maximum(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    # --- reduction -----------------------------------------------------------
    def summary(self, window=None):
        """Per-function and per-layer times and calls.

        Returns ``{"functions": {name: {"s", "self_s", "calls"}},
        "layers": {layer: {"s", "self_s", "failed"}}, "root_s": float}``.
        Inclusive time counts a span only when no enclosing span has the same
        name (or, for layers, the same layer), so recursion and nesting are
        not counted twice.  ``root_s`` sums the spans without a parent that
        start inside ``window`` (a (start, end) pair of perf_counter values).
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions = {}
        layers = {layer: {"s": 0.0, "self_s": 0.0, "failed": self.failed[layer]}
                  for layer in LAYERS}
        root_s = 0.0
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            layer = name.split(".")[0]
            f = functions.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            f["calls"] += 1
            f["self_s"] += dur - child_time[idx]
            layers[layer]["self_s"] += dur - child_time[idx]
            same_name = same_layer = False
            p = parent
            while p >= 0:
                pname = spans[p][0]
                same_name |= pname == name
                same_layer |= pname.split(".")[0] == layer
                p = spans[p][3]
            if not same_name:
                f["s"] += dur
            if not same_layer:
                layers[layer]["s"] += dur
            if parent < 0 and (window is None or window[0] <= start <= window[1]):
                root_s += dur
        return {"functions": functions, "layers": layers, "root_s": root_s}
