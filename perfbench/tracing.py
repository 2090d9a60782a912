"""Spans around the calls into each gapdet layer, and the per-layer metrics.

The traced run installs a shim over each layer function listed in
``TARGETS``: every module of the program that holds the function gets the
shim in its place, so calls made inside the wrappers (``gap.*``,
``pdecheck.build_grid``, the ``isomono`` reports) are seen as well.  A
span records name, start, end, parent and operation id; spans stay in
memory until the run ends.  ``scipy.linalg.lu_factor`` is shimmed too,
which counts every LU the program makes.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

from gapdet import airy, contour, fredholm, gap, isomono, pdecheck, pearcey
from gapdet import tracy_widom

# the silent cap of ``contour.solve_radius``
RADIUS_CAP = inspect.signature(contour.solve_radius).parameters["r_max"].default

# layers whose own work is glue around other layers
WRAPPERS = {"gap", "pdecheck.build_grid", "isomono.report"}

OPERATOR_LAYERS = ("airy.iiks_operator", "airy.physical_operator",
                   "airy.tangent_operator", "pearcey.iiks_operator",
                   "pearcey.physical_operator", "pearcey.tangent_operator")

TARGETS = (
    (contour, "build_airy_system", "contour"),
    (contour, "build_pearcey_system", "contour"),
    (airy, "physical_contours", "contour"),
    (airy, "iiks_operator", "airy.iiks_operator"),
    (airy, "physical_operator", "airy.physical_operator"),
    (airy, "iiks_tangent_operator", "airy.tangent_operator"),
    (pearcey, "iiks_operator", "pearcey.iiks_operator"),
    (pearcey, "physical_operator", "pearcey.physical_operator"),
    (pearcey, "iiks_tangent_operator", "pearcey.tangent_operator"),
    (fredholm, "det", "fredholm.det"),
    (fredholm, "solve_resolvent", "fredholm.solve_resolvent"),
    (fredholm, "logdet_derivative", "fredholm.logdet_derivative"),
    (scipy.linalg, "lu_factor", "fredholm.lu"),
    (isomono, "gamma_moments", "isomono.gamma_moments"),
    (isomono, "airy_derivative_report", "isomono.report"),
    (isomono, "pearcey_derivative_report", "isomono.report"),
    (pdecheck, "build_grid", "pdecheck.build_grid"),
    (pdecheck, "avm_residual", "pdecheck.avm_residual"),
    (gap, "airy_gap_probability", "gap"),
    (gap, "pearcey_gap_probability", "gap"),
    (gap, "equivalence_report", "gap"),
    (tracy_widom, "gap_probability", "tracy_widom"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.attrs = parent, op, None

    @property
    def dur(self):
        return self.end - self.start

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "attrs": self.attrs}


def _note(layer, args, result):
    """Counts taken at the layer boundary (outside the span's time)."""
    if layer == "fredholm.lu":
        a = args[0]
        n = a.shape[0]
        stride = max(1, n // 32)
        sample = np.ascontiguousarray(a[::stride, ::stride])
        return {"n": n, "fingerprint": hashlib.sha1(
            sample.tobytes() + repr(a.shape).encode()).hexdigest()}
    if layer in OPERATOR_LAYERS:
        return {"n": result.n}
    if layer == "contour":
        grids = getattr(result, "grids", None) or (
            result.mu_grids + (result.lam_grid,))
        return {"radii": [g.component.truncation_radius for g in grids]}
    if layer == "fredholm.det":
        return {"rcond": result.diagnostics.get("rcond")}
    return None


class Tracer:
    """Records spans while installed (use as a context manager)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._undo = []

    def open(self, name):
        span = Span(name, time.perf_counter(),
                    self.stack[-1] if self.stack else None, self.op)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    def _shim(self, layer, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.attrs = _note(layer, args, result)
            return result
        return shim

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "gapdet" or name.startswith("gapdet.")]
        for module, attr, layer in TARGETS:
            orig = getattr(module, attr)
            shim = self._shim(layer, orig)
            for holder in {id(m): m for m in modules + [module]}.values():
                for name, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, name, shim)
                        self._undo.append((holder, name, orig))
        return self

    def __exit__(self, *exc):
        for holder, name, orig in reversed(self._undo):
            setattr(holder, name, orig)
        self._undo.clear()
        return False


def _outermost(spans, i):
    """True when no ancestor of span i has the same name."""
    name, p = spans[i].name, spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return False
        p = spans[p].parent
    return True


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def busy_ms(spans, name):
    return 1e3 * sum(s.dur for i, s in enumerate(spans)
                     if s.name == name and _outermost(spans, i))


def pass_metrics(spans):
    """Per-layer metrics of one traced pass (spans of that pass only)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)

    def covered(i):
        total = 0.0
        for c in children[i]:
            total += covered(c) if spans[c].name in WRAPPERS else spans[c].dur
        return total

    ops = [i for i, s in enumerate(spans) if s.name == "op"]
    op_time = sum(spans[i].dur for i in ops)
    gap_self = sum(s.dur - sum(spans[c].dur for c in children[i])
                   for i, s in enumerate(spans) if s.name == "gap")
    # a call that raised has no attrs; it still counts as busy time
    done = [s for s in spans if s.attrs is not None]
    lus = [s for s in done if s.name == "fredholm.lu"]
    lu_flops = sum(8.0 / 3.0 * s.attrs["n"] ** 3 for s in lus)
    lu_s = sum(s.dur for s in lus)
    orders = [s.attrs["n"] for s in done if s.name in OPERATOR_LAYERS]
    radii = [r for s in done if s.name == "contour" for r in s.attrs["radii"]]
    rconds = [s.attrs["rcond"] for s in done
              if s.name == "fredholm.det" and s.attrs["rcond"] is not None]
    out = {name + ".busy_ms": busy_ms(spans, name) for name in (
        "pdecheck.build_grid", "contour", *OPERATOR_LAYERS, "fredholm.det",
        "fredholm.lu", "fredholm.solve_resolvent",
        "fredholm.logdet_derivative", "isomono.gamma_moments")}
    out.update({
        "pdecheck.dets": sum(1 for i, s in enumerate(spans)
                             if s.name == "fredholm.det" and _has_ancestor(
                                 spans, i, "pdecheck.build_grid")),
        "contour.calls": sum(1 for s in spans if s.name == "contour"),
        "contour.radius_cap_hits": sum(1 for r in radii if r >= RADIUS_CAP),
        "assembly.matrix_order_max": max(orders, default=0),
        "assembly.bytes_computed": sum(16 * n * n for n in orders),
        "fredholm.lu_count": len(lus),
        "fredholm.lu_flops_computed": lu_flops,
        "fredholm.lu_gflops_computed": lu_flops / lu_s / 1e9 if lu_s else 0.0,
        "fredholm.distinct_per_lu": len({s.attrs["fingerprint"] for s in lus})
        / len(lus) if lus else 0.0,
        "fredholm.rcond_min": min(rconds, default=0.0),
        "gap.self_ms": 1e3 * gap_self,
        "trace.coverage": sum(covered(i) for i in ops) / op_time
        if op_time else 0.0,
    })
    return out
