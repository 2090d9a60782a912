"""The program API the benchmark uses still exists.

``perfbench/tracing.py`` reads the default of ``contour.solve_radius``'s
``r_max`` when imported and resolves every layer function in
``TARGETS`` when a ``Tracer`` is entered, and ``perfbench/workloads.py``
calls the functions bound below with these argument shapes.  Renaming
a function or dropping a keyword fails here in milliseconds instead of
as failed operations in the minute-long benchmark runs.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from gapdet import (airy, contour, fredholm, gap, isomono, pdecheck, pearcey,
                    tracy_widom)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_shim_target():
    tracing = _load_tracing()
    # the tracer's cap hits count the radii that _system flags
    assert tracing.RADIUS_CAP == contour.RADIUS_CAP
    current = lambda: [getattr(module, attr)
                       for module, attr, _ in tracing.TARGETS]
    originals = current()
    with tracing.Tracer():
        shimmed = current()
    assert all(s is not o for s, o in zip(shimmed, originals))
    # leaving the tracer puts every original back
    assert current() == originals


# every call of perfbench/workloads.py, with placeholder arguments
_X = object()
WORKLOAD_CALLS = [
    (pdecheck.two_time_logdet, (1.0, 0.2, 0.1), {"m": 120}),
    (pdecheck.build_grid, ((1.0, 0.2, 0.1),),
     {"step": 0.04, "radius": 2, "m": 120}),
    (pdecheck.avm_residual, (_X,), {}),
    (gap.equivalence_report, ("airy", _X, _X), {"m": 120}),
    (tracy_widom.gap_probability, (0.0,), {}),
    (gap.airy_gap_probability, (_X, _X), {"m": 120}),
    (gap.airy_gap_probability, (_X, _X), {"m": 120, "gauge": False}),
    (gap.pearcey_gap_probability, (_X, _X), {"m": 120}),
    (gap.pearcey_gap_probability, (_X, _X), {"m": 120, "delta": 0.25}),
    (isomono.gamma_moments, ("airy", _X, _X), {"m": 120}),
    (contour.build_airy_system, (_X,), {"m": 120, "endpoint_scale": 1.0}),
    (contour.build_pearcey_system, (_X,), {"m": 120, "endpoint_scale": 1.0}),
    (airy.iiks_operator, (_X, _X, _X), {}),
    (pearcey.iiks_operator, (_X, _X, _X), {}),
    (airy.iiks_tangent_operator, (_X, _X, _X, 0, 0), {}),
    (pearcey.iiks_tangent_operator, (_X, _X, _X, 0, 0), {}),
    (fredholm.logdet_derivative, (_X, _X), {}),
    (isomono.airy_derivative_report, (_X, _X), {"m": 120}),
    (isomono.pearcey_derivative_report, (_X, _X), {"m": 120}),
    (airy.AiryEndpoints, (_X,), {}),
    (pearcey.PearceyEndpoints, (_X,), {}),
]


@pytest.mark.parametrize(
    "fn, args, kwargs", WORKLOAD_CALLS,
    ids=[f"{fn.__module__}.{fn.__qualname__}-{i}"
         for i, (fn, _, _) in enumerate(WORKLOAD_CALLS)])
def test_workload_calls_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_tracer_notes_read_the_program(process):
    # what ``tracing._note`` reads at each layer boundary, on one small
    # two-time determinant: the full operator order, rcond, every grid's
    # truncation radius, and one LU of the Schur complement through the
    # ``scipy.linalg.lu_factor`` shim
    tracing = _load_tracing()
    times, m = [0.0, 1.0], 16
    with tracing.Tracer() as tracer:
        if process == "airy":
            res = gap.airy_gap_probability(times, [[0.0], [0.5]], m=m)
            n, lead, grids = 4 * m, 2 * m, 3  # gamma_R carries both times
        else:
            res = gap.pearcey_gap_probability(times, [[-1.0, 1.0]] * 2, m=m)
            n, lead, grids = 6 * m, 4 * m, 3  # every grid carries both
    notes = {}
    for span in tracer.spans:
        notes.setdefault(span.name, []).append(span.attrs)
    assert notes[f"{process}.iiks_operator"] == [{"n": n}]
    assert notes["fredholm.det"] == [{"rcond": res.diagnostics["rcond"]}]
    assert 0 < res.diagnostics["rcond"] <= 1
    [radii] = [a["radii"] for a in notes["contour"]]
    assert len(radii) == grids and all(r > 0 for r in radii)
    [lu] = notes["fredholm.lu"]
    assert lu["n"] == n - lead and len(lu["fingerprint"]) == 40
