"""The names the benchmark's tracer shims still exist.

``perfbench/tracing.py`` reads the default of ``contour.solve_radius``'s
``r_max`` when imported and resolves every layer function in
``TARGETS`` when a ``Tracer`` is entered.  Renaming one of them fails
here in milliseconds instead of in the minute-long benchmark checks.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_shim_target():
    tracing = _load_tracing()
    assert tracing.RADIUS_CAP > 0
    current = lambda: [getattr(module, attr)
                       for module, attr, _ in tracing.TARGETS]
    originals = current()
    with tracing.Tracer():
        shimmed = current()
    assert all(s is not o for s, o in zip(shimmed, originals))
    # leaving the tracer puts every original back
    assert current() == originals
