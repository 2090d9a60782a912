"""The benchmark's correctness gate holds on this checkout.

``perfbench/run.py`` calls a run correct when every operation of a pass
passes its check, and a traced pass, with the tracer's shims over the
gapdet layers, returns every value bit for bit (by ``pickle``) as the
untraced pass did.  One untraced and one traced pass of each workload at
seed 1 must meet both, so a change that breaks the gate fails here in
seconds instead of in the minute-long benchmark runs.
"""

import ctypes
import importlib.util
import pickle
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """``perfbench/<name>.py``, loaded by path once; registered, because
    its dataclasses look their module up."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            key, PERFBENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


@pytest.fixture
def one_blas_thread():
    """OpenBLAS at one thread, as ``run.py`` runs it: on two threads
    these small factorizations take several times longer."""
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    restore = []
    for lib in map(ctypes.CDLL, libs):
        for suffix in ("", "64_"):
            for prefix in ("", "scipy_"):
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}",
                              None)
                if put is not None:
                    get = getattr(lib,
                                  f"{prefix}openblas_get_num_threads{suffix}")
                    put.argtypes, put.restype = [ctypes.c_int], None
                    get.argtypes, get.restype = [], ctypes.c_int
                    restore.append((put, get()))
                    put(1)
    yield
    for put, n in restore:
        put(n)


def _run_pass(steps):
    """The value of each step, or the exception it raised (as ``run.py``)."""
    values = {}
    for step in steps:
        try:
            values[step.key] = step.fn(values)
        except Exception as exc:  # a failed operation, judged by check
            values[step.key] = exc
    return values


@pytest.mark.parametrize("name", ["pde-grid", "dual-rep-moments"])
def test_traced_and_untraced_passes_pass_every_check(name,
                                                    one_blas_thread):
    tracing, workloads = _load("tracing"), _load("workloads")
    workload = workloads.WORKLOADS[name](1)
    refs = workload.references()
    assert not refs.get("problems")
    steps = workload.steps_of_pass(refs)
    values = _run_pass(steps)
    with tracing.Tracer():
        traced = _run_pass(steps)
    for got in values, traced:
        verdicts, _ = workload.check(got, refs)
        assert len(verdicts) == sum(step.is_op for step in steps)
        assert all(v.passed for v in verdicts.values()), \
            [k for k, v in verdicts.items() if not v.passed]
    assert [k for k in values
            if pickle.dumps(values[k]) != pickle.dumps(traced[k])] == []
