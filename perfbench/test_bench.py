"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_bench.py

Each workload runs twice in traced mode with one round.  The exact
counters must repeat: between two runs of one seed, and for ``pde-grid``
(whose inputs do not depend on the seed) between seeds.  No operation
may fail.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import EXACT, import_program, tail  # noqa: E402


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace=1):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,seeds", [
    ("pde-grid", (3, 4)), ("dual-rep-moments", (3, 3))])
def test_exact_counters_repeat(workload, seeds):
    a, b = (run(workload, s) for s in seeds)
    assert a["correct"] and b["correct"]
    assert a["failed"] == b["failed"] == 0
    assert a["attempted"] == b["attempted"]
    for name in EXACT:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name


def test_pde_grid_reads_42_of_250_points():
    m = run("pde-grid", 3)["metrics"]
    assert m["pdecheck.useful_points"]["value"] == 42
    assert m["pdecheck.dets"]["value"] == 250
    assert 4.5e-4 < m["pde_rel_residual"]["value"] < 4.52e-4
    assert 4.12 < m["richardson_ratio"]["value"] < 4.13


def test_tail_counts_samples_beyond():
    assert tail(list(range(1001)), 99.0) == (990.0, 10)
    assert tail([3.0, 1.0, 2.0], 100.0) == (3.0, 0)


def test_layer_metrics_keep_calls_that_raised():
    import_program()
    import tracing
    tracer = tracing.Tracer()
    op = tracer.open("op")
    for name in ("fredholm.lu", "airy.iiks_operator", "contour"):
        tracer.close(tracer.open(name))  # raised: no attrs recorded
    tracer.close(op)
    m = tracing.pass_metrics(tracer.spans)
    assert m["fredholm.lu_count"] == 0 and m["contour.calls"] == 1
    assert m["airy.iiks_operator.busy_ms"] >= 0.0


def test_known_defects_stay_out_of_the_pass():
    import_program()
    from workloads import DualRep
    w = DualRep(3)
    assert [c.key for c in w.defect_configs] == [
        "random-airy-1 m=100", "random-airy-3 m=100", "sweep dt=0.01",
        "sweep dt=0.1", "sweep dt=2.0", "sweep dt=3.0", "sweep dt=6.0"]
    timed = {c.key: c for c in w.configs}
    assert timed["sweep dt=1.0"].frechet
    assert timed["random-airy-1"].m == timed["random-airy-3"].m == 200
    assert timed["random-airy-0"].m == timed["random-airy-2"].m == 100
