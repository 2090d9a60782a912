"""gapdet benchmark: time to a checked determinant, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pde-grid --seed 1 --seconds 50 --trace 0

Workloads are ``pde-grid`` and ``dual-rep-moments`` (see
``perfbench/README.md``).  The program is imported from ``src/`` of the
same checkout.  One pass runs every step of the workload once; passes
repeat until the next one would end after ``--seconds``, with at least
one.  Every operation is checked against its reference after the pass;
a failed or raising operation keeps its timing, counts in ``failed`` and
makes the run incorrect.  Known defects of the program are evaluated
once per run outside the passes and reported, not counted in ``failed``.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` each round is an untraced pass followed by a traced
pass of the same inputs; the traced values must be bit-identical to the
untraced ones, and the per-layer metrics come from the traced passes.

The second-to-last line of stdout is a report (every metric with its
unit, the environment, the seed, the failed operations); the last line
is ``{"correct", "attempted", "failed", "metrics"}``.  The report and
the spans are also written to ``perfbench/out/``.
"""

import ctypes
import os
import sys

BLAS_THREADS = 1  # 2 threads were slower and erratic on a 2-core box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def pin_allocator():
    """Serve every matrix from the heap and never give it back.

    With glibc's defaults each order-480 complex matrix is mapped and
    unmapped per call; the page faults cost about a quarter of a
    determinant and made pass times spread by 20%.  Returns whether
    both settings took (False off glibc).
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20)
                and libc.mallopt(m_trim_threshold, 1 << 30))


ALLOCATOR_PINNED = pin_allocator()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
MAX_DIGITS = 15.0

# counters that must repeat exactly from pass to pass and run to run
EXACT = ("ops_per_pass", "pdecheck.dets", "pdecheck.useful_points",
         "pdecheck.useful_frac", "contour.calls", "contour.radius_cap_hits",
         "assembly.matrix_order_max", "assembly.bytes_computed",
         "fredholm.lu_count", "fredholm.lu_flops_computed",
         "fredholm.distinct_per_lu")


def metric_units():
    """Units of the end-to-end and the per-layer metrics, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def with_units(values, units):
    """Metrics in the order and with the units of BENCHMARK.json."""
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def import_program():
    """Import gapdet from this checkout's ``src/``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import gapdet
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gapdet from {SRC}: {exc}")
    if Path(gapdet.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: gapdet resolved outside {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("pde-grid", "dual-rep-moments"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(workload):
    """Wall times of fresh interpreters that import gapdet and warm up.

    The child prints ``time.monotonic()`` when its first call returns
    (the clock is shared by all processes on Linux), so the time the
    parent takes to notice the exit is not counted.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--setup-child"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                             capture_output=True, text=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    return times


def run_pass(steps, tracer=None):
    """One pass: wall seconds, seconds per operation, value per step."""
    values, op_s = {}, {}
    t0 = time.perf_counter()
    for i, step in enumerate(steps):
        if tracer is not None:
            tracer.op = i
            span = tracer.open("op" if step.is_op else "prep")
        s = time.perf_counter()
        try:
            values[step.key] = step.fn(values)
        except Exception as exc:  # a failed operation, judged by check
            values[step.key] = exc
        dur = time.perf_counter() - s
        if tracer is not None:
            tracer.close(span)
        if step.is_op:
            op_s[step.key] = dur
    return time.perf_counter() - t0, op_s, values


def tail(samples, q):
    """The q-th percentile and the number of samples above it."""
    value = float(np.percentile(samples, q))
    return value, sum(x > value for x in samples)


def blas_threads():
    """Thread count reported by each loaded OpenBLAS library."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment():
    def blas_version(module):
        return module.show_config(mode="dicts")[
            "Build Dependencies"]["blas"].get("version")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "allocator_pinned": ALLOCATOR_PINNED,
    }


def digits(err):
    return MAX_DIGITS if err == 0.0 else min(MAX_DIGITS, -math.log10(err))


def json_safe(x):
    """Copy with non-finite floats as strings, so the output stays JSON."""
    if isinstance(x, dict):
        return {str(k): json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_safe(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def same_value(a, b):
    return pickle.dumps(a) == pickle.dumps(b)


def tally(verdict_sets):
    """attempted, failed, error by failed key, digits of scored passes."""
    attempted = failed = 0
    failures, scored = {}, []
    for verdicts in verdict_sets:
        for key, v in verdicts.items():
            attempted += 1
            if v.passed:
                if v.scored:
                    scored.append(digits(v.error))
                continue
            failed += 1
            failures[key] = v.error
    return attempted, failed, failures, scored


def traced_round(tracing, workload, steps, refs, values):
    """A traced pass of the same inputs; its values must be bit-identical."""
    tracer = tracing.Tracer()
    with tracer:
        wall, _, t_values = run_pass(steps, tracer)
    problems = [f"traced value of {k!r} differs" for k in values
                if not same_value(values[k], t_values[k])]
    layers = tracing.pass_metrics(tracer.spans)
    useful = workload.useful_points(values) \
        if hasattr(workload, "useful_points") else 0
    dets = layers["pdecheck.dets"]
    layers.update({"ops_per_pass": sum(step.is_op for step in steps),
                   "pdecheck.useful_points": useful,
                   "pdecheck.useful_frac": useful / dets if dets else 0.0})
    return (wall, workload.check(t_values, refs)[0], layers,
            [s.as_dict() for s in tracer.spans], problems)


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_child:
        workload.warmup()
        print(time.monotonic())
        return 0
    setup_samples = [] if args.trace else measure_setup(args.workload)

    e2e_units, layer_units = metric_units()
    # references are computed once, outside every timing but their own
    ref_tracer = tracing.Tracer()
    t0 = time.perf_counter()
    with ref_tracer if args.trace else contextlib.nullcontext():
        refs = workload.references()
    reference_s = time.perf_counter() - t0
    problems = list(refs.get("problems", []))
    defects = workload.known_defects(refs) \
        if hasattr(workload, "known_defects") else {}
    workload.warmup()
    steps = workload.steps_of_pass(refs)
    n_ops = sum(step.is_op for step in steps)

    walls, traced_walls, op_samples = [], [], []
    verdict_sets, layer_runs, spans_out, extras = [], [], [], {}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall, op_s, values = run_pass(steps)
        walls.append(wall)
        op_samples.extend(op_s.values())
        verdicts, extras = workload.check(values, refs)
        verdict_sets.append(verdicts)
        if args.trace:
            t_wall, t_verdicts, layers, spans, bad = traced_round(
                tracing, workload, steps, refs, values)
            traced_walls.append(t_wall)
            verdict_sets.append(t_verdicts)
            layer_runs.append(layers)
            spans_out.append(spans)
            problems += bad
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    attempted, failed, failures, scored = tally(verdict_sets)
    if attempted != n_ops * len(verdict_sets):
        problems.append("an operation has no verdict")
    checks = {"fail_frac": failed / attempted,
              "known_defect_frac": sum(not v.passed for v in defects.values())
              / max(len(defects), 1), "pde_rel_residual": 0.0,
              "richardson_ratio": 0.0, "deriv_rel_mismatch": 0.0, **extras}
    tail_s, beyond = tail(op_samples, workload.tail_percentile)

    if args.trace:
        problems += [f"counter {name} changed between passes" for name in EXACT
                     if len({run[name] for run in layer_runs}) != 1]
        values = {k: statistics.fmean(run[k] for run in layer_runs)
                  for k in layer_runs[0]}
        values["tracy_widom.busy_ms"] = tracing.busy_ms(
            ref_tracer.spans, "tracy_widom")
        values["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced_walls, walls)) - 1.0
        values.update(checks)
        metrics = with_units(values, layer_units)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "op_ms_p50": 1e3 * statistics.median(op_samples),
            "op_ms_tail": 1e3 * tail_s,
            "accuracy_digits": min(scored, default=0.0),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = with_units(values, e2e_units)
    correct = not failed and not problems
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(walls), "pass_walls_s": walls,
        "ops_per_pass": n_ops, "op_samples": len(op_samples),
        "op_ms_tail_percentile": workload.tail_percentile,
        "op_samples_beyond_tail": beyond, "reference_s": reference_s,
        "setup_samples_s": setup_samples, "environment": environment(),
        "checks": {k: {"value": v, "unit": layer_units[k]}
                   for k, v in checks.items()},
        "metrics": metrics, "failed_operations": failures,
        "known_defects": {k: {"passed": v.passed, "error": v.error}
                          for k, v in defects.items()},
        "problems": problems, "correct": correct,
    }
    OUT.mkdir(exist_ok=True)
    name = f"BENCH-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(json_safe({"report": report, "spans": spans_out}), fh)
    print(json.dumps(json_safe({"report": report})))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
