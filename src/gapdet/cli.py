"""Batch front end.

``gapdet run <config.json>`` executes one job described by a JSON
document; ``gapdet check equivalence|derivatives|pde --preset <name>``
runs a named verification; ``gapdet tw-oracle --s <real>`` compares the
single-time determinant against the independent Tracy-Widom oracle.
Exit code 0 means every requested tolerance was met.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import csv
import json
import os
import sys
import time

import numpy as np

from . import fredholm, isomono, pdecheck, tracy_widom
from .gap import (airy_gap_probability, as_endpoints, equivalence_report,
                  pearcey_gap_probability)

_TASKS = ("det", "equivalence", "derivatives", "pde", "tw-oracle", "sweep")

_DEFAULT_TOL = {
    "equivalence": 1e-6,
    "derivatives": 1e-4,
    "pde": 1e-3,
    "tw-oracle": 1e-8,
    "imag": 1e-8,
}

#: the top-level keys of a job
_KEYS = {"task", "process", "times", "intervals", "s", "quadrature",
         "tolerances", "sweep", "pde", "csv"}

_PRESETS = {
    "equivalence": {
        "airy-two-time": {
            "process": "airy", "times": [0.0, 1.0],
            "intervals": [[0.0], [0.5]], "task": "equivalence",
            "quadrature": {"m": 120},
        },
        "pearcey-two-time": {
            "process": "pearcey", "times": [0.0, 1.0],
            "intervals": [[-1.0, 1.0], [-1.0, 1.0]], "task": "equivalence",
            "quadrature": {"m": 100},
        },
    },
    "derivatives": {
        "airy-n2": {
            "process": "airy", "times": [0.0, 1.0],
            "intervals": [[0.0], [0.0]], "task": "derivatives",
            "quadrature": {"m": 160},
        },
        "pearcey-n1": {
            "process": "pearcey", "times": [0.0],
            "intervals": [[-1.0, 1.0]], "task": "derivatives",
            "quadrature": {"m": 120},
        },
        "pearcey-n2": {
            "process": "pearcey", "times": [0.0, 1.0],
            "intervals": [[-1.0, 1.0], [-1.0, 1.0]], "task": "derivatives",
            "quadrature": {"m": 120},
        },
    },
    "pde": {
        "avm-center": {
            "task": "pde",
            "pde": {"center": [1.0, 0.2, 0.1], "steps": [0.04, 0.02]},
            "quadrature": {"m": 120},
        },
    },
}


class ConfigError(ValueError):
    """Invalid job configuration."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _real(value, name):
    # rejects JSON's NaN and Infinity, and integers beyond float range
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max,
             f"{name}: expected a finite real number, got {value!r}")
    return value


def validate_config(cfg):
    """Field-level validation; returns a normalized copy."""
    cfg = copy.deepcopy(cfg)
    _require(isinstance(cfg, dict), "config must be a JSON object")
    unknown = sorted(set(cfg) - _KEYS)
    _require(not unknown, f"unknown keys {unknown}")
    task = cfg.get("task", "det")
    _require(task in _TASKS, f"task: expected one of {_TASKS}, got {task!r}")
    cfg["task"] = task
    job = _validate_sweep(cfg.get("sweep")) if task == "sweep" else task
    if job == "pde":
        _validate_pde(cfg.get("pde", {}))
        ignored = sorted({"process", "times", "intervals"} & set(cfg))
        _require(not ignored, f"pde: this job ignores keys {ignored}")
    if task == "tw-oracle":
        _real(cfg.get("s"), "s")
    elif job not in ("tw-oracle", "pde"):  # a tw-oracle sweep sets s
        times, intervals = cfg.get("times"), cfg.get("intervals")
        _require(isinstance(times, list) and times,
                 "times: need a non-empty list of reals")
        for tau in times:
            _real(tau, "times")
        _require(isinstance(intervals, list)
                 and all(isinstance(ends, list) for ends in intervals),
                 "intervals: need one endpoint list per time")
        for ends in intervals:
            for a in ends:
                _real(a, "intervals")
        # the process name, time order, one list per time and the
        # endpoint parity and order are the library's own checks
        try:
            as_endpoints(cfg.get("process"), times, intervals)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if task == "sweep":
        _validate_axis(cfg["sweep"]["axis"], job, cfg)
    if "csv" in cfg:
        _require(isinstance(cfg["csv"], str) and cfg["csv"],
                 f"csv: need a non-empty path, got {cfg['csv']!r}")
        _require((task, job) == ("sweep", "det"),
                 "csv: only a det sweep writes one")
    quad = cfg.setdefault("quadrature", {})
    _require(isinstance(quad, dict), "quadrature: must be an object")
    unknown = sorted(set(quad) - {"m", "delta"})
    _require(not unknown, f"quadrature: unknown keys {unknown}")
    if "m" in quad:
        m = quad["m"]
        _require(isinstance(m, int) and not isinstance(m, bool) and m >= 4,
                 f"quadrature.m: need an integer >= 4, got {m!r}")
    if "delta" in quad:
        _require(_real(quad["delta"], "quadrature.delta") > 0,
                 "quadrature.delta: must be positive")
    ignored = sorted(set(quad) - _read_keys(job, cfg.get("process")))
    _require(not ignored, f"quadrature: this job ignores keys {ignored}")
    tol = cfg.setdefault("tolerances", {})
    _require(isinstance(tol, dict), "tolerances: must be an object")
    unknown = sorted(set(tol) - set(_DEFAULT_TOL))
    _require(not unknown, f"tolerances: unknown keys {unknown}")
    for key, value in tol.items():
        _require(_real(value, f"tolerances.{key}") > 0,
                 f"tolerances.{key}: must be positive")
    return cfg


def _validate_sweep(sweep):
    """Check a ``sweep`` block; returns the task run at each point."""
    _require(isinstance(sweep, dict), "sweep: missing sweep description")
    unknown = sorted(set(sweep) - {"axis", "values", "task"})
    _require(not unknown, f"sweep: unknown keys {unknown}")
    _require(isinstance(sweep.get("axis"), str), "sweep.axis: must be a string")
    values = sweep.get("values")
    _require(isinstance(values, list) and values,
             "sweep.values: need a non-empty list")
    for value in values:
        _real(value, "sweep.values")
    tasks = tuple(t for t in _TASKS if t != "sweep")
    job = sweep.get("task", "det")
    _require(job in tasks, f"sweep.task: expected one of {tasks}, got {job!r}")
    return job


def _validate_axis(axis, job, cfg):
    """A sweep moves ``s`` of a tw-oracle job, else a time or endpoint."""
    _require(job != "pde", "sweep.task: a pde job reads only pde.center")
    if job == "tw-oracle":
        allowed = ["s"]
    else:
        allowed = [f"tau:{i}" for i in range(len(cfg["times"]))] + [
            f"endpoint:{i}:{ell}" for i, ends in enumerate(cfg["intervals"])
            for ell in range(len(ends))]
    _require(axis in allowed,
             f"sweep.axis: expected one of {allowed}, got {axis!r}")


def _validate_pde(pde):
    """Check a ``pde`` block against what ``pdecheck`` accepts."""
    _require(isinstance(pde, dict), "pde: must be an object")
    unknown = sorted(set(pde) - {"center", "steps"})
    _require(not unknown, f"pde: unknown keys {unknown}")
    if "steps" in pde:
        steps = pde["steps"]
        _require(isinstance(steps, list) and steps,
                 "pde.steps: need a non-empty list of positive reals")
        for h in steps:
            _require(_real(h, "pde.steps") > 0, "pde.steps: must be positive")
    if "center" in pde:
        center = pde["center"]
        _require(isinstance(center, list) and len(center) == 3,
                 "pde.center: need three reals (tau, E, W)")
        for value in center:
            _real(value, "pde.center")
        _require(center[0] > 0, f"pde.center: need tau > 0, got {center[0]!r}")


def _read_keys(task, process):
    """The quadrature keys a job of ``task`` reads."""
    if task in ("derivatives", "pde", "tw-oracle") or process == "airy":
        return {"m"}
    return {"m", "delta"}


def _quad_kwargs(cfg):
    quad = cfg.get("quadrature", {})
    kw = {"m": quad.get("m", 80)}
    if "delta" in quad:
        kw["delta"] = float(quad["delta"])
    return kw


def _complex_fields(z):
    return {"re": z.real, "im": z.imag}


def _sanitize(obj):
    """JSON-encodable copy (numpy scalars to floats, tuple keys to str)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, complex):
        return _complex_fields(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def _is_probability(value, diagnostics, tol):
    """A probability, from an operator the solves would accept."""
    return abs(value.imag) < tol["imag"] \
        and 0.0 < value.real <= 1.0 + tol["imag"] \
        and diagnostics["rcond"] >= fredholm._RCOND_MIN


def run_task(cfg):
    """Execute one validated job; returns a result record (dict)."""
    t0 = time.time()
    task = cfg["task"]
    tol = {**_DEFAULT_TOL, **cfg.get("tolerances", {})}
    record = {"config": copy.deepcopy(cfg), "task": task}
    passed = True
    if task == "det":
        fn = airy_gap_probability if cfg["process"] == "airy" \
            else pearcey_gap_probability
        res = fn(cfg["times"], cfg["intervals"], **_quad_kwargs(cfg))
        record["det"] = _complex_fields(res.value)
        record["log_det"] = _complex_fields(res.log_value)
        record["diagnostics"] = _sanitize(res.diagnostics)
        passed = _is_probability(res.value, res.diagnostics, tol)
    elif task == "equivalence":
        rep = equivalence_report(cfg["process"], cfg["times"],
                                 cfg["intervals"], **_quad_kwargs(cfg))
        record["det_physical"] = _complex_fields(rep["det_physical"])
        record["det_iiks"] = _complex_fields(rep["det_iiks"])
        record["abs_difference"] = rep["abs_difference"]
        record["diagnostics"] = _sanitize(rep["diagnostics"])
        passed = rep["abs_difference"] < tol["equivalence"] and all(
            _is_probability(rep[f"det_{r}"], rep["diagnostics"][r], tol)
            for r in ("physical", "iiks"))
    elif task == "derivatives":
        report = isomono.airy_derivative_report if cfg["process"] == "airy" \
            else isomono.pearcey_derivative_report
        rep = report(cfg["intervals"], cfg["times"],
                     m=cfg.get("quadrature", {}).get("m", 160))
        record["identities"] = _sanitize(
            {"a": rep["a"], "tau": rep["tau"]})
        record["max_rel_mismatch"] = rep["max_rel_mismatch"]
        passed = rep["max_rel_mismatch"] < tol["derivatives"]
    elif task == "pde":
        preset = _PRESETS["pde"]["avm-center"]
        pde = {**preset["pde"], **cfg.get("pde", {})}
        center, steps = tuple(pde["center"]), list(pde["steps"])
        m = cfg.get("quadrature", {}).get("m", preset["quadrature"]["m"])
        results, grids = [], []
        for h in steps:
            grids.append(pdecheck.build_grid(center, step=h, m=m))
            results.append(pdecheck.avm_residual(grids[-1]))
        record["residuals"] = _sanitize(
            [{"step": h, "radii": g.radii, "radius_capped": g.radius_capped,
              **r} for h, g, r in zip(steps, grids, results)])
        passed = results[-1]["relative_residual"] < tol["pde"]
        if len(results) >= 2:
            ratio = results[0]["relative_residual"] / max(
                results[-1]["relative_residual"], 1e-300)
            record["richardson_ratio"] = ratio
            record.update(pdecheck.richardson(grids[0], grids[-1]))
            # a second-order residual falls by (h_0 / h_last)^2
            order2 = (steps[0] / steps[-1]) ** 2
            passed = passed and 0.75 * order2 <= ratio <= 1.25 * order2
    elif task == "tw-oracle":
        s = float(cfg["s"])
        m = cfg.get("quadrature", {}).get("m", 140)
        det_iiks = airy_gap_probability([0.0], [[s]], m=m).value
        oracle = tracy_widom.gap_probability(s)
        record["s"] = s
        record["det_iiks"] = _complex_fields(det_iiks)
        record["oracle"] = oracle
        record["abs_difference"] = abs(det_iiks.real - oracle)
        passed = record["abs_difference"] < tol["tw-oracle"] and \
            abs(det_iiks.imag) < tol["imag"]
    else:
        raise ConfigError(f"task {task!r} must be dispatched via run_sweep")
    record["wall_time"] = time.time() - t0
    record["passed"] = bool(passed)
    return record


def _sweep_point(args):
    cfg, axis, value = args
    point = copy.deepcopy(cfg)
    point["task"] = cfg.get("sweep", {}).get("task", "det")
    kind, *index = axis.split(":")
    if kind == "endpoint":
        point["intervals"][int(index[0])][int(index[1])] = value
    elif kind == "tau":
        point["times"][int(index[0])] = value
    else:
        point["s"] = value
    try:
        rec = run_task(point)
    except Exception as exc:  # keep sweeps alive, flag the point
        rec = {"config": point, "task": point["task"], "passed": False,
               "error": f"{type(exc).__name__}: {exc}"}
    rec["sweep_value"] = value
    return rec


def run_sweep(cfg, workers=1):
    """One record per value of a validated job's sweep axis."""
    sweep = cfg["sweep"]
    jobs = [(cfg, sweep["axis"], v) for v in sweep["values"]]
    workers = min(workers, len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            records = list(pool.map(_sweep_point, jobs))
    else:
        records = [_sweep_point(j) for j in jobs]
    return records


def _write_output(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left (``| head``); keep the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_csv(records, path):
    cols = ["sweep_value", "re_det", "im_det", "log_det", "passed", "error"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for rec in records:
            det = rec.get("det", {})
            writer.writerow([
                rec.get("sweep_value"),
                det.get("re"), det.get("im"),
                rec.get("log_det", {}).get("re"),
                rec.get("passed"), rec.get("error", ""),
            ])


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--m", type=int, help="nodes per contour component")
    common.add_argument("--workers", type=int, default=1,
                        help="worker processes for sweeps")
    common.add_argument("--out", help="output JSON path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="gapdet",
        description="Gap probabilities of the Airy and Pearcey processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common],
                           help="run a JSON job config")
    p_run.add_argument("config", help="path to the JSON config file")

    p_check = sub.add_parser("check", parents=[common],
                             help="run a named verification")
    p_check.add_argument("what", choices=("equivalence", "derivatives", "pde"))
    p_check.add_argument("--preset", required=True)

    p_tw = sub.add_parser("tw-oracle", parents=[common],
                          help="single-time Airy vs the Tracy-Widom oracle")
    p_tw.add_argument("--s", type=float, required=True,
                      help="left endpoint of [s, inf)")
    return parser


def _apply_flag_overrides(cfg, args):
    """``--m`` written into the job's quadrature object."""
    if args.m is not None and isinstance(cfg, dict):
        quad = cfg.setdefault("quadrature", {})
        if isinstance(quad, dict):
            quad["m"] = args.m
    return cfg


def _load_job(path):
    """The JSON document at ``path``; an unreadable file is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read job file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not a JSON document: {exc}") from exc


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        if args.command == "run":
            cfg = _load_job(args.config)
        elif args.command == "check":
            presets = _PRESETS[args.what]
            if args.preset not in presets:
                raise ConfigError(
                    f"unknown preset {args.preset!r}; "
                    f"available: {sorted(presets)}")
            cfg = copy.deepcopy(presets[args.preset])
        else:
            cfg = {"task": "tw-oracle", "s": args.s}
        cfg = validate_config(_apply_flag_overrides(cfg, args))
        if cfg["task"] == "sweep":
            records = run_sweep(cfg, workers=args.workers)
            payload = {"records": records,
                       "passed": all(r.get("passed") for r in records)}
            _write_output(payload, args.out)
            csv_path = cfg.get("csv")
            if csv_path:
                _write_csv(records, csv_path)
            ok = payload["passed"]
        else:
            record = run_task(cfg)
            _write_output(record, args.out)
            ok = record["passed"]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
