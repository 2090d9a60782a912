"""Command-line front end tests."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gapdet import cli, fredholm

ROOT = Path(__file__).resolve().parents[1]


def _run(tmp_path, argv):
    out = tmp_path / "out.json"
    code = cli.main(argv + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def test_run_det_task(tmp_path):
    cfg = {
        "process": "airy", "times": [0.0], "intervals": [[0.0]],
        "task": "det", "quadrature": {"m": 100},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    code, rec = _run(tmp_path, ["run", str(path)])
    assert code == 0
    assert rec["passed"] is True
    assert rec["det"]["re"] == pytest.approx(0.9693728283552633, abs=1e-8)
    assert abs(rec["det"]["im"]) < 1e-10
    # the record round-trips losslessly through JSON
    assert json.loads(json.dumps(rec)) == rec


@pytest.mark.parametrize("dt, capped", [(1e-3, ["line_1", "line_2"]),
                                        (1.0, [])])
def test_run_det_reports_capped_radius(tmp_path, dt, capped):
    cfg = {"process": "airy", "times": [0.0, dt],
           "intervals": [[0.0], [0.0]], "quadrature": {"m": 8}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    _, rec = _run(tmp_path, ["run", str(path)])
    assert rec["diagnostics"]["radius_capped"] == capped


def test_run_det_fails_on_a_singular_operator(tmp_path):
    # F2(-12) ~ 1e-32 is below rounding: the LU returns noise with a tiny
    # rcond, which must not pass as a probability
    cfg = {"process": "airy", "times": [0.0], "intervals": [[-12.0]],
           "task": "det", "quadrature": {"m": 140}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    code, rec = _run(tmp_path, ["run", str(path)])
    assert code == 1
    assert rec["passed"] is False
    assert rec["diagnostics"]["rcond"] < 1e-13


def test_run_equivalence_fails_on_a_singular_operator(tmp_path):
    # both representations agree to 1e-24 on noise: the difference alone
    # does not make a probability
    cfg = {"process": "airy", "times": [0.0], "intervals": [[-12.0]],
           "task": "equivalence", "quadrature": {"m": 140}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    code, rec = _run(tmp_path, ["run", str(path)])
    assert code == 1
    assert rec["passed"] is False
    assert rec["abs_difference"] < 1e-6


@pytest.mark.parametrize("rep", ["physical", "iiks"])
@pytest.mark.parametrize("value, rcond, code", [
    (0.5, 0.3, 0), (1.1, 0.3, 1), (-1e-28, 0.3, 1), (0.5, 1e-14, 1)])
def test_run_equivalence_verdict_reads_both_determinants(
        tmp_path, monkeypatch, rep, value, rcond, code):
    # one representation gets (value, rcond), the other a clean 0.5
    def fake(process, times, intervals, **kw):
        dets = {"physical": 0.5, "iiks": 0.5, rep: value}
        rconds = {"physical": 0.3, "iiks": 0.3, rep: rcond}
        return {"det_physical": complex(dets["physical"]),
                "det_iiks": complex(dets["iiks"]), "abs_difference": 0.0,
                "diagnostics": {r: {"rcond": c} for r, c in rconds.items()}}

    monkeypatch.setattr(cli, "equivalence_report", fake)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"process": "airy", "times": [0.0],
                                "intervals": [[0.0]], "task": "equivalence"}))
    assert _run(tmp_path, ["run", str(path)])[0] == code


@pytest.mark.parametrize("value, rcond, code", [
    (0.5, 0.3, 0), (1.0 + 5e-9, 0.3, 0), (0.5, 1e-14, 1), (1.1, 0.3, 1),
    (0.0, 0.3, 1), (-0.2, 0.3, 1), (0.5 + 1e-6j, 0.3, 1)])
def test_run_det_verdict(tmp_path, monkeypatch, value, rcond, code):
    def fake(times, intervals, **kw):
        return fredholm.DetResult(complex(value), 0j, {"rcond": rcond})

    monkeypatch.setattr(cli, "airy_gap_probability", fake)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"process": "airy", "times": [0.0],
                                "intervals": [[0.0]], "task": "det"}))
    assert _run(tmp_path, ["run", str(path)])[0] == code


def test_run_det_empty_intervals(tmp_path):
    cfg = {"process": "airy", "times": [0.0, 1.0], "intervals": [[], []],
           "task": "det", "quadrature": {"m": 24}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    code, rec = _run(tmp_path, ["run", str(path)])
    assert code == 0
    assert rec["det"]["re"] == pytest.approx(1.0, abs=1e-12)


NAN, INF = float("nan"), float("inf")

_PDE_JOB = {"task": "pde", "quadrature": {"m": 24}}


def test_config_validation_errors(tmp_path, capsys):
    bad = [
        {"process": "airy", "times": [1.0, 0.0], "intervals": [[0.0], [0.0]]},
        {"process": "pearcey", "times": [0.0], "intervals": [[0.0]]},
        {"process": "nope", "times": [0.0], "intervals": [[0.0]]},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "wat"},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "quadrature": {"m": "abc"}},
        {"process": "pearcey", "times": [0.0], "intervals": [[-1.0, 1.0]],
         "quadrature": {"delta": "x"}},
        {"process": "airy", "times": [0.0, "a"], "intervals": [[0.0], [0.0]]},
        {"task": "tw-oracle"},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "quadrature": {"deform": False}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "quadrature": {"nodes": 80}},
        # keys the job would silently ignore
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "det", "quadrature": {"delta": 0.3}},
        {"process": "airy", "times": [0.0, 1.0], "intervals": [[0.0], [0.0]],
         "task": "derivatives", "quadrature": {"truncation_radius": 9.0}},
        {"process": "pearcey", "times": [0.0], "intervals": [[-1.0, 1.0]],
         "task": "derivatives", "quadrature": {"delta": 0.3}},
        {"task": "tw-oracle", "s": 0.0,
         "quadrature": {"truncation_radius": 9.0}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "quadrature": {"delta": 0.3},
         "sweep": {"axis": "endpoint:0:0", "values": [0.0]}},
        # no job reads a tail cut: each semi-infinite interval is cut
        # at a fixed length
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "det", "quadrature": {"t_cut": 0.5}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "equivalence", "quadrature": {"t_cut": 12.0}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "quadrature": {"t_cut": 12.0},
         "sweep": {"axis": "endpoint:0:0", "values": [0.0]}},
        {"process": "pearcey", "times": [0.0], "intervals": [[-1.0, 1.0]],
         "quadrature": {"t_cut": 10.0}},
        {**_PDE_JOB, "quadrature": {"t_cut": 10.0}},
        # sweep blocks
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep",
         "sweep": {"axis": "endpoint:0:0", "task": "bogus", "values": [0.0]}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep",
         "sweep": {"axis": "endpoint:0:0", "task": "sweep", "values": [0.0]}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "sweep": {"axis": "endpoint:0:0", "values": []}},
        # pde blocks (no key sets a stencil radius)
        {**_PDE_JOB, "pde": {"radius": 2}},
        {**_PDE_JOB, "pde": {"steps": []}},
        {**_PDE_JOB, "pde": {"steps": [0.04, -0.02]}},
        {**_PDE_JOB, "pde": {"steps": 0.04}},
        {**_PDE_JOB, "pde": {"center": [1.0, 0.2]}},
        {**_PDE_JOB, "pde": {"center": [1.0, "E", 0.1]}},
        {**_PDE_JOB, "pde": [1.0, 0.2, 0.1]},
        {**_PDE_JOB, "task": "sweep", "pde": {"radius": 1},
         "sweep": {"axis": "tau:1", "task": "pde", "values": [1.0]}},
        # misspelt keys, which would run the defaults
        {**_PDE_JOB, "pde": {"centre": [0.5, 0.0, 0.0]}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "sweep": {"axis": "endpoint:0:0",
                                    "taks": "equivalence", "values": [0.0]}},
        # no key sets a contour radius: the truncation rule sets each one
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "quadrature": {"m": 120, "truncation_radius": 400.0}},
        # a pde job computes the two-time Airy grid of pde.center only
        {**_PDE_JOB, "process": "pearcey"},
        {**_PDE_JOB, "process": "airy", "times": [0.0, 5.0],
         "intervals": [[0.3], [0.1]]},
        {**_PDE_JOB, "intervals": [[0.3], [0.1]]},
        # pde grids centered at tau <= 0
        {**_PDE_JOB, "pde": {"center": [0.0, 0.2, 0.1], "steps": [0.04]}},
        {**_PDE_JOB, "pde": {"center": [-0.5, 0.2, 0.1]}},
        {**_PDE_JOB, "pde": {"center": [-1e-9, 0.2, 0.1],
                             "steps": [0.02, 0.04]}},
        {**_PDE_JOB, "task": "sweep",
         "pde": {"center": [0.0, 0.2, 0.1], "steps": [0.04]},
         "sweep": {"axis": "tau:1", "task": "pde", "values": [1.0]}},
        # non-finite numbers, which JSON's NaN and Infinity literals allow
        {"process": "airy", "times": [0.0], "intervals": [[NAN]]},
        {"process": "airy", "times": [0.0], "intervals": [[-1.0, INF]]},
        {"process": "pearcey", "times": [0.0], "intervals": [[-INF, 1.0]]},
        {"process": "airy", "times": [0.0, NAN], "intervals": [[0.0], [0.0]]},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "quadrature": {"truncation_radius": INF}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "quadrature": {"m": INF}},
        # an endpoint is a number, not a bool or a numeral string
        {"process": "airy", "times": [0.0], "intervals": [[True]]},
        {"process": "airy", "times": [0.0], "intervals": [["0.5"]]},
        # a node count is an integer: 80.7 would run at m = 80
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "quadrature": {"m": 80.7}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "quadrature": {"m": True}},
        {"task": "tw-oracle", "s": NAN},
        {**_PDE_JOB, "pde": {"center": [1.0, INF, 0.1]}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "sweep": {"axis": "endpoint:0:0",
                                    "values": [0.0, NAN]}},
        # sweep axes the job does not have
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "sweep": {"axis": "bogus", "values": [0.0]}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "sweep": {"axis": "endpoint:3:0", "values": [0.0]}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "sweep": {"axis": "endpoint:0:1", "values": [0.0]}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "sweep": {"axis": "tau:1", "values": [0.5]}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "sweep": {"axis": "s", "values": [0.5]}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep",
         "sweep": {"axis": "tau:0", "task": "tw-oracle", "values": [0.5]}},
        # a pde job reads only pde.center: no axis moves its grid
        {**_PDE_JOB, "task": "sweep",
         "sweep": {"axis": "tau:1", "task": "pde", "values": [1.0, 2.0]}},
        {**_PDE_JOB, "task": "sweep",
         "sweep": {"axis": "endpoint:0:0", "task": "pde", "values": [0.3]}},
        # the CSV columns hold the determinant of a det record
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "csv": str(tmp_path / "sweep.csv"),
         "sweep": {"axis": "endpoint:0:0", "task": "equivalence",
                   "values": [0.0]}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "det", "csv": str(tmp_path / "j1.csv")},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "csv": 98,
         "sweep": {"axis": "endpoint:0:0", "values": [0.0]}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "csv": "",
         "sweep": {"axis": "endpoint:0:0", "values": [0.0]}},
        # unknown top-level keys, among them a misspelt one and the
        # output path, which only --out sets
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "tolerance": {"imag": 1e-3}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "output": 99},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "output": str(tmp_path / "elsewhere.json")},
        # tolerances: an object of known keys with positive finite values
        {"task": "tw-oracle", "s": 0.0, "tolerances": {"tw-oracle": "big"}},
        {"task": "tw-oracle", "s": 0.0, "tolerances": {"tw_oracle": 1e-6}},
        {"task": "tw-oracle", "s": 0.0, "tolerances": {"imag": -1e-8}},
        {"task": "tw-oracle", "s": 0.0, "tolerances": {"imag": 0}},
        {"task": "tw-oracle", "s": 0.0, "tolerances": {"imag": NAN}},
        {"task": "tw-oracle", "s": 0.0, "tolerances": {"imag": True}},
        {"task": "tw-oracle", "s": 0.0, "tolerances": [1e-8]},
    ]
    for cfg in bad:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        code, _ = _run(tmp_path, ["run", str(path)])
        err = capsys.readouterr().err
        assert code == 2, cfg
        assert err.startswith("error: ") and "Traceback" not in err, cfg
    assert not (tmp_path / "elsewhere.json").exists()


def test_invalid_configuration_writes_one_stderr_line(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(
        {"task": "pde", "pde": {"centre": [1.0, 0.2, 0.1]}}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gapdet.cli", "run", str(path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "error: pde: unknown keys ['centre']\n"
    assert proc.stdout == ""


def test_environment_sets_no_log_level():
    # no module logs a record, so no GAPDET_LOG value changes a run
    env = {**os.environ, "GAPDET_LOG": "verbose",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gapdet.cli", "tw-oracle", "--s", "0.0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_pde_center_tau_must_be_positive(tmp_path):
    # the grid sits at the center tau, however large the steps
    for pde in ({"center": [0.03, 0.2, 0.1], "steps": [0.04]},
                {"center": [0.04, 0.2, 0.1], "steps": [0.02, 0.04]}):
        ok = {**_PDE_JOB, "pde": pde}
        assert cli.validate_config(ok)["pde"] == pde
    path = tmp_path / "job.json"
    path.write_text(json.dumps(
        {**_PDE_JOB, "pde": {"center": [0.0, 0.2, 0.1], "steps": [0.04]}}))
    code, _ = _run(tmp_path, ["run", str(path)])
    assert code == 2


def test_closed_stdout_pipe_exits_quietly():
    # the reader closes its end before any output, like ``| head -3``
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gapdet.cli", "tw-oracle", "--s", "0.0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    err = err.decode()
    assert proc.returncode == 0
    assert "Traceback" not in err and "BrokenPipe" not in err, err


@pytest.mark.parametrize("text", [None, "{bad"])
def test_run_rejects_unreadable_job_file(tmp_path, capsys, text):
    path = tmp_path / "job.json"
    if text is not None:
        path.write_text(text)
    code, rec = _run(tmp_path, ["run", str(path)])
    assert code == 2
    assert rec is None
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags", [["--m", "2"], ["--radius", "400"]])
def test_run_validates_flag_overrides(tmp_path, flags):
    cfg = {"process": "airy", "times": [0.0], "intervals": [[0.0]],
           "task": "det", "quadrature": {"m": 24}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    try:
        code, rec = _run(tmp_path, ["run", str(path)] + flags)
    except SystemExit as exc:  # argparse rejects --radius: no flag sets one
        code, rec = exc.code, None
    assert code == 2
    assert rec is None


def test_tw_oracle_command(tmp_path):
    code, rec = _run(tmp_path, ["tw-oracle", "--s", "0.5"])
    assert code == 0
    assert rec["abs_difference"] < 1e-8


def test_check_equivalence_preset_flag_override(tmp_path):
    code, rec = _run(tmp_path, ["check", "equivalence",
                                "--preset", "airy-two-time", "--m", "120"])
    assert code == 0
    assert rec["abs_difference"] < 1e-6


@pytest.mark.parametrize("preset, physical, iiks", [
    ("airy-two-time", {"gamma_R", "left_line"},
     {"gamma_R", "line_1", "line_2"}),
    ("pearcey-two-time", {"gamma_R", "gamma_L", "iR"},
     {"gamma_R", "gamma_L", "iR"})])
def test_check_equivalence_record_carries_both_diagnostics(
        tmp_path, preset, physical, iiks):
    code, rec = _run(tmp_path, ["check", "equivalence", "--preset", preset])
    assert code == 0
    diag = rec["diagnostics"]
    assert set(diag["physical"]["radii"]) == physical
    assert set(diag["iiks"]["radii"]) == iiks
    m = cli._PRESETS["equivalence"][preset]["quadrature"]["m"]
    for route in ("physical", "iiks"):
        assert diag[route]["m"] == m and diag[route]["radius_capped"] == []
        assert diag[route]["rcond"] >= fredholm._RCOND_MIN


def test_check_unknown_preset(tmp_path):
    code, _ = _run(tmp_path, ["check", "equivalence", "--preset", "nope"])
    assert code == 2


def test_check_pearcey_equivalence_preset(tmp_path):
    code, rec = _run(tmp_path, ["check", "equivalence",
                                "--preset", "pearcey-two-time", "--m", "60"])
    assert code == 0
    assert rec["abs_difference"] < 1e-6


def test_check_derivatives_preset(tmp_path):
    code, rec = _run(tmp_path, ["check", "derivatives",
                                "--preset", "pearcey-n1", "--m", "80"])
    assert code == 0
    assert rec["max_rel_mismatch"] < 1e-4


def test_run_pde_task_with_tolerance_override(tmp_path):
    cfg = {
        "task": "pde",
        "pde": {"center": [1.0, 0.2, 0.1], "steps": [0.08]},
        "quadrature": {"m": 100},
        "tolerances": {"pde": 0.05},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    code, rec = _run(tmp_path, ["run", str(path)])
    assert code == 0
    assert rec["residuals"][0]["relative_residual"] < 0.05


def test_pde_verdict_reads_the_halving_ratio(tmp_path):
    # the large-gap job of ROADMAP item 11: its residual is under the
    # 1e-3 default, but it does not fall like h^2 between the two steps
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "task": "pde", "quadrature": {"m": 200},
        "pde": {"center": [2.0, -0.5, 0.3], "steps": [0.04, 0.02]}}))
    code, rec = _run(tmp_path, ["run", str(path)])
    assert rec["residuals"][-1]["relative_residual"] == pytest.approx(
        1.196e-4, rel=1e-3)
    assert rec["richardson_ratio"] == pytest.approx(1.511, rel=1e-3)
    assert (code, rec["passed"]) == (1, False)
    # the preset's ratio lies within [3, 5] = [0.75, 1.25] (0.04 / 0.02)^2
    code, rec = _run(tmp_path, ["check", "pde", "--preset", "avm-center"])
    assert rec["richardson_ratio"] == pytest.approx(3.981, rel=1e-3)
    assert (code, rec["passed"]) == (0, True)


def test_run_pde_reports_the_radii_of_each_step(tmp_path):
    cfg = {"task": "pde", "pde": {"steps": [0.08, 0.04]},
           "quadrature": {"m": 24}, "tolerances": {"pde": 1.0}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    _, rec = _run(tmp_path, ["run", str(path)])
    coarse, fine = rec["residuals"]
    for step in coarse, fine:
        assert step["radius_capped"] == []
        assert set(step["radii"]) == {"gamma_R", "line_1", "line_2"}
    # the wider stencil reaches larger endpoints
    assert all(coarse["radii"][k] > fine["radii"][k] for k in fine["radii"])


def test_sweep_emits_one_record_per_point_and_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    cfg = {
        "process": "airy", "times": [0.0], "intervals": [[0.0]],
        "task": "sweep",
        "sweep": {"axis": "endpoint:0:0", "task": "det",
                  "values": [-1.0, 0.0, 1.0]},
        "quadrature": {"m": 60},
        "csv": str(csv_path),
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    code, payload = _run(tmp_path, ["run", str(path)])
    assert code == 0
    assert len(payload["records"]) == 3
    dets = [r["det"]["re"] for r in payload["records"]]
    assert dets == sorted(dets)  # gap probability grows with the endpoint
    rows = list(csv.reader(csv_path.open()))
    assert len(rows) == 4  # header + one row per point


def test_sweep_keeps_failed_points(tmp_path):
    # the first point moves tau_2 onto tau_1, which no determinant accepts
    cfg = {
        "process": "airy", "times": [0.0, 1.0], "intervals": [[0.0], [0.0]],
        "task": "sweep",
        "sweep": {"axis": "tau:1", "task": "det", "values": [0.0, 1.0]},
        "quadrature": {"m": 24},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    code = cli.main(["run", str(path), "--out", str(out)])
    payload = json.loads(out.read_text())
    assert code == 1
    assert payload["records"][0]["passed"] is False
    assert "error" in payload["records"][0]
    assert "det" in payload["records"][1]


def test_sweep_of_tw_oracle_needs_no_process(tmp_path):
    cfg = {"task": "sweep",
           "sweep": {"axis": "s", "task": "tw-oracle", "values": [-1.0, 0.0]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    code, payload = _run(tmp_path, ["run", str(path)])
    assert code == 0
    assert [r["s"] for r in payload["records"]] == [-1.0, 0.0]
    assert all(r["passed"] for r in payload["records"])


def _det_sweep(tmp_path, values):
    cfg = {"process": "airy", "times": [0.0], "intervals": [[0.0]],
           "task": "sweep", "quadrature": {"m": 24},
           "sweep": {"axis": "endpoint:0:0", "task": "det", "values": values}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("workers, n_values, size", [
    (8, 2, 2), (2, 3, 2), (1, 3, None), (4, 1, None)])
def test_sweep_pool_has_at_most_one_worker_per_point(
        tmp_path, monkeypatch, workers, n_values, size):
    # a stand-in pool records its size and maps in this process, so no
    # process is started
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    values = [-1.0, 0.0, 1.0][:n_values]
    code, payload = _run(tmp_path, ["run", _det_sweep(tmp_path, values),
                                    "--workers", str(workers)])
    assert code == 0
    assert [r["sweep_value"] for r in payload["records"]] == values
    assert sizes == ([] if size is None else [size])


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    code, payload = _run(tmp_path, ["run", _det_sweep(tmp_path, [0.0, 1.0]),
                                    "--workers", workers])
    assert code == 2 and payload is None
    assert "--workers" in capsys.readouterr().err


def test_sweep_over_two_worker_processes_matches_sequential(tmp_path):
    path = _det_sweep(tmp_path, [-1.0, 0.0])
    records = []
    for workers in "1", "2":
        code, payload = _run(tmp_path, ["run", path, "--workers", workers])
        assert code == 0
        for r in payload["records"]:
            del r["wall_time"]
        records.append(payload["records"])
    assert records[0] == records[1]
