"""Command-line front end tests."""

import csv
import json

import pytest

from gapdet import cli


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


def test_run_det_empty_intervals(tmp_path):
    cfg = {"process": "airy", "times": [0.0, 1.0], "intervals": [[], []],
           "task": "det", "quadrature": {"m": 24}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    code, rec = _run(tmp_path, ["run", str(path)])
    assert code == 0
    assert rec["det"]["re"] == pytest.approx(1.0, abs=1e-12)


def test_config_validation_errors(tmp_path):
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
        {"process": "pearcey", "times": [0.0], "intervals": [[-1.0, 1.0]],
         "quadrature": {"t_cut": 10.0}},
        {"process": "airy", "times": [0.0, 1.0], "intervals": [[0.0], [0.0]],
         "task": "derivatives", "quadrature": {"truncation_radius": 9.0}},
        {"process": "pearcey", "times": [0.0], "intervals": [[-1.0, 1.0]],
         "task": "derivatives", "quadrature": {"delta": 0.3}},
        {"process": "airy", "times": [0.0, 1.0], "intervals": [[0.3], [0.1]],
         "task": "pde", "quadrature": {"t_cut": 10.0}},
        {"task": "tw-oracle", "s": 0.0,
         "quadrature": {"truncation_radius": 9.0}},
        {"process": "airy", "times": [0.0], "intervals": [[0.0]],
         "task": "sweep", "quadrature": {"delta": 0.3},
         "sweep": {"axis": "endpoint:0:0", "values": [0.0]}},
    ]
    for cfg in bad:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, _ = _run(tmp_path, ["run", str(path)])
        assert code == 2


@pytest.mark.parametrize("flags", [["--m", "2"], ["--radius", "-1"]])
def test_run_validates_flag_overrides(tmp_path, flags):
    cfg = {"process": "airy", "times": [0.0], "intervals": [[0.0]],
           "task": "det", "quadrature": {"m": 24}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    code, rec = _run(tmp_path, ["run", str(path)] + flags)
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
        "process": "airy", "times": [0.0, 1.0], "intervals": [[0.3], [0.1]],
        "task": "pde",
        "pde": {"center": [1.0, 0.2, 0.1], "steps": [0.08], "radius": 2},
        "quadrature": {"m": 100},
        "tolerances": {"pde": 0.05},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    code, rec = _run(tmp_path, ["run", str(path)])
    assert code == 0
    assert rec["residuals"][0]["relative_residual"] < 0.05


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
    cfg = {
        "process": "airy", "times": [0.0], "intervals": [[0.0]],
        "task": "sweep",
        "sweep": {"axis": "tau:0", "task": "det", "values": [0.0]},
        "quadrature": {"m": 24},
    }
    # tau sweep on a single time is fine; break it with an invalid axis
    cfg["sweep"]["axis"] = "bogus:0"
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    code = cli.main(["run", str(path), "--out", str(out)])
    payload = json.loads(out.read_text())
    assert code == 1
    assert payload["records"][0]["passed"] is False
    assert "error" in payload["records"][0]
