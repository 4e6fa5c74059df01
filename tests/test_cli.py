"""End-to-end tests for the command-line front end."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qbayes
from qbayes.cli import main
from qbayes.model import load_model, model_zoo, save_model


def write_cb(tmp_path, name="cb.json"):
    path = tmp_path / name
    save_model(model_zoo("classical_binary", (1.0, 0.6)), str(path))
    return str(path)


def test_bounds_report_on_the_binary_model(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    model_path = write_cb(tmp_path)
    out = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    code = main(["bounds", "--model", model_path, "--bounds", "all",
                 "--out", str(out), "--csv", str(csv)])
    assert code == 0
    report = json.loads(out.read_text())
    for name in ("nh", "holevo", "sld", "rld"):
        assert abs(report["bounds"][name]["value"] - 0.64) < 1e-5
    assert report["bounds"]["vantree"]["error_kind"] == "capability"
    assert report["bounds"]["nagaoka2"]["error_kind"] == "capability"
    assert report["model_digest"].startswith("sha256:")
    assert abs(report["audit"]["nh_minus_holevo"]) < 1e-5
    for entry in report["bounds"].values():
        assert "wall_time_ms" in entry
    for name in ("nh", "holevo"):
        entry = report["bounds"][name]
        assert entry["solver_status"] == "optimal"
        assert isinstance(entry["iterations"], int) and entry["iterations"] > 0
        assert 0.0 <= entry["feas_primal"] <= 1e-8
        assert 0.0 <= entry["feas_dual"] <= 1e-6
    assert "iterations" not in report["bounds"]["sld"]
    assert report["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                      "OMP_NUM_THREADS": None,
                                      "MKL_NUM_THREADS": "2"}
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "bound,value,solver_status,gap,wall_time_ms"
    assert len(lines) == 7 and all(line.count(",") == 4 for line in lines)


def test_bounds_report_certifies_nagaoka2_on_a_two_parameter_model(tmp_path):
    path = tmp_path / "xy.json"
    save_model(model_zoo("qubit_xy", (0.6,)), str(path))
    out = tmp_path / "report.json"
    code = main(["bounds", "--model", str(path), "--bounds", "nh,holevo,nagaoka2",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    entry = report["bounds"]["nagaoka2"]
    assert entry["solver_status"] == "optimal"
    assert entry["gap"] <= report["gap_tol"]
    assert isinstance(entry["iterations"], int) and entry["iterations"] > 0
    assert 0.0 <= entry["feas_primal"] <= 1e-8
    assert 0.0 <= entry["feas_dual"] <= 1e-6
    assert not any("search" in note for note in report["warnings"])
    assert report["audit"]["nh_minus_nagaoka2"] >= -1e-7
    assert report["audit"]["nagaoka2_minus_holevo"] >= -1e-7


def test_bounds_selector_subset_and_csv(tmp_path):
    model_path = write_cb(tmp_path)
    out = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    code = main(["bounds", "--model", model_path, "--bounds", "sld,rld",
                 "--out", str(out), "--csv", str(csv)])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report["bounds"]) == {"sld", "rld"}
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "bound,value,solver_status,gap,wall_time_ms"
    assert len(lines) == 3 and lines[1].startswith("sld,")


def test_bounds_rejects_unknown_selector(tmp_path, capsys):
    model_path = write_cb(tmp_path)
    assert main(["bounds", "--model", model_path, "--bounds", "qfi"]) == 2
    assert "unknown bound selector" in capsys.readouterr().err


def test_bounds_rejects_missing_or_corrupt_files(tmp_path, capsys):
    assert main(["bounds", "--model", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bounds", "--model", str(bad)]) == 2
    capsys.readouterr()


def test_gap_tolerance_env_is_reported(tmp_path, monkeypatch):
    monkeypatch.setenv("QBAYES_GAP_TOL", "1e-6")
    model_path = write_cb(tmp_path)
    out = tmp_path / "r.json"
    assert main(["bounds", "--model", model_path, "--bounds", "nh",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["gap_tol"] == 1e-6
    assert report["bounds"]["nh"]["gap"] <= 1e-6


def test_verify_certifies_the_binary_model(tmp_path):
    model_path = write_cb(tmp_path)
    out = tmp_path / "v.json"
    code = main(["verify", "--model", model_path, "--iters", "12",
                 "--seeds", "0,1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["min_margin"] >= -1e-6
    runs = report["seesaw_runs"]
    assert runs[0]["start"] == "nh" and "seed" not in runs[0]
    assert [r["seed"] for r in runs[1:]] == [0, 1]
    assert report["best_seesaw_risk"] == min(r["risk"] for r in runs)
    assert abs(report["best_seesaw_risk"] - 0.64) < 1e-4


@pytest.mark.parametrize("bad, message", [
    (["--seeds", "0,x"], "--seeds must be comma-separated integers"),
    (["--outcomes", "0"], "--outcomes must be positive"),
])
def test_verify_rejects_bad_arguments(tmp_path, capsys, bad, message):
    path = tmp_path / "xy.json"
    save_model(model_zoo("qubit_xy", (0.6,)), str(path))
    assert main(["verify", "--model", str(path), *bad]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_zoo_materializes_a_loadable_model(tmp_path, capsys):
    out = tmp_path / "xy.json"
    assert main(["zoo", "qubit_xy", "0.5", "--grid", "5",
                 "--out", str(out)]) == 0
    model = load_model(str(out))
    assert model.n == 2 and len(model.points) == 5
    capsys.readouterr()
    assert main(["zoo", "martian_lattice"]) == 2
    assert "martian_lattice" in capsys.readouterr().err


def test_zoo_prints_json_without_out(capsys):
    assert main(["zoo", "classical_binary", "1", "0.6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 1 and len(data["points"]) == 2


def test_lemmas_suite_passes(tmp_path, capsys):
    out = tmp_path / "lemmas.json"
    code = main(["lemmas", "--trials", "4", "--seed", "0", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS" in captured and "FAIL" not in captured
    payload = json.loads(out.read_text())
    assert payload["failures"] == 0
    assert len(payload["identity_suite"]) == 4


def run_sld_report(command, model_path, env=None):
    return subprocess.run(
        command + ["bounds", "--model", model_path, "--bounds", "sld"],
        capture_output=True, text=True, timeout=120, env=env)


def test_console_script_entry_point(tmp_path):
    """``python -m qbayes`` in a fresh process, installed or not."""
    model_path = write_cb(tmp_path)
    package_root = str(Path(qbayes.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = run_sld_report([sys.executable, "-m", "qbayes"], model_path, env)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert abs(report["bounds"]["sld"]["value"] - 0.64) < 1e-9


@pytest.mark.skipif(shutil.which("qbayes") is None,
                    reason="qbayes console script not installed")
def test_installed_console_script(tmp_path):
    """The pip-generated ``qbayes`` wrapper script."""
    model_path = write_cb(tmp_path)
    proc = run_sld_report(["qbayes"], model_path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert abs(report["bounds"]["sld"]["value"] - 0.64) < 1e-9
