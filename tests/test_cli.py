"""End-to-end tests for the command-line front end."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import dataclasses

import numpy as np
import pytest

import qbayes
from qbayes import conic
from qbayes.cli import main
from qbayes.model import GridPoint, StatisticalModel, WeightSpec, \
    load_model, model_to_dict, model_zoo, save_model


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


def write_per_point(tmp_path):
    """qubit_xy(0.6) with its four weights 1, 2, 3 and 4 times the identity
    plus a common off-diagonal term."""
    base = model_zoo("qubit_xy", (0.6,))
    Ws = np.stack([k * np.eye(2) + 0.3 * (1 - np.eye(2)) for k in range(1, 5)])
    path = tmp_path / "pp.json"
    save_model(dataclasses.replace(base, weight_spec=WeightSpec(per_point=Ws)),
               str(path))
    return str(path)


def test_per_point_model_file_reaches_the_sdp_bounds_only(tmp_path, capsys):
    """With a weight per grid point, `bounds` reports NH, Holevo and nagaoka2
    in their sandwich and a capability error for each closed form; `verify`,
    whose audit reports SLD and RLD, exits 2."""
    path = write_per_point(tmp_path)
    out = tmp_path / "r.json"
    assert main(["bounds", "--model", path, "--out", str(out)]) == 0
    bounds = json.loads(out.read_text())["bounds"]
    for name in ("sld", "rld", "vantree"):
        assert bounds[name]["error_kind"] == "capability"
        assert "constant weight" in bounds[name]["error"]
    for name in ("nh", "holevo", "nagaoka2"):
        assert bounds[name]["solver_status"] == "optimal"
    assert (bounds["holevo"]["value"] - 1e-7 <= bounds["nagaoka2"]["value"]
            <= bounds["nh"]["value"] + 1e-7)
    capsys.readouterr()
    assert main(["verify", "--model", path, "--iters", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "constant weight" in err


def test_bounds_notes_a_regularized_state(tmp_path):
    """States on C^3 that share a 2-dimensional support leave S_B singular:
    the SLD and RLD bounds regularize it, and the report lists both notes."""
    rng = np.random.default_rng(7)
    points = []
    for theta in (-0.5, 0.5):
        A = rng.standard_normal((3, 2))
        A[2] = 0.0   # support in span(e_0, e_1)
        rho = A @ A.T
        points.append(GridPoint(theta=[theta], weight=0.5,
                                state=rho / np.trace(rho)))
    model = StatisticalModel(n=1, d=3, points=tuple(points),
                             weight_spec=WeightSpec(constant=[[1.0]]))
    path = tmp_path / "shared.json"
    save_model(model, str(path))
    out = tmp_path / "r.json"
    assert main(["bounds", "--model", str(path), "--bounds", "sld,rld",
                 "--out", str(out)]) == 0
    notes = json.loads(out.read_text())["warnings"]
    assert [n.split(": ")[:2] for n in notes] == [["sld", "state regularized"],
                                                  ["rld", "state regularized"]]


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


NAN = float("nan")


def _set(path, value):
    """An edit of a model dict: set the entry at `path` (keys and indices)."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit, bound, message", [
    (_set(("weight", "constant", 0, 0), NAN), "sld", "weight matrix has non-finite entries"),
    (_set(("weight", "constant", 0, 0), NAN), "nh", "weight matrix has non-finite entries"),
    (_set(("points", 0, "theta", 0), NAN), "nh", "point 0: theta has non-finite entries"),
    (_set(("points", 0, "weight"), NAN), "sld", "point 0: grid weight nan is not"),
    (_set(("n",), "two"), "sld", "field 'n': could not convert"),
    (_set(("n",), 2.7), "sld", "n must be an integer >= 1, got 2.7"),
    (_set(("d",), 2.5), "sld", "d must be an integer >= 1, got 2.5"),
    (_set(("weight",), 3), "sld", "field 'weight'"),
    (_set(("weight", "constant"), [[1.0, 0.0], [0.0]]), "sld", "field 'weight'"),
    (_set(("points", 0, "theta"), 5), "sld", "point 0: field 'theta'"),
    (_set(("points", 0, "weight"), "x"), "sld", "point 0: field 'weight'"),
    (_set(("points", 0), 5), "sld", "point 0 must be a JSON object"),
], ids=["nan-weight-sld", "nan-weight-nh", "nan-theta", "nan-point-weight",
        "n-string", "n-fraction", "d-fraction", "weight-number", "ragged-weight",
        "theta-number", "point-weight-string", "point-number"])
def test_bounds_rejects_non_finite_or_mistyped_model_fields(tmp_path, capsys, edit,
                                                            bound, message):
    """An edited `qbayes zoo qubit_xy 0.6` file exits 2 with `error: ...`:
    no traceback, no NaN in the report, no silent truncation of n or d."""
    data = model_to_dict(model_zoo("qubit_xy", (0.6,)))
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert main(["bounds", "--model", str(path), "--bounds", bound]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: model file rejected: ")
    assert message in captured.err
    assert captured.out == ""


def test_gap_tolerance_env_is_reported(tmp_path, monkeypatch):
    monkeypatch.setenv("QBAYES_GAP_TOL", "1e-6")
    model_path = write_cb(tmp_path)
    out = tmp_path / "r.json"
    assert main(["bounds", "--model", model_path, "--bounds", "nh",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["gap_tol"] == 1e-6
    assert report["bounds"]["nh"]["gap"] <= 1e-6


def test_gap_tolerance_env_override(tmp_path, monkeypatch, capsys):
    """A valid QBAYES_GAP_TOL sets the command's gap; an invalid one is
    reported once on stderr and the default 1e-8 stands."""
    model_path = write_cb(tmp_path)
    monkeypatch.setenv("QBAYES_GAP_TOL", "1e-5")
    assert main(["bounds", "--model", model_path, "--bounds", "nh,holevo"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["gap_tol"] == 1e-5
    assert captured.err == ""
    for bad in ("not-a-number", "nan", "0", "-1", "inf"):
        monkeypatch.setenv("QBAYES_GAP_TOL", bad)
        assert main(["bounds", "--model", model_path,
                     "--bounds", "nh,holevo"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["gap_tol"] == 1e-8, bad
        assert report["warnings"] == [], bad
        assert captured.err.count("QBAYES_GAP_TOL") == 1, bad
        assert captured.err.startswith(
            f"warning: ignoring QBAYES_GAP_TOL={bad!r}"), bad


def test_lemmas_keeps_its_deep_gap_under_an_invalid_env(tmp_path, monkeypatch,
                                                        capsys):
    """Only a valid QBAYES_GAP_TOL overrides the identity suite's 1e-10."""
    monkeypatch.setenv("QBAYES_GAP_TOL", "abc")
    out = tmp_path / "lemmas.json"
    assert main(["lemmas", "--trials", "50", "--out", str(out)]) == 0
    assert capsys.readouterr().err.count("QBAYES_GAP_TOL") == 1
    identity = json.loads(out.read_text())["identity_suite"]
    assert max(r["abs_diff"] for r in identity) <= 1e-8


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "name": "caf\xe9"}')
    return str(path)


@pytest.mark.parametrize("args, message", [
    (lambda tmp, cb: ["bounds", "--model", str(tmp)], "cannot read model file"),
    (lambda tmp, cb: ["bounds", "--model", _not_utf8(tmp)],
     "model file is not UTF-8 text"),
    (lambda tmp, cb: ["bounds", "--model", cb, "--bounds", "sld",
                      "--out", str(tmp / "missing" / "r.json")], "cannot write"),
    (lambda tmp, cb: ["bounds", "--model", cb, "--bounds", "sld",
                      "--csv", str(tmp / "missing" / "r.csv")], "cannot write"),
    (lambda tmp, cb: ["verify", "--model", cb, "--iters", "2",
                      "--out", str(tmp / "missing" / "v.json")], "cannot write"),
    (lambda tmp, cb: ["verify", "--model", str(tmp)], "cannot read model file"),
    (lambda tmp, cb: ["zoo", "classical_binary", "1", "0.6",
                      "--out", str(tmp / "missing" / "m.json")], "cannot write"),
    (lambda tmp, cb: ["lemmas", "--trials", "1",
                      "--out", str(tmp / "missing" / "l.json")], "cannot write"),
], ids=["model-is-a-directory", "model-not-utf8", "bounds-out", "bounds-csv",
        "verify-out", "verify-model-is-a-directory", "zoo-out", "lemmas-out"])
def test_file_errors_exit_2_without_a_traceback(tmp_path, monkeypatch, capsys,
                                                args, message):
    """Each file error is found before any solve runs."""
    cb = write_cb(tmp_path)
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(conic, "solve", no_solve)
    assert main(args(tmp_path, cb)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


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
    (["--iters", "0"], "--iters must be positive"),
    (["--iters", "-3"], "--iters must be positive"),
    (["--seeds=-1"], "--seeds must be non-negative"),
    (["--seeds", "0,-2"], "--seeds must be non-negative"),
    (["--outcomes", "1"], "--outcomes must be positive and at least the model's d = 2"),
    (["--model", "rm.json", "--outcomes", "3"],
     "--outcomes must be positive and at least the model's d = 4, got 3"),
])
def test_verify_rejects_bad_arguments(tmp_path, monkeypatch, capsys, bad, message):
    """On qubit_xy(0.6), or on random_model(2, 4, seed=2) where the arguments
    name rm.json (argparse keeps the last --model)."""
    monkeypatch.chdir(tmp_path)
    save_model(model_zoo("qubit_xy", (0.6,)), "xy.json")
    save_model(model_zoo("random_model", (2, 4, 2)), "rm.json")
    assert main(["verify", "--model", "xy.json", *bad]) == 2
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


@pytest.mark.parametrize("args, message", [
    (["random_model", "2", "2", "-1"], "seed must be an integer >= 0"),
    (["random_model", "2", "2", "inf"], "seed must be an integer >= 0"),
    (["random_model", "2", "2", "0", "--grid", "0"], "grid count must be"),
    (["random_model", "0", "2", "0"], "n must be an integer >= 1"),
    (["random_model", "2", "0", "0"], "d must be an integer >= 1"),
    (["random_model", "1.5", "2", "0"], "n must be an integer >= 1, got 1.5"),
    (["random_model", "2", "2", "0", "2.5"], "grid count must be"),
    (["qubit_xy", "0.5", "2.5"], "grid count must be"),
    (["qubit_z_line", "1.5"], "grid count must be"),
])
def test_zoo_rejects_bad_counts_and_seeds(capsys, args, message):
    """A count or seed that is not a whole number in range exits 2 with an
    error: no traceback, and no silent truncation to an integer."""
    assert main(["zoo", *args]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_lemmas_rejects_a_trial_count_below_one(capsys, trials):
    """No trials would certify nothing: exit 2 rather than a vacuous PASS."""
    assert main(["lemmas", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "error: --trials must be positive" in captured.err
    assert "PASS" not in captured.out


def test_lemmas_rejects_a_negative_seed(capsys):
    """A negative seed is not a generator seed: exit 2, not a traceback."""
    assert main(["lemmas", "--trials", "1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "error: --seed must be non-negative" in captured.err
    assert "PASS" not in captured.out


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
