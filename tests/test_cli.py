"""End-to-end tests for the command-line front end."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import dataclasses
import types
import warnings

import numpy as np
import pytest

from helpers import audit_ensemble, count_moment_builds, pure_model, shifted
import qbayes
from qbayes import cli, conic
from qbayes.cli import main
from qbayes.conic import SolverFailureError
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


def _bounds_report(tmp_path, model, selector):
    path = tmp_path / "model.json"
    save_model(model, str(path))
    out = tmp_path / "r.json"
    assert main(["bounds", "--model", str(path), "--bounds", selector,
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("n", [1, 2])
def test_bounds_on_a_shared_support_match_the_compressed_model(tmp_path, n):
    """States on C^3 that share the support span(e_0, e_1) leave S_B
    singular: the SLD and RLD bounds equal those of the same model on C^2,
    whatever the number of parameters, and the report has no note."""
    rng = np.random.default_rng(7)
    points, compressed = [], []
    for theta in ((-0.5, 0.2), (0.5, -0.4)):
        A = rng.standard_normal((3, 2))
        A[2] = 0.0   # support in span(e_0, e_1)
        rho = A @ A.T / np.trace(A @ A.T)
        points.append(GridPoint(theta=theta[:n], weight=0.5, state=rho))
        compressed.append(GridPoint(theta=theta[:n], weight=0.5, state=rho[:2, :2]))
    spec = WeightSpec(constant=np.eye(n))
    report = _bounds_report(tmp_path, StatisticalModel(
        n=n, d=3, points=tuple(points), weight_spec=spec), "sld,rld")
    reference = _bounds_report(tmp_path, StatisticalModel(
        n=n, d=2, points=tuple(compressed), weight_spec=spec), "sld,rld")
    assert report["warnings"] == []
    for name in ("sld", "rld"):
        v, ref = report["bounds"][name]["value"], reference["bounds"][name]["value"]
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))


def test_bounds_ladder_on_a_pure_state_model(tmp_path, monkeypatch):
    """Four pure states in C^6 at gap 1e-10: nagaoka2 solves on the state
    supports and stays in the sandwich, and the closed forms handle the
    singular mean state on its support without a note."""
    monkeypatch.setenv("QBAYES_GAP_TOL", "1e-10")
    report = _bounds_report(tmp_path, pure_model(2, 6, 4, 1, seed=6),
                            "nh,holevo,nagaoka2,sld,rld")
    assert report["gap_tol"] == 1e-10
    assert report["audit"]["nagaoka2_minus_holevo"] >= -1e-7
    assert report["audit"]["nh_minus_nagaoka2"] >= -1e-7
    assert report["warnings"] == []


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


def test_bounds_reports_a_solver_failure_and_exits_3(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise SolverFailureError("block-operator bound ended with status "
                                 "numerical-failure")

    monkeypatch.setattr(cli, "nagaoka_hayashi_bound", fail)
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    code = main(["bounds", "--model", write_cb(tmp_path), "--bounds", "nh,sld",
                 "--out", str(out), "--csv", str(csv)])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["bounds"]["nh"]["error_kind"] == "solver"
    assert "numerical-failure" in report["bounds"]["nh"]["error"]
    assert abs(report["bounds"]["sld"]["value"] - 0.64) < 1e-5
    assert report["audit"] == {}
    assert csv.read_text().splitlines()[1].startswith("nh,,error:solver,,")


def test_bounds_notes_a_warning_raised_by_a_bound(tmp_path, monkeypatch):
    """No bound of the package warns today; the channel stays for one that
    does, one "<name>: <message>" note per warning."""
    sld_bound = cli.sld_bound

    def warning_sld(*args):
        warnings.warn("slow path taken", UserWarning)
        return sld_bound(*args)

    monkeypatch.setattr(cli, "sld_bound", warning_sld)
    out = tmp_path / "r.json"
    assert main(["bounds", "--model", write_cb(tmp_path), "--bounds", "sld,rld",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["warnings"] == ["sld: slow path taken"]
    assert abs(report["bounds"]["sld"]["value"] - 0.64) < 1e-5


@pytest.mark.parametrize("args, message", [
    (["bounds", "--bounds", " , "], "error: empty bounds selector"),
    (["verify", "--seeds", ","], "error: empty seed list"),
], ids=["bounds", "seeds"])
def test_empty_selector_lists_exit_2(tmp_path, capsys, args, message):
    assert main([args[0], "--model", write_cb(tmp_path), *args[1:]]) == 2
    assert message in capsys.readouterr().err


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
    (_set(("n",), "two"), "sld", "field 'n': expected a number, got str"),
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


@pytest.mark.parametrize("edit, message", [
    (_set(("points", 0, "theta"), "12"),
     "point 0: field 'theta': expected a list, got str"),
    (_set(("points", 1, "score"), "00"),
     "point 1: field 'score': expected a list, got str"),
    (_set(("n",), True), "model: field 'n': expected a number, got bool"),
    (_set(("points", 2, "weight"), "0.5"),
     "point 2: field 'weight': expected a number, got str"),
], ids=["theta-string", "score-string", "n-boolean", "weight-string"])
def test_bounds_rejects_numbers_that_are_not_json_numbers(tmp_path, capsys,
                                                          edit, message):
    """A string or a boolean where the format has a number or a list of
    numbers is rejected, with the point and the field named, in an edited
    `qbayes zoo qubit_z_line 3` file: "12" is not theta = (1, 2), nor true
    n = 1, and no bound is computed."""
    data = model_to_dict(model_zoo("qubit_z_line", (3,)))
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert main(["bounds", "--model", str(path), "--bounds", "sld,vantree"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: model file rejected: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("edit, message", [
    (_set(("points", 0, "drho", 0, 0, 1), [0.3, 0.0]),
     "point 0: derivative 0: matrix deviates from Hermitian by 3.000e-01"),
    (_set(("points", 0, "drho", 0, 0, 0), [1.0, 0.0]),
     "point 0: derivative 0 has trace 5.000e-01, expected 0"),
], ids=["non-hermitian", "traced"])
def test_bounds_rejects_bad_state_derivatives(tmp_path, capsys, edit, message):
    """An edited `qbayes zoo qubit_z_line 3` file whose first derivative is
    not Hermitian or not traceless exits 2 with `error: ...`: no van Tree
    value and no traceback."""
    data = model_to_dict(model_zoo("qubit_z_line", (3,)))
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert main(["bounds", "--model", str(path), "--bounds", "vantree"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: model file rejected: ")
    assert message in captured.err
    assert captured.out == ""


def test_bounds_folds_the_model_once_for_every_bound(tmp_path, monkeypatch):
    """`qbayes bounds --bounds all` reads every rung, closed forms and SDPs
    alike, from one fold of the model's moments."""
    path = str(tmp_path / "zline.json")
    save_model(model_zoo("qubit_z_line", (3,)), path)
    folds = count_moment_builds(monkeypatch)
    assert main(["bounds", "--model", path, "--bounds", "all",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert len(folds) == 1


def test_closed_forms_of_a_shifted_ensemble_model(tmp_path):
    """Ensemble model 7 shifted by 1e3 is a valid model: its moments fold,
    and `qbayes bounds --bounds sld,rld` reports both values and exits 0."""
    path = str(tmp_path / "shifted.json")
    save_model(shifted(list(audit_ensemble())[7], 1e3), path)
    out = tmp_path / "r.json"
    assert main(["bounds", "--model", path, "--bounds", "sld,rld",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())["bounds"]
    assert all("value" in report[name] for name in ("sld", "rld"))


def test_bounds_rejects_overflowing_moments(tmp_path, capsys):
    """`qbayes zoo correlated_pair 1e200 0.6` writes a valid model whose
    second moments overflow; `qbayes bounds --bounds nh` on it exits 2 with
    one `error:` line naming the moment, not a solver traceback."""
    path = str(tmp_path / "huge.json")
    assert main(["zoo", "correlated_pair", "1e200", "0.6", "--out", path]) == 0
    capsys.readouterr()
    assert main(["bounds", "--model", path, "--bounds", "nh"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: moment w_bar has non-finite entries\n"
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
    (lambda tmp, cb: ["bounds", "--model", cb, "--bounds", "sld", "--out", cb],
     "--model and --out name the same file"),
    (lambda tmp, cb: ["bounds", "--model", cb, "--bounds", "sld",
                      "--out", str(tmp / "r.json"), "--csv", str(tmp / "r.json")],
     "--out and --csv name the same file"),
    (lambda tmp, cb: ["verify", "--model", cb, "--iters", "2",
                      "--out", os.path.join(tmp, ".", "cb.json")],
     "--model and --out name the same file"),
], ids=["model-is-a-directory", "model-not-utf8", "bounds-out", "bounds-csv",
        "verify-out", "verify-model-is-a-directory", "zoo-out", "lemmas-out",
        "bounds-out-is-model", "bounds-csv-is-out", "verify-out-is-model"])
def test_file_errors_exit_2_without_a_traceback(tmp_path, monkeypatch, capsys,
                                                args, message):
    """Each file error is found before any solve runs, and the model file
    is left as it was."""
    cb = write_cb(tmp_path)
    model_text = Path(cb).read_text()
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(conic, "solve", no_solve)
    assert main(args(tmp_path, cb)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    assert Path(cb).read_text() == model_text
    assert not (tmp_path / "r.json").exists()


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


def test_verify_exits_3_on_a_solver_failure(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SolverFailureError("measurement update ended with status "
                                 "max-iterations")

    monkeypatch.setattr(cli, "seesaw", fail)
    out = tmp_path / "v.json"
    assert main(["verify", "--model", write_cb(tmp_path), "--iters", "2",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure during verify: measurement "
                          "update ended with status max-iterations")
    assert not out.exists()


def test_lemmas_exits_3_on_a_solver_failure(tmp_path, monkeypatch, capsys):
    """A failed solve in the functional chain ends `lemmas` with exit 3 and
    one stderr line, not a traceback, and writes no --out file."""
    def fail(*args, **kwargs):
        raise SolverFailureError("block-symmetric dominating program ended "
                                 "with status numerical-failure")

    monkeypatch.setattr(cli, "f_family_suite", fail)
    out = tmp_path / "lemmas.json"
    assert main(["lemmas", "--trials", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("solver failure during lemmas: block-symmetric dominating "
                   "program ended with status numerical-failure\n")
    assert not out.exists()


def test_verify_exits_3_on_an_ordering_violation(tmp_path, monkeypatch, capsys):
    """A seeded run whose risk is below NH (0.64) by more than MARGIN_TOL is
    reported, then flagged on stderr."""
    monkeypatch.setattr(cli, "seesaw",
                        lambda *args, **kwargs: types.SimpleNamespace(risk=0.5))
    out = tmp_path / "v.json"
    assert main(["verify", "--model", write_cb(tmp_path), "--iters", "2",
                 "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["ok"] is False and report["best_seesaw_risk"] == 0.5
    margins = report["margins"]
    assert set(margins) == {"seesaw_minus_nh", "nh_minus_holevo",
                            "holevo_minus_sld", "holevo_minus_rld"}
    assert margins["seesaw_minus_nh"] == 0.5 - report["values"]["nh"]
    assert report["min_margin"] == margins["seesaw_minus_nh"] < -cli.MARGIN_TOL
    assert capsys.readouterr().err == (
        f"ordering violation: min margin {report['min_margin']:.3e}\n")


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
    (["classical_binary", "1", "0.6", "--grid", "5"],
     "classical_binary takes parameters (a, r), got 3 with the grid size"),
    (["random_model", "2", "2", "0", "3", "9"],
     "random_model takes parameters (n, d, seed[, grid]), got 5"),
    (["qubit_z_line", "3", "7"], "qubit_z_line takes parameters ([grid]), got 2"),
    (["qubit_xy", "0.5", "3", "--grid", "6"],
     "qubit_xy takes parameters (b[, grid]), got 3 with the grid size"),
])
def test_zoo_rejects_bad_counts_and_seeds(capsys, args, message):
    """A count or seed that is not a whole number in range, or a parameter
    the model does not take, exits 2 with an error: no traceback, and no
    silent truncation to an integer or dropped parameter."""
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


def package_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    package_root = str(Path(qbayes.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_entry_point(tmp_path):
    """``python -m qbayes`` in a fresh process, installed or not."""
    model_path = write_cb(tmp_path)
    env = package_env()
    proc = run_sld_report([sys.executable, "-m", "qbayes"], model_path, env)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert abs(report["bounds"]["sld"]["value"] - 0.64) < 1e-9


def test_bounds_into_a_closed_pipe_end_quietly(tmp_path):
    """A report piped into a reader that leaves ends the command without a
    traceback: with the read end closed before anything is written the exit
    code is EXIT_PIPE = 141; a reader that takes one line and leaves may
    also be gone only after the whole report is in the pipe (exit 0)."""
    model_path = write_cb(tmp_path)
    command = [sys.executable, "-m", "qbayes", "bounds", "--model", model_path]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(command, stdout=write, stderr=subprocess.PIPE,
                              text=True, timeout=120, env=package_env())
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, "")
    assert cli.EXIT_PIPE == 141
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=package_env()) as head:
        assert head.stdout.readline() == "{\n"
        head.stdout.close()
        assert head.wait(timeout=120) in (0, cli.EXIT_PIPE)
        assert head.stderr.read() == ""


@pytest.mark.skipif(shutil.which("qbayes") is None,
                    reason="qbayes console script not installed")
def test_installed_console_script(tmp_path):
    """The pip-generated ``qbayes`` wrapper script."""
    model_path = write_cb(tmp_path)
    proc = run_sld_report(["qbayes"], model_path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert abs(report["bounds"]["sld"]["value"] - 0.64) < 1e-9


NO_SCIPY = """
import sys
import qbayes
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, f"import qbayes loaded {loaded}"
sys.modules["scipy"] = None   # from here on any scipy import raises
from qbayes.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_bounds_run_without_scipy(tmp_path):
    """In a fresh process, `import qbayes` loads no scipy module, and with
    scipy made unimportable the SDP rungs and the closed forms still run."""
    path = tmp_path / "xy.json"
    save_model(model_zoo("qubit_xy", (0.6,)), str(path))
    env = package_env()
    names = ["nh", "holevo", "nagaoka2", "sld", "rld"]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, "bounds", "--model", str(path),
         "--bounds", ",".join(names)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert sorted(json.loads(proc.stdout)["bounds"]) == sorted(names)
