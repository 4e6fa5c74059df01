"""The package names that bench/ reads resolve, and its closed-form
reference runs: a rename under src/ that breaks the benchmark fails here,
not only in `bench/selftest.py`."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from qbayes import conic
from qbayes import model as qmodel
from qbayes.closedform import rld_bound, sld_bound

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """An importer of bench/ modules, with bench/ on the import path as
    `bench/run.py` has it."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_every_traced_name_resolves(bench):
    """Each TARGETS entry of `bench/spans.py` names a callable that the
    tracer can wrap: `build_moments` (the builder's second name),
    `nagaoka_bound_search`, the lazy `minimize_scalar` lookup of
    `qbayes.sdpbounds` and `ConicProgram.assemble` among them."""
    spans = bench("spans")
    for modname, attr, _ in spans.TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls))[meth]), attr
        else:
            assert callable(getattr(owner, attr)), attr
    assert qmodel.build_moments is qmodel.build_extended_moments


def test_tracer_restores_every_binding(bench):
    """Installing the tracer wraps both names of the one builder, and
    uninstalling it puts the package's own function back under each."""
    spans = bench("spans")
    build = qmodel.build_extended_moments
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qmodel.build_moments is not build
        bench("workloads").closed_forms(qmodel.qubit_xy(0.6, 3))
    finally:
        tracer.uninstall()
    assert qmodel.build_moments is build
    assert qmodel.build_extended_moments is build
    assert tracer.totals()["model.moments"]["total_s"] > 0


def test_closed_forms_workload_runs(bench):
    """`workloads.closed_forms`, the reference of the bounds-ladder checks,
    gives the package's SLD and RLD values on one small model."""
    workloads = bench("workloads")
    model = qmodel.random_model(2, 3, seed=1, grid=3)
    em = qmodel.build_extended_moments(model)
    W = model.weight_spec.constant
    got = workloads.closed_forms(model)
    assert got == {"sld": sld_bound(em, W)[0], "rld": rld_bound(em, W)[0]}
    assert np.isfinite(list(got.values())).all()


def test_traced_solve_counts_its_program(bench):
    """A solve under the tracer records its program's (p, N) as
    `conic.rows_max` and `conic.vars_max`, and one assembly per solve: a
    change to what `assemble` returns that breaks the traced runs fails
    here."""
    spans = bench("spans")
    prog = conic.ConicProgram()
    a, b = prog.add_psd_block(2), prog.add_psd_block(3)
    prog.add_eq({a: np.eye(2), b: np.eye(3)}, rhs=1.0)
    prog.add_eq({b: np.diag([1.0, 0.0, 0.0])}, rhs=0.5)
    prog.set_objective({a: 2 * np.eye(2), b: np.diag([0.0, 1.0, 2.0])})
    tracer = spans.Tracer()
    tracer.install()
    try:
        sol = conic.solve(prog)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer, spans.Tracer(), 1)
    assert sol.status == "optimal" and abs(sol.primal_value - 0.5) < 1e-7
    assert metrics["conic.rows_max"][0] == 2 and metrics["conic.vars_max"][0] == 13
    assert metrics["conic.attempts"] == metrics["conic.solves"] == (1, "count")
