"""The benchmark's workloads: seeded inputs, one round of timed operations,
and the checks applied to every result.

Constructing a workload is its set-up: it generates the inputs from the seed,
does the moment assembly or file writing the operations need, and makes one
warm-up call of each timed function on a small input. `ops` is one round; a
run repeats whole rounds. `finish` computes the reference values the checks
need, outside the timed region, and `check` judges one result.

Every workload keeps the cost of a round independent of the seed, so the
spread between runs measures the machine and the program, not the draw.
bounds-ladder draws a Haar-random unitary frame per model: every bound is
invariant under it, and each program takes the same number of iterations in
every frame. audit-ensemble and nagaoka-search shuffle the order of a fixed
set of models: there a new frame changes which solves stall and how far the
search walks (one audit model took 2.1 s in one frame and 6.2 s in another).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qbayes import cli, model as qmodel, sdpbounds, verify
from qbayes.closedform import rld_bound, sld_bound

import checks

FULL, TINY = "full", "tiny"


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]


def rotated(model, U: np.ndarray):
    """The same model in another frame: every state S_m -> U S_m U^+."""
    points = []
    for p in model.points:
        S = U @ p.state @ U.conj().T
        points.append(qmodel.GridPoint(theta=p.theta, weight=p.weight,
                                       state=(S + S.conj().T) / 2))
    return qmodel.StatisticalModel(n=model.n, d=model.d, points=tuple(points),
                                   weight_spec=model.weight_spec)


def closed_forms(model) -> dict:
    moments = qmodel.build_moments(model)
    W = model.weight_spec.constant
    return {"sld": sld_bound(moments, W)[0], "rld": rld_bound(moments, W)[0]}


def scored_seesaw(model, iters: int) -> tuple[float, list[str]]:
    """A seesaw decision, checked to be a measurement and scored by the
    benchmark's own risk loop; its risk must match the one qbayes reports.

    At least d outcomes: with the default n + 2 rank-one start elements and
    d > n + 2, the seesaw's random start does not resolve the identity."""
    outcomes = max(model.n + 2, model.d)
    decision = verify.seesaw(model, outcome_count=outcomes, iters=iters, seed=0)
    problems = checks.povm_problems(decision.povm.elements, model.d)
    risk = checks.decision_risk(model, decision.povm.elements, decision.estimates)
    if abs(risk - decision.risk) > checks.TOL * max(1.0, risk):
        problems.append(f"seesaw reports risk {decision.risk:.9g}, the "
                        f"decision scores {risk:.9g}")
    return risk, problems


# ---------------------------------------------------------------------------
# audit-ensemble
# ---------------------------------------------------------------------------

class AuditEnsemble:
    """`verify.ordering_audit` on each model of the ensemble of
    `test_ordering_chain_on_random_models`: hundreds of small SDPs, where the
    solver's iteration count, its retry ladder and program assembly dominate."""

    ENSEMBLE_SEED = 404       # the acceptance test's ensemble
    SIZES = {FULL: 50, TINY: 3}
    SEESAW_ITERS = 8          # as in the acceptance test

    def __init__(self, seed: int, size: str, workdir: str):
        structure = np.random.default_rng(self.ENSEMBLE_SEED)
        models = [self._grid_model(structure) for _ in range(self.SIZES[size])]
        order = np.random.default_rng(seed).permutation(len(models))
        self.models = {f"model{i:02d}": models[i] for i in order}
        self.ops = [Op(label, lambda m=m: verify.ordering_audit(
                        m, iters=self.SEESAW_ITERS, seed=0))
                    for label, m in self.models.items()]
        warm = self._grid_model(np.random.default_rng(0), n=2, d=2, g=2)
        verify.ordering_audit(warm, iters=2, seed=0)

    @staticmethod
    def _grid_model(rng, n=None, d=None, g=None):
        """The draws of tests/helpers.py: random_spd and random_grid_model."""
        n = int(rng.integers(2, 4)) if n is None else n
        d = int(rng.integers(2, 4)) if d is None else d
        g = int(rng.integers(2, 4)) if g is None else g
        A = rng.standard_normal((n, n))
        W = A @ A.T + 0.3 * np.eye(n)
        raw = rng.uniform(0.5, 1.5, g)
        wts = raw / raw.sum()
        wts[-1] = 1.0 - wts[:-1].sum()
        points = []
        for m in range(g):
            theta = rng.uniform(-1.0, 1.0, n)
            B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            G = B @ B.conj().T
            G = G / np.trace(G).real
            state = 0.9 * G + 0.1 * np.eye(d) / d
            points.append(qmodel.GridPoint(theta=theta, weight=wts[m], state=state))
        return qmodel.StatisticalModel(n=n, d=d, points=tuple(points),
                                       weight_spec=qmodel.WeightSpec(constant=W))

    def finish(self) -> list[str]:
        self.prior = {k: checks.prior_mean_risk(m) for k, m in self.models.items()}
        return []

    def check(self, label: str, audit: dict) -> tuple[bool, list[str]]:
        values = audit["values"]
        prior = self.prior[label]
        problems = []
        for name in ("sld", "rld", "holevo", "nh"):
            problems += checks.lower_bound_problems(name, values[name], prior)
        if values["seesaw_risk"] > prior + checks.TOL:
            problems.append(f"seesaw risk {values['seesaw_risk']:.9g} is above "
                            f"the prior-mean risk {prior:.9g} it starts below")
        chain = dict(values, seesaw=values["seesaw_risk"])
        problems += checks.ordering_problems(chain)
        margins = {
            "seesaw_minus_nh": values["seesaw_risk"] - values["nh"],
            "nh_minus_holevo": values["nh"] - values["holevo"],
            "holevo_minus_sld": values["holevo"] - values["sld"],
            "holevo_minus_rld": values["holevo"] - values["rld"],
        }
        if audit["margins"] != margins or audit["ok"] != all(
                v >= -checks.TOL for v in margins.values()):
            problems.append("margins or verdict disagree with the values")
        return False, [f"{label}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# bounds-ladder
# ---------------------------------------------------------------------------

class BoundsLadder:
    """In-process `qbayes bounds --bounds nh|holevo` on model files of growing
    dimension: a few large programs, dominated by the dense per-iteration
    linear algebra of the conic solver, and the workload's memory peak."""

    MODEL_SEED = 1            # random_model(2, d, seed=1, grid=4), as in ROADMAP
    GRID = 4
    RUNGS = {FULL: (("nh", 4), ("nh", 6), ("nh", 8), ("nh", 10),
                    ("holevo", 4), ("holevo", 5), ("holevo", 6)),
             TINY: (("nh", 2), ("nh", 3), ("holevo", 2))}
    SEESAW_ITERS = 5

    def __init__(self, seed: int, size: str, workdir: str):
        frames = np.random.default_rng(seed)
        rungs = self.RUNGS[size]
        self.paths, self.models = {}, {}
        for d in sorted({d for _, d in rungs}):
            base = qmodel.random_model(2, d, seed=self.MODEL_SEED, grid=self.GRID)
            path = os.path.join(workdir, f"ladder-d{d}.json")
            qmodel.save_model(rotated(base, checks.unitary(frames, d)), path)
            self.paths[d] = path
            self.models[d] = qmodel.load_model(path)
        self.ops = [Op(f"{kind}-d{d}", lambda kind=kind, d=d: self.bounds(kind, self.paths[d]))
                    for kind, d in rungs]
        warm = os.path.join(workdir, "warm-up.json")
        qmodel.save_model(qmodel.random_model(2, 2, seed=0, grid=2), warm)
        for kind in ("nh", "holevo"):
            self.bounds(kind, warm)

    @staticmethod
    def bounds(kind: str, path: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["bounds", "--model", path, "--bounds", kind])
        return code, out.getvalue()

    def finish(self) -> list[str]:
        self.prior, self.refs, problems = {}, {}, []
        for d, model in self.models.items():
            self.prior[d] = checks.prior_mean_risk(model)
            risk, found = scored_seesaw(model, self.SEESAW_ITERS)
            self.refs[d] = dict(closed_forms(model), seesaw=risk)
            problems += [f"d={d}: {p}" for p in found]
        self.values = {}
        return problems

    def check(self, label: str, result: tuple[int, str]) -> tuple[bool, list[str]]:
        kind, d = label.split("-d")
        d = int(d)
        code, text = result
        if code != 0:
            return False, [f"{label}: exit code {code}"]
        report = json.loads(text)
        entry = report["bounds"][kind]
        problems = []
        if entry.get("solver_status") != "optimal":
            problems.append(f"solver status {entry.get('solver_status')!r}")
        elif not entry["gap"] <= report["gap_tol"]:
            problems.append(f"gap {entry['gap']!r} above gap_tol {report['gap_tol']!r}")
        else:
            value = entry["value"]
            problems += checks.lower_bound_problems(kind, value, self.prior[d])
            # the sandwich across the rungs that share this model
            seen = self.values.setdefault(d, {})
            seen[kind] = value
            problems += checks.ordering_problems(dict(self.refs[d], **seen))
        return False, [f"{label}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# nagaoka-search
# ---------------------------------------------------------------------------

class NagaokaSearch:
    """`sdpbounds.nagaoka_bound_search` on a fixed panel of n = 2 models: no
    SDP at all, only small numpy evaluations, trace norms and scalar line
    searches.

    The search stops above its own minimum on the random_model members: their
    values lie above a risk the seesaw achieves, which a lower bound cannot.
    Those operations are counted as failed. The panel does not depend on the
    seed, so every round fails the same operations."""

    PANEL = {FULL: (("qubit_xy(0.6)", lambda: qmodel.qubit_xy(0.6)),
                    ("random_model(2,2,seed=1)", lambda: qmodel.random_model(2, 2, seed=1)),
                    ("random_model(2,2,seed=5)", lambda: qmodel.random_model(2, 2, seed=5)),
                    ("random_model(2,3,seed=6)", lambda: qmodel.random_model(2, 3, seed=6))),
             TINY: (("qubit_xy(0.6)", lambda: qmodel.qubit_xy(0.6)),
                    ("random_model(2,2,seed=5)", lambda: qmodel.random_model(2, 2, seed=5)))}
    SEARCH = {FULL: {}, TINY: {"restarts": 0, "max_sweeps": 4}}
    SEESAW_ITERS = 50

    def __init__(self, seed: int, size: str, workdir: str):
        panel = self.PANEL[size]
        order = np.random.default_rng(seed).permutation(len(panel))
        self.models = {panel[i][0]: panel[i][1]() for i in order}
        self.moments = {k: qmodel.build_extended_moments(m) for k, m in self.models.items()}
        kwargs = self.SEARCH[size]
        self.ops = [Op(label, lambda em=em: sdpbounds.nagaoka_bound_search(em, **kwargs))
                    for label, em in self.moments.items()]
        warm = qmodel.build_extended_moments(qmodel.qubit_xy(0.3, grid=3))
        sdpbounds.nagaoka_bound_search(warm, restarts=0, max_sweeps=1)

    def finish(self) -> list[str]:
        self.refs, problems = {}, []
        for label, model in self.models.items():
            start = checks.sld_start(model)
            at_start = checks.nagaoka_value(model, start)
            library = sdpbounds.nagaoka_objective(self.moments[label], start)
            if abs(library - at_start) > checks.OBJECTIVE_RTOL * max(1.0, abs(at_start)):
                problems.append(f"{label}: nagaoka_objective at the SLD start is "
                                f"{library!r}, the formula gives {at_start!r}")
            risk, found = scored_seesaw(model, self.SEESAW_ITERS)
            problems += [f"{label}: {p}" for p in found]
            self.refs[label] = {
                "prior": checks.prior_mean_risk(model),
                "holevo": sdpbounds.holevo_type_bound(self.moments[label]).value,
                "start": at_start,
                "seesaw": risk,
            }
        return problems

    def check(self, label: str, value: float) -> tuple[bool, list[str]]:
        ref = self.refs[label]
        problems = checks.lower_bound_problems("nagaoka2", value, ref["prior"])
        if value < ref["holevo"] - 1e-7:
            problems.append(f"value {value:.9g} below Holevo {ref['holevo']:.9g}")
        if value > ref["start"] + checks.OBJECTIVE_RTOL * max(1.0, abs(ref["start"])):
            problems.append(f"value {value:.9g} above the objective at the SLD "
                            f"start {ref['start']:.9g}")
        fault = bool(value > ref["seesaw"] + checks.TOL)
        return fault, [f"{label}: {p}" for p in problems]


WORKLOADS = {
    "audit-ensemble": AuditEnsemble,
    "bounds-ladder": BoundsLadder,
    "nagaoka-search": NagaokaSearch,
}
