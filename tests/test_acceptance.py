"""Acceptance battery: analytic fixtures, sandwich oracles, property suites.

One test per criterion, each at its stated tolerance. Random instances are
seeded so every run exercises the same ensemble.
"""

import functools

import numpy as np
import pytest

from helpers import (
    audit_ensemble,
    per_point,
    per_point_panel,
    point_mass_model,
    random_grid_model,
    random_spd,
    single_parameter_models,
)
from qbayes import verify
from qbayes.closedform import rld_bound, sld_bound
from qbayes.conic import (
    GAP_TOL,
    ConicProgram,
    holevo_lemma_sdp_value,
    holevo_lemma_value,
    holevo_lemma_suite,
    solve,
)
from qbayes.matcore import ExtendedOperator
from qbayes.model import (
    BayesMoments,
    ExtendedMoments,
    GridPoint,
    StatisticalModel,
    WeightSpec,
    build_extended_moments,
    build_moments,
    correlated_pair,
    model_zoo,
    random_model,
    with_weight,
)
from qbayes.sdpbounds import (
    f_family_pinned_example,
    f_family_suite,
    holevo_type_bound,
    nagaoka_bound,
    nagaoka_hayashi_bound,
)
from qbayes.verify import (
    ordering_audit,
    rounded_measurement,
    seesaw,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def test_point_mass_collapse():
    """A one-point prior is exactly learnable: every bound 0, risk 0."""
    rng = np.random.default_rng(101)
    worst_bound = 0.0
    worst_risk = 0.0
    for n, d in ((1, 2), (2, 3), (3, 4), (2, 2), (3, 2)):
        model = point_mass_model(rng, n, d)
        mom = build_moments(model)
        em = build_extended_moments(model)
        values = (sld_bound(mom, np.eye(n))[0],
                  rld_bound(mom, np.eye(n))[0],
                  holevo_type_bound(em).value,
                  nagaoka_hayashi_bound(em).value)
        worst_bound = max(worst_bound, max(abs(v) for v in values))
        worst_risk = max(worst_risk, seesaw(model, iters=4, seed=0).risk)
    assert worst_bound <= 1e-7
    assert worst_risk <= 1e-9


def test_single_parameter_tightness():
    """All bounds meet at m - K for one parameter, and the spectral
    measurement of the averaged logarithmic derivative attains it."""
    for i, model in enumerate(single_parameter_models()):
        mom = build_moments(model)
        em = build_extended_moments(model)
        target, sld = sld_bound(mom, np.eye(1))
        assert abs(nagaoka_hayashi_bound(em).value - target) <= 1e-6
        assert abs(holevo_type_bound(em).value - target) <= 1e-6
        achieved = rounded_measurement(model, sld.L).risk
        assert abs(achieved - target) <= 1e-9
        if i == 0:
            assert abs(target - 0.64) < 1e-12


def test_correlated_pair_fixture():
    """Perfectly correlated coordinates double the scalar value to 1.28."""
    model = correlated_pair(1.0, 0.6)
    mom = build_moments(model)
    em = build_extended_moments(model)
    assert abs(sld_bound(mom, np.eye(2))[0] - 1.28) <= 1e-5
    assert abs(nagaoka_hayashi_bound(em).value - 1.28) <= 1e-5
    assert seesaw(model, iters=25, seed=0).risk <= 1.28 + 1e-5


def test_nh_and_holevo_reach_a_tight_gap_on_the_ensemble():
    """NH and both Holevo forms end `optimal` at a 1e-10 gap on all 50
    ensemble models: the corrector's endgame, where the Schur system is at
    its worst conditioned."""
    for model in audit_ensemble():
        em = build_extended_moments(model)
        for sol in (nagaoka_hayashi_bound(em, 1e-10), holevo_type_bound(em, 1e-10),
                    holevo_type_bound(per_point(em), 1e-10)):
            assert sol.diagnostics.status == "optimal"
            assert sol.diagnostics.gap <= 1e-10


@functools.lru_cache(maxsize=1)
def ensemble_audits():
    """(model, ordering_audit(model, iters=8, seed=0)) on the audit ensemble."""
    return tuple((model, ordering_audit(model, iters=8, seed=0))
                 for model in audit_ensemble())


def test_ordering_chain_on_random_models():
    """seesaw >= block bound >= trace-norm bound >= both quadratic bounds."""
    worst = min(audit["min_margin"] for _, audit in ensemble_audits())
    assert worst >= -1e-6


def test_nh_seeded_audit_never_trails_the_seeded_seesaw():
    """The audit's NH-seeded seesaw ends no higher than the seeded random
    seesaw it replaced, and the rounded NH measurement alone attains NH on
    all but at most one ensemble model."""
    attained = 0
    for model, audit in ensemble_audits():
        nh = audit["values"]["nh"]
        cold = seesaw(model, iters=8, seed=0).risk
        assert audit["margins"]["seesaw_minus_nh"] <= cold - nh + 1e-8
        attained += audit["rounded_risk"] - nh <= 1e-6 * max(1.0, abs(nh))
    assert attained >= 49


def test_audit_skips_the_seesaw_only_where_the_rounded_nh_measurement_attains_nh(
        monkeypatch):
    """No measurement update runs where the rounded NH measurement is within
    the solver's gap of NH, and a seesaw from it would not have ended lower
    by more than that gap; on every other model the seesaw still runs."""
    gap_tol = GAP_TOL
    calls = []
    step = verify.optimal_povm_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(verify, "optimal_povm_step", counted)
    skipped = 0
    for model in audit_ensemble():
        calls.clear()
        audit = ordering_audit(model, iters=8, seed=0)
        nh = audit["values"]["nh"]
        tol = gap_tol * max(1.0, abs(nh))
        if audit["rounded_risk"] - nh > tol:
            assert 0 < len(calls) <= 8
            continue
        assert not calls
        assert audit["values"]["seesaw_risk"] == audit["rounded_risk"]
        Xopt = nagaoka_hayashi_bound(build_extended_moments(model)).Xopt
        explicit = seesaw(model, iters=8,
                          start=rounded_measurement(model, Xopt))
        assert explicit.risk >= audit["values"]["seesaw_risk"] - tol
        skipped += 1
    assert skipped >= 49


def test_sandwich_on_the_per_point_panel():
    """With a weight per grid point: the rounded NH decision, scored by the
    W-weighted posterior mean, risks no less than NH; NH >= Holevo in its
    per-point form; for n = 2, Holevo <= nagaoka2 <= NH; and an 8-round
    seesaw from the rounded decision never ends above it."""
    for model in per_point_panel():
        em = build_extended_moments(model)
        nh = nagaoka_hayashi_bound(em)
        holevo = holevo_type_bound(em).value
        rounded = rounded_measurement(model, nh.Xopt)
        assert rounded.risk >= nh.value - 1e-7 * max(1.0, abs(nh.value))
        assert nh.value >= holevo - 1e-7
        if model.n == 2:
            assert holevo - 1e-7 <= nagaoka_bound(em).value <= nh.value + 1e-7
        assert seesaw(model, iters=8, start=rounded).risk <= rounded.risk


@pytest.mark.parametrize("which", ["ensemble-30", "random_model-2-4-2-8"])
def test_blended_audit_start_trails_neither_single_start(which):
    """Where the rounded NH measurement misses NH, the audit's one seesaw,
    from the even mixture of the rounded and the seeded measurements, ends
    no higher than a seesaw from either start alone at the same budget."""
    if which == "ensemble-30":
        model = list(audit_ensemble())[30]
    else:
        model = random_model(2, 4, seed=2, grid=8)
    audit = ordering_audit(model, iters=8, seed=0)
    nh = audit["values"]["nh"]
    tol = GAP_TOL * max(1.0, abs(nh))
    assert audit["rounded_risk"] - nh > tol
    Xopt = nagaoka_hayashi_bound(build_extended_moments(model)).Xopt
    rounded = seesaw(model, iters=8, start=rounded_measurement(model, Xopt))
    seeded = seesaw(model, iters=8, seed=0)
    achieved = audit["values"]["seesaw_risk"]
    assert achieved <= rounded.risk + tol
    assert achieved <= seeded.risk + tol


def test_tensor_equivalence_and_functional_chain():
    """f_sdp = f1 on tensor instances; the relaxation chain stays ordered."""
    res = f_family_suite(trials=100, seed=0)
    for r in res:
        assert r["eq_gap"] <= 1e-6 * max(1.0, abs(r["f1"]))
        assert r["margin_sdp_f3"] >= -1e-7
        assert r["margin_f3_f4"] >= -1e-7
        assert r["margin_sdp_f5"] >= -1e-7
        assert r["margin_sdp_f2"] >= -1e-7
    pinned = f_family_pinned_example()
    assert abs(pinned["f_sdp"] - 2.0) < 1e-6
    assert abs(pinned["f1"] - 2.0) < 1e-12


def test_trace_norm_identity_suite():
    """Closed form Tr(WA) + TrAbs(WB) against its SDP twin, 50 triples."""
    rows = holevo_lemma_suite(trials=50, seed=0, gap_tol=1e-10)
    assert all(r["status"] == "optimal" for r in rows)
    assert max(r["abs_diff"] for r in rows) <= 1e-7
    W = np.eye(2)
    A = np.diag([1.0, 2.0])
    B = np.array([[0.0, 0.5], [-0.5, 0.0]])
    assert abs(holevo_lemma_value(W, A, B) - 4.0) < 1e-12
    sol = holevo_lemma_sdp_value(W, A, B, 1e-10)
    assert abs(sol.primal_value - 4.0) <= 1e-7


def test_right_derivative_fixture_is_strictly_tighter():
    """Moments where the complex quadratic bound beats the symmetric one."""
    mom = BayesMoments(S_B=np.diag([0.75, 0.25]).astype(complex),
                       D_B=np.stack([0.1 * SX, 0.1 * SY]),
                       M=0.1 * np.eye(2), theta_bar=np.zeros(2), w_bar=0.2)
    c_sld = sld_bound(mom, np.eye(2))[0]
    c_rld = rld_bound(mom, np.eye(2))[0]
    assert abs(c_sld - 0.12) <= 1e-6
    assert abs(c_rld - 11.0 / 75.0) <= 1e-6
    W = np.eye(2)
    blocks = W[:, :, None, None] * mom.S_B[None, None, :, :]
    em = ExtendedMoments(S_bar=ExtendedOperator(blocks), D_bar=mom.D_B,
                         w_bar=0.2, pi=np.array([1.0]), states=mom.S_B[None],
                         weight_spec=WeightSpec(constant=W))
    assert holevo_type_bound(em).value >= 11.0 / 75.0 - 1e-6


@functools.lru_cache(maxsize=1)
def per_point_vs_collapsed_ensemble():
    """Both trace-norm program variants on 20 seeded constant-weight models.

    Returns (worst ordering violation, worst absolute disagreement)."""
    rng = np.random.default_rng(808)
    worst_order = np.inf
    worst_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        g = int(rng.integers(2, 4))
        model = random_grid_model(rng, n, 2, g, W=random_spd(rng, n))
        em = build_extended_moments(model)
        vc = holevo_type_bound(em).value
        vg = holevo_type_bound(per_point(em)).value
        worst_order = min(worst_order, vg - vc)
        worst_gap = max(worst_gap, abs(vg - vc))
    return worst_order, worst_gap


def test_per_point_form_never_drops_below_collapsed():
    """The per-point program dominates the collapsed one on every draw."""
    worst_order, _ = per_point_vs_collapsed_ensemble()
    assert worst_order >= -1e-7


@pytest.mark.xfail(
    strict=True,
    reason="the per-point program charges sum_m pi_m TrAbs(Im Z_m) while the "
           "collapsed program charges TrAbs of the averaged imaginary part; "
           "the trace norm is convex, so the per-point value is >= and "
           "strictly exceeds it whenever the optimizer cannot align the "
           "per-point imaginary parts (11 of the 20 seeded draws, gaps up "
           "to ~7.5e-3). Agreement within 1e-7 on generic models is "
           "therefore not attainable; see notes/decisions.md.")
def test_per_point_and_collapsed_forms_agree():
    """Per-point and collapsed trace-norm programs within 1e-7 on 20 draws."""
    _, worst_gap = per_point_vs_collapsed_ensemble()
    assert worst_gap <= 1e-7


def test_invariance_suite():
    """Weight scaling, unitary conjugation, grid reordering: <= 1e-7 relative."""
    models = [model_zoo("qubit_xy", (0.5,), grid_size=4),
              random_model(2, 2, seed=5),
              random_model(3, 2, seed=6)]
    rng = np.random.default_rng(909)
    c = 7.3
    for model in models:
        em = build_extended_moments(model)
        base = {"nh": nagaoka_hayashi_bound(em).value,
                "holevo": holevo_type_bound(em).value}

        scaled = build_extended_moments(
            with_weight(model, c * model.weight_spec.constant))
        assert abs(nagaoka_hayashi_bound(scaled).value - c * base["nh"]) \
            <= 1e-7 * max(1.0, abs(c * base["nh"]))
        assert abs(holevo_type_bound(scaled).value - c * base["holevo"]) \
            <= 1e-7 * max(1.0, abs(c * base["holevo"]))

        A = rng.standard_normal((model.d, model.d)) \
            + 1j * rng.standard_normal((model.d, model.d))
        Q, R = np.linalg.qr(A)
        U = Q * (np.diag(R) / np.abs(np.diag(R)))
        pts = tuple(GridPoint(theta=p.theta, weight=p.weight,
                              state=U @ p.state @ U.conj().T)
                    for p in model.points)
        rotated = build_extended_moments(StatisticalModel(
            n=model.n, d=model.d, points=pts, weight_spec=model.weight_spec))
        assert abs(nagaoka_hayashi_bound(rotated).value - base["nh"]) \
            <= 1e-7 * max(1.0, abs(base["nh"]))
        assert abs(holevo_type_bound(rotated).value - base["holevo"]) \
            <= 1e-7 * max(1.0, abs(base["holevo"]))

        perm = rng.permutation(len(model.points))
        shuffled = build_extended_moments(StatisticalModel(
            n=model.n, d=model.d,
            points=tuple(model.points[i] for i in perm),
            weight_spec=model.weight_spec))
        assert abs(nagaoka_hayashi_bound(shuffled).value - base["nh"]) \
            <= 1e-7 * max(1.0, abs(base["nh"]))
        assert abs(holevo_type_bound(shuffled).value - base["holevo"]) \
            <= 1e-7 * max(1.0, abs(base["holevo"]))


def test_solver_conformance():
    """Optimal solves certify gap and primal residual within 15 iterations,
    on the audit ensemble too; infeasibility is reported as such rather than
    as a value."""
    rng = np.random.default_rng(111)
    models = [random_grid_model(rng, 2, 2, 2, W=random_spd(rng, 2))
              for _ in range(2)]
    diagnostics = []
    for model in models + list(audit_ensemble()):
        em = build_extended_moments(model)
        diagnostics.append(nagaoka_hayashi_bound(em).diagnostics)
        diagnostics.append(holevo_type_bound(em).diagnostics)
    for trial in holevo_lemma_suite(trials=6, seed=3):
        assert trial["status"] == "optimal"
    for diag in diagnostics:
        assert diag.status == "optimal"
        assert diag.iterations <= 15
        assert diag.gap <= 1e-8
        assert diag.feas_primal <= 1e-8
        assert diag.dual_value <= diag.primal_value + 1e-9

    probe = ConicProgram()
    blk = probe.add_psd_block(2)
    probe.add_eq({blk: np.eye(2)}, rhs=-1.0)
    probe.set_objective({blk: np.eye(2)})
    assert solve(probe).status == "infeasible"
