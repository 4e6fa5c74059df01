"""Unit tests for the conic Bayes-risk bounds and the comparison functionals."""

import tracemalloc

import numpy as np
import pytest

from helpers import (
    audit_ensemble,
    per_point,
    point_mass_model,
    random_density,
    random_grid_model,
    random_hermitian,
    random_spd,
    random_unitary,
    record_row_counts,
)
from qbayes.conic import ConicProgram, solve_or_raise
from qbayes.matcore import ExtendedOperator, hermitize
from qbayes.model import (
    CapabilityError,
    ExtendedMoments,
    GridPoint,
    StatisticalModel,
    WeightSpec,
    build_extended_moments,
    build_moments,
    classical_binary,
    correlated_pair,
    model_zoo,
    random_model,
    with_weight,
)
from qbayes.sdpbounds import (
    _hermitian_offblock_rows,
    appendix_f,
    f_family_pinned_example,
    holevo_type_bound,
    nagaoka_bound,
    nagaoka_hayashi_bound,
    nagaoka_objective,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def tensor_moments(W, S_B, D_bar, M):
    """ExtendedMoments for one grid point at theta = 0 with given averages."""
    blocks = W[:, :, None, None] * S_B[None, None, :, :]
    return ExtendedMoments(S_bar=ExtendedOperator(blocks),
                           D_bar=np.asarray(D_bar, dtype=complex),
                           w_bar=float(np.trace(W @ M)),
                           pi=np.array([1.0]),
                           states=np.asarray(S_B, dtype=complex)[None],
                           weight_spec=WeightSpec(constant=W))


# ---------------------------------------------------------------------------
# sub-block pins and row counts
# ---------------------------------------------------------------------------

def test_offblock_pin_returns_the_target():
    """min Tr X over 4 x 4 PSD X with T - T^+ = G on its off-block T at
    (0, 2): d^2 = 4 rows, and the solution's off-block meets the pin."""
    rng = np.random.default_rng(40)
    G = 1j * random_hermitian(rng, 2)
    prog = ConicProgram()
    x = prog.add_psd_block(4)
    _hermitian_offblock_rows(prog, x, 4, 0, 2, G)
    prog.set_objective({x: np.eye(4)})
    assert prog.assemble()[0].shape == (4, 16)
    T = solve_or_raise(prog).variable_values[0][:2, 2:]
    assert np.allclose(T - T.conj().T, G, atol=1e-7)


def test_programs_keep_their_row_counts(monkeypatch):
    """NH pins its identity corner and n(n+1)/2 off-blocks, d^2 rows each;
    the dominating program pins its n(n-1)/2 off-blocks."""
    counts = record_row_counts(monkeypatch)
    em = build_extended_moments(random_model(3, 2, seed=2, grid=3))
    n, d = em.n, em.d
    nagaoka_hayashi_bound(em)
    rng = np.random.default_rng(46)
    M = rng.standard_normal((n * d, n * d)) + 1j * rng.standard_normal((n * d, n * d))
    X = ExtendedOperator.from_full(hermitize(M), n, d)
    appendix_f("f_sdp", [(1.0, random_spd(rng, n), random_density(rng, d))], X)
    assert counts == [(1 + n * (n + 1) // 2) * d * d, n * (n - 1) // 2 * d * d]


# ---------------------------------------------------------------------------
# block-operator bound
# ---------------------------------------------------------------------------

def test_point_mass_bound_is_zero():
    rng = np.random.default_rng(41)
    em = build_extended_moments(point_mass_model(rng, 2, 3))
    sol = nagaoka_hayashi_bound(em)
    assert abs(sol.value) < 1e-7
    assert sol.diagnostics.status == "optimal"


def test_the_bounds_ignore_the_gap_tolerance_env(monkeypatch):
    """QBAYES_GAP_TOL is a setting of the command line alone: the library
    solves to its gap_tol argument whatever the environment says."""
    monkeypatch.setenv("QBAYES_GAP_TOL", "1e-3")
    sol = nagaoka_hayashi_bound(build_extended_moments(model_zoo("qubit_xy", (0.6,))))
    assert sol.diagnostics.status == "optimal"
    assert sol.diagnostics.gap <= 1e-8


def test_classical_binary_value():
    em = build_extended_moments(classical_binary(1.0, 0.6))
    assert abs(nagaoka_hayashi_bound(em).value - 0.64) < 1e-6


def test_correlated_pair_value():
    em = build_extended_moments(correlated_pair(1.0, 0.6))
    assert abs(nagaoka_hayashi_bound(em).value - 1.28) < 1e-5


def test_block_solution_certificates():
    """The returned (L, X) satisfy the declared feasibility and value ties."""
    rng = np.random.default_rng(42)
    model = random_grid_model(rng, 2, 2, 3, W=random_spd(rng, 2))
    em = build_extended_moments(model)
    sol = nagaoka_hayashi_bound(em)
    L = sol.Lopt.full()
    Xcol = np.concatenate([np.asarray(X) for X in sol.Xopt], axis=0)
    gram = Xcol @ Xcol.conj().T
    assert np.linalg.eigvalsh((L + L.conj().T) / 2 - gram)[0] > -1e-7
    assert sol.Lopt.is_block_symmetric(tol=1e-7)
    direct = float(np.real(np.trace(em.S_bar.full() @ L)))
    for j in range(em.n):
        direct -= 2.0 * float(np.real(np.trace(em.D_bar[j] @ sol.Xopt[j])))
    direct += em.w_bar
    assert abs(direct - sol.value) < 1e-7


# ---------------------------------------------------------------------------
# trace-norm relaxation
# ---------------------------------------------------------------------------

def test_holevo_point_mass_and_fixtures():
    rng = np.random.default_rng(43)
    em = build_extended_moments(point_mass_model(rng, 2, 2))
    assert abs(holevo_type_bound(em).value) < 1e-7
    em_cb = build_extended_moments(classical_binary(1.0, 0.6))
    assert abs(holevo_type_bound(em_cb).value - 0.64) < 1e-6
    em_cp = build_extended_moments(correlated_pair(1.0, 0.6))
    assert abs(holevo_type_bound(em_cp).value - 1.28) < 1e-5


def test_holevo_dominating_blocks_certify():
    """Every returned cap V_m dominates Z(S_m, X) at the optimizer, and
    sum_m pi_m Tr(W_m V_m) - 2 sum_j Tr(D_bar_j X_j) + w_bar, the primal
    objective, is within the solver's gap of the reported value; the
    constant form has one cap, on the mean state."""
    rng = np.random.default_rng(44)
    model = random_grid_model(rng, 2, 2, 2, W=random_spd(rng, 2))
    em = build_extended_moments(model)
    W = em.weight_spec.constant
    mean_state = np.einsum("m,mab->ab", em.pi, em.states)
    for em_form, caps in ((per_point(em), list(zip(em.pi, em.states))),
                          (em, [(1.0, mean_state)])):
        sol = holevo_type_bound(em_form)
        assert len(sol.V_blocks) == len(caps)
        objective = em.w_bar - 2.0 * sum(np.trace(D @ X).real
                                         for D, X in zip(em.D_bar, sol.Xopt))
        for (p, S), V in zip(caps, sol.V_blocks):
            Z = np.array([[np.trace(S @ Xj @ Xk) for Xk in sol.Xopt]
                          for Xj in sol.Xopt])
            assert np.linalg.eigvalsh((V - Z + (V - Z).conj().T) / 2)[0] > -1e-7
            objective += p * np.trace(W @ V)
        diag = sol.diagnostics
        assert abs(objective - sol.value) \
            <= diag.primal_value - diag.dual_value + 1e-12


def test_holevo_program_row_counts(monkeypatch):
    """Both forms sit on NH's block G: (n + 1) d^2 rows pin its corner and
    make X Hermitian, and each cap adds n(n-1)/2 rows, once for the constant
    form and once per grid point for the per-point form."""
    counts = record_row_counts(monkeypatch)
    em = build_extended_moments(random_model(3, 2, seed=2, grid=3))
    n, d, M = em.n, em.d, len(em.pi)
    for em_form, caps in ((em, 1), (per_point(em), M)):
        sol = holevo_type_bound(em_form)
        assert len(sol.V_blocks) == caps
        assert all(np.array_equal(V, V.T) for V in sol.V_blocks)
        assert all(np.array_equal(X, X.conj().T) for X in sol.Xopt)
    assert counts == [(n + 1) * d * d + n * (n - 1) // 2,
                      (n + 1) * d * d + M * n * (n - 1) // 2]


# Holevo values of both forms from an earlier primal program (identity
# corner pinned by rows, X as free scalars), solved to a relative gap of
# 1e-10. At the default gap a primal value sits up to the duality gap above
# the optimum: 1.04e-7 relative on random_model(2, 2) per point for that
# program, and 1.03e-7 and 1.47e-7 on random_model(2, 2) and (2, 3) for the
# constant form on G. So `holevo_type_bound` reports the dual value.
HOLEVO_REFERENCE = [
    ("qubit_xy", (0.6,), 0.29520000008104463, 0.2952000001726113),
    ("random_model", (2, 2, 1), 0.1541182887943091, 0.15509885515056354),
    ("random_model", (2, 3, 1), 0.12604830538732004, 0.12607986706350538),
    ("random_model", (2, 4, 1), 0.3491834945895764, 0.34927925034567414),
    ("random_model", (2, 5, 1), 0.40546410013423206, 0.4055054479619702),
]


@pytest.mark.parametrize("name,params,constant,general", HOLEVO_REFERENCE)
def test_holevo_values_match_the_primal_program(name, params, constant, general):
    em = build_extended_moments(model_zoo(name, params, grid_size=4))
    assert abs(holevo_type_bound(em).value - constant) <= 1e-7 * constant
    vg = holevo_type_bound(per_point(em)).value
    assert abs(vg - general) <= 1e-7 * general


def test_holevo_scaling_memory_stays_small():
    """The solver scales each row through the rows of the scaling factor
    its coefficient touches, padded to the widest (the cap row's nd = 12 of
    18 here), so Holevo on a d = 6 model, one block G of size (n + 1)d = 18,
    allocates well under the two k^2 x k^2 scaling tables per iteration
    that a dense operator form of the scaling would need."""
    em = build_extended_moments(random_model(2, 6, seed=1, grid=4))
    tracemalloc.start()
    try:
        holevo_type_bound(em)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20


def test_holevo_pinned_value_at_d8():
    """One 24 x 24 block G and (n + 1)d^2 + 1 = 193 rows, each scaled
    through 16 of the 24 rows of the scaling factor (the cap row touches all
    of L); about 0.05 s on two cores."""
    em = build_extended_moments(random_model(2, 8, seed=1, grid=4))
    sol = holevo_type_bound(em)
    assert sol.diagnostics.status == "optimal"
    assert abs(sol.value - 0.5516922693518) <= 1e-7 * 0.5516922693518


def test_per_point_form_dominates_the_collapsed_form():
    """With a constant weight the per-point program is never below the
    collapsed one, and the two agree when the imaginary parts vanish or
    when the grid has a single point, where the per-point cap T is absorbed
    into L."""
    rng = np.random.default_rng(45)
    for _ in range(3):
        model = random_grid_model(rng, 2, 2, 3, W=random_spd(rng, 2))
        em = build_extended_moments(model)
        vg = holevo_type_bound(per_point(em)).value
        vc = holevo_type_bound(em).value
        assert vg >= vc - 1e-7
    # commuting (diagonal) states: both reduce to the same classical program
    em_cp = build_extended_moments(correlated_pair(1.0, 0.6))
    vg = holevo_type_bound(per_point(em_cp)).value
    vc = holevo_type_bound(em_cp).value
    assert abs(vg - vc) < 1e-7
    # one grid point where Holevo is strictly below NH (5.058 against 5.128)
    W, S = random_spd(rng, 2), random_density(rng, 3)
    D = np.stack([random_hermitian(rng, 3, scale=0.3) for _ in range(2)])
    em_one = tensor_moments(W, S, D, np.eye(2))
    vg = holevo_type_bound(per_point(em_one)).value
    vc = holevo_type_bound(em_one).value
    assert abs(vg - vc) <= 1e-7 * max(1.0, abs(vc))


def test_holevo_general_needs_strictly_positive_weights():
    rng = np.random.default_rng(46)
    base = random_grid_model(rng, 2, 2, 2)
    Ws = (np.diag([1.0, 0.0]), np.eye(2))
    model = StatisticalModel(n=2, d=2, points=base.points,
                             weight_spec=WeightSpec(per_point=Ws))
    em = build_extended_moments(model)
    with pytest.raises(CapabilityError):
        holevo_type_bound(em)


# ---------------------------------------------------------------------------
# two-parameter objective and bound
# ---------------------------------------------------------------------------

def test_nagaoka_objective_hand_value():
    """sigma_x/sigma_y at the maximally mixed point: 2 + 2 - 0 + 1 = 5."""
    em = tensor_moments(np.eye(2), np.eye(2, dtype=complex) / 2,
                        np.zeros((2, 2, 2)), 0.5 * np.eye(2))
    assert abs(nagaoka_objective(em, (SX, SY)) - 5.0) < 1e-12
    assert abs(nagaoka_objective(em, (np.zeros((2, 2)), np.zeros((2, 2))))
               - em.w_bar) < 1e-12
    # commuting directions contribute no trace-norm term
    both_z = nagaoka_objective(em, (SZ, 2.0 * SZ))
    plain = np.trace((np.eye(2) / 2) @ (SZ @ SZ + 4.0 * SZ @ SZ)) / 2 * 2
    assert abs(both_z - (np.real(plain) + em.w_bar)) < 1e-12


def test_nagaoka_objective_requires_two_parameters():
    em = build_extended_moments(classical_binary(1.0, 0.6))
    with pytest.raises(ValueError):
        nagaoka_objective(em, (np.eye(2),))


def test_nagaoka_bound_brackets_known_values():
    em_cp = build_extended_moments(correlated_pair(1.0, 0.6))
    value = nagaoka_bound(em_cp).value
    assert value <= 1.28 + 1e-6
    assert value >= holevo_type_bound(em_cp).value - 1e-6
    rng = np.random.default_rng(47)
    em_pm = build_extended_moments(point_mass_model(rng, 2, 2))
    assert nagaoka_bound(em_pm).value < 1e-6


def test_nagaoka_bound_sits_between_holevo_and_nh_on_the_audit_ensemble():
    """Every n = 2 model of the audit ensemble: optimal within 15 iterations,
    Holevo (both forms) <= nagaoka2 <= NH, and the objective at Xopt
    reproduces the value relative to max(1, |value|), the solver's gap
    measure."""
    models = [m for m in audit_ensemble() if m.n == 2]
    assert len(models) == 21
    for model in models:
        em = build_extended_moments(model)
        sol = nagaoka_bound(em)
        assert sol.diagnostics.status == "optimal"
        assert sol.diagnostics.iterations <= 15
        for holevo in (holevo_type_bound(em),
                       holevo_type_bound(per_point(em))):
            assert sol.value >= holevo.value - 1e-7
        assert sol.value <= nagaoka_hayashi_bound(em).value + 1e-7
        assert abs(nagaoka_objective(em, sol.Xopt) - sol.value) \
            <= 1e-7 * max(1.0, abs(sol.value))


@pytest.mark.parametrize("make, expected", [
    (lambda: model_zoo("qubit_xy", (0.6,)), 0.324),
    (lambda: random_model(2, 2, seed=1), 0.1715563065),
    (lambda: random_model(2, 2, seed=5), 0.1851915639),
    (lambda: random_model(2, 3, seed=6), 0.0928615077),
], ids=["qubit_xy-0.6", "random-2-2-seed1", "random-2-2-seed5",
        "random-2-3-seed6"])
def test_nagaoka_bound_panel_values(make, expected):
    """The four models of the nagaoka-search benchmark panel."""
    value = nagaoka_bound(build_extended_moments(make())).value
    assert abs(value - expected) <= 1e-7 * abs(expected)


def test_nagaoka_bound_requires_two_parameters():
    for model in (classical_binary(1.0, 0.6), random_model(3, 2, seed=0)):
        with pytest.raises(CapabilityError):
            nagaoka_bound(build_extended_moments(model))


# ---------------------------------------------------------------------------
# comparison functionals
# ---------------------------------------------------------------------------

def test_f_family_pinned_example():
    pinned = f_family_pinned_example()
    assert abs(pinned["f1"] - 2.0) < 1e-12
    assert abs(pinned["f_sdp"] - 2.0) < 1e-6


def test_f_sdp_attains_a_block_symmetric_witness():
    """For block-symmetric X the trivial L = X is optimal: value Tr(S X)."""
    S_terms = [(1.0, np.eye(2), np.eye(2, dtype=complex) / 2)]
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[0, 0] = np.eye(2)
    blocks[1, 1] = 3.0 * np.eye(2)
    X = ExtendedOperator(blocks)
    assert abs(appendix_f("f_sdp", S_terms, X) - 4.0) < 1e-6


def test_f_family_chain_on_random_tensors():
    rng = np.random.default_rng(48)
    for _ in range(3):
        d = int(rng.integers(2, 4))
        W = random_spd(rng, 2)
        S = random_density(rng, d)
        S_terms = [(1.0, W, S)]
        blocks = np.empty((2, 2, d, d), dtype=complex)
        blocks[0, 0] = random_hermitian(rng, d)
        blocks[1, 1] = random_hermitian(rng, d)
        blocks[0, 1] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks[1, 0] = blocks[0, 1].conj().T
        X = ExtendedOperator(blocks)
        fs = {k: appendix_f(k, S_terms, X) for k in
              ("f_sdp", "f1", "f2", "f3", "f4", "f5")}
        assert abs(fs["f_sdp"] - fs["f1"]) <= 1e-6 * max(1.0, abs(fs["f1"]))
        assert fs["f_sdp"] >= fs["f3"] - 1e-7
        assert fs["f3"] >= fs["f4"] - 1e-7
        assert fs["f_sdp"] >= fs["f5"] - 1e-7
        assert fs["f_sdp"] >= fs["f2"] - 1e-7


def test_f_family_validation():
    S_terms = [(1.0, np.eye(2), np.diag([1.0, 0.0]).astype(complex))]
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    X = ExtendedOperator(blocks)
    with pytest.raises(ValueError):
        appendix_f("f_sdp", S_terms, X)        # singular aggregate
    good = [(1.0, np.eye(3), np.eye(2, dtype=complex) / 2)]
    with pytest.raises(ValueError):
        appendix_f("f_sdp", good, X)           # weight is 3x3, X has 2 blocks
    ok_terms = [(0.5, np.eye(2), np.eye(2, dtype=complex) / 2),
                (0.5, 2.0 * np.eye(2), np.eye(2, dtype=complex) / 2)]
    with pytest.raises(ValueError):
        appendix_f("f1", ok_terms, X)          # f1 needs a single term
    with pytest.raises(ValueError):
        appendix_f("f9", good, X)


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

def test_weight_scaling_is_exact():
    model = random_model(2, 2, seed=5)
    em1 = build_extended_moments(model)
    em2 = build_extended_moments(with_weight(model, 7.3 * np.eye(2)))
    for bound in (nagaoka_hayashi_bound, holevo_type_bound):
        v1 = bound(em1).value
        v2 = bound(em2).value
        assert abs(v2 - 7.3 * v1) <= 1e-7 * max(1.0, abs(v2))


def test_unitary_conjugation_invariance():
    rng = np.random.default_rng(49)
    model = random_model(2, 2, seed=5)
    U = random_unitary(rng, 2)
    pts = tuple(GridPoint(theta=p.theta, weight=p.weight,
                          state=U @ p.state @ U.conj().T)
                for p in model.points)
    rotated = StatisticalModel(n=2, d=2, points=pts,
                               weight_spec=model.weight_spec)
    em, em_rot = build_extended_moments(model), build_extended_moments(rotated)
    assert abs(nagaoka_hayashi_bound(em).value
               - nagaoka_hayashi_bound(em_rot).value) < 1e-7
    assert abs(holevo_type_bound(em).value
               - holevo_type_bound(em_rot).value) < 1e-7


def test_grid_permutation_invariance():
    model = random_model(2, 2, seed=5)
    perm = (2, 0, 1)
    pts = tuple(model.points[i] for i in perm)
    shuffled = StatisticalModel(n=2, d=2, points=pts,
                                weight_spec=model.weight_spec)
    em, em_sh = build_extended_moments(model), build_extended_moments(shuffled)
    assert abs(nagaoka_hayashi_bound(em).value
               - nagaoka_hayashi_bound(em_sh).value) < 1e-9
    assert abs(holevo_type_bound(em).value
               - holevo_type_bound(em_sh).value) < 1e-9
