"""Unit tests for the conic Bayes-risk bounds and the comparison functionals."""

import tracemalloc

import numpy as np
import pytest

from helpers import (
    audit_ensemble,
    point_mass_model,
    random_density,
    random_grid_model,
    random_hermitian,
    random_spd,
    random_unitary,
    record_row_counts,
)
from qbayes.conic import ConicProgram, solve_or_raise
from qbayes.matcore import ExtendedOperator, hermitize, psd_sqrt
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
    n = W.shape[0]
    blocks = W[:, :, None, None] * S_B[None, None, :, :]
    return ExtendedMoments(S_bar=ExtendedOperator(blocks),
                           D_bar=np.asarray(D_bar, dtype=complex),
                           w_bar=float(np.trace(W @ M)),
                           pi=np.array([1.0]),
                           states=np.asarray(S_B, dtype=complex)[None],
                           thetas=np.zeros((1, n)),
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
    """Every returned V dominates Z at the optimizer, per point."""
    rng = np.random.default_rng(44)
    model = random_grid_model(rng, 2, 2, 2, W=random_spd(rng, 2))
    em = build_extended_moments(model)
    sol = holevo_type_bound(em, force_general=True)
    assert len(sol.V_blocks) == len(em.pi)
    for m, V in enumerate(sol.V_blocks):
        sqW = psd_sqrt(em.weight_spec.matrix_at(m))
        Zt = np.array([[np.trace(em.states[m] @ sol.Xopt[k] @ sol.Xopt[j])
                        for k in range(em.n)] for j in range(em.n)])
        Z = sqW @ Zt @ sqW
        assert np.linalg.eigvalsh((V - Z + (V - Z).conj().T) / 2)[0] > -1e-7


def test_holevo_program_has_one_row_per_real_unknown():
    """The LMI has a row per V_m entry (j <= k) and per X coordinate, and
    (V, X) are read back from the dual vector."""
    em = build_extended_moments(random_model(3, 2, seed=2, grid=3))
    n, d = em.n, em.d
    for force_general, blocks in ((False, 1), (True, len(em.pi))):
        sol = holevo_type_bound(em, force_general=force_general)
        assert len(sol.diagnostics.y) == blocks * n * (n + 1) // 2 + n * d * d
        assert len(sol.V_blocks) == blocks
        assert all(np.array_equal(V, V.T) for V in sol.V_blocks)
        assert all(np.array_equal(X, X.conj().T) for X in sol.Xopt)


# Holevo values of both forms from the primal program that the LMI replaced
# (identity corner pinned by rows, X as free scalars), solved to a relative
# gap of 1e-10. At the default gap that program reported up to its duality
# gap above the optimum: 1.04e-7 relative on random_model(2, 2) per point.
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
    vg = holevo_type_bound(em, force_general=True).value
    assert abs(vg - general) <= 1e-7 * general


def test_holevo_scaling_memory_stays_small():
    """The solver scales each block with k x k products, so Holevo on a
    d = 6 model, one block of size n + d^2 = 38, allocates well under the
    two k^2 x k^2 scaling tables per iteration that a dense operator form
    of the scaling would need."""
    em = build_extended_moments(random_model(2, 6, seed=1, grid=4))
    tracemalloc.start()
    try:
        holevo_type_bound(em)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20


def test_holevo_pinned_value_at_d8():
    """One 66 x 66 block and 131 rows; a second or so with k x k scaling."""
    em = build_extended_moments(random_model(2, 8, seed=1, grid=4))
    sol = holevo_type_bound(em)
    assert sol.diagnostics.status == "optimal"
    assert abs(sol.value - 0.5516922693518) <= 1e-7 * 0.5516922693518


def test_per_point_form_dominates_the_collapsed_form():
    """With a constant weight the per-point program is never below the
    collapsed one, and the two agree when the imaginary parts vanish."""
    rng = np.random.default_rng(45)
    for _ in range(3):
        model = random_grid_model(rng, 2, 2, 3, W=random_spd(rng, 2))
        em = build_extended_moments(model)
        vg = holevo_type_bound(em, force_general=True).value
        vc = holevo_type_bound(em).value
        assert vg >= vc - 1e-7
    # commuting (diagonal) states: both reduce to the same classical program
    em_cp = build_extended_moments(correlated_pair(1.0, 0.6))
    vg = holevo_type_bound(em_cp, force_general=True).value
    vc = holevo_type_bound(em_cp).value
    assert abs(vg - vc) < 1e-7


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
                       holevo_type_bound(em, force_general=True)):
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
