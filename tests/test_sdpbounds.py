"""Unit tests for the conic Bayes-risk bounds and the comparison functionals."""

import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    ProgramCaptured,
    audit_ensemble,
    capture_programs,
    per_point,
    point_mass_model,
    pure_model,
    pure_panel,
    random_density,
    random_grid_model,
    random_hermitian,
    random_spd,
    random_unitary,
    record_row_counts,
    same_rows,
    schur_blocks,
    tensor_moments,
)
from qbayes import conic
from qbayes.conic import ConicProgram, hvec, hvec_basis, solve_or_raise
from qbayes.matcore import hermitize
from qbayes.model import (
    CapabilityError,
    GridPoint,
    StatisticalModel,
    WeightSpec,
    build_extended_moments,
    classical_binary,
    correlated_pair,
    model_zoo,
    random_model,
    with_weight,
)
from qbayes.sdpbounds import (
    _dominating_program,
    _hermitian_offblock_rows,
    appendix_f,
    f_family_pinned_example,
    holevo_type_bound,
    nagaoka_bound,
    nagaoka_hayashi_bound,
    nagaoka_objective,
)
from qbayes.verify import optimal_povm_step, rounded_measurement

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


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
    _hermitian_offblock_rows(prog, x, 0, 2, G)
    prog.set_objective({x: np.eye(4)})
    assert prog.assemble()[0].shape == (4, 16)
    T = solve_or_raise(prog).variable_values[0][:2, 2:]
    assert np.allclose(T - T.conj().T, G, atol=1e-7)


def test_pins_assemble_like_one_stack():
    """The d^2 = 81 pin rows of a 9 x 9 off-block and of the identity
    corner, added by `add_pins` from their places, assemble the same A and
    b, nonzero for nonzero, as the whole (d^2, dim, dim) coefficient stacks
    `add_eq` takes."""
    rng = np.random.default_rng(41)
    d, dim = 9, 27
    G = 1j * random_hermitian(rng, d)
    E = hvec_basis(d)
    whole, pins = ConicProgram(), ConicProgram()
    for prog in (whole, pins):
        prog.add_psd_block(dim)
    C = np.zeros((d * d, dim, dim), dtype=complex)
    C[:, :d, d:2 * d] = 1j * E
    C[:, d:2 * d, :d] = -1j * E
    whole.add_eq({0: C}, rhs=hvec(-1j * G))
    C = np.zeros((d * d, dim, dim), dtype=complex)
    C[:, 2 * d:, 2 * d:] = E
    whole.add_eq({0: C}, rhs=hvec(np.eye(d)))
    _hermitian_offblock_rows(pins, 0, 0, d, G)
    pins.add_pins([(0, 2 * d, 2 * d, 1.0)], hvec(np.eye(d)))
    (A0, b0, *_), (A1, b1, *_) = whole.assemble(), pins.assemble()
    assert A0.shape == (2 * d * d, dim * dim)
    assert same_rows(A0, A1) and np.array_equal(b0, b1)


def test_pins_on_several_blocks_assemble_like_one_stack():
    """The measurement update's identity resolution, one place on each of
    K = 4 blocks of size 3, and a pin with a complex factor and its mirror
    beside a diagonal place, give the rows of their stacked forms."""
    E = hvec_basis(3)
    whole, pins = ConicProgram(), ConicProgram()
    for prog in (whole, pins):
        for _ in range(4):
            prog.add_psd_block(3)
        prog.add_psd_block(8)
    whole.add_eq({b: E for b in range(4)}, rhs=hvec(np.eye(3)))
    pins.add_pins([(b, 0, 0, 1.0) for b in range(4)], hvec(np.eye(3)))
    C = np.zeros((9, 8, 8), dtype=complex)
    C[:, :3, 5:] = (0.5 - 2j) * E
    C[:, 5:, :3] = (0.5 + 2j) * E
    C[:, 2:5, 2:5] = -3.0 * E
    rhs = np.arange(9.0)
    whole.add_eq({4: C}, rhs=rhs)
    pins.add_pins([(4, 0, 5, 0.5 - 2j), (4, 5, 0, 0.5 + 2j), (4, 2, 2, -3.0)], rhs)
    (A0, b0, *_), (A1, b1, *_) = whole.assemble(), pins.assemble()
    assert same_rows(A0, A1) and np.array_equal(b0, b1)


def test_programs_keep_their_row_counts(monkeypatch):
    """NH pins its identity corner and n(n+1)/2 off-blocks, d^2 rows each;
    the dominating program pins its n(n-1)/2 off-blocks."""
    counts = record_row_counts(monkeypatch)
    em = build_extended_moments(random_model(3, 2, seed=2, grid=3))
    n, d = em.n, em.d
    nagaoka_hayashi_bound(em)
    rng = np.random.default_rng(46)
    M = rng.standard_normal((n * d, n * d)) + 1j * rng.standard_normal((n * d, n * d))
    appendix_f("f_sdp", [(1.0, random_spd(rng, n), random_density(rng, d))],
               hermitize(M))
    assert counts == [(1 + n * (n + 1) // 2) * d * d, n * (n - 1) // 2 * d * d]


def _captured(monkeypatch, run):
    """The one program `run` hands to the solver."""
    programs = capture_programs(monkeypatch)
    with pytest.raises(ProgramCaptured):
        run()
    (prog,) = programs
    return prog


def _rung_program(monkeypatch, rung, n, d, per_point_weight=False):
    em = build_extended_moments(random_model(n, d, seed=1, grid=3))
    return _captured(monkeypatch, lambda: rung(per_point(em) if per_point_weight else em))


SCHUR_CASES = {
    **{f"nh-n{n}-d{d}": (nagaoka_hayashi_bound, n, d, False)
       for n in (2, 3) for d in (2, 3, 6)},
    "holevo-constant": (holevo_type_bound, 2, 3, False),
    "holevo-per-point": (holevo_type_bound, 3, 3, True),
    "nagaoka2": (nagaoka_bound, 2, 3, False),
}


@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_schur_block_read_off_w_matches_the_scaled_rows(monkeypatch, case):
    """The Schur block each rung's program gets, pin pairs read off W and
    the cap and commutator rows (with their terms against the pins) from
    their scaled rows, equals A~ A~^T of the dense scaled rows within 1e-12
    of its largest entry, at a random R per block; so does the block of the
    rows split with no pins, every row scaled."""
    prog = _rung_program(monkeypatch, *SCHUR_CASES[case])
    for pins in (True, False):
        M, ref = schur_blocks(prog, pins=pins)
        assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("rung, p", [(nagaoka_hayashi_bound, 100), (holevo_type_bound, 76),
                                     (nagaoka_bound, 150)],
                         ids=["nh", "holevo", "nagaoka2"])
def test_a_failed_factor_read_off_w_splits_the_rows_again(monkeypatch, rung, p):
    """When the first factor of a block read off W fails, the solve splits
    its rows again, once, with no pins and builds no block off W from then
    on: NH at d = 5 (p = 100, pins only), Holevo at d = 5 (p = 76, one cap
    row) and the Nagaoka bound at d = 5 (p = 150: 75 pin rows and 75
    commutator rows, whose cross terms with the pins fill two chunks of
    TRI_LEAF rows) still end optimal, within 1e-10 relative of the unforced
    solve."""
    prog = _rung_program(monkeypatch, rung, 2, 5)
    monkeypatch.undo()
    assert prog.assemble()[0].shape[0] == p
    ref = conic.solve(prog)
    factor, block = conic._schur_factor, conic._schur_block
    plans = []

    def failing_once(M):
        return None if len(plans) == 1 else factor(M)

    def recording(size, plan, *args):
        plans.append(bool(plan))
        return block(size, plan, *args)

    monkeypatch.setattr(conic, "_schur_factor", failing_once)
    monkeypatch.setattr(conic, "_schur_block", recording)
    sol = conic.solve(prog)
    assert ref.status == sol.status == "optimal"
    assert plans[0] and not any(plans[1:])
    assert len(plans) == sol.iterations + 1
    for got, want in ((sol.primal_value, ref.primal_value),
                      (sol.dual_value, ref.dual_value)):
        assert abs(got - want) <= 1e-10 * abs(want)


def test_schur_block_of_the_other_pin_programs_matches(monkeypatch):
    """The same for the dominating program (three off-blocks of d = 3) and
    for the measurement update's identity resolution over K = 5 blocks."""
    rng = np.random.default_rng(47)
    X = hermitize(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    model = random_grid_model(rng, 2, 3, 3)
    for prog in (_dominating_program(random_spd(rng, 9) + 0j, X, 3),
                 _captured(monkeypatch, lambda: optimal_povm_step(
                     model, rng.uniform(-1.0, 1.0, (5, 2))))):
        M, ref = schur_blocks(prog, seed=3)
        assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()


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
    """The (L, X) of the optimal G satisfy the declared feasibility and
    value ties."""
    rng = np.random.default_rng(42)
    model = random_grid_model(rng, 2, 2, 3, W=random_spd(rng, 2))
    em = build_extended_moments(model)
    sol = nagaoka_hayashi_bound(em)
    nd = em.n * em.d
    L = sol.diagnostics.variable_values[0][:nd, :nd]
    Xcol = np.concatenate([np.asarray(X) for X in sol.Xopt], axis=0)
    gram = Xcol @ Xcol.conj().T
    assert np.linalg.eigvalsh((L + L.conj().T) / 2 - gram)[0] > -1e-7
    Lb = L.reshape(em.n, em.d, em.n, em.d)
    assert np.abs(Lb - Lb.transpose(2, 1, 0, 3)).max() <= 1e-7 * max(1.0, np.abs(L).max())
    direct = float(np.real(np.trace(em.S_bar @ L)))
    for j in range(em.n):
        direct -= 2.0 * float(np.real(np.trace(em.D_bar[j] @ sol.Xopt[j])))
    direct += em.w_bar
    assert abs(direct - sol.value) < 1e-7


# ---------------------------------------------------------------------------
# trace-norm relaxation
# ---------------------------------------------------------------------------

def holevo_caps(sol, states):
    """The real caps V_m = Re(Phi_m(L) + T_m), Phi_m(L)_jk = Tr(S_m L_jk), of
    a Holevo solution: L from G = variable_values[0], the T_m blocks after
    it, one per state (none in the constant form, whose one state is the
    mean state)."""
    G, *T = sol.diagnostics.variable_values
    n, d = sol.Xopt.shape[:2]
    L = G[:n * d, :n * d].reshape(n, d, n, d)
    return tuple((np.einsum("ab,jbka->jk", S, L) + Tm).real
                 for S, Tm in zip(states, T or (0.0,), strict=True))


def symmetric_to_a_few_ulps(V):
    """`holevo_caps` sums V_jk and V_kj by one einsum in different orders,
    so a cap is symmetric up to rounding only."""
    return np.abs(V - V.T).max() <= 4 * np.spacing(np.abs(V).max())


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
        Vs = holevo_caps(sol, [S for _, S in caps])
        assert len(Vs) == len(caps)
        objective = em.w_bar - 2.0 * sum(np.trace(D @ X).real
                                         for D, X in zip(em.D_bar, sol.Xopt))
        for (p, S), V in zip(caps, Vs):
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
    mean_state = np.einsum("m,mab->ab", em.pi, em.states)
    for em_form, states in ((em, [mean_state]), (per_point(em), em.states)):
        sol = holevo_type_bound(em_form)
        Vs = holevo_caps(sol, states)
        assert len(Vs) == len(states)
        assert all(symmetric_to_a_few_ulps(V) for V in Vs)
        assert all(np.array_equal(X, X.conj().T) for X in sol.Xopt)
    assert counts == [(n + 1) * d * d + n * (n - 1) // 2,
                      (n + 1) * d * d + M * n * (n - 1) // 2]


@pytest.mark.parametrize("n,d", [(3, 2), (2, 3), (3, 3)])
def test_holevo_caps_are_symmetric(n, d):
    """The real caps of both forms, on 12 seeded models per (n, d): bitwise
    symmetry fails on about half of them, a few ulps of max|V| holds."""
    for seed in range(12):
        em = build_extended_moments(random_model(n, d, seed=seed, grid=3))
        mean_state = np.einsum("m,mab->ab", em.pi, em.states)
        for em_form, states in ((em, [mean_state]), (per_point(em), em.states)):
            Vs = holevo_caps(holevo_type_bound(em_form), states)
            assert all(symmetric_to_a_few_ulps(V) for V in Vs)


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


def test_holevo_cap_row_widens_only_its_chunk(monkeypatch):
    """Holevo's constant form at d = 8 is 193 rows on G (24 x 24): 192 pin
    the corner and make X Hermitian, touching at most 4 indices of G each,
    and the last, the cap row Im Phi_B(L) = 0, touches L's nd = 16. Rows
    are scaled TRI_LEAF at a time, each chunk padded only to its own widest
    support, so the cap row is alone at width 16."""
    programs = capture_programs(monkeypatch)
    em = build_extended_moments(random_model(2, 8, seed=1, grid=4))
    with pytest.raises(ProgramCaptured):
        holevo_type_bound(em)
    (prog,) = programs
    A, _, _, _, groups, _ = prog.assemble()
    (chunks,) = conic._row_supports(groups, A)
    assert A.shape[0] == 193
    assert [len(CS) for _, _, CS in chunks] == [64, 64, 64, 1]
    widths = [CS.shape[-1] for _, _, CS in chunks]
    assert max(widths[:-1]) <= 4 and widths[-1] == 16


def test_holevo_scaling_memory_stays_small():
    """The solver scales each row through the rows of the scaling factor
    its coefficient touches, padded to the widest in its chunk of rows (the
    cap row's nd = 12 of 18 here), so Holevo on a d = 6 model, one block G
    of size (n + 1)d = 18, allocates well under the two k^2 x k^2 scaling tables per iteration
    that a dense operator form of the scaling would need."""
    em = build_extended_moments(random_model(2, 6, seed=1, grid=4))
    tracemalloc.start()
    try:
        holevo_type_bound(em)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20


def nh_traced_peak(d):
    """Traced peak of NH on random_model(2, d, seed=1, grid=4), its program
    build included."""
    em = build_extended_moments(random_model(2, d, seed=1, grid=4))
    tracemalloc.start()
    try:
        nagaoka_hayashi_bound(em)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nh_solve_memory_stays_small():
    """NH on a d = 10 model: 400 rows on one 30 x 30 block G, all pins. The
    solve holds A as its nonzeros and the Schur block (1.2 MiB), read off
    the NT scaling W and factored in place, and no buffer of scaled rows:
    about 3.0 MiB traced, program build included, where the scaled-row
    buffer took it to 4.8 MiB and the dense A and a second 400 x 400 array
    beside the factor to 8.9 MiB."""
    assert nh_traced_peak(10) < 3.75 * 2**20


def test_nh_solve_memory_stays_small_at_d14():
    """The same at d = 14, 784 rows on a 42 x 42 block: about 10.5 MiB
    traced, where the scaled-row buffer took it to 17.1 MiB and the dense A
    and the second p x p array to 31.8 MiB."""
    assert nh_traced_peak(14) < 13 * 2**20


def test_nh_assembly_memory_stays_small_at_d14(monkeypatch):
    """`assemble` gives NH's d = 14 program, 784 rows on a 42 x 42 block,
    as its 1 330 nonzeros: about 0.1 MiB traced, where a dense A of
    784 x 1 764 floats took 10.6 MiB."""
    programs = capture_programs(monkeypatch)
    em = build_extended_moments(random_model(2, 14, seed=1, grid=4))
    with pytest.raises(ProgramCaptured):
        nagaoka_hayashi_bound(em)
    (prog,) = programs
    tracemalloc.start()
    try:
        A = prog.assemble()[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.shape == (784, 42 * 42)
    assert peak < 2**20


def test_holevo_pinned_value_at_d8():
    """One 24 x 24 block G and (n + 1)d^2 + 1 = 193 rows: the 192 pin rows
    read off W, and the cap row, which touches all of L, scaled through 16
    of the 24 rows of the scaling factor; about 0.05 s on two cores."""
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


def test_nagaoka_objective_rejects_non_finite_observables():
    """A NaN entry in X_1 is a CapabilityError, as a wrong shape is, not a
    NaN objective."""
    em = build_extended_moments(model_zoo("qubit_xy", (0.6,)))
    with pytest.raises(CapabilityError, match="non-finite"):
        nagaoka_objective(em, (np.array([[np.nan, 0.0], [0.0, 1.0]]), SY))


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


@pytest.mark.parametrize("gap_tol", [1e-8, 1e-10])
def test_nagaoka_bound_on_the_pure_panel(monkeypatch, gap_tol):
    """Low-rank states: nagaoka2 pins its commutator pairs on the state
    supports, 3d^2 + sum_m r_m^2 rows, ends optimal at both gaps, lies in
    the sandwich and reproduces its value through the objective at Xopt.
    The per-point Holevo form runs at the default gap only: it ends
    numerical-failure on some models at 1e-10 (CHANGES.md)."""
    counts = record_row_counts(monkeypatch)
    for model in pure_panel():
        em = build_extended_moments(model)
        sol = nagaoka_bound(em, gap_tol)
        assert sol.diagnostics.status == "optimal"
        ranks = [np.linalg.matrix_rank(S) for S in em.states]
        assert counts[-1] == 3 * em.d ** 2 + sum(r * r for r in ranks)
        holevo_forms = [em] + ([per_point(em)] if gap_tol == 1e-8 else [])
        for em_form in holevo_forms:
            assert sol.value >= holevo_type_bound(em_form, gap_tol).value - 1e-7
        assert sol.value <= nagaoka_hayashi_bound(em, gap_tol).value + 1e-7
        assert abs(nagaoka_objective(em, sol.Xopt) - sol.value) \
            <= 1e-7 * max(1.0, abs(sol.value))


def test_nh_on_a_rank_deficient_mean_state_at_a_deep_gap():
    """pure_model(2, 12, 4, 2, seed=12) at gap 1e-10 (S_B of rank 8 of 12):
    NH ends optimal, as Holevo and nagaoka2 do, and sits in the sandwich
    below the risk of the rounded NH measurement. With an LU of the
    equilibrated Schur system this solve ended numerical-failure after 19
    iterations at gap 2e-10; the Cholesky factor of the row-scaled Schur
    block cures it."""
    model = pure_model(2, 12, 4, 2, seed=12)
    em = build_extended_moments(model)
    nh = nagaoka_hayashi_bound(em, 1e-10)
    assert nh.diagnostics.status == "optimal"
    n2 = nagaoka_bound(em, 1e-10).value
    assert holevo_type_bound(em, 1e-10).value - 1e-7 <= n2 <= nh.value + 1e-7
    assert nh.value <= rounded_measurement(model, nh.Xopt).risk + 1e-7


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
    X = np.kron(np.diag([1.0, 3.0]), np.eye(2))
    assert abs(appendix_f("f_sdp", S_terms, X) - 4.0) < 1e-6


def test_f_sdp_without_rows_is_optimal(monkeypatch):
    """At n = 1 the block-symmetry rows of f_sdp are empty, so its program
    has no rows at all; it still ends optimal at L = X, value Tr(S X)."""
    programs = capture_programs(monkeypatch)
    X = np.diag([1.0, 2.0])
    S_terms = [(1.0, [[1.0]], np.eye(2) / 2)]
    with pytest.raises(ProgramCaptured):
        appendix_f("f_sdp", S_terms, X)
    (prog,) = programs
    assert prog.assemble()[0].shape[0] == 0
    monkeypatch.undo()
    value = appendix_f("f_sdp", S_terms, X)
    assert abs(value - 1.5) <= 10 * conic.GAP_TOL * max(1.0, abs(value))


def test_f_family_chain_on_random_tensors():
    rng = np.random.default_rng(48)
    for _ in range(3):
        d = int(rng.integers(2, 4))
        W = random_spd(rng, 2)
        S = random_density(rng, d)
        S_terms = [(1.0, W, S)]
        X = np.empty((2 * d, 2 * d), dtype=complex)
        X[:d, :d] = random_hermitian(rng, d)
        X[d:, d:] = random_hermitian(rng, d)
        X[:d, d:] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        X[d:, :d] = X[:d, d:].conj().T
        fs = {k: appendix_f(k, S_terms, X) for k in
              ("f_sdp", "f1", "f2", "f3", "f4", "f5")}
        assert abs(fs["f_sdp"] - fs["f1"]) <= 1e-6 * max(1.0, abs(fs["f1"]))
        assert fs["f_sdp"] >= fs["f3"] - 1e-7
        assert fs["f3"] >= fs["f4"] - 1e-7
        assert fs["f_sdp"] >= fs["f5"] - 1e-7
        assert fs["f_sdp"] >= fs["f2"] - 1e-7


def test_f_family_validation():
    S_terms = [(1.0, np.eye(2), np.diag([1.0, 0.0]).astype(complex))]
    X = np.zeros((4, 4), dtype=complex)
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


NONHERM = [[0.5, 0.4], [0.0, 0.5]]


@pytest.mark.parametrize("terms, fragment", [
    ([(1.0, [[1.0, 0.5], [0.0, 1.0]], NONHERM)],
     "W_0: matrix deviates from Hermitian by 5.000e-01"),
    ([(1.0, np.eye(2), NONHERM)],
     "S_0: matrix deviates from Hermitian by 4.000e-01"),
    ([(-0.5, np.eye(2), np.eye(2) / 2), (1.5, np.eye(2), np.eye(2) / 2)],
     "term 0: prior mass -0.5 is not a finite non-negative number"),
    ([(1.0, np.eye(2), np.eye(2) / 2), (np.inf, np.eye(2), np.eye(2) / 2)],
     "term 1: prior mass inf is not a finite non-negative number"),
], ids=["weight-not-symmetric", "state-not-hermitian", "negative-mass",
        "infinite-mass"])
def test_appendix_f_rejects_malformed_terms(terms, fragment):
    """Every functional checks each term before anything else: once each W_j
    and S_j was replaced by its Hermitian part and a negative pi_j accepted,
    which at X = 0 gave 0.0 for both malformed sums above."""
    X = np.zeros((4, 4), dtype=complex)
    for kind in ("f_sdp", "f1", "f2", "f3", "f4", "f5"):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            appendix_f(kind, terms, X)


@pytest.mark.parametrize("X, fragment", [
    (np.zeros((2, 2, 2, 2)), "X is (2, 2, 2, 2), not (4, 4) for 2 blocks of dimension 2"),
    (np.zeros((6, 6)), "X is (6, 6), not (4, 4) for 2 blocks of dimension 2"),
    (np.kron([[0.0, 1.0], [0.0, 0.0]], np.eye(2)),
     "X: matrix deviates from Hermitian by 1.000e+00"),
    (np.full((4, 4), np.nan), "X: matrix has non-finite entries"),
], ids=["block-grid", "wrong-size", "not-hermitian", "not-finite"])
def test_appendix_f_rejects_a_malformed_operator(X, fragment):
    """X is one Hermitian (nd, nd) array, n and d read from the terms; the
    old (n, n, d, d) block grid and a non-Hermitian X are refused by name."""
    terms = [(1.0, np.eye(2), np.eye(2) / 2)]
    for kind in ("f_sdp", "f1", "f2", "f3", "f4", "f5"):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            appendix_f(kind, terms, X)


def test_appendix_f_reads_blocks_in_kron_order():
    """Block (j, k) of X is X[j*d:(j+1)*d, k*d:(k+1)*d]: with S = I_2 (x)
    I_3/3 and X = E_01 (x) K + E_10 (x) K^+, f4 is TrAbs(I/3 (K - K^+))."""
    K = np.array([[0, 1, 0], [0, 0, 2j], [0, 0, 0]], dtype=complex)
    X = np.kron([[0, 1], [0, 0]], K) + np.kron([[0, 0], [1, 0]], K.conj().T)
    expected = np.abs(np.linalg.eigvals(K - K.conj().T)).sum() / 3
    value = appendix_f("f4", [(1.0, np.eye(2), np.eye(3) / 3)], X)
    assert abs(value - expected) < 1e-12


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
