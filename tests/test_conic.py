"""Unit tests for the dense interior-point conic solver."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hermitian, random_unitary, same_rows
from qbayes import conic
from qbayes.conic import (
    ConicProgram,
    ProgramError,
    Rows,
    SolverFailureError,
    _alpha_boundary,
    _factor_psd,
    _schur_factor,
    _schur_solve,
    hmat,
    hvec,
    hvec_basis,
    solve,
    solve_or_raise,
)
from qbayes.matcore import hermitize
from qbayes.model import GridPoint, StatisticalModel, random_model
from qbayes.sdpbounds import (
    holevo_lemma_sdp_value,
    holevo_lemma_value,
    random_lemma_triple,
)
from qbayes.verify import seesaw


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_hvec_hmat_round_trip_preserves_inner_products(seed, k):
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, k)
    B = random_hermitian(rng, k)
    assert hvec(A).shape == (k * k,)
    assert np.allclose(hmat(hvec(A), k), A, atol=1e-14)
    assert abs(hvec(A) @ hvec(B) - np.trace(A @ B).real) < 1e-10


@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_hvec_hmat_act_on_stacks(seed, k, K):
    """On a (K, k, k) Hermitian stack hvec gives the per-matrix coordinates
    row by row, and hmat maps them back."""
    rng = np.random.default_rng(seed)
    stack = np.stack([random_hermitian(rng, k) for _ in range(K)])
    v = hvec(stack)
    assert v.shape == (K, k * k)
    for row, H in zip(v, stack):
        assert np.array_equal(row, hvec(H))
    assert np.allclose(hmat(v, k), stack, atol=1e-14)


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_hvec_basis_reads_hvec_coordinates(seed, k):
    """Tr(E[i] H) = hvec(H)[i] for the Hermitian stack E = hvec_basis(k)."""
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, k)
    E = hvec_basis(k)
    assert E.shape == (k * k, k, k)
    assert np.array_equal(E, E.conj().swapaxes(-1, -2))
    traces = np.einsum("iab,ba->i", E, H)
    assert np.allclose(traces, hvec(H), atol=1e-12)


def hvec_by_definition(X):
    """hvec written out entry by entry: the diagonal, then sqrt2 Re and
    sqrt2 Im of the strict upper triangle in row-major order."""
    k = X.shape[-1]
    upper = [(i, j) for i in range(k) for j in range(i + 1, k)]
    out = np.empty(X.shape[:-2] + (k * k,))
    for idx in np.ndindex(X.shape[:-2]):
        M = X[idx]
        out[idx] = ([M[i, i].real for i in range(k)]
                    + [np.sqrt(2.0) * M[i, j].real for i, j in upper]
                    + [np.sqrt(2.0) * M[i, j].imag for i, j in upper])
    return out


@pytest.mark.parametrize("k", range(1, 9))
def test_hvec_hmat_on_views_real_input_and_stacks(k):
    """hvec equals its written-out definition exactly on non-contiguous
    views, real symmetric input, a single matrix and a (2, 3, k, k) stack,
    and hmat(hvec(X)) gives X back to 1e-15."""
    rng = np.random.default_rng(100 + k)
    stack = np.stack([random_hermitian(rng, k) for _ in range(6)]).reshape(2, 3, k, k)
    flat = stack.reshape(6, k, k)
    G = rng.standard_normal((k, k))
    inputs = [stack[0, 0], stack, flat.swapaxes(-1, -2), flat[::2],
              G + G.T, np.stack([G + G.T, G @ G.T])]
    for X in inputs:
        v = hvec(X)
        assert v.shape == X.shape[:-2] + (k * k,)
        assert np.array_equal(v, hvec_by_definition(X))
        assert np.abs(hmat(v, k) - X).max() <= 1e-15
        assert hmat(v, k).dtype == complex


def test_stacked_rows_assemble_like_single_rows():
    """An (r, k, k) coefficient stack with an rhs of length r assembles the
    same A and b as the r rows added one at a time."""
    rng = np.random.default_rng(37)
    stack = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    other = np.stack([random_hermitian(rng, 2) for _ in range(4)])
    rhs = rng.standard_normal(4)
    progs = [ConicProgram(), ConicProgram()]
    for prog in progs:
        prog.add_psd_block(3)
        prog.add_psd_block(2)
        prog.add_eq({1: np.eye(2)}, rhs=1.0)
    progs[0].add_eq({0: stack, 1: other}, rhs=rhs)
    for C, D, r in zip(stack, other, rhs):
        progs[1].add_eq({0: C, 1: D}, rhs=r)
    (A0, b0, _, starts, *_), (A1, b1, *_) = (p.assemble() for p in progs)
    assert A0.shape == (5, 13) and starts == [0, 9]
    assert same_rows(A0, A1) and np.array_equal(b0, b1)


def smallest_eigenvalue_program():
    """min Tr(-H X) s.t. Tr X = 1 over one complex block: the smallest
    eigenvalue of -H. Its dual is the LMI -H - y I >= 0, max y."""
    rng = np.random.default_rng(33)
    H = random_hermitian(rng, 3)
    prog = ConicProgram()
    blk = prog.add_psd_block(3)
    prog.add_eq({blk: np.eye(3)}, rhs=1.0)
    prog.set_objective({blk: -H})
    return prog, H


def test_largest_eigenvalue_as_an_sdp():
    prog, H = smallest_eigenvalue_program()
    sol = solve_or_raise(prog)
    top = np.linalg.eigvalsh(H)[-1]
    assert abs(-sol.primal_value - top) < 1e-7
    assert abs(-sol.y[0] - top) < 1e-7
    assert sol.status == "optimal"
    assert sol.gap <= 1e-8
    assert sol.feas_primal <= 1e-8


def test_interleaved_block_sizes_share_size_stacks():
    """max sum_b Tr(H_b X_b) s.t. Tr X_b = 1 on blocks of sizes 2, 3, 2, 3:
    assemble lays each size's blocks out in one contiguous run of columns
    (sizes in order of first appearance), and the value is the sum of the
    largest eigenvalues."""
    rng = np.random.default_rng(35)
    prog = ConicProgram()
    Hs = []
    obj = {}
    for k in (2, 3, 2, 3):
        blk = prog.add_psd_block(k)
        H = random_hermitian(rng, k)
        Hs.append(H)
        prog.add_eq({blk: np.eye(k)}, rhs=1.0)
        obj[blk] = -H
    prog.set_objective(obj)
    assert prog.assemble()[3] == [0, 8, 4, 17]
    sol = solve(prog)
    assert sol.status == "optimal"
    top = sum(np.linalg.eigvalsh(H)[-1] for H in Hs)
    assert abs(-sol.primal_value - top) < 1e-7
    assert [X.shape[0] for X in sol.variable_values] == [2, 3, 2, 3]


def dense(A):
    """The (p, N) array whose nonzeros the `Rows` A lists."""
    out = np.zeros(A.shape)
    out[A.rows, A.cols] = A.vals
    return out


def test_support_scaled_rows_match_the_dense_congruence():
    """Each touched (row, block) pair scaled on its whole block equals the
    dense congruence hvec(R^dag A_i R), on blocks of sizes 3, 4, 3, 4 with
    a row on one block of a size group, a block most rows skip, and a dense
    row. A block of size 5 adds 151 rows, so its pairs span three chunks of
    TRI_LEAF = 64. The buffer starts at 0, and the pairs no row touches
    stay 0."""
    rng = np.random.default_rng(13)
    prog = ConicProgram()
    blks = [prog.add_psd_block(k) for k in (3, 4, 3, 4, 5)]
    pin = np.zeros((3, 3))
    pin[0, 2] = pin[2, 0] = 1.0
    prog.add_eq({blks[0]: pin}, rhs=1.0)
    prog.add_eq({blks[2]: np.diag([0.0, 2.0, 0.0]), blks[1]: np.diag([1.0, 0, 0, 0])})
    prog.add_eq({blks[1]: conic.hvec_basis(4)[[0, 5, 11]]}, rhs=np.ones(3))
    prog.add_eq({blks[3]: random_hermitian(rng, 4)}, rhs=1.0)
    prog.add_eq({blks[4]: np.concatenate([conic.hvec_basis(5)] * 6)},
                rhs=np.ones(150))
    prog.add_eq({blks[4]: np.diag([0.0, 1.0, 0.0, 2.0, 3.0])}, rhs=1.0)
    A, _, _, _, groups, _ = prog.assemble()
    assert A.shape[0] == 157 > 2 * conic.TRI_LEAF
    assert groups == [(3, slice(0, 18)), (4, slice(18, 50)), (5, slice(50, 75))]
    R = [rng.standard_normal((K, k, k)) + 1j * rng.standard_normal((K, k, k))
         + k * np.eye(k) for (k, _), K in zip(groups, (2, 2, 1))]
    pairs = conic._row_pairs(groups, A)
    assert [[len(a) for _, a in chunks] for chunks in pairs] \
        == [[2], [5], [64, 64, 23]]
    ref = conic._congruence(groups, R, dense(A))
    out = np.zeros(A.shape)
    assert conic._scaled_rows(groups, R, pairs, out) is out
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    for k, cols in groups:
        def pairs_of(M, k=k, cols=cols):
            return M[:, cols].reshape(len(M), -1, k * k)
        idle = ~pairs_of(dense(A)).any(axis=-1)
        assert idle.any() and (pairs_of(out)[idle] == 0.0).all()


def test_scaled_rows_touch_only_the_pairs_of_their_blocks():
    """Rows shaped like `nagaoka_bound`'s, each on one or two of six 3 x 3
    blocks (one block no row touches), over 70 rows, so two chunks: only
    the touched (row, block) pairs are scaled, every other entry of the
    buffer stays exactly 0, and the result is the dense congruence."""
    rng = np.random.default_rng(29)
    prog = ConicProgram()
    blks = [prog.add_psd_block(3) for _ in range(6)]
    E = conic.hvec_basis(3)
    touched = np.zeros((70, 6), dtype=bool)
    for i in range(70):
        on = rng.choice(5, size=1 + i % 2, replace=False)
        touched[i, on] = True
        coeffs = {blks[b]: E[rng.integers(9)] * rng.uniform(1, 2) for b in on}
        if i % 7 == 0:
            coeffs[blks[on[0]]] = random_hermitian(rng, 3)
        prog.add_eq(coeffs, rhs=1.0)
    A, _, _, _, groups, _ = prog.assemble()
    pairs = conic._row_pairs(groups, A)
    (chunks,) = pairs
    at = np.concatenate([np.stack(at, axis=1) for at, _ in chunks])
    assert [len(a) for _, a in chunks] == [64, touched.sum() - 64]
    assert np.array_equal(at, np.argwhere(touched))
    R = [rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
         + 3 * np.eye(3)]
    out = conic._scaled_rows(groups, R, pairs, np.zeros(A.shape))
    scaled = out.reshape(70, 6, 9)
    assert (np.abs(scaled[touched]).max(axis=-1) > 0).all()
    assert (scaled[~touched] == 0.0).all()
    ref = conic._congruence(groups, R, dense(A))
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_program_without_rows_is_solved():
    """With no equality rows, min Tr X over a 2x2 PSD block is 0 at X = 0."""
    prog = ConicProgram()
    blk = prog.add_psd_block(2)
    prog.set_objective({blk: np.eye(2)})
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.primal_value <= 1e-8


def test_program_without_rows_is_flagged_unbounded():
    """With no equality rows, the objective diag(1, -1) is unbounded below."""
    prog = ConicProgram()
    blk = prog.add_psd_block(2)
    prog.set_objective({blk: np.diag([1.0, -1.0])})
    assert solve(prog).status == "unbounded"


def test_factor_psd_falls_back_on_a_singular_stack_member():
    """A stack with one singular matrix fails cholesky as a whole, and the
    eigh fallback still factors every matrix: L L^dag = X."""
    rng = np.random.default_rng(36)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    singular = np.outer(G[0], G[0].conj())
    stack = np.stack([G @ G.conj().T + np.eye(3), singular,
                      G.conj().T @ G + 0.5 * np.eye(3)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack)
    L = _factor_psd(stack)
    assert L.shape == stack.shape
    assert np.allclose(L @ L.conj().swapaxes(-1, -2), stack, atol=1e-10)


@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_alpha_boundary_reaches_the_cone_boundary(seed, k, K):
    """For lam > 0 and Hermitian D the returned alpha is where the smallest
    eigenvalue of diag(lam) + alpha D reaches 0 over the stack."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.1, 2.0, (K, k))
    D = np.stack([random_hermitian(rng, k) for _ in range(K)])
    alpha = _alpha_boundary(lam, D)

    def smallest(a):
        return np.linalg.eigvalsh(lam[:, None, :] * np.eye(k) + a * D)[:, 0].min()

    if np.isinf(alpha):
        assert smallest(1e6) >= 0
        return
    assert alpha > 0
    assert abs(smallest(alpha)) <= 1e-9 * max(1.0, alpha * np.abs(D).max())
    assert smallest(0.99 * alpha) >= 0


def test_equality_pinned_diagonal():
    """min Tr X with X_00 = 1 over 2x2 PSD X has value 1."""
    prog = ConicProgram()
    blk = prog.add_psd_block(2)
    C = np.zeros((2, 2))
    C[0, 0] = 1.0
    prog.add_eq({blk: C}, rhs=1.0)
    prog.set_objective({blk: np.eye(2)})
    sol = solve_or_raise(prog)
    assert abs(sol.primal_value - 1.0) < 1e-8
    X = sol.variable_values[0]
    assert np.linalg.eigvalsh((X + X.conj().T) / 2)[0] >= -1e-8
    assert abs(X[0, 0] - 1.0) < 1e-7
    assert abs(X[1, 1]) < 1e-7


def test_offset_is_reported_in_both_values():
    prog = ConicProgram()
    blk = prog.add_psd_block(1)
    prog.add_eq({blk: np.ones((1, 1))}, rhs=2.0)
    prog.set_objective({blk: np.ones((1, 1))}, offset=-5.0)
    sol = solve_or_raise(prog)
    assert abs(sol.primal_value - (2.0 - 5.0)) < 1e-8
    assert abs(sol.dual_value - sol.primal_value) <= 1e-7
    assert sol.dual_value <= sol.primal_value + 1e-9


def test_negative_trace_probe_is_flagged_infeasible():
    prog = ConicProgram()
    blk = prog.add_psd_block(2)
    prog.add_eq({blk: np.eye(2)}, rhs=-1.0)
    prog.set_objective({blk: np.eye(2)})
    assert solve(prog).status == "infeasible"
    with pytest.raises(SolverFailureError):
        solve_or_raise(prog)


def test_unbounded_objective_is_flagged():
    """min -Tr X with only X_01 pinned can push the diagonal to infinity."""
    prog = ConicProgram()
    blk = prog.add_psd_block(2)
    C = np.zeros((2, 2))
    C[0, 1] = C[1, 0] = 0.5
    prog.add_eq({blk: C}, rhs=1.0)
    prog.set_objective({blk: -np.eye(2)})
    assert solve(prog).status == "unbounded"


def test_solutions_are_deterministic():
    prog, _ = smallest_eigenvalue_program()
    a = solve(prog)
    b = solve(prog)
    assert a.primal_value == b.primal_value
    assert a.iterations == b.iterations
    assert np.array_equal(a.y, b.y)
    assert all(np.array_equal(x, z)
               for x, z in zip(a.variable_values, b.variable_values))


def test_iteration_cap_returns_the_best_iterate(monkeypatch):
    """A run cut off at MAX_ITERS reports numerical-failure with its best
    iterate, and solve_or_raise raises with that solution attached."""
    prog, _ = smallest_eigenvalue_program()
    monkeypatch.setattr(conic, "MAX_ITERS", 3)
    sol = solve(prog)
    assert sol.status == "numerical-failure"
    assert sol.iterations == 3
    assert np.isfinite(sol.primal_value) and np.isfinite(sol.dual_value)
    assert np.isfinite(sol.y).all()
    assert all(np.isfinite(X).all() for X in sol.variable_values)
    with pytest.raises(SolverFailureError) as err:
        solve_or_raise(prog)
    assert err.value.solution is not None
    assert err.value.solution.status == "numerical-failure"


@pytest.mark.parametrize("p", [1, 63, 64, 65, 130, 401])
def test_schur_substitution_matches_the_dense_solve(p):
    """The factor (dinv, L) formed in place one leaf at a time holds the
    strictly lower blocks of the Cholesky factor C of D M D + SCHUR_SHIFT I,
    D the unit-diagonal scaling, and in each diagonal leaf the inverse of
    C's leaf; the leaf-by-leaf substitution through it solves M y = v, on
    both sides of the TRI_LEAF = 64 leaf and over several leaves, for the
    Schur block M = G G^T of rows G that span four orders of magnitude, as
    the row scaling sees near an optimum; a (p, 2) right-hand side is solved
    column by column."""
    rng = np.random.default_rng(p)
    G = rng.standard_normal((p, 2 * p)) * np.logspace(-2, 2, p)[:, None]
    M = G @ G.T
    v = rng.standard_normal(p)
    factor = _schur_factor(M.copy())
    dinv, L = factor
    D = 1.0 / np.sqrt(M.diagonal())
    dense = np.linalg.cholesky(D[:, None] * M * D + conic.SCHUR_SHIFT * np.eye(p))
    assert np.allclose(dinv, D, rtol=1e-14, atol=0)
    below = np.tril(np.ones((p, p), dtype=bool))
    for lo in range(0, p, conic.TRI_LEAF):
        leaf = slice(lo, lo + conic.TRI_LEAF)
        below[leaf, leaf] = False
        X = L[leaf, leaf]
        assert np.allclose(X @ dense[leaf, leaf], np.eye(len(X)), atol=1e-12)
    assert np.abs(L[below] - dense[below]).max(initial=0.0) <= 1e-12
    y = _schur_solve(factor, v)
    ref = np.linalg.solve(M, v)
    assert np.abs(y - ref).max() <= 1e-9 * np.abs(ref).max()
    assert np.abs(M @ y - v).max() <= 1e-9 * np.abs(v).max()
    both = _schur_solve(factor, np.stack([v, -3.0 * v], axis=1))
    assert both.shape == (p, 2)
    assert np.allclose(both, np.stack([y, -3.0 * y], axis=1), rtol=1e-12,
                       atol=1e-12 * np.abs(y).max())


def test_schur_factor_of_no_rows_is_empty():
    """A Schur block without rows factors to empty arrays, and its
    substitution maps an empty vector to an empty vector."""
    dinv, L = factor = _schur_factor(np.zeros((0, 0)))
    assert dinv.shape == (0,) and L.shape == (0, 0)
    z = _schur_solve(factor, np.zeros(0))
    assert z.shape == (0,)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_schur_factor_rejects_a_non_finite_row(bad):
    """A Schur block of rows one of which, in the third leaf of 130 rows,
    has a non-finite entry makes the factor None."""
    G = np.random.default_rng(5).standard_normal((130, 200))
    G[129, 3] = bad
    with np.errstate(invalid="ignore"):
        assert _schur_factor(G @ G.T) is None


def test_schur_factor_fails_in_a_later_leaf(monkeypatch):
    """A LinAlgError from the cholesky of the second leaf, after the first
    leaf factored, makes the factor None."""
    G = np.random.default_rng(6).standard_normal((130, 200))
    cholesky = np.linalg.cholesky
    calls = []

    def failing(a):
        calls.append(len(a))
        if len(calls) == 2:
            raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    assert _schur_factor(G @ G.T) is None
    assert calls == [conic.TRI_LEAF, conic.TRI_LEAF]


def test_nonzero_products_match_the_dense_ones():
    """A x and A^T y summed over the nonzeros of A, as the solver forms
    them, equal the dense products, with empty rows and columns in A."""
    rng = np.random.default_rng(8)
    A = rng.standard_normal((40, 70)) * (rng.random((40, 70)) < 0.1)
    A[[3, 17]] = 0.0
    A[:, [0, 69]] = 0.0
    rows, cols = np.nonzero(A)
    nz = Rows(rows, cols, A[rows, cols], A.shape)
    x, y = rng.standard_normal(70), rng.standard_normal(40)
    Ax = conic._times(nz, x)
    ATy = conic._times(nz, y, transpose=True)
    assert Ax.shape == (40,) and ATy.shape == (70,)
    assert np.allclose(Ax, A @ x, rtol=1e-14, atol=1e-14)
    assert np.allclose(ATy, A.T @ y, rtol=1e-14, atol=1e-14)
    empty = Rows(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
                 np.zeros(0), (3, 70))
    assert np.array_equal(conic._times(empty, x), np.zeros(3))


def test_failed_schur_factor_returns_the_best_iterate(monkeypatch):
    """A Cholesky failure of the Schur block, forced in the third iteration,
    ends the solve in numerical-failure with the best of the three iterates
    seen: the one a run cut off at MAX_ITERS = 3 reports."""
    prog, _ = smallest_eigenvalue_program()
    monkeypatch.setattr(conic, "MAX_ITERS", 3)
    capped = solve(prog)
    monkeypatch.undo()
    cholesky = np.linalg.cholesky
    calls = []

    def failing(a):
        if a.ndim == 2:     # the Schur block; the NT scaling factors a stack
            calls.append(len(a))
            if len(calls) == 3:
                raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    sol = solve(prog)
    assert sol.status == "numerical-failure"
    assert sol.iterations == 2
    assert (sol.primal_value, sol.dual_value) == (capped.primal_value,
                                                  capped.dual_value)
    assert np.array_equal(sol.y, capped.y)
    assert all(np.array_equal(X, Z) for X, Z in
               zip(sol.variable_values, capped.variable_values))


@pytest.mark.parametrize("k", [3, 4, 6])
def test_duplicated_rows_solve_optimal(k):
    """Every row given twice makes the Schur block singular; its factor
    carries a 1e-14 shift and the refinement corrects it, so the program
    solves to the optimum of its rows given once."""
    H = random_hermitian(np.random.default_rng(k), k)
    E = hvec_basis(k)
    values = []
    for copies in (1, 2):
        prog = ConicProgram()
        blk = prog.add_psd_block(k)
        prog.add_eq({blk: np.stack([np.eye(k), E[k]] * copies)},
                    rhs=[1.0, 0.1] * copies)
        prog.set_objective({blk: -H})
        sol = solve(prog, 1e-10)
        assert sol.status == "optimal"
        values.append(sol.primal_value)
    assert abs(values[1] - values[0]) <= 1e-9 * abs(values[0])


@pytest.mark.parametrize("bad", [0.0, -1e-8, float("nan"), float("inf")])
def test_solve_rejects_a_gap_tolerance_that_is_not_finite_and_positive(bad):
    prog = ConicProgram()
    blk = prog.add_psd_block(2)
    prog.add_eq({blk: np.eye(2)}, rhs=1.0)
    prog.set_objective({blk: np.diag([1.0, 2.0])})
    with pytest.raises(ValueError, match="gap_tol must be finite and positive"):
        solve(prog, bad)


def test_program_validation_rejects_bad_shapes():
    prog = ConicProgram()
    blk = prog.add_psd_block(2)
    with pytest.raises(ProgramError):
        prog.add_eq({blk: np.eye(3)})
    with pytest.raises(ProgramError):
        prog.add_eq({blk + 7: np.eye(2)})
    with pytest.raises(ProgramError):
        prog.add_eq({blk: np.array([[1.0, 1.0], [0.0, 1.0]])})
    with pytest.raises(ProgramError):
        prog.add_eq({blk: np.stack([np.eye(2)] * 3)}, rhs=[1.0, 2.0])
    with pytest.raises(ProgramError):
        prog.add_eq({blk: np.stack([np.eye(2), np.diag([1.0, 1j])])}, rhs=[1.0, 2.0])
    with pytest.raises(ProgramError):
        prog.add_eq({blk: np.stack([np.eye(2)])}, rhs=[[1.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ProgramError):
            prog.add_eq({blk: np.diag([1.0, bad])})
        with pytest.raises(ProgramError):
            prog.add_eq({blk: np.array([[1.0, bad], [bad, 1.0]])})
        with pytest.raises(ProgramError):
            prog.add_eq({blk: np.eye(2)}, rhs=bad)
        with pytest.raises(ProgramError):
            prog.add_eq({blk: np.stack([np.eye(2)] * 2)}, rhs=[1.0, bad])
        with pytest.raises(ProgramError):
            prog.set_objective({blk: np.diag([bad, 1.0])})
        with pytest.raises(ProgramError):
            prog.set_objective({blk: np.eye(2)}, offset=bad)
    assert prog.rows == []
    assert prog.obj == {} and prog.offset == 0.0
    with pytest.raises(ProgramError):
        ConicProgram().assemble()


@pytest.mark.parametrize("dim", [2.5, 2.0, True, np.True_, "2", None, 0, -1])
def test_add_psd_block_takes_an_integer_dimension(dim):
    """A block dimension that is not an integer >= 1, a bool included, is a
    ProgramError that names it, and no block is added; a NumPy integer is
    a dimension."""
    prog = ConicProgram()
    with pytest.raises(ProgramError, match=re.escape(f"block dimension {dim!r} ")):
        prog.add_psd_block(dim)
    assert prog.blocks == []
    assert prog.add_psd_block(np.int64(2)) == 0
    prog.add_eq({0: np.eye(2)}, 1.0)
    prog.set_objective({0: np.diag([1.0, 2.0])})
    assert abs(solve(prog).primal_value - 1.0) <= 1e-7


def test_lemma_identity_on_random_triples():
    """Closed form Tr(WA) + TrAbs(WB) equals its SDP on seeded draws."""
    rng = np.random.default_rng(34)
    for _ in range(6):
        k = int(rng.integers(2, 5))
        W, A, B = random_lemma_triple(rng, k)
        closed = holevo_lemma_value(W, A, B)
        sol = holevo_lemma_sdp_value(W, A, B, 1e-10)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - closed) < 1e-7


def test_lemma_value_requires_a_positive_weight():
    with pytest.raises(ValueError):
        holevo_lemma_value(np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2)))


SKEW = np.array([[1.0, 0.5], [0.0, 2.0]])   # neither symmetric nor antisymmetric


@pytest.mark.parametrize("W, A, B, fragment", [
    (np.eye(2), SKEW, np.zeros((2, 2)), "X: matrix deviates from Hermitian by 5.000e-01"),
    (SKEW, np.eye(2), np.zeros((2, 2)), "W_0: matrix deviates from Hermitian by 5.000e-01"),
    (np.eye(2), np.eye(2), np.triu(SKEW, 1), "X: matrix deviates from Hermitian by 5.000e-01"),
    (np.eye(2), np.eye(3), np.zeros((3, 3)), "X is (3, 3), not (2, 2)"),
], ids=["A-not-symmetric", "W-not-symmetric", "B-not-antisymmetric", "size-mismatch"])
def test_lemma_rejects_malformed_triples(W, A, B, fragment):
    """Both sides of the lemma check their triple: once a non-symmetric A
    was read as its trace alone, so A = [[1, .5], [0, 2]] gave 3.0."""
    for lemma in (holevo_lemma_value, holevo_lemma_sdp_value):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            lemma(W, A, B)


def bench_frame_model(seed: int, d: int) -> StatisticalModel:
    """random_model(2, d, seed=1, grid=4) in the Haar frame the bounds-ladder
    benchmark draws for seed: unitaries of sizes 4, 5, 6, 8, 10 from one
    default_rng(seed) in turn, each state mapped to hermitize(U S U^+)."""
    rng = np.random.default_rng(seed)
    U = {k: random_unitary(rng, k) for k in (4, 5, 6, 8, 10)}[d]
    base = random_model(2, d, seed=1, grid=4)
    points = tuple(GridPoint(theta=p.theta, weight=p.weight,
                             state=hermitize(U @ p.state @ U.conj().T))
                   for p in base.points)
    return StatisticalModel(n=2, d=d, points=points,
                            weight_spec=base.weight_spec)


@pytest.mark.parametrize("seed, d", [(88, 8), (121, 10), (254, 8), (498, 6)])
def test_tau_pivot_survives_the_last_step(seed, d):
    """In these frames a seesaw measurement update reached a step where the
    tau pivot's two large terms cancelled to 0.0 (1.297e8 against -1.297e8
    at seed 88), so the step was NaN and the solve failed one step from
    optimal. Summed from non-negative terms, the pivot keeps every update
    alive."""
    run = seesaw(bench_frame_model(seed, d), outcome_count=d, iters=5, seed=0)
    assert np.isfinite(run.risk)


@pytest.mark.parametrize("rhs,status", [(1.0, "infeasible"), (0.0, "optimal")])
def test_a_row_of_zeros_keeps_the_unit_scale(rhs, status):
    """A row without coefficients, 0 = rhs: with rhs 1 the program is
    certified infeasible, and with rhs 0 it is optimal at 1.0. Its Schur
    pivot is the shift alone, scaled by 1, where a floored row norm once
    scaled it by 1e150 and overflowed at iteration 0."""
    prog = ConicProgram()
    blk = prog.add_psd_block(2)
    prog.add_eq({blk: np.eye(2)}, 1.0)
    prog.add_eq({}, rhs=rhs)
    prog.set_objective({blk: np.diag([1.0, 2.0])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(prog)
    assert sol.status == status
    if status == "optimal":
        assert abs(sol.primal_value - 1.0) <= 1e-7


@pytest.mark.parametrize("places,message", [
    ([], "at least one place"),
    ([(3, 0, 0, 1.0)], "unknown block"),
    ([(0, 0, 3, 1.0), (0, 3, 0, 1.0)], "does not fit"),
    ([(0, 0, 2, 1j)], "no Hermitian mirror"),
    ([(0, 0, 2, 1j), (0, 2, 0, 1j)], "no Hermitian mirror"),
    ([(0, 0, 0, 1j)], "no Hermitian mirror"),
    ([(0, 0, 1, 1.0), (0, 1, 0, 1.0)], "overlap"),
])
def test_add_pins_rejects_places_that_are_not_a_hermitian_pin(places, message):
    """Every place of a 2 x 2 pin on a 4 x 4 block must fit it, sit on a
    known block, not overlap another, and have its mirror with the
    conjugate factor (itself, with a real factor, on the diagonal)."""
    prog = ConicProgram()
    prog.add_psd_block(4)
    with pytest.raises(ProgramError, match=message):
        prog.add_pins(places, np.zeros(4))
