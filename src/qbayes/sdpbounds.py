"""Semidefinite lower bounds on Bayes risk over grid priors.

Three bound families share the extended-moment data (S_bar, D_bar, w_bar)
and one program form: G = [[L, X], [X^+, I]] >= 0 with the identity corner
pinned and Hermitian X_j (`_estimator_block`), at objective Tr(S_bar L) -
2 sum_j Tr(D_bar_j X_j) + w_bar plus each family's own terms. The
block-operator program `nagaoka_hayashi_bound` makes L block-symmetric; the
estimator-correlation program `holevo_type_bound` relaxes that to real
correlation caps, one per grid point or, for a constant weight, one on the
mean state; and for two parameters `nagaoka_bound` is the minimum of the
commutator objective `nagaoka_objective`, whose trace-norm terms live on
the state supports. Each returns a `BoundSolution`: its value, the optimal
estimator observables read from G, and the solve's diagnostics, whose
`variable_values[0]` is G itself. The `appendix_f`
family exposes the chain of comparison functionals between these programs
on raw operator pairs; `f_family_suite` exercises the chain on random tensor
instances and is shared by the CLI and the acceptance tests.

All programs are assembled for the conic layer; bound computations are pure
and independent, so distinct grid points and distinct bounds may be evaluated
concurrently by callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .conic import (GAP_TOL, ConicProgram, ConicSolution, SolverFailureError,
                    hvec, hvec_basis, solve_or_raise)
from .matcore import (ExtendedOperator, hermitize, psd_sqrt, support_factor,
                      sym_split, trace_abs, weighted_trace_abs)
from .model import CapabilityError, ExtendedMoments

__all__ = [
    "BoundSolution", "SolverFailureError",
    "nagaoka_hayashi_bound", "holevo_type_bound",
    "nagaoka_objective", "nagaoka_bound",
    "appendix_f", "f_family_suite", "f_family_pinned_example",
]


def __getattr__(name: str):
    # bench/spans.py looks up minimize_scalar here on every traced run;
    # importing scipy.optimize only then keeps it off the package import
    if name == "minimize_scalar":
        from scipy.optimize import minimize_scalar
        return minimize_scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _require_strictly_positive(em: ExtendedMoments) -> None:
    """CapabilityError unless every weight matrix of `em` is strictly positive."""
    w = npl.eigvalsh(em.weight_spec.stack(len(em.pi)))
    bad = w[:, 0] <= 1e-10 * np.maximum(1.0, np.abs(w[:, -1]))
    if bad.any():
        m = int(np.argmax(bad))
        where = "" if em.constant_W is not None else f" at grid point {m}"
        raise CapabilityError(f"the weight matrix{where} must be strictly "
                              f"positive (min eigenvalue {w[m, 0]:.3e})")


def _mean_state(em: ExtendedMoments) -> np.ndarray:
    return np.einsum("m,mab->ab", em.pi, np.asarray(em.states))


# ---------------------------------------------------------------------------
# Block-operator bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSolution:
    """Optimum of one SDP rung on `_estimator_block`'s G = [[L, X], [X^+, I]].

    value    -- the bound itself: the primal value for NH and nagaoka2, the
                dual value (the lower side of the gap) for Holevo
    Xopt     -- (n, d, d) Hermitian estimator observables, read from G
    diagnostics -- the underlying ConicSolution; G is variable_values[0]
    """
    value: float
    Xopt: np.ndarray
    diagnostics: ConicSolution


def _hermitian_offblock_rows(prog, blk, dim, row0, col0, G):
    """Pin the d x d block T at (row0, col0) of a Hermitian variable to
    T - T^+ = G, for anti-Hermitian d x d G (zero: T is Hermitian): d^2 rows
    equating the hvec coordinates of -i(T - T^+) and -iG."""
    d = G.shape[0]
    E = hvec_basis(d)
    C = np.zeros((d * d, dim, dim), dtype=complex)
    C[:, row0:row0 + d, col0:col0 + d] = 1j * E
    C[:, col0:col0 + d, row0:row0 + d] = -1j * E
    prog.add_eq({blk: C}, rhs=hvec(-1j * G))


def _objective(em: ExtendedMoments) -> np.ndarray:
    """C = [[S_bar, -D], [-D^+, 0]], D the column stack of the D_bar_j, so
    that Tr(C G) = Tr(S_bar L) - 2 sum_j Tr(D_bar_j X_j) at G = [[L, X],
    [X^+, I]] with Hermitian X_j: the objective of every rung on
    `_estimator_block`, w_bar apart."""
    D = np.asarray(em.D_bar).reshape(em.n * em.d, em.d)
    return np.block([[em.S_bar.full(), -D],
                     [-D.conj().T, np.zeros((em.d, em.d))]])


def _estimator_block(prog: ConicProgram, em: ExtendedMoments):
    """Add G = [[L, X], [X^+, I]] >= 0 of dimension (n+1)d with the identity
    corner pinned and Hermitian X_j; return G's block id and its objective
    coefficient `_objective(em)`."""
    n, d = em.n, em.d
    nd = n * d
    dim = nd + d
    g = prog.add_psd_block(dim)
    corner = np.zeros((d * d, dim, dim), dtype=complex)
    corner[:, nd:, nd:] = hvec_basis(d)
    prog.add_eq({g: corner}, rhs=hvec(np.eye(d)))
    for j in range(n):
        _hermitian_offblock_rows(prog, g, dim, j * d, nd, np.zeros((d, d)))
    return g, _objective(em)


def _solve_rung(prog: ConicProgram, em: ExtendedMoments, gap_tol: float,
                what: str, dual: bool = False) -> BoundSolution:
    """Solve a program built on `_estimator_block` and read the Hermitian X_j
    from its G; the value is the primal objective, or the dual one."""
    sol = solve_or_raise(prog, gap_tol, what=what)
    nd = em.n * em.d
    X = hermitize(sol.variable_values[0][:nd, nd:].reshape(em.n, em.d, em.d))
    return BoundSolution(value=sol.dual_value if dual else sol.primal_value,
                         Xopt=X, diagnostics=sol)


def nagaoka_hayashi_bound(em: ExtendedMoments,
                          gap_tol: float = GAP_TOL) -> BoundSolution:
    """Lower-bound the Bayes risk by one PSD program over ([[L, X], [X^T, I]]).

    Minimizes Tr(S_bar L) - 2 sum_j Tr(D_bar_j X_j) + w_bar over L
    block-symmetric with Hermitian blocks and Hermitian X_j. Block symmetry
    and Hermiticity are imposed by equality rows on a single Hermitian PSD
    variable of dimension (n+1)d; the identity corner makes G = I strictly
    feasible.
    """
    n, d = em.n, em.d
    nd = n * d
    prog = ConicProgram()
    g, C = _estimator_block(prog, em)
    # off-diagonal blocks of L pair up symmetrically: L_jk = L_kj, i.e. each
    # upper block is Hermitian on its own (G Hermitian supplies L_kj = L_jk^+)
    for j in range(n):
        for k in range(j + 1, n):
            _hermitian_offblock_rows(prog, g, nd + d, j * d, k * d,
                                     np.zeros((d, d)))
    prog.set_objective({g: C}, offset=em.w_bar)
    return _solve_rung(prog, em, gap_tol, "block-operator bound")


# ---------------------------------------------------------------------------
# Estimator-correlation bound
# ---------------------------------------------------------------------------

def holevo_type_bound(em: ExtendedMoments,
                      gap_tol: float = GAP_TOL) -> BoundSolution:
    """Lower-bound the Bayes risk through real correlation caps on the
    estimator observables, as a relaxation of the block-operator program.

    On G = [[L, X], [X^+, I]] >= 0 of `_estimator_block` (no block-symmetry
    rows on L), Phi_m(L)_jk = Tr(S_m L_jk) dominates Z(S_m, X), a partial
    trace against S_m being a positive map. Per grid point, T_m >= 0 (n x n)
    makes the cap V_m = T_m + Phi_m(L) real through the n(n-1)/2 rows
    Im(T_m + Phi_m(L)) = 0, and the objective is sum_m pi_m Tr(W_m V_m) -
    2 sum_j Tr(D_bar_j X_j) + w_bar. By the identity behind
    `holevo_lemma_value` every feasible point costs at least the Holevo
    objective at its X, and L = XX^T attains it, so the relaxation is exact.

    A constant weight collapses the grid to the mean state S_B, whose single
    T is absorbed into L: Phi_B(L + T (x) I) = Phi_B(L) + T at the same
    cost, as Tr S_B = 1. So that form is G alone with Im Phi_B(L) = 0.

    The value is the solver's dual objective, the lower side of its gap.
    Every participating weight matrix must be strictly positive.
    """
    n, d = em.n, em.d
    nd = n * d
    _require_strictly_positive(em)
    if em.constant_W is not None:
        points = [(None, _mean_state(em))]
    else:
        piW = em.pi[:, None, None] * em.weight_spec.stack(len(em.pi))
        points = list(zip(piW, em.states))

    prog = ConicProgram()
    g, C = _estimator_block(prog, em)
    objective = {g: C}
    # Tr(E Phi(L)) = Tr(kron(E, S) L): the imaginary hvec coordinates of
    # T_m + Phi_m(L) vanish
    E_im = hvec_basis(n)[n * (n + 1) // 2:]
    for Wobj, S in points:
        F = np.zeros((len(E_im), nd + d, nd + d), dtype=complex)
        F[:, :nd, :nd] = np.kron(E_im, S)
        coeffs = {g: F}
        if Wobj is not None:
            t = prog.add_psd_block(n)
            coeffs[t] = E_im
            objective[t] = Wobj
        prog.add_eq(coeffs, rhs=np.zeros(len(E_im)))
    prog.set_objective(objective, offset=em.w_bar)
    return _solve_rung(prog, em, gap_tol, "estimator-correlation bound",
                       dual=True)


# ---------------------------------------------------------------------------
# Two-parameter commutator bound
# ---------------------------------------------------------------------------

def _commutator_terms(em: ExtendedMoments) -> list:
    """(pi_m sqrt(det W_m), S_m) for every grid point whose commutator
    weight is positive."""
    # PSD determinants; a zero one kills the term
    detw = np.maximum(npl.det(em.weight_spec.stack(len(em.pi))), 0.0)
    return [(c, S_m) for c, S_m in zip(em.pi * np.sqrt(detw), em.states)
            if c > 1e-15]


def nagaoka_objective(em: ExtendedMoments, X) -> float:
    """Evaluate the two-parameter objective at Hermitian (X_1, X_2).

    Tr(S_bar sym_plus(XX^T)) + sum_m pi_m sqrt(det W_m) TrAbs(S_m [X_1, X_2])
    - 2 sum_j Tr(D_bar_j X_j) + w_bar. All but the commutator term is
    Re Tr(C G(X)) + w_bar with C = `_objective(em)` at G(X) = [[XX^T, X],
    [X^+, I]] = V V^+, V = [X_1; X_2; I], the point at which
    `nagaoka_bound`'s program attains this objective. The commutator term
    is `weighted_trace_abs(S_m, [X_1, X_2])`, exact on supp(S_m).
    """
    if em.n != 2:
        raise CapabilityError("the commutator objective needs exactly two parameters")
    X = np.asarray(X, dtype=complex)
    if X.shape != (2, em.d, em.d):
        raise CapabilityError(f"expected two {em.d}x{em.d} observables, got {X.shape}")
    X = hermitize(X)
    V = np.concatenate([X[0], X[1], np.eye(em.d)])
    value = np.trace(V.conj().T @ _objective(em) @ V).real
    comm = X[0] @ X[1] - X[1] @ X[0]
    if np.abs(comm).max() > 0.0:
        value += sum(coeff * weighted_trace_abs(S_m, comm)
                     for coeff, S_m in _commutator_terms(em))
    return float(value + em.w_bar)


def nagaoka_bound(em: ExtendedMoments,
                  gap_tol: float = GAP_TOL) -> BoundSolution:
    """Lower-bound the Bayes risk of a two-parameter model by the minimum of
    `nagaoka_objective` over Hermitian (X_1, X_2), as one PSD program.

    The main block is G = [[L, X], [X^+, I]] >= 0 with Hermitian X_j and the
    identity corner pinned, as in `nagaoka_hayashi_bound`, but L carries no
    block-symmetry rows. Each grid point m with c_m = pi_m sqrt(det W_m) > 0
    and S_m = F_m F_m^+ (F_m d x r_m, on supp(S_m)) adds r_m x r_m blocks
    P_m, N_m >= 0 with P_m - N_m = i F_m^+ (L_12 - L_12^+) F_m, one stack of
    r_m^2 rows, so that Tr(P_m + N_m) >= TrAbs(S_m (L_12 - L_21)). The
    objective is Tr(S_bar L) - 2 sum_j Tr(D_bar_j X_j) + w_bar
    + sum_m c_m Tr(P_m + N_m). At L = XX^T it is the commutator objective,
    and every L >= XX^T costs at least as much (Nagaoka's inequality
    Tr((W (x) S) K) >= sqrt(det W) TrAbs(S (K_12 - K_21)) for K >= 0), so
    the relaxation is exact. Rows: 3 d^2 + sum_m r_m^2. On supp(S_m) alone
    P_m and N_m carry no kernel block that only the objective drives to 0,
    which keeps low-rank and pure states strictly complementary.
    """
    if em.n != 2:
        raise CapabilityError("the commutator bound needs exactly two parameters")
    d = em.d
    nd, dim = 2 * d, 3 * d
    prog = ConicProgram()
    g, C = _estimator_block(prog, em)
    objective = {g: C}

    # row beta: hvec(P_m - N_m)[beta] - Tr(E_beta F_m^+ i(L_12 - L_12^+) F_m)
    # = 0; the coefficients on G are those of `_hermitian_offblock_rows` with
    # F_m E_beta F_m^+ for E_beta
    for coeff, S_m in _commutator_terms(em):
        F = support_factor(S_m)
        r = F.shape[1]
        E = hvec_basis(r)
        p, q = prog.add_psd_block(r), prog.add_psd_block(r)
        A = np.zeros((r * r, dim, dim), dtype=complex)
        A[:, :d, d:nd] = 1j * (F @ E @ F.conj().T)
        A[:, d:nd, :d] = A[:, :d, d:nd].conj().swapaxes(-1, -2)
        prog.add_eq({p: E, q: -E, g: A}, rhs=np.zeros(r * r))
        objective[p] = objective[q] = coeff * np.eye(r)
    prog.set_objective(objective, offset=em.w_bar)
    return _solve_rung(prog, em, gap_tol, "two-parameter commutator bound")


def nagaoka_bound_search(em: ExtendedMoments, *, restarts: int = 4,
                         seed: int = 0, max_sweeps: int = 50,
                         tol: float = 1e-10) -> float:
    """`nagaoka_bound(em).value`, under the name of the coordinate search it
    replaced; the search knobs are accepted and ignored. Kept for the
    `nagaoka-search` workload of bench/workloads.py."""
    return float(nagaoka_bound(em).value)


# ---------------------------------------------------------------------------
# Comparison functionals on raw operator pairs
# ---------------------------------------------------------------------------

_F_KINDS = ("f_sdp", "f1", "f2", "f3", "f4", "f5")


def _dominating_value(Sfull: np.ndarray, X: ExtendedOperator,
                      gap_tol: float) -> float:
    """min Tr(S L) over block-symmetric Hermitian-block L >= X.

    The variable is the slack T = L - X >= 0; block symmetry of L becomes
    T_jk - T_jk^+ = X_kj - X_jk on every upper block pair.
    """
    n, d = X.nblocks, X.blockdim
    nd = n * d
    Xb = X.blocks
    prog = ConicProgram()
    t = prog.add_psd_block(nd)
    for j in range(n):
        for k in range(j + 1, n):
            _hermitian_offblock_rows(prog, t, nd, j * d, k * d, Xb[k, j] - Xb[j, k])
    offset = float(np.real(np.trace(Sfull @ X.full())))
    prog.set_objective({t: hermitize(Sfull)}, offset=offset)
    sol = solve_or_raise(prog, gap_tol, what="block-symmetric dominating program")
    return sol.primal_value


def _z_matrix(sq_full: np.ndarray, X_full: np.ndarray, n: int, d: int) -> np.ndarray:
    """Z = Tr_H(sqrt(S) X sqrt(S)) as an n x n Hermitian matrix."""
    Y = sq_full @ X_full @ sq_full
    Z = np.trace(Y.reshape(n, d, n, d), axis1=1, axis2=3)
    return (Z + Z.conj().T) / 2


def appendix_f(kind: str, S_terms, X: ExtendedOperator,
               gap_tol: float = GAP_TOL) -> float:
    """Evaluate one member of the comparison-functional family.

    S_terms is a list of (pi_j, W_j, S_j) with aggregate operator
    S = sum_j pi_j W_j (x) S_j, which must be strictly positive; X is a
    Hermitian block operator on the same space.

      f_sdp -- min Tr(S L), L block-symmetric Hermitian blocks, L >= X (SDP)
      f1    -- n = 2, single term: Tr(S sym_plus X)
               + pi sqrt(det W) TrAbs(S_1(X_12 - X_21))
      f2    -- single term: Tr Re Z(S, X) + TrAbs Im Z(S, X),
               Z = Tr_H(sqrt(S) X sqrt(S))
      f3    -- Tr(S sym_plus X) + sum_j pi_j inner-SDP on
               sqrt(S_j) sym_minus(X) sqrt(S_j)
      f4    -- n = 2: Tr(S sym_plus X)
               + sum_j pi_j sqrt(det W_j) TrAbs(S_j(X_12 - X_21))
      f5    -- Tr(S sym_plus X) + sum_j pi_j TrAbs(Im Z(W_j (x) S_j, X))

    f1 and f2 are f4 and f5 restricted to a single tensor term, and are
    computed as such: for block-symmetric S, Tr(S sym_plus X) = Tr Re Z(S, X),
    and Z is linear in S. On valid inputs f_sdp >= f3 >= f4 (n = 2), f_sdp >= f5, and for a
    single tensor term f_sdp >= f2 and f_sdp = f1.
    """
    if kind not in _F_KINDS:
        raise ValueError(f"unknown functional {kind!r}; choose from {_F_KINDS}")
    if not isinstance(X, ExtendedOperator):
        raise ValueError("X must be an ExtendedOperator")
    if not X.is_hermitian():
        raise ValueError("X must be Hermitian as a full block matrix")
    n, d = X.nblocks, X.blockdim

    terms = []
    for pi_j, W_j, S_j in S_terms:
        W = np.asarray(W_j, dtype=float)
        S = np.asarray(S_j, dtype=complex)
        if W.shape != (n, n) or S.shape != (d, d):
            raise ValueError(f"dimension mismatch: weight {W.shape} / state "
                             f"{S.shape} against {n} blocks of dim {d}")
        terms.append((float(pi_j), (W + W.T) / 2, hermitize(S)))
    if not terms:
        raise ValueError("S_terms is empty")

    Sfull = np.zeros((n * d, n * d), dtype=complex)
    for pi_j, W, S in terms:
        Sfull += pi_j * np.kron(W, S)
    ww = npl.eigvalsh(hermitize(Sfull))
    if ww[0] <= 1e-10 * max(1.0, abs(ww[-1])):
        raise ValueError(f"aggregate operator not strictly positive "
                         f"(min eigenvalue {ww[0]:.3e})")

    if kind == "f_sdp":
        return _dominating_value(Sfull, X, gap_tol)

    plus_op, minus_op = sym_split(X)
    sym_plus_term = float(np.real(np.trace(Sfull @ plus_op.full())))

    if kind in ("f1", "f2") and len(terms) != 1:
        raise ValueError(f"{kind} needs a single tensor term")
    if kind in ("f1", "f4") and n != 2:
        raise ValueError(f"{kind} needs exactly two blocks")

    if kind == "f3":
        minus_full = minus_op.full()
        total = sym_plus_term
        for pi_j, W, S in terms:
            sq = psd_sqrt(hermitize(np.kron(W, S)))
            K = ExtendedOperator.from_full(hermitize(sq @ minus_full @ sq), n, d)
            total += pi_j * _dominating_value(np.eye(n * d, dtype=complex), K,
                                              gap_tol)
        return total

    if kind in ("f1", "f4"):
        diff = X.blocks[0, 1] - X.blocks[1, 0]
        total = sym_plus_term
        for pi_j, W, S in terms:
            detw = max(float(npl.det(W)), 0.0)
            total += pi_j * np.sqrt(detw) * weighted_trace_abs(S, diff)
        return total

    # f2, f5
    Xfull = X.full()
    total = sym_plus_term
    for pi_j, W, S in terms:
        sq = psd_sqrt(hermitize(np.kron(W, S)))
        Z = _z_matrix(sq, Xfull, n, d)
        total += pi_j * trace_abs(Z.imag)
    return total


def f_family_pinned_example(gap_tol: float = GAP_TOL) -> dict:
    """The hand-checkable instance: f_sdp = f1 = 2 exactly.

    S = I_2 (x) I_2/2 and X with off-diagonal blocks +-i sigma_z; the
    sym_plus term vanishes and the trace-norm term gives 2.
    """
    sz = np.diag([1.0, -1.0]).astype(complex)
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[0, 1] = 1j * sz
    blocks[1, 0] = -1j * sz
    X = ExtendedOperator(blocks=blocks)
    terms = [(1.0, np.eye(2), np.eye(2, dtype=complex) / 2)]
    fs = appendix_f("f_sdp", terms, X, gap_tol)
    f1 = appendix_f("f1", terms, X, gap_tol)
    return {"f_sdp": fs, "f1": f1, "expected": 2.0,
            "abs_diff": abs(fs - f1)}


def f_family_suite(trials: int = 100, seed: int = 0,
                   gap_tol: float = GAP_TOL) -> list[dict]:
    """Random single-tensor-term instances with n = 2 and d = 2, 3, 4 in
    turn: equality of f_sdp and f1, plus the inequality chain, one result
    dict per trial."""
    rng = np.random.default_rng(seed)
    results = []
    for t in range(trials):
        d = 2 + t % 3
        G = rng.standard_normal((2, 2))
        W = G @ G.T + 0.2 * np.eye(2)
        H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        S = H @ H.conj().T + 0.2 * np.eye(d)
        S = S / np.trace(S).real
        M = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
        X = ExtendedOperator.from_full(hermitize(M), 2, d)
        terms = [(1.0, W, S)]
        vals = {kind: appendix_f(kind, terms, X, gap_tol) for kind in _F_KINDS}
        results.append({
            "trial": t, "dim": d, **vals,
            "eq_gap": abs(vals["f_sdp"] - vals["f1"]),
            "margin_sdp_f3": vals["f_sdp"] - vals["f3"],
            "margin_f3_f4": vals["f3"] - vals["f4"],
            "margin_sdp_f5": vals["f_sdp"] - vals["f5"],
            "margin_sdp_f2": vals["f_sdp"] - vals["f2"],
        })
    return results
