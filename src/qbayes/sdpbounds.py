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
on raw operator pairs, (nd, nd) arrays in np.kron order; `f_family_suite`
exercises the chain on random tensor instances and is shared by the CLI and
the acceptance tests. Holevo's lemma is that family at d = 1.

All programs are assembled for the conic layer; bound computations are pure
and independent, so distinct grid points and distinct bounds may be evaluated
concurrently by callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .conic import (GAP_TOL, ConicProgram, ConicSolution,
                    SolverFailureError, hvec, hvec_basis, solve, solve_or_raise)
from .matcore import (check_hermitian, hermitize, psd_sqrt, support_factor,
                      trace_abs, weighted_trace_abs)
from .model import CapabilityError, ExtendedMoments

__all__ = [
    "BoundSolution", "SolverFailureError", "nagaoka_hayashi_bound",
    "holevo_type_bound", "nagaoka_objective", "nagaoka_bound", "appendix_f",
    "f_family_suite", "f_family_pinned_example", "holevo_lemma_value",
    "holevo_lemma_sdp_value", "random_lemma_triple", "holevo_lemma_suite",
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
        where = "" if em.weight_spec.is_constant else f" at grid point {m}"
        raise CapabilityError(f"the weight matrix{where} must be strictly "
                              f"positive (min eigenvalue {w[m, 0]:.3e})")


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


def _hermitian_offblock_rows(prog, blk, row0, col0, G):
    """Pin the d x d block T at (row0, col0) of a Hermitian variable to
    T - T^+ = G, for anti-Hermitian d x d G (zero: T is Hermitian): d^2 rows
    equating the hvec coordinates of -i(T - T^+) and -iG."""
    prog.add_pins([(blk, row0, col0, 1j), (blk, col0, row0, -1j)], hvec(-1j * G))


def _objective(em: ExtendedMoments) -> np.ndarray:
    """C = [[S_bar, -D], [-D^+, 0]], D the column stack of the D_bar_j, so
    that Tr(C G) = Tr(S_bar L) - 2 sum_j Tr(D_bar_j X_j) at G = [[L, X],
    [X^+, I]] with Hermitian X_j: the objective of every rung on
    `_estimator_block`, w_bar apart."""
    D = np.asarray(em.D_bar).reshape(em.n * em.d, em.d)
    return np.block([[em.S_bar, -D],
                     [-D.conj().T, np.zeros((em.d, em.d))]])


def _estimator_block(prog: ConicProgram, em: ExtendedMoments):
    """Add G = [[L, X], [X^+, I]] >= 0 of dimension (n+1)d with the identity
    corner pinned and Hermitian X_j; return G's block id and its objective
    coefficient `_objective(em)`."""
    n, d = em.n, em.d
    nd = n * d
    dim = nd + d
    g = prog.add_psd_block(dim)
    prog.add_pins([(g, nd, nd, 1.0)], hvec(np.eye(d)))
    for j in range(n):
        _hermitian_offblock_rows(prog, g, j * d, nd, np.zeros((d, d)))
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
            _hermitian_offblock_rows(prog, g, j * d, k * d, np.zeros((d, d)))
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
    if em.weight_spec.is_constant:
        points = [(None, em.S_B)]
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
    Observables of another shape or with a non-finite entry are a
    CapabilityError.
    """
    if em.n != 2:
        raise CapabilityError("the commutator objective needs exactly two parameters")
    X = np.asarray(X, dtype=complex)
    if X.shape != (2, em.d, em.d):
        raise CapabilityError(f"expected two {em.d}x{em.d} observables, got {X.shape}")
    if not np.isfinite(X).all():
        raise CapabilityError("the observables have non-finite entries")
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


def _dominating_program(Sfull: np.ndarray, X: np.ndarray,
                        n: int) -> ConicProgram:
    """The program min Tr(S L) over block-symmetric Hermitian-block L >= X,
    for Hermitian (nd, nd) S and X of n blocks.

    The variable is the slack T = L - X >= 0; block symmetry of L becomes
    T_jk - T_jk^+ = X_kj - X_jk on every upper block pair.
    """
    nd = len(X)
    d = nd // n
    Xb = X.reshape(n, d, n, d)
    prog = ConicProgram()
    t = prog.add_psd_block(nd)
    for j in range(n):
        for k in range(j + 1, n):
            _hermitian_offblock_rows(prog, t, j * d, k * d,
                                     Xb[k, :, j] - Xb[j, :, k])
    offset = float(np.real(np.trace(Sfull @ X)))
    prog.set_objective({t: hermitize(Sfull)}, offset=offset)
    return prog


def _hermitian(name: str, M) -> np.ndarray:
    """check_hermitian(M), its ValueError prefixed with the name of M."""
    try:
        return check_hermitian(M)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _checked(S_terms, X) -> tuple:
    """(terms, S, X, n, d): the terms (pi_j, W_j, S_j) and X checked as
    `appendix_f` states, and the aggregate S = sum_j pi_j W_j (x) S_j."""
    S_terms = list(S_terms)
    if not S_terms:
        raise ValueError("S_terms is empty")
    n, d = (np.atleast_1d(M).shape[0] for M in S_terms[0][1:])
    terms = []
    for j, (pi_j, W_j, S_j) in enumerate(S_terms):
        W, S = np.asarray(W_j, dtype=float), np.asarray(S_j, dtype=complex)
        if W.shape != (n, n) or S.shape != (d, d):
            raise ValueError(f"term {j}: W_{j} is {W.shape} and S_{j} {S.shape}, "
                             f"not ({n}, {n}) and ({d}, {d}) as in term 0")
        pi = float(pi_j)
        if not (np.isfinite(pi) and pi >= 0):
            raise ValueError(f"term {j}: prior mass {pi_j!r} is not a finite "
                             "non-negative number")
        terms.append((pi, _hermitian(f"W_{j}", W).real,
                      _hermitian(f"S_{j}", S)))
    X = np.asarray(X, dtype=complex)
    if X.shape != (n * d, n * d):
        raise ValueError(f"X is {X.shape}, not {(n * d, n * d)} for {n} "
                         f"blocks of dimension {d}")
    X = _hermitian("X", X)

    Sfull = np.zeros((n * d, n * d), dtype=complex)
    for pi_j, W, S in terms:
        Sfull += pi_j * np.kron(W, S)
    ww = npl.eigvalsh(hermitize(Sfull))
    if ww[0] <= 1e-10 * max(1.0, abs(ww[-1])):
        raise ValueError(f"aggregate operator not strictly positive "
                         f"(min eigenvalue {ww[0]:.3e})")
    return terms, Sfull, X, n, d


def appendix_f(kind: str, S_terms, X, gap_tol: float = GAP_TOL) -> float:
    """Evaluate one member of the comparison-functional family.

    S_terms is a list of (pi_j, W_j, S_j), W_j n x n and S_j d x d, with
    aggregate operator S = sum_j pi_j W_j (x) S_j, which must be strictly
    positive; each pi_j must be finite and non-negative and each W_j and S_j
    Hermitian (`check_hermitian`). X is a Hermitian (nd, nd) array in
    np.kron order, its block (j, k) X[j*d:(j+1)*d, k*d:(k+1)*d]. Anything
    else is a ValueError that names the term, W_j, S_j or X.

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

    sym_minus X = (X - X^T1)/2 is the block-antisymmetric part, X^T1 the
    block transpose, and sym_plus X = X - sym_minus X. f1 and f2 are f4 and
    f5 restricted to a single tensor term, and are computed as such: for
    block-symmetric S, Tr(S sym_plus X) = Tr Re Z(S, X), and Z is linear in
    S. On valid inputs f_sdp >= f3 >= f4 (n = 2), f_sdp >= f5, and for a
    single tensor term f_sdp >= f2 and f_sdp = f1.
    """
    if kind not in _F_KINDS:
        raise ValueError(f"unknown functional {kind!r}; choose from {_F_KINDS}")
    terms, Sfull, X, n, d = _checked(S_terms, X)
    if kind == "f_sdp":
        return solve_or_raise(_dominating_program(Sfull, X, n), gap_tol,
                              what="block-symmetric dominating program").primal_value
    if kind in ("f1", "f2") and len(terms) != 1:
        raise ValueError(f"{kind} needs a single tensor term")
    if kind in ("f1", "f4") and n != 2:
        raise ValueError(f"{kind} needs exactly two blocks")

    Xb = X.reshape(n, d, n, d)
    minus = (X - Xb.transpose(2, 1, 0, 3).reshape(n * d, n * d)) * 0.5
    total = float(np.real(np.trace(Sfull @ (X - minus))))
    for pi_j, W, S in terms:
        if kind in ("f1", "f4"):
            detw = max(float(npl.det(W)), 0.0)
            total += pi_j * np.sqrt(detw) * weighted_trace_abs(
                S, Xb[0, :, 1] - Xb[1, :, 0])
        else:
            sq = psd_sqrt(hermitize(np.kron(W, S)))
            if kind == "f3":   # f_sdp of K on the identity I_n (x) I_d
                K = hermitize(sq @ minus @ sq)
                total += pi_j * appendix_f("f_sdp", [(1.0, np.eye(n), np.eye(d))],
                                           K, gap_tol)
            else:   # f2, f5: Z = Tr_H(sqrt(S) X sqrt(S)), n x n Hermitian
                Z = np.trace((sq @ X @ sq).reshape(n, d, n, d), axis1=1, axis2=3)
                total += pi_j * trace_abs(hermitize(Z).imag)
    return total


def f_family_pinned_example(gap_tol: float = GAP_TOL) -> dict:
    """The hand-checkable instance: f_sdp = f1 = 2 exactly.

    S = I_2 (x) I_2/2 and X with off-diagonal blocks +-i sigma_z; the
    sym_plus term vanishes and the trace-norm term gives 2.
    """
    X = np.kron([[0, 1j], [-1j, 0]], np.diag([1.0, -1.0]))
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
        X = hermitize(M)
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


# ---------------------------------------------------------------------------
# Holevo's lemma: appendix F at d = 1
# ---------------------------------------------------------------------------

def _lemma_instance(W, A, B) -> tuple:
    """The single term (1, W, [[1]]) and X = A + iB, an n x n matrix."""
    X = np.asarray(A, dtype=float) + 1j * np.asarray(B, dtype=float)
    return [(1.0, W, [[1.0]])], X


def holevo_lemma_value(W: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    """Closed form Tr(W A) + TrAbs(W B), W symmetric > 0, A symmetric, B antisymmetric.

    Holevo's lemma: it equals min{Tr(W V) : V real symmetric, V >= A + iB},
    f_sdp of `appendix_f` at d = 1, and is f2 there. Any other triple is a
    ValueError; for a singular W the minimum is an infimum that no V
    attains (W = diag(1, 0), B != 0).
    """
    return appendix_f("f2", *_lemma_instance(W, A, B))


def holevo_lemma_sdp_value(W: np.ndarray, A: np.ndarray, B: np.ndarray,
                           gap_tol: float = GAP_TOL) -> ConicSolution:
    """min Tr(W V) over real symmetric V >= A + iB: the solve, whatever its
    status, of the program f_sdp solves on `holevo_lemma_value`'s instance."""
    _, Sfull, X, n, _ = _checked(*_lemma_instance(W, A, B))
    return solve(_dominating_program(Sfull, X, n), gap_tol)


def random_lemma_triple(rng: np.random.Generator, k: int):
    """Random (W, A, B): W symmetric > 0, A symmetric, B antisymmetric."""
    G = rng.standard_normal((k, k))
    W = G @ G.T + k * np.eye(k) * 0.1
    A0 = rng.standard_normal((k, k))
    A = (A0 + A0.T) / 2
    B0 = rng.standard_normal((k, k))
    B = (B0 - B0.T) / 2
    return W, A, B


def holevo_lemma_suite(trials: int = 50, seed: int = 0,
                       gap_tol: float = GAP_TOL) -> list[dict]:
    """Closed form vs SDP on random triples of sizes 2, 3, 4 in turn; one
    result dict per trial.

    Each dict carries both values, their absolute difference, and the solve
    status; CLI `lemmas` and the acceptance run both consume this.
    """
    rng = np.random.default_rng(seed)
    out = []
    for t in range(trials):
        k = 2 + t % 3
        W, A, B = random_lemma_triple(rng, k)
        closed = holevo_lemma_value(W, A, B)
        sol = holevo_lemma_sdp_value(W, A, B, gap_tol)
        out.append({
            "trial": t, "dim": k,
            "closed_form": closed,
            "sdp_value": sol.primal_value,
            "abs_diff": abs(closed - sol.primal_value),
            "status": sol.status,
        })
    return out
