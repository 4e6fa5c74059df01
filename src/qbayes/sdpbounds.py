"""Semidefinite lower bounds on Bayes risk over grid priors.

Three bound families share the extended-moment data (S_bar, D_bar, w_bar):
the block-operator program `nagaoka_hayashi_bound`, the estimator-correlation
program `holevo_type_bound` (per-point form, collapsing to a single block for
a constant weight), and the two-parameter commutator objective
`nagaoka_objective` with a coordinatewise search. The `appendix_f` family
exposes the chain of comparison functionals between these programs on raw
operator pairs; `f_family_suite` exercises the chain on random tensor
instances and is shared by the CLI and the acceptance tests.

All programs are assembled for the conic layer; bound computations are pure
and independent, so distinct grid points and distinct bounds may be evaluated
concurrently by callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl
from scipy.optimize import minimize_scalar

from .conic import (ConicProgram, ConicSolution, SolveOptions,
                    SolverFailureError, hmat, hvec, hvec_basis, solve_or_raise)
from .matcore import (ExtendedOperator, hermitize, lyapunov_solve, psd_sqrt,
                      sym_split, trace_abs)
from .model import CapabilityError, ExtendedMoments

__all__ = [
    "NhSolution", "HolevoSolution", "SolverFailureError",
    "nagaoka_hayashi_bound", "holevo_type_bound",
    "nagaoka_objective", "nagaoka_bound_search",
    "appendix_f", "f_family_suite", "f_family_pinned_example",
]


def _require_strictly_positive(W: np.ndarray, what: str) -> None:
    w = npl.eigvalsh((W + W.T.conj()) / 2)
    if w[0] <= 1e-10 * max(1.0, abs(w[-1])):
        raise CapabilityError(f"{what} must be strictly positive "
                              f"(min eigenvalue {w[0]:.3e})")


def _mean_state(em: ExtendedMoments) -> np.ndarray:
    return np.einsum("m,mab->ab", em.pi, np.asarray(em.states))


# ---------------------------------------------------------------------------
# Block-operator bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NhSolution:
    """Optimum of the block-operator program.

    value    -- the bound itself
    Lopt     -- block-symmetric operator with Hermitian d x d blocks,
                Lopt >= Xopt Xopt^T (block outer product) up to solver slack
    Xopt     -- (n, d, d) Hermitian estimator observables
    diagnostics -- the underlying ConicSolution
    """
    value: float
    Lopt: ExtendedOperator
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


def nagaoka_hayashi_bound(em: ExtendedMoments,
                          options: SolveOptions | None = None) -> NhSolution:
    """Lower-bound the Bayes risk by one PSD program over ([[L, X], [X^T, I]]).

    Minimizes Tr(S_bar L) - 2 sum_j Tr(D_bar_j X_j) + w_bar over L
    block-symmetric with Hermitian blocks and Hermitian X_j. Block symmetry
    and Hermiticity are imposed by equality rows on a single Hermitian PSD
    variable of dimension (n+1)d; the identity corner makes G = I strictly
    feasible.
    """
    n, d = em.n, em.d
    nd = n * d
    dim = nd + d

    prog = ConicProgram()
    g = prog.add_psd_block(dim)
    corner = np.zeros((d * d, dim, dim), dtype=complex)
    corner[:, nd:, nd:] = hvec_basis(d)
    prog.add_eq({g: corner}, rhs=hvec(np.eye(d)))
    # off-diagonal blocks of L pair up symmetrically: L_jk = L_kj, i.e. each
    # upper block is Hermitian on its own (G Hermitian supplies L_kj = L_jk^+)
    zero = np.zeros((d, d))
    for j in range(n):
        for k in range(j + 1, n):
            _hermitian_offblock_rows(prog, g, dim, j * d, k * d, zero)
    # the estimator column blocks are Hermitian observables
    for j in range(n):
        _hermitian_offblock_rows(prog, g, dim, j * d, nd, zero)

    Dstack = np.asarray(em.D_bar).reshape(nd, d)
    C = np.zeros((dim, dim), dtype=complex)
    C[:nd, :nd] = em.S_bar.full()
    C[:nd, nd:] = -Dstack
    C[nd:, :nd] = -Dstack.conj().T
    prog.set_objective({g: C}, offset=em.w_bar)

    sol = solve_or_raise(prog, options, what="block-operator bound")
    G = sol.variable_values[0]
    Lopt = ExtendedOperator.from_full(G[:nd, :nd], n, d)
    Xopt = np.stack([hermitize(G[j * d:(j + 1) * d, nd:]) for j in range(n)])
    return NhSolution(value=sol.primal_value, Lopt=Lopt, Xopt=Xopt,
                      diagnostics=sol)


# ---------------------------------------------------------------------------
# Estimator-correlation bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolevoSolution:
    """Optimum of the estimator-correlation program.

    value    -- the bound itself
    Xopt     -- (n, d, d) Hermitian observables
    V_blocks -- real symmetric n x n correlation caps: one per grid point in
                the per-point form, a single one for constant weight
    form     -- "general" or "constant"
    diagnostics -- the underlying ConicSolution
    """
    value: float
    Xopt: np.ndarray
    V_blocks: tuple
    form: str
    diagnostics: ConicSolution


def holevo_type_bound(em: ExtendedMoments,
                      options: SolveOptions | None = None,
                      force_general: bool = False) -> HolevoSolution:
    """Lower-bound the Bayes risk through correlation caps on estimator
    observables.

    Per grid point m, a real symmetric V_m dominates Z(S_m, X) through the
    linear matrix inequality [[V_m, M_m], [M_m^+, I]] >= 0, where row j of
    M_m is the column-major vectorization of sum_k sqrt(W_m)[j, k]
    sqrt(S_m) X_k, so that M_m M_m^+ = Z(S_m, X); the objective is
    sum_m pi_m Tr V_m - 2 sum_j Tr(D_bar_j X_j) + w_bar. For a constant
    weight the per-point blocks collapse to a single one built on the average
    state, with objective Tr(W V) in place of the pi-weighted trace.

    The LMI F0 + sum_i z_i F_i >= 0 in the real unknowns z, the hvec
    coordinates of (V, X), is the dual of a PSD program: one row per unknown, with the unknown's F_i on
    each block as coefficients and its objective coefficient as rhs, and the
    identity corner F0 as objective. The solver's dual vector is y = -z, and
    with offset -w_bar the bound is -sol.dual_value, the LMI objective at the
    returned (V, X).

    Every participating weight matrix must be strictly positive.
    """
    n, d = em.n, em.d
    B = d * d
    dim = n + B

    # per block: the objective weight on V, sqrt(W) and sqrt(S)
    if em.constant_W is not None and not force_general:
        W = em.weight_spec.constant
        _require_strictly_positive(W, "the weight matrix")
        # constant form: M row j involves X_j only (identity in place of sqW)
        points = [(W, np.eye(n), psd_sqrt(_mean_state(em)))]
        form = "constant"
    else:
        points = []
        for m, pi_m in enumerate(em.pi):
            Wm = em.weight_spec.matrix_at(m)
            _require_strictly_positive(Wm, f"the weight matrix at grid point {m}")
            points.append((pi_m * np.eye(n), psd_sqrt(Wm.astype(complex)).real,
                           psd_sqrt(em.states[m])))
        form = "general"

    prog = ConicProgram()
    blks = [prog.add_psd_block(dim) for _ in points]
    F0 = np.zeros((dim, dim))
    F0[n:, n:] = np.eye(B)
    prog.set_objective({blk: F0 for blk in blks}, offset=-em.w_bar)

    # V_m is real symmetric: its hvec coordinates are the first n(n+1)/2,
    # the imaginary ones vanish
    npairs = n * (n + 1) // 2
    Fv = np.zeros((npairs, dim, dim))
    Fv[:, :n, :n] = hvec_basis(n)[:npairs].real
    for blk, (Wobj, _, _) in zip(blks, points):
        prog.add_eq({blk: Fv}, rhs=hvec(Wobj)[:npairs])

    # row (k, beta) is the unknown hvec(X_k)[beta]: entry (a, c) of
    # sqrt(S) E_beta sits at column n + c*d + a of every block, scaled by
    # sqW[j, k] in row j
    E = hvec_basis(d)
    coeffs = {}
    for blk, (_, sqW, sqS) in zip(blks, points):
        vecs = (sqS @ E).swapaxes(-1, -2).reshape(B, B)
        F = np.zeros((n, B, dim, dim), dtype=complex)
        F[:, :, :n, n:] = sqW.T[:, None, :, None] * vecs[None, :, None, :]
        F[:, :, n:, :n] = F[:, :, :n, n:].conj().swapaxes(-1, -2)
        coeffs[blk] = F.reshape(n * B, dim, dim)
    prog.add_eq(coeffs, rhs=-2.0 * hvec(hermitize(em.D_bar)).reshape(n * B))

    sol = solve_or_raise(prog, options, what="estimator-correlation bound")
    z = -sol.y
    nv = len(blks) * npairs
    zV = np.zeros((len(blks), n * n))
    zV[:, :npairs] = z[:nv].reshape(len(blks), npairs)
    V = hmat(zV, n).real
    Xopt = hmat(z[nv:].reshape(n, B), d)
    return HolevoSolution(value=-sol.dual_value, Xopt=Xopt,
                          V_blocks=tuple(V), form=form, diagnostics=sol)


# ---------------------------------------------------------------------------
# Two-parameter commutator objective and search
# ---------------------------------------------------------------------------

def _nagaoka_evaluator(em: ExtendedMoments):
    """Closure evaluating the two-parameter objective, with the per-model
    constants (sqrt-states, weights, moments) precomputed once."""
    Sblocks = em.S_bar.blocks
    Dbar = np.asarray(em.D_bar)
    w_bar = em.w_bar
    commuting_terms = []
    for m, pi_m in enumerate(em.pi):
        Wm = em.weight_spec.matrix_at(m)
        detw = max(float(npl.det(Wm)), 0.0)   # PSD determinant; 0 kills the term
        coeff = pi_m * np.sqrt(detw)
        if coeff > 1e-15:
            commuting_terms.append((coeff, psd_sqrt(em.states[m])))
    S00, S01, S10, S11 = Sblocks[0, 0], Sblocks[0, 1], Sblocks[1, 0], Sblocks[1, 1]
    Scross = S01 + S10

    def value(X: np.ndarray) -> float:
        X0, X1 = X[0], X[1]
        P01 = X0 @ X1
        P10 = X1 @ X0
        sym01 = (P01 + P10) / 2
        term1 = np.real(np.einsum("ab,ba->", S00, X0 @ X0)
                        + np.einsum("ab,ba->", S11, X1 @ X1)
                        + np.einsum("ab,ba->", Scross, sym01))
        comm = P01 - P10
        term2 = 0.0
        if np.abs(comm).max() > 0.0:
            for coeff, sq in commuting_terms:
                term2 += coeff * trace_abs(sq @ comm @ sq)
        term3 = -2.0 * np.real(np.einsum("ab,ba->", Dbar[0], X0)
                               + np.einsum("ab,ba->", Dbar[1], X1))
        return float(term1 + term2 + term3 + w_bar)

    return value


def nagaoka_objective(em: ExtendedMoments, X) -> float:
    """Evaluate the two-parameter objective at Hermitian (X_1, X_2).

    Tr(S_bar sym_plus(XX^T)) + sum_m pi_m sqrt(det W_m) TrAbs(S_m [X_1, X_2])
    - 2 sum_j Tr(D_bar_j X_j) + w_bar. The commutator term uses the PSD
    square-root congruence, which shares the nonzero spectrum with
    S_m [X_1, X_2] and keeps the eigenproblem normal.
    """
    if em.n != 2:
        raise CapabilityError("the commutator objective needs exactly two parameters")
    X = np.asarray(X, dtype=complex)
    if X.shape != (2, em.d, em.d):
        raise CapabilityError(f"expected two {em.d}x{em.d} observables, got {X.shape}")
    X = np.stack([hermitize(X[0]), hermitize(X[1])])
    return _nagaoka_evaluator(em)(X)


def _line_minimum(fcoord, t0: float, f0: float):
    """Minimize a convex slice; expand the bracket while the argmin hugs it."""
    span = 2.0 * (1.0 + abs(t0))
    t_best, f_best = t0, f0
    for _ in range(8):
        res = minimize_scalar(fcoord, bounds=(t0 - span, t0 + span),
                              method="bounded", options={"xatol": 1e-10})
        t_best, f_best = float(res.x), float(res.fun)
        interior = 0.02 * span
        if (t_best > t0 - span + interior) and (t_best < t0 + span - interior):
            break
        span *= 4.0
    if f_best < f0:
        return t_best, f_best
    return t0, f0


def nagaoka_bound_search(em: ExtendedMoments, restarts: int = 4, seed: int = 0,
                         max_sweeps: int = 50, tol: float = 1e-10) -> float:
    """Best objective value found by coordinatewise descent in hvec coordinates.

    Each coordinate slice of the objective is convex (PSD quadratic plus the
    trace-norm of an affine family plus linear), so every slice is solved by
    a bounded scalar search. Starts: the Bayesian SLD observables
    X_j = L_j (always included) plus `restarts` seeded Gaussian draws. The
    result is an upper bound on the true two-parameter minimum, reported as
    best-found rather than certified; it stays above the estimator-correlation
    bound pointwise.
    """
    if em.n != 2:
        raise CapabilityError("the commutator search needs exactly two parameters")
    d = em.d
    B = d * d
    evaluate = _nagaoka_evaluator(em)

    def fval(u: np.ndarray) -> float:
        return evaluate(hmat(u.reshape(2, B), d))

    S_B = _mean_state(em)
    sld = [lyapunov_solve(S_B, em.D_bar[j]) for j in range(2)]
    starts = [hvec(np.stack(sld)).reshape(2 * B)]
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.abs(np.asarray(em.thetas)).max(initial=0.0))
    for _ in range(max(0, restarts)):
        starts.append(rng.standard_normal(2 * B) * scale)

    best = np.inf
    for u0 in starts:
        u = np.asarray(u0, dtype=float).copy()
        val = fval(u)
        for _ in range(max_sweeps):
            prev = val
            for i in range(2 * B):
                t0 = u[i]

                def fcoord(t, i=i):
                    u[i] = t
                    return fval(u)

                t_new, f_new = _line_minimum(fcoord, t0, val)
                u[i] = t_new
                val = f_new
            if prev - val <= tol * max(1.0, abs(val)):
                break
        best = min(best, val)
    return float(best)


# ---------------------------------------------------------------------------
# Comparison functionals on raw operator pairs
# ---------------------------------------------------------------------------

_F_KINDS = ("f_sdp", "f1", "f2", "f3", "f4", "f5")


def _dominating_value(Sfull: np.ndarray, X: ExtendedOperator,
                      options: SolveOptions | None) -> float:
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
    sol = solve_or_raise(prog, options, what="block-symmetric dominating program")
    return sol.primal_value


def _z_matrix(sq_full: np.ndarray, X_full: np.ndarray, n: int, d: int) -> np.ndarray:
    """Z = Tr_H(sqrt(S) X sqrt(S)) as an n x n Hermitian matrix."""
    Y = sq_full @ X_full @ sq_full
    Z = np.trace(Y.reshape(n, d, n, d), axis1=1, axis2=3)
    return (Z + Z.conj().T) / 2


def _anti_commutator_trabs(S: np.ndarray, diff: np.ndarray) -> float:
    """TrAbs(S diff) for PSD S and anti-Hermitian diff via the congruence."""
    sq = psd_sqrt(S)
    return trace_abs(sq @ diff @ sq)


def appendix_f(kind: str, S_terms, X: ExtendedOperator,
               options: SolveOptions | None = None) -> float:
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

    On valid inputs f_sdp >= f3 >= f4 (n = 2), f_sdp >= f5, and for a single
    tensor term f_sdp >= f2 and f_sdp = f1.
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
        return _dominating_value(Sfull, X, options)

    plus_op, minus_op = sym_split(X)
    sym_plus_term = float(np.real(np.trace(Sfull @ plus_op.full())))

    if kind in ("f1", "f2") and len(terms) != 1:
        raise ValueError(f"{kind} needs a single tensor term")
    if kind in ("f1", "f4") and n != 2:
        raise ValueError(f"{kind} needs exactly two blocks")

    if kind == "f1":
        pi_j, W, S = terms[0]
        diff = X.blocks[0, 1] - X.blocks[1, 0]
        detw = max(float(npl.det(W)), 0.0)
        return sym_plus_term + pi_j * np.sqrt(detw) * _anti_commutator_trabs(S, diff)

    if kind == "f2":
        sq = psd_sqrt(hermitize(Sfull))
        Z = _z_matrix(sq, X.full(), n, d)
        return float(np.real(np.trace(Z))) + trace_abs(Z.imag)

    if kind == "f3":
        minus_full = minus_op.full()
        total = sym_plus_term
        for pi_j, W, S in terms:
            sq = psd_sqrt(hermitize(np.kron(W, S)))
            K = ExtendedOperator.from_full(hermitize(sq @ minus_full @ sq), n, d)
            total += pi_j * _dominating_value(np.eye(n * d, dtype=complex), K,
                                              options)
        return total

    if kind == "f4":
        diff = X.blocks[0, 1] - X.blocks[1, 0]
        total = sym_plus_term
        for pi_j, W, S in terms:
            detw = max(float(npl.det(W)), 0.0)
            total += pi_j * np.sqrt(detw) * _anti_commutator_trabs(S, diff)
        return total

    # f5
    Xfull = X.full()
    total = sym_plus_term
    for pi_j, W, S in terms:
        sq = psd_sqrt(hermitize(np.kron(W, S)))
        Z = _z_matrix(sq, Xfull, n, d)
        total += pi_j * trace_abs(Z.imag)
    return total


def f_family_pinned_example(options: SolveOptions | None = None) -> dict:
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
    fs = appendix_f("f_sdp", terms, X, options)
    f1 = appendix_f("f1", terms, X, options)
    return {"f_sdp": fs, "f1": f1, "expected": 2.0,
            "abs_diff": abs(fs - f1)}


def f_family_suite(trials: int = 100, seed: int = 0, dims: tuple = (2, 3, 4),
                   options: SolveOptions | None = None) -> list[dict]:
    """Random single-tensor-term instances with n = 2: equality of f_sdp and
    f1, plus the inequality chain, one result dict per trial."""
    rng = np.random.default_rng(seed)
    results = []
    for t in range(trials):
        d = int(dims[t % len(dims)])
        G = rng.standard_normal((2, 2))
        W = G @ G.T + 0.2 * np.eye(2)
        H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        S = H @ H.conj().T + 0.2 * np.eye(d)
        S = S / np.trace(S).real
        M = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
        X = ExtendedOperator.from_full(hermitize(M), 2, d)
        terms = [(1.0, W, S)]
        vals = {kind: appendix_f(kind, terms, X, options) for kind in _F_KINDS}
        results.append({
            "trial": t, "dim": d, **vals,
            "eq_gap": abs(vals["f_sdp"] - vals["f1"]),
            "margin_sdp_f3": vals["f_sdp"] - vals["f3"],
            "margin_f3_f4": vals["f3"] - vals["f4"],
            "margin_sdp_f5": vals["f_sdp"] - vals["f5"],
            "margin_sdp_f2": vals["f_sdp"] - vals["f2"],
        })
    return results
