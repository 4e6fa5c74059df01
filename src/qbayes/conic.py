"""Small dense semidefinite programming with a deterministic interior-point solver.

Programs are equality-constrained over Hermitian PSD blocks only:
min sum_b <C_b, X_b> subject to sum_b <A_ib, X_b> = b_i, X_b >= 0.
Inequalities are the caller's job via slack blocks. A linear matrix
inequality F0 + sum_i z_i F_i >= 0 with objective g . z is the dual of the
program whose objective is F0 and whose row i has coefficients F_i and rhs
g_i: the solver's dual vector is y = -z, read from `sol.y`, and
`sol.dual_value` is -g . z plus the offset. The solver is Mehrotra's
predictor-corrector method on the homogeneous self-dual embedding with
Nesterov-Todd scaling and a dense LAPACK LU of the Schur system, so
infeasibility is certified rather than diverged on. `assemble` lays the
columns out by block size, so the blocks of one size fill one contiguous run
and are read as one (K, k, k) stack, and every per-block step is one batched
call per distinct size.

Each iteration works in the NT-scaled frame. Per block, with X = L L^dag and
L^dag S L = U diag(w) U^dag, the factor R = L U diag(w)^-1/4 gives the NT
scaling W = R R^dag, and R^-1 X R^-dag = R^dag S R = diag(lam), lam = w^1/2.
The rows of A and c are scaled once (A~_i = R^dag A_i R, as the k x k
congruence hvec(R^dag hmat(v) R)); the Newton system, the step to the cone
boundary and the neighbourhood test then see only the diagonal lam. So the
corrector, the affine step's V = dX~ o dS~ (A o B = (AB + BA)/2), enters the
right-hand side as M_ij = 2 V_ij / (lam_i + lam_j), the closed-form solution
of diag(lam) o M = V, and reuses the affine step's factorization. The
accepted step goes back as dX = R dX~ R^dag, and dS is read from the dual
equation in the original coordinates.

A k x k Hermitian block lives in isometric real coordinates (`hvec`): the
diagonal, then sqrt2 Re and sqrt2 Im of the strict upper triangle, k^2 numbers
whose dot product is the trace inner product. Constraint rows and the
objective are validated when added and stored in these coordinates.
`hvec_basis(k)` is the (k^2, k, k) stack E with Tr(E[i] H) = hvec(H)[i], and
`add_eq` takes an (r, k, k) coefficient stack with an rhs of length r as r
rows, so pinning a sub-block to the hvec coordinates of a target is one call.

Real-symmetric data needs no block kind of its own: a program with real
coefficients is invariant under complex conjugation, and so is its central
path from the identity start, so its optimum is real on the Hermitian block.

Every solve runs one iteration path with fixed parameters. A run whose step
is blocked or that reaches MAX_ITERS returns `numerical-failure` with the best
iterate seen.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.linalg as npl
from scipy.linalg.lapack import dgetrf, dgetrs

from .matcore import SQRT2, check_hermitian, hermitize, weighted_trace_abs

GAP_TOL = 1e-8       # relative duality gap at optimality
FEAS_TOL = 1e-8      # scaled primal residual at optimality
DRES_GUARD = 1e-6    # sanity ceiling on the scaled dual residual; typical
                     # solves land near 1e-12, but degenerate endgames can
                     # float around 1e-8 while gap and primal residual converge
MAX_ITERS = 200
STEP_FRAC = 0.98     # fraction of the step to the cone boundary
SIGMA_MIN = 0.05     # keeps every step at least mildly centering
PROX_GAMMA = 0.01    # wide-neighborhood floor on complementarity eigenvalues
GAP_TOL_ENV = "QBAYES_GAP_TOL"


class ProgramError(ValueError):
    """A conic program is malformed."""


class SolverFailureError(RuntimeError):
    """A solve did not reach a certified status; diagnostics attached."""

    def __init__(self, message: str, solution: "ConicSolution | None" = None):
        super().__init__(message)
        self.solution = solution


# ---------------------------------------------------------------------------
# Isometric coordinates of Hermitian blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gather_maps(k: int):
    """Index and scale maps between hvec coordinates and the float64 view of
    a complex (k, k) matrix (re, im of each entry, row-major)."""
    iu, ju = np.triu_indices(k, 1)
    up, low = 2 * (iu * k + ju), 2 * (ju * k + iu)
    vec_idx = np.concatenate([2 * (k + 1) * np.arange(k), up, up + 1])
    vec_scale = np.concatenate([np.ones(k), np.full(2 * len(iu), SQRT2)])
    # hmat reads the upper triangle back, mirrors it with the imaginary parts
    # negated, and zeroes the imaginary parts of the diagonal (scale 0)
    mat_idx = np.zeros(2 * k * k, dtype=np.intp)
    mat_scale = np.zeros(2 * k * k)
    mat_idx[vec_idx] = np.arange(k * k)
    mat_scale[vec_idx] = 1 / vec_scale
    mat_idx[low], mat_idx[low + 1] = mat_idx[up], mat_idx[up + 1]
    mat_scale[low], mat_scale[low + 1] = mat_scale[up], -mat_scale[up + 1]
    return vec_idx, vec_scale, mat_idx, mat_scale


def hvec(X: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of Hermitian X: hvec(A) @ hvec(B) = Tr(A B).

    Acts on the last two axes, so a (..., k, k) stack gives (..., k^2).
    """
    X = np.ascontiguousarray(X, dtype=complex)
    k = X.shape[-1]
    idx, scale, _, _ = _gather_maps(k)
    v = X.view(np.float64).reshape(X.shape[:-2] + (2 * k * k,)).take(idx, axis=-1)
    v *= scale
    return v


def hmat(v: np.ndarray, k: int) -> np.ndarray:
    """Inverse of hvec, on the last axis."""
    _, _, idx, scale = _gather_maps(k)
    w = np.asarray(v, dtype=np.float64).take(idx, axis=-1)
    w *= scale
    return w.view(complex).reshape(w.shape[:-1] + (k, k))


@lru_cache(maxsize=None)
def hvec_basis(k: int) -> np.ndarray:
    """The (k^2, k, k) Hermitian stack E with Tr(E[i] H) = hvec(H)[i]."""
    E = hmat(np.eye(k * k), k)
    E.flags.writeable = False
    return E


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------

class ConicProgram:
    """Equality-form conic program over Hermitian PSD blocks.

    Constraints and the objective are real linear functionals given by one
    Hermitian coefficient matrix per referenced block (contributing <C, X>).
    Coefficients are validated when added and kept as hvec rows.
    """

    def __init__(self):
        self.blocks: list[int] = []     # block dimensions
        self.rows: list[tuple] = []     # ({block: (r, dim^2) hvec rows}, rhs (r,))
        self.obj: dict = {}             # {block: (1, dim^2) hvec row}
        self.offset = 0.0

    def add_psd_block(self, dim: int) -> int:
        if dim < 1:
            raise ProgramError(f"block dimension {dim} < 1")
        self.blocks.append(dim)
        return len(self.blocks) - 1

    def _hvec_rows(self, coeffs: dict | None, r: int) -> dict:
        """hvec rows of each block's coefficient: a (dim, dim) matrix for one
        row, or an (r, dim, dim) stack for r rows."""
        rows = {}
        for bid, C in (coeffs or {}).items():
            if not 0 <= bid < len(self.blocks):
                raise ProgramError(f"unknown block {bid}")
            dim = self.blocks[bid]
            C = np.asarray(C)
            shape = (dim, dim) if r == 1 and C.ndim == 2 else (r, dim, dim)
            if C.shape != shape:
                raise ProgramError(f"coefficient shape {C.shape} for {r} rows "
                                   f"on a block of dim {dim}")
            try:
                rows[bid] = hvec(check_hermitian(C)).reshape(r, dim * dim)
            except ValueError as exc:
                raise ProgramError(f"block {bid}: {exc}") from None
        return rows

    def add_eq(self, coeffs: dict | None = None, rhs=0.0) -> None:
        """Add the equality  sum_b <C_b, X_b> = rhs, or, with (r, dim, dim)
        coefficient stacks and an rhs of length r, r such rows at once."""
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if rhs.ndim != 1 or not np.isfinite(rhs).all():
            raise ProgramError(f"rhs {rhs!r} is not a finite vector")
        self.rows.append((self._hvec_rows(coeffs, len(rhs)), rhs))

    def set_objective(self, coeffs: dict | None = None,
                      offset: float = 0.0) -> None:
        """Minimize  sum_b <C_b, X_b> + offset."""
        if not np.isfinite(offset):
            raise ProgramError(f"offset {offset!r} is not finite")
        self.obj = self._hvec_rows(coeffs, 1)
        self.offset = float(offset)

    # -- numeric form -------------------------------------------------------

    def assemble(self):
        """The dense form (A, b, c, starts, N): row i of A and c are hvec
        coefficients over N columns, and block b occupies the columns from
        starts[b] on. Columns are laid out by block size, sizes in order of
        first appearance and blocks of one size in their order, so each size
        group is one contiguous run of columns."""
        sizes = list(dict.fromkeys(self.blocks))
        starts = [0] * len(self.blocks)
        N = 0
        for bid in sorted(range(len(self.blocks)),
                          key=lambda i: sizes.index(self.blocks[i])):
            starts[bid] = N
            N += self.blocks[bid] ** 2
        if N == 0:
            raise ProgramError("program has no variables")
        b = np.concatenate([rhs for _, rhs in self.rows] + [np.zeros(0)])
        A = np.zeros((len(b), N))
        i = 0
        for rows, rhs in self.rows:
            for bid, v in rows.items():
                A[i:i + len(rhs), starts[bid]:starts[bid] + v.shape[1]] = v
            i += len(rhs)
        c = np.zeros(N)
        for bid, v in self.obj.items():
            c[starts[bid]:starts[bid] + v.shape[1]] = v[0]
        return A, b, c, starts, N


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveOptions:
    gap_tol: float | None = None     # None: QBAYES_GAP_TOL env or GAP_TOL

    def __post_init__(self):
        if self.gap_tol is not None and not _positive_finite(self.gap_tol):
            raise ValueError(f"gap_tol must be finite and positive, got {self.gap_tol!r}")

    def resolved_gap_tol(self) -> float:
        if self.gap_tol is not None:
            return self.gap_tol
        env = os.environ.get(GAP_TOL_ENV)
        if env:
            try:
                tol = float(env)
            except ValueError:
                tol = np.nan
            if _positive_finite(tol):
                return tol
            warnings.warn(f"ignoring {GAP_TOL_ENV}={env!r}: "
                          "not a finite positive number")
        return GAP_TOL


def _positive_finite(x: float) -> bool:
    return bool(np.isfinite(x) and x > 0)


@dataclass(frozen=True)
class ConicSolution:
    """Solve outcome; `gap` and feasibility residuals are the scaled measures
    the optimality test used."""

    status: str                      # optimal | infeasible | unbounded | numerical-failure
    primal_value: float
    dual_value: float
    gap: float
    feas_primal: float
    feas_dual: float
    variable_values: tuple
    y: np.ndarray
    iterations: int


def _ct(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return M.conj().swapaxes(-1, -2)


def _factor_psd(X: np.ndarray) -> np.ndarray:
    """Full-rank factors L with L L^dag = X for a (K, k, k) stack: cholesky,
    or eigh with a floored spectrum when some matrix is not positive definite."""
    try:
        return npl.cholesky(X)
    except npl.LinAlgError:
        w, U = npl.eigh(hermitize(X))
        floor = np.maximum(w.max(axis=-1, keepdims=True), 1.0) * 1e-14
        return U * np.sqrt(np.maximum(w, floor))[..., None, :]


def _alpha_boundary(lam: np.ndarray, D: np.ndarray) -> float:
    """sup alpha with diag(lam) + alpha D >= 0 for every matrix of a stack:
    lam is (K, k) and positive, D a (..., K, k, k) Hermitian stack. These are
    the eigenvalues of diag(lam)^-1/2 D diag(lam)^-1/2, so nothing is solved."""
    h = lam ** -0.5
    wmin = npl.eigvalsh(D * h[..., :, None] * h[..., None, :])[..., 0].min()
    if wmin >= 0:
        return np.inf
    return 1.0 / (-wmin)


def _blocks(v: np.ndarray, k: int, cols: slice) -> np.ndarray:
    """The (..., K, k, k) stack of the K blocks of size k held in columns
    `cols` along the last axis of v."""
    return hmat(v[..., cols].reshape(v.shape[:-1] + (-1, k * k)), k)


def _congruence(groups, P, v: np.ndarray) -> np.ndarray:
    """hvec(P_b^dag hmat(v_b) P_b) for every block b along the last axis of v.

    `groups` lists (k, cols) per block size, cols the slice of columns its K
    blocks fill, in column order; P holds the matching (K, k, k) stacks.
    """
    return np.concatenate([
        hvec(_ct(Pk) @ _blocks(v, k, cols) @ Pk).reshape(v.shape[:-1] + (-1,))
        for (k, cols), Pk in zip(groups, P)], axis=-1)


def _corrector(groups, lams, dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """hvec(M) per block for the scaled steps dx, ds, where M solves
    diag(lam) o M = dX o dS with the Jordan product A o B = (AB + BA)/2:
    M_ij = (dX dS + dS dX)_ij / (lam_i + lam_j)."""
    out = []
    for (k, cols), lk in zip(groups, lams):
        X, S = _blocks(dx, k, cols), _blocks(ds, k, cols)
        out.append(hvec((X @ S + S @ X) / (lk[:, :, None] + lk[:, None, :])))
    return np.concatenate([v.reshape(-1) for v in out])


def solve(program: ConicProgram, options: SolveOptions | None = None) -> ConicSolution:
    """Run the homogeneous self-dual interior-point method on the program.

    Deterministic for fixed input and options. Status `optimal` certifies a
    relative duality gap <= gap_tol (measured against the reported value) and
    a scaled primal residual <= FEAS_TOL, with the dual residual under the
    DRES_GUARD ceiling; primal/dual infeasibility is reported from the
    embedding's certificates. A run whose step is blocked or that reaches
    MAX_ITERS returns `numerical-failure` carrying the best iterate seen;
    `iterations` counts every iteration taken.
    """
    gap_tol = (options or SolveOptions()).resolved_gap_tol()

    A, b, c, starts, N = program.assemble()
    p = A.shape[0]
    nu = sum(program.blocks)
    bnorm = 1.0 + (np.abs(b).max() if p else 0.0)
    cnorm = 1.0 + (np.abs(c).max() if N else 0.0)

    # the blocks of each size fill one run of columns (see assemble), so
    # every per-block step below is one batched call per distinct size k
    groups = []
    for k in dict.fromkeys(program.blocks):
        st = starts[program.blocks.index(k)]
        groups.append((k, slice(st, st + program.blocks.count(k) * k * k)))

    # interior start: identity in every block, tau = kappa = 1
    x = np.zeros(N)
    for k, cols in groups:
        x[cols].reshape(-1, k * k)[:] = hvec(np.eye(k))
    s = x.copy()
    y = np.zeros(p)
    tau, kappa = 1.0, 1.0

    def final(status, iters, xv, yv, sv, tv, meas):
        pres, dres, gap, pobj, dobj = meas
        xh = xv / tv
        return ConicSolution(
            status=status,
            primal_value=pobj + program.offset,
            dual_value=dobj + program.offset,
            gap=gap, feas_primal=pres, feas_dual=dres,
            variable_values=tuple(hmat(xh[st:st + k * k], k)
                                  for k, st in zip(program.blocks, starts)),
            y=yv / tv, iterations=iters)

    best = None   # (score, x, y, s, tau, measures) of the best iterate so far

    def failure(iters):
        return final("numerical-failure", iters, *best[1:])

    for it in range(MAX_ITERS):
        # the one product with A and the one with A^T of this iterate: the
        # residuals, the measures of x/tau, y/tau and the certificates use them
        Ax, ATy = A @ x, A.T @ y
        cx = float(c @ x)
        by = float(b @ y) if p else 0.0
        r_p = Ax - b * tau
        r_d = ATy + s - c * tau
        pres = (np.abs(r_p).max() / (tau * bnorm)) if p else 0.0
        dres = np.abs(r_d).max() / (tau * cnorm)
        pobj, dobj = cx / tau, by / tau
        # the gap is measured against the reported value, offset included
        gap = abs(pobj - dobj) / max(1.0, abs(pobj + program.offset))
        meas = pres, dres, gap, pobj, dobj
        score = max(pres, dres, gap)
        if best is None or score < best[0]:
            best = (score, x.copy(), y.copy(), s.copy(), tau, meas)
        if pres <= FEAS_TOL and dres <= DRES_GUARD and gap <= gap_tol:
            return final("optimal", it, x, y, s, tau, meas)

        # certificates from the embedding
        if by > 0 and np.abs(ATy + s).max() <= FEAS_TOL * by:
            return final("infeasible", it, x, y, s, tau, meas)
        if cx < 0 and (np.abs(Ax).max() if p else 0.0) <= FEAS_TOL * (-cx):
            return final("unbounded", it, x, y, s, tau, meas)

        mu = (float(x @ s) + tau * kappa) / (nu + 1)

        # NT scaling per block: with X = L L^dag and L^dag S L = U diag(w) U^dag,
        # R = L U diag(w)^-1/4 gives W = R R^dag and R^-1 X R^-dag = R^dag S R
        # = diag(lam), lam = w^1/2. The step is computed in that frame, where
        # A~_i = R^dag A_i R, the Schur complement is A~ A~^T and both iterates
        # are the diagonal lam (hvec coordinates in `lam`, per group in `lams`)
        R, lams = [], []
        lam = np.zeros(N)
        prox0 = tau * kappa / mu
        for k, cols in groups:
            L = _factor_psd(_blocks(x, k, cols))
            w, U = npl.eigh(hermitize(_ct(L) @ _blocks(s, k, cols) @ L))
            if w[:, 0].min() <= 0:
                return failure(it)
            prox0 = min(prox0, w[:, 0].min() / mu)
            R.append((L @ U) * w[:, None, :] ** -0.25)
            lams.append(np.sqrt(w))
            lam[cols].reshape(-1, k * k)[:, :k] = lams[-1]
        laminv = np.divide(1.0, lam, out=np.zeros(N), where=lam > 0)

        r_g = cx - by + kappa

        # eliminate the cone step: LU lives on the (p + 1) system in (dy, dtau)
        A_sc = _congruence(groups, R, A)
        c_sc = _congruence(groups, R, c)
        rd_sc = A_sc.T @ y + lam - c_sc * tau
        q = p + 1
        M2 = np.zeros((q, q))
        M2[:p, :p] = A_sc @ A_sc.T
        v1 = A_sc @ c_sc
        M2[:p, p] = -(v1 + b)
        M2[p, :p] = b - v1
        M2[p, p] = float(c_sc @ c_sc) + kappa / tau
        # equilibrate before factoring: near a degenerate optimum the rows
        # span many orders of magnitude, which starves the small pivots; the
        # tiny shift on the balanced matrix is corrected by refinement below
        rscale = 1.0 / np.maximum(np.abs(M2).max(axis=1), 1e-300)
        M2s = M2 * rscale[:, None]
        cscale = 1.0 / np.maximum(np.abs(M2s).max(axis=0), 1e-300)
        M2s = M2s * cscale[None, :]
        M2s[np.diag_indices(q)] += 1e-14
        if not np.isfinite(M2s).all():
            return failure(it)
        lu, piv, info = dgetrf(M2s)
        if info != 0:
            return failure(it)

        def reduced_solve(r1, r2, r3):
            rhs2 = np.concatenate([r2 + A_sc @ r1, [r3 - float(c_sc @ r1)]])
            sol2 = cscale * dgetrs(lu, piv, rscale * rhs2)[0]
            dy = sol2[:p]
            dtau = float(sol2[p])
            return A_sc.T @ dy - c_sc * dtau - r1, dy, dtau

        def newton(sigma: float, eta: float, soc=0.0, soc_tk: float = 0.0):
            """The scaled step (dx~, dy, dtau, ds~, dkappa), with the
            corrector terms soc (cone, hvec) and soc_tk (tau kappa)."""
            Rc = sigma * mu * laminv - lam - soc
            r1 = -eta * rd_sc - Rc
            r2 = -eta * r_p
            r3 = eta * r_g + (sigma * mu - tau * kappa - soc_tk) / tau
            # the solve, then two rounds of iterative refinement: near the
            # optimum the Schur complement is so ill-conditioned that after one
            # round the primal equation can be off by more than the residual
            # the step targets, which stalls solves short of a 1e-10 gap
            dx, dy, dtau = np.zeros(N), np.zeros(p), 0.0
            for _ in range(3):
                fx, fy, ftau = reduced_solve(
                    r1 - (A_sc.T @ dy - c_sc * dtau - dx),
                    r2 - (A_sc @ dx - b * dtau),
                    r3 - (-float(c_sc @ dx) + float(b @ dy) + (kappa / tau) * dtau))
                dx, dy, dtau = dx + fx, dy + fy, dtau + ftau
            ds = Rc - dx
            dkappa = (sigma * mu - tau * kappa - soc_tk - kappa * dtau) / tau
            return dx, dy, dtau, ds, dkappa

        def boundary(dx, ds, dtau, dkappa) -> float:
            if not (np.isfinite(dx).all() and np.isfinite(ds).all()
                    and np.isfinite(dtau) and np.isfinite(dkappa)):
                return 0.0
            alpha = np.inf
            if dtau < 0:
                alpha = min(alpha, tau / -dtau)
            if dkappa < 0:
                alpha = min(alpha, kappa / -dkappa)
            dxs = np.stack([dx, ds])
            for (k, cols), lk in zip(groups, lams):
                alpha = min(alpha, _alpha_boundary(lk, _blocks(dxs, k, cols)))
            return alpha

        # wide-neighborhood guard: a step is admitted only while every
        # complementarity eigenvalue stays >= gamma * mu of the new point.
        # X S is similar to the product of the scaled iterates, so the test
        # runs in the scaled frame
        gamma = min(PROX_GAMMA, 0.9 * prox0)

        def centered(al, dx, ds, dtau, dkappa) -> bool:
            tk = (tau + al * dtau) * (kappa + al * dkappa)
            xp = lam + al * dx
            sp = lam + al * ds
            mup = (float(xp @ sp) + tk) / (nu + 1)
            if not np.isfinite(mup) or mup <= 0 or tk < gamma * mup:
                return False
            for k, cols in groups:
                try:
                    Lc = npl.cholesky(_blocks(xp, k, cols))
                except npl.LinAlgError:
                    return False
                if npl.eigvalsh(_ct(Lc) @ _blocks(sp, k, cols) @ Lc)[:, 0].min() < gamma * mup:
                    return False
            return True

        # the affine predictor fixes the centering weight (floored: every
        # step recenters) and its second-order term dX~a o dS~a, divided
        # through the Jordan product with diag(lam), is the corrector
        dxa, _, dtaua, dsa, dkappaa = newton(0.0, 1.0)
        alpha_a = min(1.0, boundary(dxa, dsa, dtaua, dkappaa))
        mu_aff = (float((lam + alpha_a * dxa) @ (lam + alpha_a * dsa))
                  + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)) / (nu + 1)
        sigma = min(0.9999, max(SIGMA_MIN, max(0.0, (mu_aff / mu)) ** 3))

        dx, dy, dtau, ds, dkappa = newton(sigma, 1.0 - sigma,
                                          _corrector(groups, lams, dxa, dsa),
                                          dtaua * dkappaa)
        alpha = min(1.0, STEP_FRAC * boundary(dx, ds, dtau, dkappa))
        while alpha > 1e-10 and not centered(alpha, dx, ds, dtau, dkappa):
            alpha *= 0.8
        if not np.isfinite(alpha) or alpha <= 1e-10:
            return failure(it)

        # map the accepted step back: dX = R dX~ R^dag, and dS from the dual
        # equation A^T dy + dS - c dtau = -eta r_d in the original coordinates,
        # so r_d shrinks by (1 - alpha eta); R^-dag dS~ R^-1 drifts from that
        # equation once R is ill-conditioned near the optimum
        x = x + alpha * _congruence(groups, [_ct(Rk) for Rk in R], dx)
        s = s + alpha * (-(1.0 - sigma) * r_d - A.T @ dy + c * dtau)
        y = y + alpha * dy
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkappa
        if tau <= 0 or kappa < 0 or not np.isfinite(x).all():
            return failure(it + 1)

    return failure(MAX_ITERS)


def solve_or_raise(program: ConicProgram, options: SolveOptions | None = None,
                   what: str = "SDP") -> ConicSolution:
    """solve(), raising SolverFailureError unless the status is `optimal`."""
    sol = solve(program, options)
    if sol.status != "optimal":
        raise SolverFailureError(f"{what} ended with status {sol.status}", sol)
    return sol


# ---------------------------------------------------------------------------
# The weighted trace-norm identity and its SDP twin
# ---------------------------------------------------------------------------

def holevo_lemma_value(W: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    """Closed form Tr(W A) + TrAbs(W B), W symmetric > 0, A symmetric, B antisymmetric.

    Equals min{Tr(W V) : V real symmetric, V >= A + iB}; the agreement is a
    property test against holevo_lemma_sdp_value. The trace-norm term is
    evaluated through the PSD congruence (singular values of sqrt(W) B
    sqrt(W)), which never forms a non-normal eigenproblem.
    """
    W = np.asarray(W, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if npl.eigvalsh((W + W.T) / 2)[0] <= 0:
        raise ValueError("weight matrix must be strictly positive")
    return float(np.trace(W @ A)) + weighted_trace_abs(W, B)


def holevo_lemma_sdp_value(W: np.ndarray, A: np.ndarray, B: np.ndarray,
                           options: SolveOptions | None = None) -> ConicSolution:
    """min Tr(W V) over real symmetric V >= A + iB, as one Hermitian-block SDP.

    The variable is Z = V - A - iB >= 0; realness of V pins the imaginary
    hvec coordinates of Z to those of -iB, and the objective is
    <W, Z> + Tr(W A).
    """
    W = np.asarray(W, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    k = W.shape[0]
    prog = ConicProgram()
    z = prog.add_psd_block(k)
    im = slice(k * (k + 1) // 2, k * k)
    prog.add_eq({z: hvec_basis(k)[im]}, rhs=hvec(-1j * B)[im])
    prog.set_objective({z: W}, offset=float(np.trace(W @ A)))
    return solve(prog, options)


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
                       sizes: tuple = (2, 3, 4),
                       options: SolveOptions | None = None) -> list[dict]:
    """Closed form vs SDP on random triples; one result dict per trial.

    Each dict carries both values, their absolute difference, and the solve
    status; CLI `lemmas` and the acceptance run both consume this.
    """
    rng = np.random.default_rng(seed)
    out = []
    for t in range(trials):
        k = int(sizes[t % len(sizes)])
        W, A, B = random_lemma_triple(rng, k)
        closed = holevo_lemma_value(W, A, B)
        sol = holevo_lemma_sdp_value(W, A, B, options)
        out.append({
            "trial": t, "dim": k,
            "closed_form": closed,
            "sdp_value": sol.primal_value,
            "abs_diff": abs(closed - sol.primal_value),
            "status": sol.status,
        })
    return out
