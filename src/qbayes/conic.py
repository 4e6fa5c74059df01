"""Small dense semidefinite programming with a deterministic interior-point solver.

Programs are equality-constrained over Hermitian PSD blocks only:
min sum_b <C_b, X_b> subject to sum_b <A_ib, X_b> = b_i, X_b >= 0.
Inequalities are the caller's job via slack blocks. A linear matrix
inequality F0 + sum_i z_i F_i >= 0 with objective g . z is the dual of the
program whose objective is F0 and whose row i has coefficients F_i and rhs
g_i: the solver's dual vector is y = -z, read from `sol.y`, and
`sol.dual_value` is -g . z plus the offset. The solver is Mehrotra's
predictor-corrector method on the homogeneous self-dual embedding with
Nesterov-Todd scaling, so infeasibility is certified rather than diverged
on. The Schur system is factored with NumPy alone: a Cholesky factor of the
row-scaled Schur block, formed in place in its own buffer one leaf column of
TRI_LEAF at a time, each diagonal leaf replaced there by its inverse and the
upper triangle never read. It is applied by forward and backward
substitution one leaf at a time, with the tau row and column eliminated
through a scalar Schur complement. `assemble` lays the
columns out by block size, so the blocks of one size fill one contiguous run
and are read as one (K, k, k) stack, and every per-block step is one batched
call per distinct size over the size groups it returns.

Each iteration works in the NT-scaled frame. Per block, with X = L L^dag and
L^dag S L = U diag(w) U^dag, the factor R = L U diag(w)^-1/4 gives the NT
scaling W = R R^dag, and R^-1 X R^-dag = R^dag S R = diag(lam), lam = w^1/2.
`assemble` gives A as its nonzeros (`Rows`), never as a dense array, and
A x, A^T y and A^T dy are sums over them. In that frame the Schur block is
M = A~ A~^T, A~_ib = R_b^dag A_ib R_b, so M_ij = sum_b Tr(A_ib W_b A_jb W_b).

A sub-block pin (`add_pins`) is d^2 rows whose coefficients are the hvec
basis E_u of a d x d sub-block at fixed places, so the Schur block of two
pins is read off W alone (Fujisawa, Kojima and Nakata, Math. Program. 79,
1997): M[F u, F' v] = sum Re f f' Tr(E_u X E_v Y) over their places on one
block, X and Y d x d sub-blocks of W, an O(d^4) batched product and fixed
gathers per pair of pins (`_schur_block`). The other rows are scaled, A~_g,
into one buffer and give A~_g A~_g^T, and their terms with the pins
A_pins hvec(R hmat(a~_g) R^dag). `_schur_plan` splits the rows so once per
solve, and each iteration builds its block with one `_schur_block` call.
The split decides that block and two products, A~ v and A~^T v; the rest
of an iteration (A~^T y, A~ c~ and the frames of each Newton refinement)
is written once over them. With pins each is a congruence and a product
with A: A~ v = A hvec(R hmat(v) R^dag), A~^T v = hvec(R^dag hmat(A^T v) R);
so an iteration holds the p x p block, factored in place, and the scaled
rows of the rows that are not pins. A split with no pins, which a block of
one leaf (p <= TRI_LEAF) always gets, scales every row: M = A~ A~^T of the
buffer, and each product is one matrix product with it, cheaper at one
leaf than a congruence (notes/decisions.md). Should a factor read off W
fail, near a degenerate optimum where its sums of products of W's entries
lose the digits a pivot needs, the rows are split again with no pins, and
the rest of the solve builds A~ A~^T, a Gram matrix.

Only the touched (row, block) pairs of scaled rows, those with A_ib
nonzero, are scaled; the others stay 0. A touched coefficient reaches only
the indices S of its nonzero rows, read once per solve from the nonzeros of
A, so A~_ib = R[S]^dag A_ib[S, S] R[S] with s rows of R in place of k. The
pairs are scaled TRI_LEAF at a time, each chunk padded only to its own
widest support, so Holevo's one dense cap row widens only the chunk it is
in. c keeps the k x k congruence hvec(R^dag hmat(c) R). The Newton
system and the step to the cone boundary then see only the diagonal lam. So
the corrector, the affine step's V = dX~ o dS~ (A o B = (AB + BA)/2),
enters the right-hand side as M_ij = 2 V_ij / (lam_i + lam_j), the closed-form solution of
diag(lam) o M = V, and reuses the affine step's factorization. The accepted
step goes back as dX = R dX~ R^dag, and dS is read from the dual equation in
the original coordinates.

The tau pivot c~.c~ + kappa/tau + (b - v1)^T M^-1 (v1 + b), v1 = A~ c~,
M = A~ A~^T + SCHUR_SHIFT D^-2 as factored, has first and last terms that
near the optimum are huge, opposite, and can cancel to 0.0. It is summed as
r.r + SCHUR_SHIFT |w1 / dinv|^2 + b.wb + kappa/tau, with w1 = M^-1 v1 and
wb = M^-1 b from one two-column substitution and r = c~ - A~^T w1: the same
value in exact arithmetic, every term >= 0.

A k x k Hermitian block lives in isometric real coordinates (`hvec`): the
diagonal, then sqrt2 Re and sqrt2 Im of the strict upper triangle, k^2 numbers
whose dot product is the trace inner product. Constraint rows and the
objective are validated when added and stored in these coordinates, the rows
as their nonzero coordinates and values only.
`hvec_basis(k)` is the (k^2, k, k) stack E with Tr(E[i] H) = hvec(H)[i].
`add_eq` takes an (r, k, k) coefficient stack with an rhs of length r as r
rows, and `add_pins` the places of a sub-block pin, whose nonzeros it reads
off index maps with no coefficient stack formed.

Real-symmetric data needs no block kind of its own: a program with real
coefficients is invariant under complex conjugation, and so is its central
path from the identity start, so its optimum is real on the Hermitian block.

Every solve runs one iteration path with fixed parameters and one step rule:
STEP_FRAC of the way to the cone boundary, at most a full step. No
neighbourhood test is run; the fraction keeps the iterates interior, and such
a test cut no step in 18 127 measured iterations (notes/decisions.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

import numpy as np
import numpy.linalg as npl

from .matcore import HERM_TOL, SQRT2, check_hermitian, hermitize

GAP_TOL = 1e-8       # relative duality gap at optimality
FEAS_TOL = 1e-8      # scaled primal residual at optimality
DRES_GUARD = 1e-6    # sanity ceiling on the scaled dual residual; typical
                     # solves land near 1e-12, but degenerate endgames can
                     # float around 1e-8 while gap and primal residual converge
MAX_ITERS = 200
STEP_FRAC = 0.98     # fraction of the step to the cone boundary
SIGMA_MIN = 0.05     # keeps every step at least mildly centering
REFINE_TOL = 1e-12   # reduced residual, relative to its right-hand side, at
                     # which a Newton solve stops refining
TRI_LEAF = 64        # (row, block) pairs per chunk of the row scaling, rows
                     # per diagonal leaf of the Schur factor (a Schur block
                     # of one leaf reads no pin off W), and
                     # TRI_LEAF^2 entries per chunk of pin pairs
SCHUR_SHIFT = 1e-14  # added to the unit diagonal of the row-scaled Schur block


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


@lru_cache(maxsize=None)
def _basis_nonzeros(d: int):
    """(u, a, b, e): the nonzeros E[u, a, b] = e of hvec_basis(d), one for
    a diagonal element and two for any other, in order of u."""
    E = hvec_basis(d)
    u, a, b = np.nonzero(E)
    return u, a, b, E[u, a, b]


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------

class Rows(NamedTuple):
    """The nonzeros of a (p, N) matrix A, in row-major order: A[rows[t],
    cols[t]] = vals[t], and every entry not listed is 0."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple


class Pins(NamedTuple):
    """The d^2 rows of one `add_pins` call, from row `row` on, and its
    places: per place, the first column of its block's hvec coordinates
    (`start`, which is also where its block starts in any (N,) array laid out
    like the columns, k^2 entries row-major), the block's size `dim`, the
    sub-block's offsets `r` and `c` and its factor `f`."""

    row: int
    d: int
    start: np.ndarray
    dim: np.ndarray
    r: np.ndarray
    c: np.ndarray
    f: np.ndarray


class ConicProgram:
    """Equality-form conic program over Hermitian PSD blocks.

    Constraints and the objective are real linear functionals given by one
    Hermitian coefficient matrix per referenced block (contributing <C, X>).
    Coefficients are validated when added and kept as hvec rows, the
    constraint rows as their nonzeros only.
    """

    def __init__(self):
        self.blocks: list[int] = []     # block dimensions
        # ({block: (rows, columns, values) of the nonzeros of its (r, dim^2)
        # hvec rows}, rhs (r,), the places (blocks, rows, columns, factors)
        # of a pin or None)
        self.rows: list[tuple] = []
        self.obj: dict = {}             # {block: (1, dim^2) hvec row}
        self.offset = 0.0

    def add_psd_block(self, dim: int) -> int:
        """Add a dim x dim block, dim an integer >= 1 (a bool is not one)."""
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ProgramError(f"block dimension {dim!r} is not an integer >= 1")
        self.blocks.append(int(dim))
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

    @staticmethod
    def _rhs(rhs) -> np.ndarray:
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if rhs.ndim != 1 or not np.isfinite(rhs).all():
            raise ProgramError(f"rhs {rhs!r} is not a finite vector")
        return rhs

    def add_eq(self, coeffs: dict | None = None, rhs=0.0) -> None:
        """Add the equality  sum_b <C_b, X_b> = rhs, or, with (r, dim, dim)
        coefficient stacks and an rhs of length r, r such rows at once."""
        rhs = self._rhs(rhs)
        nonzeros = {}
        for bid, v in self._hvec_rows(coeffs, len(rhs)).items():
            r, j = np.nonzero(v)
            nonzeros[bid] = r, j, v[r, j]
        self.rows.append((nonzeros, rhs, None))

    def add_pins(self, places, rhs) -> None:
        """Add the d^2 rows of a sub-block pin, d^2 = len(rhs): row u has
        the coefficient sum_t f_t E[u] at rows r_t..r_t+d and columns
        c_t..c_t+d of block b_t, E = hvec_basis(d), over the places
        (b_t, r_t, c_t, f_t), and zero elsewhere. Each place off the
        diagonal (r != c) needs its mirror (b, c, r, conj f), and a place on
        it a real f, so that every row is Hermitian; the sub-blocks of one
        block may not overlap. The nonzeros are read off index maps, so no
        coefficient matrix is formed."""
        rhs = self._rhs(rhs)
        d = isqrt(len(rhs))
        if d < 1 or d * d != len(rhs):
            raise ProgramError(f"a pin needs d^2 > 0 rows, got {len(rhs)}")
        places = [(int(bid), int(r), int(c), complex(f)) for bid, r, c, f in places]
        if not places:
            raise ProgramError("a pin needs at least one place")
        spans = {}
        for bid, r, c, f in places:
            if not 0 <= bid < len(self.blocks):
                raise ProgramError(f"unknown block {bid}")
            if not (0 <= min(r, c) and max(r, c) + d <= self.blocks[bid]
                    and np.isfinite(f)):
                raise ProgramError(f"place {(bid, r, c, f)} does not fit a "
                                   f"{d} x {d} pin on a block of dim "
                                   f"{self.blocks[bid]}")
            for r0, c0, _ in spans.setdefault(bid, []):
                if abs(r - r0) < d and abs(c - c0) < d:
                    raise ProgramError(f"block {bid}: pins at {(r0, c0)} and "
                                       f"{(r, c)} overlap")
            spans[bid].append((r, c, f))
        for bid, r, c, f in places:
            mirror = [g for r0, c0, g in spans[bid] if (r0, c0) == (c, r)]
            if not mirror or abs(mirror[0] - np.conj(f)) > HERM_TOL * max(1.0, abs(f)):
                raise ProgramError(f"block {bid}: the pin at {(r, c)} has no "
                                   "Hermitian mirror")
        blocks, r, c, f = (np.array(col) for col in zip(*places))
        # every place's entries f E[u][a, b] at (i, j) = (r + a, c + b); the
        # diagonal and the upper triangle hold the row's hvec coordinates
        u, a, b, e = _basis_nonzeros(d)
        k = np.array(self.blocks)[blocks][:, None]
        i, j, v = r[:, None] + a, c[:, None] + b, f[:, None] * e
        upper = i < j
        q = np.where(upper, k + i * k - i * (i + 1) // 2 + j - i - 1, i)
        on, u = np.broadcast_arrays(blocks[:, None], u)
        kept = [i <= j, upper]
        rows, at = (np.concatenate([x[m] for m in kept]) for x in (u, on))
        cols = np.concatenate([q[i <= j], (q + k * (k - 1) // 2)[upper]])
        vals = np.concatenate([(np.where(upper, SQRT2, 1.0) * v.real)[i <= j],
                               SQRT2 * v.imag[upper]])
        nonzeros = {}
        for bid in spans:
            m = (at == bid) & (vals != 0)
            nonzeros[bid] = rows[m], cols[m], vals[m]
        self.rows.append((nonzeros, rhs, (blocks, r, c, f)))

    def set_objective(self, coeffs: dict | None = None,
                      offset: float = 0.0) -> None:
        """Minimize  sum_b <C_b, X_b> + offset."""
        if not np.isfinite(offset):
            raise ProgramError(f"offset {offset!r} is not finite")
        self.obj = self._hvec_rows(coeffs, 1)
        self.offset = float(offset)

    # -- numeric form -------------------------------------------------------

    def assemble(self):
        """The numeric form (A, b, c, starts, groups, pins): A is `Rows`,
        the nonzeros of the (p, N) matrix whose row i, like c, holds hvec
        coefficients over N columns, and block b occupies the columns from
        starts[b] on. Columns are laid out by block size, sizes in order of
        first appearance and blocks of one size in their order, so each size
        group is one contiguous run of columns: `groups` lists (k, cols) per
        distinct size k, cols the slice of the columns its blocks fill.
        `pins` lists a `Pins` per `add_pins` call, in row order."""
        starts = [0] * len(self.blocks)
        groups = []
        N = 0
        for k in dict.fromkeys(self.blocks):
            lo = N
            for bid, dim in enumerate(self.blocks):
                if dim == k:
                    starts[bid] = N
                    N += k * k
            groups.append((k, slice(lo, N)))
        if N == 0:
            raise ProgramError("program has no variables")
        b = np.concatenate([rhs for _, rhs, _ in self.rows] + [np.zeros(0)])
        parts = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)]
        pins = []
        i = 0
        for nonzeros, rhs, places in self.rows:
            for bid, (r, j, v) in nonzeros.items():
                parts.append((r + i, j + starts[bid], v))
            if places is not None:
                bids, r, c, f = places
                dims = np.array(self.blocks, dtype=np.intp)[bids]
                pins.append(Pins(i, isqrt(len(rhs)),
                                 np.array(starts, dtype=np.intp)[bids], dims, r, c, f))
            i += len(rhs)
        rows, cols, vals = map(np.concatenate, zip(*parts))
        # row-major (distinct keys); the default kind cost small runs 0.3 MB RSS
        order = np.argsort(rows * N + cols, kind="stable")
        A = Rows(rows[order], cols[order], vals[order], (len(b), N))
        c = np.zeros(N)
        for bid, v in self.obj.items():
            c[starts[bid]:starts[bid] + v.shape[1]] = v[0]
        return A, b, c, starts, groups, pins


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

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
    blocks fill, in column order; P holds the matching (..., K, k, k)
    stacks, whose leading axes broadcast against those of v.
    """
    out = [hvec(_ct(Pk) @ _blocks(v, k, cols) @ Pk) for (k, cols), Pk in zip(groups, P)]
    out = [o.reshape(o.shape[:-2] + (-1,)) for o in out]
    return out[0] if len(out) == 1 else np.concatenate(out, axis=-1)


def _times(A: Rows, v: np.ndarray, transpose: bool = False) -> np.ndarray:
    """A v summed over the nonzeros of A, each a_ij v[j] into entry i, or
    A^T v with `transpose`, each a_ij v[i] into entry j."""
    i, j = (A.cols, A.rows) if transpose else (A.rows, A.cols)
    return np.bincount(i, weights=A.vals * v[j], minlength=A.shape[transpose])


def _row_supports(groups, A: Rows) -> list:
    """Per size group, its touched (row, block) pairs, those with A_ib
    nonzero, in row order and in chunks of TRI_LEAF. A chunk is (at, S,
    C[S, S]). `at` = (rows, blocks) indexes its P pairs in the (p, K, k^2)
    view of the group's scaled rows. S (P, s) holds the indices each pair's
    coefficient touches (its nonzero rows, which are its nonzero columns) as
    flat rows of the group's (K k, k) stack of R, padded with untouched
    indices to the chunk's widest support s, and C[S, S] is (P, s, s). All
    is read off the nonzeros of the p rows of A, in their row-major order:
    a nonzero hvec coordinate sets the entry (a, b) of C and its mirror
    (b, a), at the places of a and b in S, with hmat's scales.
    """
    rows, cols, vals, _ = A
    out = []
    for k, span in groups:
        K = (span.stop - span.start) // (k * k)   # from span: p may be 0
        vec_idx, _, _, mat_scale = _gather_maps(k)
        ends = np.divmod(vec_idx // 2, k)   # the entry (a, b) each coordinate sets
        inside = (cols >= span.start) & (cols < span.stop)
        i = rows[inside]
        blk, coord = np.divmod(cols[inside] - span.start, k * k)
        a, b = (end[coord] for end in ends)
        im = vec_idx[coord] % 2             # the real (0) or imaginary (1) part
        v = vals[inside] * mat_scale[vec_idx[coord]]
        vt = np.where(im, -v, v)            # the value of the mirror (b, a)
        # row-major nonzeros come in (row, block) order, so each touched
        # pair is one run of them, from first[j] on; q numbers their pairs
        pair = i * K + blk
        new = np.ones(len(pair), dtype=bool)
        np.not_equal(pair[1:], pair[:-1], out=new[1:])
        first = np.flatnonzero(new)
        q = np.cumsum(new) - 1
        P = len(first)
        touched = np.zeros((P, k), dtype=bool)
        touched[q, a] = touched[q, b] = True
        width = touched.sum(axis=-1)
        S = np.argsort(~touched, axis=-1, kind="stable")
        place = np.cumsum(touched, axis=-1) - 1     # of each touched index in S
        qa, qb = place[q, a], place[q, b]
        prow, pblk = i[first], blk[first]
        chunks = []
        for lo in range(0, P, TRI_LEAF):
            hi = min(lo + TRI_LEAF, P)
            s = width[lo:hi].max()
            m = slice(first[lo], first[hi] if hi < P else None)  # its nonzeros
            CS = np.zeros((hi - lo, s, s, 2))   # re and im of each C[S_a, S_b]
            CS[q[m] - lo, qa[m], qb[m], im[m]] = v[m]
            CS[q[m] - lo, qb[m], qa[m], im[m]] = vt[m]
            chunks.append(((prow[lo:hi], pblk[lo:hi]),
                           S[lo:hi, :s] + k * pblk[lo:hi, None],
                           CS.view(complex)[..., 0]))
        out.append(chunks)
    return out


def _scaled_rows(groups, R, supports, out: np.ndarray) -> np.ndarray:
    """hvec(R_b^dag A_ib R_b) for every touched row i and block b, written
    into the (p, N) buffer `out` one chunk of `_row_supports` at a time and
    returned. Each is formed as R[S]^dag C[S, S] R[S] over the pair's
    support S: exact, since the entries of A_ib outside S are zero. The
    untouched pairs, whose A_ib is zero, are not written, so `out` must
    hold zeros there."""
    for (k, cols), Rk, chunks in zip(groups, R, supports):
        Rrows = Rk.reshape(-1, k)
        pairs = out[:, cols].reshape(len(out), len(Rk), k * k)  # a view of out
        for at, S, CS in chunks:
            RS = Rrows[S]                   # (P, s, k): the rows S of R
            pairs[at] = hvec(_ct(RS) @ CS @ RS)
    return out


def _corrector(groups, lams, dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """hvec(M) per block for the scaled steps dx, ds, where M solves
    diag(lam) o M = dX o dS with the Jordan product A o B = (AB + BA)/2:
    M_ij = (dX dS + dS dX)_ij / (lam_i + lam_j)."""
    out = []
    for (k, cols), lk in zip(groups, lams):
        X, S = _blocks(dx, k, cols), _blocks(ds, k, cols)
        out.append(hvec((X @ S + S @ X) / (lk[:, :, None] + lk[:, None, :])))
    return np.concatenate([v.reshape(-1) for v in out])


@lru_cache(maxsize=None)
def _pair_maps(d: int):
    """(diag, i, j): the flat places i * d + i of the diagonal of a d x d
    matrix, and i and j over its strict upper triangle, in hvec order."""
    iu, ju = np.triu_indices(d, 1)
    return np.arange(d) * (d + 1), iu, ju


@lru_cache(maxsize=None)
def _pin_scale(d: int, d2: int) -> np.ndarray:
    """(d^2, 1, d2^2): the hvec scales of E_u and E_v, 1 on the diagonal
    and 1/sqrt2 off it, multiplied."""
    def scale(n):
        return np.concatenate([np.ones(n), np.full(n * (n - 1), 1 / SQRT2)])
    return scale(d)[:, None, None] * scale(d2)


def _pin_plan(pins) -> list:
    """The pin pairs of a program, per chunk (d, d2, X, Y, f, rows, cols).

    For pins F (size d) and F' (size d2, from F on) the Schur block is
    M[F u, F' v] = sum_tau Re f_tau Tr(E[u] X_tau E[v] Y_tau) over the place
    pairs tau = (t, t') on one block, f_tau = f_t f'_t', X_tau =
    W[c_t.., r'_t'..] (d x d2) and Y_tau = W[c'_t'.., r_t..] (d2 x d)
    sub-blocks of that block's W, E = hvec_basis. X (P, T, d d2) and Y (P,
    T, d2 d) index those sub-blocks in the (N,) array of every block's W,
    row-major; f is (P, T, 1), padded to the chunk's widest T with 0; rows
    (P, d^2) and cols (P, d2^2) are the rows of F and F' in M. Each chunk's
    K (`_schur_block`) holds at most TRI_LEAF^2 entries, or one pair.
    """
    if not pins:
        return []
    fam = np.concatenate([np.full(len(F.f), q) for q, F in enumerate(pins)])
    start, dim, r, c, f = (np.concatenate([getattr(F, n) for F in pins])
                           for n in ("start", "dim", "r", "c", "f"))
    size = np.array([F.d for F in pins])[fam]
    at = np.array([F.row for F in pins])
    # the place pairs on one block, F before F': their pair (F, F') in order
    t, t2 = np.nonzero((start[:, None] == start) & (fam[:, None] <= fam))
    plan = []
    for d, d2 in sorted(set(zip(size[t], size[t2]))):
        m = (size[t] == d) & (size[t2] == d2)
        ta, tb = t[m], t2[m]
        key, pair = np.unique(fam[ta] * len(pins) + fam[tb], return_inverse=True)
        order = np.argsort(pair, kind="stable")
        slot = np.empty(len(pair), dtype=np.intp)
        slot[order] = np.arange(len(pair)) - np.searchsorted(pair[order], pair[order])
        T = slot.max() + 1
        ar, ar2 = np.arange(d), np.arange(d2)
        k, st = dim[ta, None, None], start[ta, None, None]
        X = np.zeros((len(key), T, d * d2), dtype=np.intp)
        Y = np.zeros((len(key), T, d2 * d), dtype=np.intp)
        w = np.zeros((len(key), T, 1), dtype=complex)
        X[pair, slot] = (st + (c[ta, None, None] + ar[:, None]) * k
                         + r[tb, None, None] + ar2).reshape(len(ta), -1)
        Y[pair, slot] = (st + (c[tb, None, None] + ar2[:, None]) * k
                         + r[ta, None, None] + ar).reshape(len(ta), -1)
        w[pair, slot, 0] = f[ta] * f[tb]
        rows = at[key // len(pins), None] + np.arange(d * d)
        cols = at[key % len(pins), None] + np.arange(d2 * d2)
        step = max(1, TRI_LEAF ** 2 // (d * d2) ** 2)
        for lo in range(0, len(key), step):
            chunk = slice(lo, lo + step)
            plan.append((d, d2, X[chunk], Y[chunk], w[chunk], rows[chunk], cols[chunk]))
    return plan


def _schur_plan(A: Rows, groups, pins) -> tuple:
    """(plan, general) for `_schur_block`: the pin pairs (`_pin_plan`),
    and (rows, supports, buffer, pin nonzeros) for the rows that are not
    pins: their indices, the `_row_supports` of their own Rows, the buffer
    of their scaled rows, zeroed, and the nonzeros (rows, cols, vals) of
    the pin rows with the first of each row's run. With no pins the plan is
    empty and every row is scaled."""
    p, N = A.shape
    pinned = np.zeros(p, dtype=bool)
    for F in pins:
        pinned[F.row:F.row + F.d ** 2] = True
    on_pin = pinned[A.rows]
    rows = np.flatnonzero(~pinned)
    Ag = Rows((np.cumsum(~pinned) - 1)[A.rows[~on_pin]], A.cols[~on_pin],
              A.vals[~on_pin], (len(rows), N))
    prow = A.rows[on_pin]
    first = np.flatnonzero(prow != np.concatenate(([-1], prow[:-1])))
    return _pin_plan(pins), (rows, _row_supports(groups, Ag), np.zeros(Ag.shape),
                             (prow, A.cols[on_pin], A.vals[on_pin], first))


def _schur_block(p: int, plan, general, groups, R) -> np.ndarray:
    """The Schur block M = A~ A~^T, M_ij = sum_b Tr(A_ib W_b A_jb W_b), of
    a program whose pins `_pin_plan` lists and whose other rows `general`
    holds, for the NT factors R of its blocks. The pin pairs read the
    scalings W = R R^dag, formed here. Of each pair of pins only the block
    below the diagonal is written, as `_schur_factor` reads no other.

    A chunk of pin pairs is one batched product K[(a, c), (e, b)] =
    sum_tau f_tau X_tau[a, c] Y_tau[e, b], and M[u, v] = Re sum E[u][b, a]
    E[v][c, e] K[(a, c), (e, b)]. The sum over E[v] reads the diagonal of
    (c, e) and, over its upper triangle, the sum and difference of (c, e)
    and (e, c): hvec's diagonal, real and imaginary coordinates up to their
    scales and a factor i for the imaginary ones. The sum over E[u] reads
    (a, b) the same way, and the factors i turn real parts into imaginary
    ones. The other rows are scaled (`_scaled_rows`) and give A~_g A~_g^T,
    and their terms with pin rows are A_pins hvec(W C_g W), W C_g W =
    R hmat(a~_g) R^dag, TRI_LEAF rows at a time. With no pins (an empty plan)
    every row is scaled, M is A~ A~^T of the buffer and W is not formed.
    """
    rows, supports, Ag, (prow, pcol, pval, first) = general
    _scaled_rows(groups, R, supports, Ag)
    if not plan:
        return Ag @ Ag.T
    M = np.zeros((p, p))
    Wf = np.concatenate([(Rk @ _ct(Rk)).reshape(-1) for Rk in R])
    for d, d2, X, Y, f, u, v in plan:     # u, v: the rows of F and F' in M
        P = len(X)
        _, i, j = _pair_maps(d)
        dg2, i2, j2 = _pair_maps(d2)
        K = ((Wf[X] * f).swapaxes(1, 2) @ Wf[Y]).reshape(P, d, d2 * d2, d)
        up, lo = K[:, :, i2 * d2 + j2], K[:, :, j2 * d2 + i2]
        Z = np.concatenate([K[:, :, dg2], up + lo, up - lo], axis=2)
        # Z[:, a, v, b]; v's imaginary coordinates, from nv on, carry i
        nv, nu = d2 * (d2 + 1) // 2, d * (d + 1) // 2
        za, zb = Z[:, j, :, i], Z[:, i, :, j]             # (m, P, d2^2)
        B = np.empty((d * d, P, d2 * d2))
        diag = Z[:, np.arange(d), :, np.arange(d)]
        for out, z, turn in ((B[:d], diag, 0), (B[d:nu], za + zb, 0), (B[nu:], za - zb, 1)):
            # Re(i^turn z) on v's first nv coordinates, Re(i^(turn + 1) z)
            # on the others, as i^0 z, i z, i^2 z give Re z, -Im z, -Re z
            for part, q in ((slice(None, nv), turn), (slice(nv, None), turn + 1)):
                src = z[..., part].imag if q == 1 else z[..., part].real
                np.multiply(src, -1.0 if q else 1.0, out=out[..., part])
        B *= _pin_scale(d, d2)
        M[v[None, :, :], u.T[:, :, None]] = B
    M[np.ix_(rows, rows)] = Ag @ Ag.T
    # TRI_LEAF rows at a time, which bounds the congruence's stacks
    for lo in range(0, len(rows), TRI_LEAF):
        g = rows[lo:lo + TRI_LEAF]
        H = _congruence(groups, [_ct(Rk) for Rk in R], Ag[lo:lo + TRI_LEAF])
        cross = np.add.reduceat(H[:, pcol] * pval, first, axis=1)
        M[np.ix_(prow[first], g)] = cross.T
        M[np.ix_(g, prow[first])] = cross
    return M


def _schur_factor(M: np.ndarray):
    """The factor (dinv, L) of the Schur block M, with
    D M D + SCHUR_SHIFT I = C C^T for D = diag(dinv) and C lower triangular,
    or None when M has a non-finite diagonal or is not numerically positive
    definite. L is M itself, overwritten: it holds C's strictly lower blocks
    and, in place of each diagonal leaf of C, of at most TRI_LEAF rows, that
    leaf's inverse; the rest of L, M's upper triangle, is never read.

    D scales the rows of A~ to unit norm, so D M D has unit diagonal; near a
    degenerate optimum the rows span many orders of magnitude, which would
    starve the small pivots. A row of zeros keeps the scale 1, so its pivot
    is the shift alone. The tiny shift, which lets dependent rows factor,
    is corrected by the refinement in the Newton solve.

    M is factored in place one leaf column at a time, left-looking, so no
    second p x p array is held. Leaf j's column lo:hi, from row lo down,
    less L[lo:, :lo] L[lo:hi, :lo]^T from the columns already factored, has
    its top leaf factored by cholesky and replaced by its inverse, and
    through that inverse the rest becomes C[hi:, lo:hi]. `_schur_solve`
    applies M^-1.
    """
    L = M
    # a finite diagonal bounds every entry: |M_ij| <= sqrt(M_ii M_jj)
    if not np.isfinite(L.diagonal()).all():
        return None
    p = len(L)
    norm = np.sqrt(np.maximum(L.diagonal(), 0.0))
    dinv = np.divide(1.0, norm, out=np.ones(p), where=norm > 0)
    L *= dinv[:, None]
    L *= dinv
    L[np.diag_indices(p)] += SCHUR_SHIFT
    for lo in range(0, p, TRI_LEAF):
        hi = min(lo + TRI_LEAF, p)
        col = L[lo:, lo:hi]
        col -= L[lo:, :lo] @ L[lo:hi, :lo].T
        try:
            col[:hi - lo] = npl.inv(npl.cholesky(col[:hi - lo]))
        except npl.LinAlgError:
            return None
        col[hi - lo:] = col[hi - lo:] @ col[:hi - lo].T
    return dinv, L


def _schur_solve(factor, v: np.ndarray) -> np.ndarray:
    """M^-1 v = D C^-T C^-1 D v for the factor (dinv, L) of `_schur_factor`,
    by forward and backward substitution one leaf at a time, each leaf of z
    written in place through the inverted diagonal leaf L holds, for a
    vector v or the columns of a (p, m) matrix."""
    dinv, L = factor
    z = (dinv * v.T).T
    p = len(z)
    for lo in range(0, p, TRI_LEAF):                # C y = D v
        hi = min(lo + TRI_LEAF, p)
        # the first leaf has no columns before it, the last no rows below
        zl = z[lo:hi] - L[lo:hi, :lo] @ z[:lo] if lo else z[lo:hi]
        z[lo:hi] = L[lo:hi, lo:hi] @ zl
    for lo in reversed(range(0, p, TRI_LEAF)):      # C^T z = y
        hi = min(lo + TRI_LEAF, p)
        zl = z[lo:hi] - L[hi:, lo:hi].T @ z[hi:] if hi < p else z[lo:hi]
        z[lo:hi] = L[lo:hi, lo:hi].T @ zl
    return (dinv * z.T).T


def solve(program: ConicProgram, gap_tol: float = GAP_TOL) -> ConicSolution:
    """Run the homogeneous self-dual interior-point method on the program.

    Deterministic for fixed input and gap_tol, its one setting, which must be
    finite and positive (ValueError otherwise). Status `optimal` certifies a
    relative duality gap <= gap_tol (measured against the reported value) and
    a scaled primal residual <= FEAS_TOL, with the dual residual under the
    DRES_GUARD ceiling; primal/dual infeasibility is reported from the
    embedding's certificates. Every step follows the module's step rule; one
    blocked below 1e-10, or MAX_ITERS, returns `numerical-failure` carrying
    the best iterate seen. `iterations` counts every iteration taken.

    One iteration path: the row split of `_schur_plan` decides only how
    the Schur block is built and the two products A~ v and A~^T v, and the
    rest of the iteration is written once over them (module docstring).

    Memory: A is only ever its nonzeros, and an iteration holds the p x p
    Schur block, factored in place, and the (p_g, N) scaled rows of the
    p_g rows that `_schur_plan` did not read off W as pins; the last
    iteration's factor goes before the next block is built.
    """
    if not (np.isfinite(gap_tol) and gap_tol > 0):
        raise ValueError(f"gap_tol must be finite and positive, got {gap_tol!r}")

    # every per-block step below is one batched call per distinct size k
    A, b, c, starts, groups, pins = program.assemble()
    p, N = A.shape
    nu = sum(program.blocks)
    bnorm = 1.0 + np.abs(b).max(initial=0.0)
    cnorm = 1.0 + np.abs(c).max()
    # the rows split once: a Schur block of one leaf reads no pin off W
    plan, general = _schur_plan(A, groups, pins if p > TRI_LEAF else [])

    # interior start: identity in every block, tau = kappa = 1
    x = np.zeros(N)
    for k, cols in groups:
        x[cols].reshape(-1, k * k)[:] = hvec(np.eye(k))
    s = x.copy()
    y = np.zeros(p)
    tau, kappa = 1.0, 1.0

    def final(status, iters, xv, yv, tv, meas):
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

    best = None   # (score, x, y, tau, measures) of the best iterate so far

    def failure(iters):
        return final("numerical-failure", iters, *best[1:])

    for it in range(MAX_ITERS):
        # the one product with A and the one with A^T of this iterate: the
        # residuals, the measures of x/tau, y/tau and the certificates use them
        Ax, ATy = _times(A, x), _times(A, y, transpose=True)
        cx = float(c @ x)
        by = float(b @ y)
        r_p = Ax - b * tau
        r_d = ATy + s - c * tau
        pres = np.abs(r_p).max(initial=0.0) / (tau * bnorm)
        dres = np.abs(r_d).max() / (tau * cnorm)
        pobj, dobj = cx / tau, by / tau
        # the gap is measured against the reported value, offset included
        gap = abs(pobj - dobj) / max(1.0, abs(pobj + program.offset))
        meas = pres, dres, gap, pobj, dobj
        score = max(pres, dres, gap)
        if best is None or score < best[0]:
            # x and y are rebound by each step, never written in place
            best = (score, x, y, tau, meas)
        if pres <= FEAS_TOL and dres <= DRES_GUARD and gap <= gap_tol:
            return final("optimal", it, x, y, tau, meas)

        # certificates from the embedding
        if by > 0 and np.abs(ATy + s).max() <= FEAS_TOL * by:
            return final("infeasible", it, x, y, tau, meas)
        if cx < 0 and np.abs(Ax).max(initial=0.0) <= FEAS_TOL * (-cx):
            return final("unbounded", it, x, y, tau, meas)

        mu = (float(x @ s) + tau * kappa) / (nu + 1)

        # NT scaling per block: with X = L L^dag and L^dag S L = U diag(w) U^dag,
        # R = L U diag(w)^-1/4 gives W = R R^dag and R^-1 X R^-dag = R^dag S R
        # = diag(lam), lam = w^1/2. The step is computed in that frame, where
        # A~_i = R^dag A_i R, the Schur complement is A~ A~^T and both iterates
        # are the diagonal lam (hvec coordinates in `lam`, per group in `lams`)
        R, lams = [], []
        lam = np.zeros(N)
        for k, cols in groups:
            L = _factor_psd(_blocks(x, k, cols))
            w, U = npl.eigh(hermitize(_ct(L) @ _blocks(s, k, cols) @ L))
            if w[:, 0].min() <= 0:
                return failure(it)
            R.append((L @ U) * w[:, None, :] ** -0.25)
            lams.append(np.sqrt(w))
            lam[cols].reshape(-1, k * k)[:, :k] = lams[-1]
        laminv = np.divide(1.0, lam, out=np.zeros(N), where=lam > 0)
        Rh = [_ct(Rk) for Rk in R]

        r_g = cx - by + kappa

        # eliminate the cone step: the (p + 1) system in (dy, dtau) is the
        # Schur block M = A~ A~^T bordered by the tau row and column. The
        # last iteration's factor goes before the next block is built
        factor = None
        factor = _schur_factor(_schur_block(p, plan, general, groups, R))
        if factor is None and plan:
            # read off W, a pin's terms are summed from products of W's
            # entries and can lose the digits a pivot needs near a
            # degenerate optimum; A~ A~^T, a Gram matrix, cannot, so the
            # rows split again with no pins, for the rest of the solve
            plan, general = _schur_plan(A, groups, [])
            factor = _schur_factor(_schur_block(p, plan, general, groups, R))
        if factor is None:
            return failure(it)
        # the split decides the two products with A~; the rest is written once
        if plan:
            def scaled(v):                  # A~ v = A hvec(R hmat(v) R^dag)
                return _times(A, _congruence(groups, Rh, v))

            def scaled_T(v):                # A~^T v = hvec(R^dag hmat(A^T v) R)
                return _congruence(groups, R, _times(A, v, transpose=True))
        else:
            A_sc = general[2]               # the buffer holds every scaled row

            def scaled(v):
                return A_sc @ v

            def scaled_T(v):
                return A_sc.T @ v
        c_sc = _congruence(groups, R, c)
        ATy_sc, v1 = scaled_T(y), scaled(c_sc)

        def frames(dy, dtau):
            t = scaled_T(dy) - c_sc * dtau
            return t, scaled(t)

        rd_sc = ATy_sc + lam - c_sc * tau

        # the tau row and column by a scalar Schur complement: with
        # u = M^-1 (v1 + b), dtau is one division and dy = M^-1 g + u dtau;
        # the pivot is summed from terms >= 0 (module docstring)
        row = b - v1
        w1, wb = _schur_solve(factor, np.stack([v1, b], axis=1)).T
        u = w1 + wb
        r = c_sc - scaled_T(w1)
        den = (float(r @ r) + SCHUR_SHIFT * float(np.sum((w1 / factor[0]) ** 2))
               + float(b @ wb) + kappa / tau)

        def reduced_solve(g, h):
            z = _schur_solve(factor, g)
            dtau = (h - float(row @ z)) / den
            return z + u * dtau, dtau


        def newton(sigma: float, eta: float, soc=0.0, soc_tk: float = 0.0):
            """The scaled step (dx~, dy, dtau, ds~, dkappa), with the
            corrector terms soc (cone, hvec) and soc_tk (tau kappa)."""
            Rc = sigma * mu * laminv - lam - soc
            r1 = -eta * rd_sc - Rc
            r3 = eta * r_g + (sigma * mu - tau * kappa - soc_tk) / tau
            # dx~ = A~^T dy - c~ dtau - r1 leaves the reduced system in
            # (dy, dtau) with right-hand side (g0, h0). It is solved once and
            # refined at most twice while its residual is above REFINE_TOL of
            # (g0, h0): near the optimum the Schur complement is so
            # ill-conditioned that one solve can leave the primal equation
            # off by more than the residual the step targets
            g0, h0 = -eta * r_p + scaled(r1), r3 - float(c_sc @ r1)
            tol = REFINE_TOL * max(np.abs(g0).max(initial=0.0), abs(h0))
            dy, dtau = reduced_solve(g0, h0)
            t, At = frames(dy, dtau)
            for _ in range(2):
                g = g0 - (At - b * dtau)
                h = h0 - (-float(c_sc @ t) + float(b @ dy) + (kappa / tau) * dtau)
                if max(np.abs(g).max(initial=0.0), abs(h)) <= tol:
                    break
                fy, ftau = reduced_solve(g, h)
                dy, dtau = dy + fy, dtau + ftau
                t, At = frames(dy, dtau)
            dx = t - r1
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

        # the affine predictor fixes the centering weight (floored: every
        # step recenters) and its second-order term dX~a o dS~a, divided
        # through the Jordan product with diag(lam), is the corrector
        dxa, _, dtaua, dsa, dkappaa = newton(0.0, 1.0)
        alpha_a = min(1.0, boundary(dxa, dsa, dtaua, dkappaa))
        mu_aff = (float((lam + alpha_a * dxa) @ (lam + alpha_a * dsa))
                  + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)) / (nu + 1)
        sigma = min(0.9999, max(SIGMA_MIN, (mu_aff / mu) ** 3))

        dx, dy, dtau, ds, dkappa = newton(sigma, 1.0 - sigma,
                                              _corrector(groups, lams, dxa, dsa),
                                              dtaua * dkappaa)
        alpha = min(1.0, STEP_FRAC * boundary(dx, ds, dtau, dkappa))
        if alpha <= 1e-10:
            return failure(it)

        # the accepted step in the original coordinates: dX = R dx~ R^dag,
        # and dS from the dual equation A^T dy + dS - c dtau = -eta r_d, so
        # r_d shrinks by (1 - alpha eta); R^-dag dS~ R^-1 drifts from that
        # equation once R is ill-conditioned near the optimum
        x = x + alpha * _congruence(groups, Rh, dx)
        s = s + alpha * (-(1.0 - sigma) * r_d - _times(A, dy, transpose=True)
                         + c * dtau)
        y = y + alpha * dy
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkappa
        if tau <= 0 or kappa < 0 or not np.isfinite(x).all():
            return failure(it + 1)

    return failure(MAX_ITERS)


def solve_or_raise(program: ConicProgram, gap_tol: float = GAP_TOL,
                   what: str = "SDP") -> ConicSolution:
    """solve(), raising SolverFailureError unless the status is `optimal`."""
    sol = solve(program, gap_tol)
    if sol.status != "optimal":
        raise SolverFailureError(f"{what} ended with status {sol.status}", sol)
    return sol

