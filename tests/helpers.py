"""Shared random-matrix constructors for the test suite.

Everything is seeded through numpy Generators so failures reproduce exactly.
"""

import dataclasses
import sys

import numpy as np

from qbayes import conic
from qbayes import model as qmodel
from qbayes.conic import ConicProgram
from qbayes.model import ExtendedMoments, GridPoint, StatisticalModel, \
    WeightSpec, classical_binary


def random_hermitian(rng, d, scale=1.0):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (A + A.conj().T) / 2


def random_density(rng, d, purity=0.9):
    """Full-rank density matrix: a random pure-ish state mixed with I/d."""
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    G = A @ A.conj().T
    G = G / np.trace(G).real
    return purity * G + (1.0 - purity) * np.eye(d) / d


def random_spd(rng, n, ridge=0.3):
    A = rng.standard_normal((n, n))
    return A @ A.T + ridge * np.eye(n)


def random_unitary(rng, d):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def point_mass_model(rng, n, d):
    """Single grid point at a random location with a random full-rank state."""
    theta = rng.uniform(-1.0, 1.0, n)
    pt = GridPoint(theta=theta, weight=1.0, state=random_density(rng, d))
    return StatisticalModel(n=n, d=d, points=(pt,),
                            weight_spec=WeightSpec(constant=np.eye(n)))


def random_grid_model(rng, n, d, grid, W=None):
    """Random grid model with a constant weight (identity by default)."""
    raw = rng.uniform(0.5, 1.5, grid)
    wts = raw / raw.sum()
    wts[-1] = 1.0 - wts[:-1].sum()
    pts = tuple(GridPoint(theta=rng.uniform(-1.0, 1.0, n), weight=wts[m],
                          state=random_density(rng, d))
                for m in range(grid))
    spec = WeightSpec(constant=np.eye(n) if W is None else W)
    return StatisticalModel(n=n, d=d, points=pts, weight_spec=spec)


def audit_ensemble():
    """The seeded 50-model ensemble: n, d and grid size each 2..3, SPD weight."""
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        g = int(rng.integers(2, 4))
        yield random_grid_model(rng, n, d, g, W=random_spd(rng, n))


def pure_model(n, d, K, r, seed):
    """K grid points of weight 1/K with rank-r states: per point, V =
    normal(d, r) + 1j normal(d, r) and then theta = normal(n), the state
    V V^+ / Tr; then A = normal(n, n) and the weight A A^T + 0.3 I."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(K):
        V = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        theta = rng.standard_normal(n)
        rho = V @ V.conj().T
        pts.append(GridPoint(theta=theta, weight=1.0 / K,
                             state=rho / np.trace(rho).real))
    A = rng.standard_normal((n, n))
    return StatisticalModel(n=n, d=d, points=tuple(pts),
                            weight_spec=WeightSpec(constant=A @ A.T + 0.3 * np.eye(n)))


def pure_panel():
    """Two-parameter models on four pure or rank-2 states:
    `pure_model(2, d, 4, r, seed=d)` at (d, r) = (6, 1), (6, 2) and (8, 1).
    The mean state has rank 4 at r = 1 and is full at (6, 2)."""
    for d, r in ((6, 1), (6, 2), (8, 1)):
        yield pure_model(2, d, 4, r, seed=d)


def compressed_moments(moments):
    """The same moments with S_B and D_B written in an orthonormal basis of
    supp(S_B), the eigenvectors of S_B above 1e-9 of its largest eigenvalue:
    the reference for the closed-form bounds on a singular mean state. Only
    S_B and D_B are compressed, so only those bounds may read the result."""
    w, U = np.linalg.eigh(moments.S_B)
    V = U[:, w > 1e-9 * w[-1]]
    return dataclasses.replace(moments, S_B=V.conj().T @ moments.S_B @ V,
                               D_B=V.conj().T @ moments.D_B @ V)


def tensor_moments(W, S_B, D_bar, M):
    """Hand-built moments of one grid point with state S_B under the constant
    weight W: S_bar = W (x) S_B, the given D_bar with D_B = W^-1 D_bar, the
    given M and w_bar = Tr(W M). The averages need not come from a model."""
    W = np.asarray(W, dtype=float)
    S_B = np.asarray(S_B, dtype=complex)
    D_bar = np.asarray(D_bar, dtype=complex)
    return ExtendedMoments(S_B=S_B,
                           D_B=np.einsum("jk,kab->jab", np.linalg.inv(W), D_bar),
                           M=np.asarray(M, dtype=float),
                           S_bar=np.kron(W, S_B), D_bar=D_bar,
                           w_bar=float(np.trace(W @ M)), pi=np.array([1.0]),
                           states=S_B[None], weight_spec=WeightSpec(constant=W))


def shifted(model, b):
    """The model with b added to every theta_m; its states, prior and weight
    are kept, so every bound and every Bayes risk is unchanged."""
    pts = tuple(dataclasses.replace(p, theta=p.theta + b) for p in model.points)
    return dataclasses.replace(model, points=pts)


def per_point_panel():
    """20 seeded models with a random SPD weight per grid point: n, d and
    grid size each 2..3."""
    rng = np.random.default_rng(77)
    for _ in range(20):
        n, d, g = (int(k) for k in rng.integers(2, 4, 3))
        base = random_grid_model(rng, n, d, g)
        Ws = np.stack([random_spd(rng, n) for _ in range(g)])
        yield dataclasses.replace(base, weight_spec=WeightSpec(per_point=Ws))


def single_parameter_models():
    """The classical binary model, then 20 seeded one-parameter grid models
    with d and grid size each 2..4."""
    rng = np.random.default_rng(202)
    models = [classical_binary(1.0, 0.6)]
    for _ in range(20):
        d = int(rng.integers(2, 5))
        g = int(rng.integers(2, 5))
        models.append(random_grid_model(rng, 1, d, g))
    return models


def per_point(em):
    """The extended moments `em` of a constant-weight model, with its weight
    given once per grid point, so `holevo_type_bound` solves its per-point
    form."""
    W = em.weight_spec.constant
    M = len(em.pi)
    return dataclasses.replace(
        em, weight_spec=WeightSpec(per_point=np.repeat(W[None], M, 0)))


def record_row_counts(monkeypatch):
    """List that collects the row count of every program assembled from now on."""
    counts = []
    assemble = ConicProgram.assemble

    def counted(self):
        out = assemble(self)
        counts.append(out[0].shape[0])
        return out

    monkeypatch.setattr(ConicProgram, "assemble", counted)
    return counts


def same_rows(A, B) -> bool:
    """Whether two assembled `conic.Rows` have one shape and list the same
    nonzeros in the same order: the same matrix, as `add_eq` keeps no zeros."""
    return all(np.array_equal(u, v) for u, v in zip(A, B))


def schur_blocks(program, seed=0, pins=True):
    """(M, ref) for `program` at random NT factors R, one per block: the
    Schur block `conic.solve` builds, pins read off W = R R^dag, and the
    dense reference A~ A~^T of the scaled rows A~_i = hvec(R^dag A_i R),
    with the dense A formed from its nonzeros. M holds only its lower
    triangle, which is compared. With `pins` false the rows are split with
    no pins, as for a block of one leaf or after a failed factor read off
    W, so every row is scaled."""
    rng = np.random.default_rng(seed)
    A, _, _, _, groups, found = program.assemble()
    R = []
    for k, cols in groups:
        K = (cols.stop - cols.start) // (k * k)
        R.append(rng.standard_normal((K, k, k)) + 1j * rng.standard_normal((K, k, k)))
    dense = np.zeros(A.shape)
    dense[A.rows, A.cols] = A.vals
    scaled = conic._congruence(groups, R, dense)
    plan, general = conic._schur_plan(A, groups, found if pins else [])
    M = conic._schur_block(A.shape[0], plan, general, groups, R)
    low = np.tril(np.ones(M.shape, dtype=bool))
    return M[low], (scaled @ scaled.T)[low]


class ProgramCaptured(Exception):
    """Raised by the `conic.solve` of `capture_programs` in place of a solve."""


def capture_programs(monkeypatch):
    """List that gets every program handed to `conic.solve` from now on;
    the solve itself raises ProgramCaptured, so nothing is solved."""
    programs = []

    def captured(program, gap_tol=conic.GAP_TOL):
        programs.append(program)
        raise ProgramCaptured

    monkeypatch.setattr(conic, "solve", captured)
    return programs


def count_moment_builds(monkeypatch):
    """List that gets the model of every moment fold from now on: each
    binding, in any loaded qbayes module, of a moment builder's name is
    wrapped, so a fold is counted once whichever name called it."""
    builders = [getattr(qmodel, name) for name in
                ("build_moments", "build_extended_moments")]
    folds = []

    def counting(build):
        def counted(model):
            folds.append(model)
            return build(model)
        return counted

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "qbayes":
            continue
        for key, value in list(vars(module).items()):
            if any(value is b for b in builders):
                monkeypatch.setattr(module, key, counting(value))
    return folds
