"""Shared random-matrix constructors for the test suite.

Everything is seeded through numpy Generators so failures reproduce exactly.
"""

import dataclasses

import numpy as np

from qbayes.conic import ConicProgram
from qbayes.model import GridPoint, StatisticalModel, WeightSpec, \
    classical_binary


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
