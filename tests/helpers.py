"""Shared random-matrix constructors for the test suite.

Everything is seeded through numpy Generators so failures reproduce exactly.
"""

import numpy as np

from qbayes.conic import ConicProgram
from qbayes.model import GridPoint, StatisticalModel, WeightSpec


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
