"""Reference computations the benchmark makes apart from qbayes.

Each function here works from the model data alone (grid points, prior
weights, states, weight matrix) with plain numpy, so a check built on it does
not share code with the routine it checks. Each `*_problems` function returns
a list of human-readable problems, empty when the value passes.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-6              # ordering and bound-versus-risk tolerance
POVM_TOL = 1e-8         # PSD and identity-resolution tolerance for decisions
OBJECTIVE_RTOL = 1e-8   # agreement of two evaluations of one objective


def _grid(model):
    pi = np.array([p.weight for p in model.points])
    thetas = np.stack([p.theta for p in model.points])
    states = np.stack([p.state for p in model.points])
    weights = np.stack([model.weight_spec.matrix_at(m)
                        for m in range(len(model.points))])
    return pi, thetas, states, weights


def prior_mean_risk(model) -> float:
    """Risk of always answering the prior mean: sum_m pi_m (t_m - t)^T W (t_m - t)."""
    pi, thetas, _, weights = _grid(model)
    centred = thetas - pi @ thetas
    return float(sum(pi[m] * centred[m] @ weights[m] @ centred[m]
                     for m in range(len(pi))))


def povm_problems(elements, d: int) -> list[str]:
    problems = []
    total = np.zeros((d, d), dtype=complex)
    for x, E in enumerate(elements):
        E = np.asarray(E, dtype=complex)
        if np.abs(E - E.conj().T).max() > POVM_TOL:
            problems.append(f"POVM element {x} is not Hermitian")
        low = np.linalg.eigvalsh((E + E.conj().T) / 2)[0]
        if low < -POVM_TOL:
            problems.append(f"POVM element {x} has eigenvalue {low:.3e}")
        total += E
    dev = np.abs(total - np.eye(d)).max()
    if dev > POVM_TOL:
        problems.append(f"POVM elements miss the identity by {dev:.3e}")
    return problems


def decision_risk(model, elements, estimates) -> float:
    """Bayes risk of a decision, as a loop over its definition:
    sum_m pi_m sum_x Tr(S_m E_x) (est_x - t_m)^T W_m (est_x - t_m)."""
    pi, thetas, states, weights = _grid(model)
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    total = 0.0
    for m in range(len(pi)):
        for x, E in enumerate(elements):
            prob = float(np.real(np.trace(states[m] @ E)))
            diff = est[x] - thetas[m]
            total += pi[m] * prob * float(diff @ weights[m] @ diff)
    return total


def _lyapunov(S: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Hermitian L with (S L + L S)/2 = D, in the eigenbasis of S > 0."""
    w, U = np.linalg.eigh(S)
    Dt = U.conj().T @ D @ U
    L = U @ (2.0 * Dt / (w[:, None] + w[None, :])) @ U.conj().T
    return (L + L.conj().T) / 2


def sld_start(model) -> np.ndarray:
    """The Bayesian SLD observables X_j solving (S_B X + X S_B)/2 = D_bar_j,
    with S_B = sum_m pi_m S_m and D_bar_j = sum_m pi_m sum_k W_jk t_mk S_m."""
    pi, thetas, states, weights = _grid(model)
    S_B = np.einsum("m,mab->ab", pi, states)
    D_bar = np.einsum("m,mjk,mk,mab->jab", pi, weights, thetas, states)
    return np.stack([_lyapunov(S_B, D_bar[j]) for j in range(model.n)])


def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(S)
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T


def nagaoka_value(model, X) -> float:
    """The two-parameter commutator objective at (X_1, X_2), from its formula:
    sum_m pi_m [ sum_jk W_jk Tr(S_m (X_j X_k + X_k X_j)/2)
                 + sqrt(det W) ||sqrt(S_m) [X_1, X_2] sqrt(S_m)||_1
                 - 2 sum_jk W_jk t_mk Tr(S_m X_j) + t_m^T W t_m ]."""
    pi, thetas, states, weights = _grid(model)
    X = np.asarray(X, dtype=complex)
    comm = X[0] @ X[1] - X[1] @ X[0]
    total = 0.0
    for m in range(len(pi)):
        W, S, t = weights[m], states[m], thetas[m]
        quad = sum(W[j, k] * np.real(np.trace(S @ (X[j] @ X[k] + X[k] @ X[j]))) / 2
                   for j in range(2) for k in range(2))
        sq = _psd_sqrt(S)
        trace_norm = np.linalg.svd(sq @ comm @ sq, compute_uv=False).sum()
        linear = sum(W[j, k] * t[k] * np.real(np.trace(S @ X[j]))
                     for j in range(2) for k in range(2))
        det = max(float(np.linalg.det(W)), 0.0)
        total += pi[m] * (quad + np.sqrt(det) * trace_norm - 2.0 * linear
                          + float(t @ W @ t))
    return float(total)


def lower_bound_problems(name: str, value: float, prior_risk: float) -> list[str]:
    if not np.isfinite(value):
        return [f"{name} = {value!r} is not finite"]
    if value > prior_risk + TOL:
        return [f"{name} = {value:.9g} exceeds the prior-mean risk {prior_risk:.9g}"]
    return []


def ordering_problems(values: dict) -> list[str]:
    """seesaw >= nh >= holevo >= max(sld, rld), each within TOL; keys that are
    absent are skipped."""
    chain = [k for k in ("seesaw", "nh", "holevo") if k in values]
    problems = []
    for upper, lower in zip(chain, chain[1:]):
        if values[upper] < values[lower] - TOL:
            problems.append(f"{upper} = {values[upper]:.9g} < {lower} = "
                            f"{values[lower]:.9g}")
    floor = max(values[k] for k in ("sld", "rld"))
    if chain and values[chain[-1]] < floor - TOL:
        problems.append(f"{chain[-1]} = {values[chain[-1]]:.9g} < "
                        f"max(sld, rld) = {floor:.9g}")
    return problems


def unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary (QR of a complex Gaussian, phases fixed)."""
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))
