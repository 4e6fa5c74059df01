"""Closed-form Bayes-risk lower bounds: SLD, RLD, and van Tree baselines.

These need only eigendecompositions. The SLD bound is Tr(W (M - K)) with K
the Gram matrix of the averaged-state logarithmic derivatives; the RLD bound
adds a trace-norm term from the imaginary part of its Gram matrix; the van
Tree baseline combines prior and averaged quantum Fisher information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .matcore import (hermitize, lyapunov_solve, support_eig,
                      weighted_trace_abs)
from .model import (BayesMoments, CapabilityError, StatisticalModel,
                    _check_derivatives)

INFO_SINGULAR_TOL = 1e-12


class SingularInformationError(ValueError):
    """The total Fisher information matrix is singular."""


@dataclass(frozen=True)
class SldPackage:
    """Bayesian SLDs L_j and their symmetrized Gram matrix K."""

    L: np.ndarray   # (n, d, d) Hermitian
    K: np.ndarray   # (n, n) real symmetric


@dataclass(frozen=True)
class RldPackage:
    """Bayesian RLDs (not Hermitian in general) and their Gram matrix."""

    Ltilde: np.ndarray   # (n, d, d) complex
    Ktilde: np.ndarray   # (n, n) complex Hermitian


def _symmetrized_gram(S: np.ndarray, L: np.ndarray) -> np.ndarray:
    """K_jk = Tr(S (L_j L_k + L_k L_j)) / 2, returned exactly symmetric."""
    P = np.einsum("jab,kba->jk", S @ L, L).real   # Tr(S L_j L_k)
    return (P + P.T) / 2


def sld_bound(moments: BayesMoments, W: np.ndarray) -> tuple[float, SldPackage]:
    """Bayesian SLD bound Tr(W (M - K)).

    L_j solves the averaged-state Lyapunov equation D_B[j] = (S_B L_j +
    L_j S_B)/2, all j in one solve; a singular S_B is handled exactly on
    its support (see `lyapunov_solve`).
    """
    W = np.asarray(W, dtype=float)
    L = lyapunov_solve(moments.S_B, moments.D_B)
    K = _symmetrized_gram(moments.S_B, L)
    value = float(np.trace(W @ (moments.M - K)))
    return value, SldPackage(L=L, K=K)


def rld_bound(moments: BayesMoments, W: np.ndarray) -> tuple[float, RldPackage]:
    """Bayesian RLD bound Tr(W (M - Re Kt)) + TrAbs(W Im Kt).

    Lt_j = S_B^+ D_B[j], with S_B^+ the inverse of S_B on its support
    (`support_eig`): exact for a singular S_B too, since D_B lives on
    supp(S_B). Kt_jk = Tr(S_B Lt_k Lt_j^dag). The trace-norm term is
    `weighted_trace_abs(W, Im Kt)`, exact for singular W too, where the raw
    product W Im(Kt) can be a defective nilpotent. The bound holds for every
    PSD W: for real V >= Kt, sqrt(W)(V - Re Kt)sqrt(W) >= +-i sqrt(W) Im(Kt)
    sqrt(W), so Tr W(V - Re Kt) >= TrAbs(sqrt(W) Im(Kt) sqrt(W)). A singular
    W, such as diag(1, 0) for a nuisance parameter, needs no special case.
    """
    W = np.asarray(W, dtype=float)
    S = moments.S_B
    w, U, keep = support_eig(S)
    Sinv = (U / np.where(keep, w, np.inf)) @ U.conj().T
    Lt = Sinv @ moments.D_B
    Kt = np.einsum("kab,jab->jk", S @ Lt, Lt.conj())   # Tr(S Lt_k Lt_j^dag)
    Kt = (Kt + Kt.conj().T) / 2
    imK = Kt.imag    # real antisymmetric
    value = float(np.trace(W @ (moments.M - Kt.real)))
    value += weighted_trace_abs(W, imK)
    return value, RldPackage(Ltilde=Lt, Ktilde=Kt)


def sld_fisher_point(state: np.ndarray, derivatives: np.ndarray) -> np.ndarray:
    """Pointwise SLD quantum Fisher information matrix.

    Solves (S L_j + L_j S)/2 = dS/dtheta_j per parameter, exactly for a
    singular S too (`lyapunov_solve`), and returns the symmetrized Gram
    matrix. Derivatives must be Hermitian and traceless, the model's rule
    (`model._check_derivatives`); anything else raises ModelError.
    """
    derivatives = _check_derivatives(np.asarray(derivatives, dtype=complex),
                                     "Fisher information")
    L = lyapunov_solve(state, derivatives)
    return _symmetrized_gram(np.asarray(state, dtype=complex), L)


def van_tree_bound(model: StatisticalModel, W: np.ndarray) -> float:
    """Van Tree baseline Tr(W (J_prior + sum_m pi_m J_Q(theta_m))^{-1}).

    Needs state derivatives on every grid point and a prior score vector per
    point; neither is ever finite-differenced from the grid. The grid form is
    a modeling surrogate for the continuous-prior inequality.
    """
    W = np.asarray(W, dtype=float)
    if not model.has_derivatives():
        raise CapabilityError("van Tree needs state_derivatives on every grid point")
    if model.prior_score is None:
        raise CapabilityError("van Tree needs a prior_score attached to the model")
    pi = model.pi
    score = model.prior_score
    J_prior = np.einsum("m,mi,mj->ij", pi, score, score)
    J_avg = np.zeros((model.n, model.n))
    for m, p in enumerate(model.points):
        J_avg = J_avg + pi[m] * sld_fisher_point(p.state, p.state_derivatives)
    J_total = J_prior + J_avg
    evals = npl.eigvalsh(hermitize(J_total).real)
    if evals[0] <= INFO_SINGULAR_TOL * max(1.0, evals[-1]):
        raise SingularInformationError("total information matrix is singular")
    return float(np.trace(npl.solve(J_total, W)))

