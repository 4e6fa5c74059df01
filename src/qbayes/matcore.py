"""Dense complex linear algebra for block operators on C^n (x) H.

An operator on C^n (x) H is a plain (nd, nd) complex array in np.kron
order: block (j, k) is X[j*d:(j+1)*d, k*d:(k+1)*d].

Everything routes through the Hermitian eigendecomposition: square roots,
Lyapunov solves and trace norms are eigenbasis computations, so their
numerical behaviour is consistent and easy to audit. A singular PSD state or
weight is handled exactly on its support by one rule, `support_eig`, and
every trace norm TrAbs(S B) of a PSD S against an anti-Hermitian or
antisymmetric B by one rule, `weighted_trace_abs`; no state or weight is ever
perturbed. All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as npl

# Module-wide tolerances; no function here takes an override.
HERM_TOL = 1e-12        # max |A - A^dag| accepted before symmetrization
PSD_CLAMP = 1e-10       # eigenvalues above -PSD_CLAMP are clamped to zero
SUPPORT_TOL = 1e-12     # support eigenvalues exceed SUPPORT_TOL * w_max

SQRT2 = np.sqrt(2.0)


class NotPsdError(ValueError):
    """A matrix required to be positive semidefinite is not."""


def hermitize(A: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A^dag) / 2 of A, or of each matrix in a stack."""
    A = np.asarray(A, dtype=complex)
    return (A + A.conj().swapaxes(-1, -2)) / 2


def check_hermitian(A: np.ndarray) -> np.ndarray:
    """Symmetrize A, raising if it has a non-finite entry or deviates from
    Hermitian by more than HERM_TOL (relative to max(1, |A|)); a stack is
    checked matrix by matrix, and the message names the first bad one."""
    A = np.asarray(A, dtype=complex)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    if A.size:
        dev = np.abs(A - A.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        bad = dev > HERM_TOL * np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
        if np.any(bad):
            i = int(np.argmax(bad))
            where = f"stack element {i}: " if A.ndim > 2 else ""
            raise ValueError(f"{where}matrix deviates from Hermitian by "
                             f"{dev.flat[i]:.3e}")
    return hermitize(A)


def psd_sqrt(A: np.ndarray) -> np.ndarray:
    """Square root of a PSD Hermitian matrix.

    Eigenvalues in [-PSD_CLAMP, 0) are rounding noise and are clamped to
    zero; anything below -PSD_CLAMP raises NotPsdError.
    """
    w, U = npl.eigh(np.asarray(A, dtype=complex))
    if w.size and w[0] < -PSD_CLAMP:
        raise NotPsdError(f"eigenvalue {w[0]:.3e} below -{PSD_CLAMP:.0e}")
    w = np.maximum(w, 0.0)
    return hermitize((U * np.sqrt(w)) @ U.conj().T)


def support_eig(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition S = U diag(w) U^dag of a PSD matrix on its support.

    Returns (w, U, keep): keep marks the support, the eigenvalues above
    SUPPORT_TOL * w_max, and w is 0 on the kernel. Eigenvalues below
    -PSD_CLAMP raise NotPsdError, as in `psd_sqrt`.
    """
    w, U = npl.eigh(np.asarray(S, dtype=complex))
    if w[0] < -PSD_CLAMP:
        raise NotPsdError(f"eigenvalue {w[0]:.3e} below -{PSD_CLAMP:.0e}")
    keep = w > SUPPORT_TOL * w[-1]
    return np.where(keep, w, 0.0), U, keep


def support_factor(S: np.ndarray) -> np.ndarray:
    """F = U_r diag(sqrt(w_r)), d x r, with S = F F^dag for PSD S: the
    eigenpairs of supp(S) (`support_eig`)."""
    w, U, keep = support_eig(S)
    return U[:, keep] * np.sqrt(w[keep])


def lyapunov_solve(S: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solve D = (S L + L S) / 2 for Hermitian L, S a PSD state; a stack of
    D is solved at once, through one eigendecomposition of S.

    Computed in the eigenbasis of S (`support_eig`): Lt_ab = 2 Dt_ab /
    (w_a + w_b) on every pair that touches supp(S), and Lt_ab = 0 on
    ker S x ker S, where (S L + L S)/2 vanishes whatever L is. Every D_B =
    sum pi_m theta_m S_m and every derivative of a PSD family is zero on
    that block, so L solves the equation exactly for both.
    """
    w, U, keep = support_eig(S)
    pairs = np.where(keep[:, None] | keep[None, :], w[:, None] + w[None, :],
                     np.inf)
    Dt = U.conj().T @ np.asarray(D, dtype=complex) @ U
    L = U @ (2.0 * Dt / pairs) @ U.conj().T
    return hermitize(L)


def trace_abs(A: np.ndarray) -> float:
    """Sum of the absolute values of the eigenvalues of Hermitian or
    anti-Hermitian A, through eigh; any other input raises ValueError."""
    A = np.asarray(A, dtype=complex)
    if not A.size:   # a congruence on an empty support
        return 0.0
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.conj().T).max() <= HERM_TOL * scale:
        return float(np.abs(npl.eigvalsh(hermitize(A))).sum())
    if np.abs(A + A.conj().T).max() <= HERM_TOL * scale:
        # eigenvalues are i times those of the Hermitian matrix -iA
        return float(np.abs(npl.eigvalsh(hermitize(-1j * A))).sum())
    raise ValueError("trace_abs needs a Hermitian or anti-Hermitian matrix")


def weighted_trace_abs(S: np.ndarray, B: np.ndarray) -> float:
    """TrAbs(S B) for PSD S and anti-Hermitian or real antisymmetric B.

    Computed as TrAbs(F^dag B F) with S = F F^dag on supp(S)
    (`support_factor`): the congruence shares its nonzero spectrum with
    S B and is anti-Hermitian, so the eigenproblem stays normal even where
    S is singular and S B a defective nilpotent. Exact for every PSD S.
    """
    F = support_factor(S)
    return trace_abs(F.conj().T @ np.asarray(B, dtype=complex) @ F)

