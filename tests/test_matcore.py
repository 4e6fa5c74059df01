"""Unit tests for the dense Hermitian/block-operator toolbox."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density, random_hermitian, random_spd, random_unitary
from qbayes.matcore import (
    NotPsdError,
    check_hermitian,
    hermitize,
    lyapunov_solve,
    psd_sqrt,
    support_eig,
    support_factor,
    trace_abs,
    weighted_trace_abs,
)


def test_hermitize_projects_onto_hermitian_part():
    A = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    H = hermitize(A)
    assert np.allclose(H, H.conj().T)
    assert np.allclose(H, (A + A.conj().T) / 2)


def test_check_hermitian_accepts_and_rejects():
    H = random_hermitian(np.random.default_rng(0), 3)
    assert np.allclose(check_hermitian(H), H)
    with pytest.raises(ValueError):
        check_hermitian(H + 1e-3 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]]))


def test_check_hermitian_names_the_bad_stack_element():
    """A stack is reported by the index of its first non-Hermitian matrix,
    with that matrix's own deviation; one matrix is reported as before."""
    E = np.array([[0.5, 0.3], [0.0, 0.5]])
    stack = np.stack([np.eye(2), E, E + 0.1j * np.eye(2)])
    with pytest.raises(ValueError, match=r"^stack element 1: matrix deviates "
                       r"from Hermitian by 3\.000e-01$"):
        check_hermitian(stack)
    with pytest.raises(ValueError, match=r"^matrix deviates from Hermitian by "
                       r"3\.000e-01$"):
        check_hermitian(E)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(1)
    S = random_density(rng, 4)
    R = psd_sqrt(S)
    assert np.allclose(R @ R, S, atol=1e-12)
    assert np.allclose(R, R.conj().T)


def test_psd_sqrt_clamps_roundoff_but_rejects_negatives():
    eps = np.diag([1.0, -1e-14])
    psd_sqrt(eps)    # tiny negative eigenvalue is treated as zero
    with pytest.raises(NotPsdError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_support_eig_keeps_the_support_and_rejects_negatives():
    w, U, keep = support_eig(np.diag([0.0, 1.0, -1e-14, 1e-13]))
    assert keep.tolist() == [False, False, False, True]
    assert w.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert np.allclose(np.abs(U[:, keep].ravel()), [0.0, 1.0, 0.0, 0.0])
    with pytest.raises(NotPsdError):
        support_eig(np.diag([1.0, -0.5]))


def test_lyapunov_solve_on_a_rank_deficient_state():
    """S of rank 2 in C^4 and D = (S L0 + L0 S)/2 for a random Hermitian L0,
    so D lies in the range of the map: L solves the equation exactly and is
    zero on ker S x ker S."""
    rng = np.random.default_rng(2)
    V = random_unitary(rng, 4)
    S = V @ np.diag([0.7, 0.3, 0.0, 0.0]) @ V.conj().T
    L0 = random_hermitian(rng, 4)
    D = (S @ L0 + L0 @ S) / 2
    L = lyapunov_solve(S, D)
    assert np.allclose((S @ L + L @ S) / 2, D, atol=1e-12)
    assert np.allclose(L, L.conj().T)
    kernel = V[:, 2:]
    assert np.abs(kernel.conj().T @ L @ kernel).max() < 1e-12


def test_lyapunov_solve_inverts_the_anticommutator():
    rng = np.random.default_rng(3)
    S = random_density(rng, 4)
    L_target = random_hermitian(rng, 4)
    D = (S @ L_target + L_target @ S) / 2
    L = lyapunov_solve(S, D)
    assert np.allclose(L, L_target, atol=1e-10)
    assert np.allclose(L, L.conj().T)


def test_trace_abs_sums_eigenvalue_magnitudes():
    rng = np.random.default_rng(4)
    H = random_hermitian(rng, 5)
    assert abs(trace_abs(H) - np.abs(np.linalg.eigvalsh(H)).sum()) < 1e-10
    # anti-Hermitian path: eigenvalues are purely imaginary
    assert abs(trace_abs(1j * H) - np.abs(np.linalg.eigvalsh(H)).sum()) < 1e-10
    # a congruence on the empty support of a zero state
    assert trace_abs(np.zeros((0, 0))) == 0.0
    # any other input is rejected
    P = np.array([[1.0, 0.3], [0.0, 1.0]])
    A = P @ np.diag([2.0, -3.0]) @ np.linalg.inv(P)
    with pytest.raises(ValueError):
        trace_abs(A)


def test_weighted_trace_abs_is_a_similarity_invariant():
    """TrAbs(sqrt(W) B sqrt(W)) equals the sum of |eigenvalues| of W B, for
    W > 0 against a real antisymmetric B and for a rank-2 S in C^4 against
    an anti-Hermitian B, where S = F F^dag on its support."""
    rng = np.random.default_rng(5)
    W = random_spd(rng, 4)
    B = rng.standard_normal((4, 4))
    B = (B - B.T) / 2
    R = psd_sqrt(W)
    direct = trace_abs(R @ B @ R)
    assert abs(weighted_trace_abs(W, B) - direct) < 1e-10
    eig_sum = np.abs(np.linalg.eigvals(W @ B)).sum()
    assert abs(weighted_trace_abs(W, B) - eig_sum) < 1e-9

    V = random_unitary(rng, 4)
    S = V @ np.diag([0.0, 0.6, 0.0, 0.4]) @ V.conj().T
    F = support_factor(S)
    assert F.shape == (4, 2) and np.allclose(F @ F.conj().T, S, atol=1e-12)
    A = 1j * random_hermitian(rng, 4)
    eig_sum = np.abs(np.linalg.eigvals(S @ A)).sum()
    assert eig_sum > 0.1
    assert abs(weighted_trace_abs(S, A) - eig_sum) < 1e-9


@given(st.integers(0, 10**6), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_trace_abs_dominates_the_trace_and_ignores_rotations(seed, d):
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, d)
    U = random_unitary(rng, d)
    assert trace_abs(H) >= abs(np.trace(H).real) - 1e-12
    assert abs(trace_abs(U @ H @ U.conj().T) - trace_abs(H)) < 1e-9
