"""Unit tests for the closed-form quadratic bounds."""

import warnings

import numpy as np
import pytest

from helpers import compressed_moments, pure_model, pure_panel, \
    random_grid_model, random_hermitian
from qbayes.closedform import (
    SingularInformationError,
    rld_bound,
    sld_bound,
    sld_fisher_point,
    van_tree_bound,
)
from qbayes.matcore import lyapunov_solve
from qbayes.model import (
    BayesMoments,
    CapabilityError,
    GridPoint,
    StatisticalModel,
    WeightSpec,
    build_moments,
    classical_binary,
    qubit_z_line,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def two_parameter_fixture():
    """Hand-solvable moments: diagonal mean state with sigma_x/sigma_y drifts."""
    return BayesMoments(S_B=np.diag([0.75, 0.25]).astype(complex),
                        D_B=np.stack([0.1 * SX, 0.1 * SY]),
                        M=0.1 * np.eye(2), theta_bar=np.zeros(2), w_bar=0.2)


def test_sld_bound_on_the_diagonal_fixture():
    """L_j = 0.2 sigma_{x,y} solves the anticommutator equation, K = 0.04 I."""
    value, pkg = sld_bound(two_parameter_fixture(), np.eye(2))
    assert abs(value - 0.12) < 1e-12
    assert np.allclose(pkg.L[0], 0.2 * SX, atol=1e-12)
    assert np.allclose(pkg.L[1], 0.2 * SY, atol=1e-12)
    assert np.allclose(pkg.K, 0.04 * np.eye(2), atol=1e-12)


def test_rld_bound_is_strictly_tighter_on_the_fixture():
    value, pkg = rld_bound(two_parameter_fixture(), np.eye(2))
    assert abs(value - 11.0 / 75.0) < 1e-12
    # Ktilde is genuinely complex: the off-diagonal carries the gain
    assert abs(pkg.Ktilde[0, 1].imag) > 1e-3


def test_classical_binary_closed_forms_agree():
    """On a commuting family SLD and RLD coincide at 2 a^2 (1 - r^2) / 2."""
    model = classical_binary(1.0, 0.6)
    mom = build_moments(model)
    sld, _ = sld_bound(mom, np.eye(1))
    rld, _ = rld_bound(mom, np.eye(1))
    assert abs(sld - 0.64) < 1e-12
    assert abs(rld - 0.64) < 1e-9


def test_sld_solves_the_averaged_anticommutator():
    rng = np.random.default_rng(21)
    model = random_grid_model(rng, 2, 3, 3)
    mom = build_moments(model)
    _, pkg = sld_bound(mom, np.eye(2))
    for j in range(2):
        lhs = (mom.S_B @ pkg.L[j] + pkg.L[j] @ mom.S_B) / 2
        assert np.allclose(lhs, mom.D_B[j], atol=1e-10)
        assert np.allclose(lyapunov_solve(mom.S_B, mom.D_B[j]), pkg.L[j],
                           atol=1e-10)


def test_weight_enters_bilinearly():
    rng = np.random.default_rng(22)
    model = random_grid_model(rng, 2, 2, 3)
    mom = build_moments(model)
    v1, _ = sld_bound(mom, np.eye(2))
    v2, _ = sld_bound(mom, 3.0 * np.eye(2))
    assert abs(v2 - 3.0 * v1) < 1e-12
    r1, _ = rld_bound(mom, np.eye(2))
    r2, _ = rld_bound(mom, 3.0 * np.eye(2))
    assert abs(r2 - 3.0 * r1) < 1e-10


def test_sld_fisher_point_identity():
    """J_jk = Tr(dS_j L_k) for the pointwise symmetric-derivative solution."""
    model = qubit_z_line(3)
    pt = model.points[1]
    J = sld_fisher_point(pt.state, pt.state_derivatives)
    L = lyapunov_solve(pt.state, pt.state_derivatives[0])
    direct = np.real(np.trace(pt.state_derivatives[0] @ L))
    assert J.shape == (1, 1)
    assert abs(J[0, 0] - direct) < 1e-10
    assert J[0, 0] > 0


@pytest.mark.parametrize("model", [
    *pure_panel(), pure_model(2, 10, 4, 1, seed=10),
    pure_model(3, 12, 3, 2, seed=12), pure_model(2, 12, 4, 2, seed=12)],
    ids=["panel-6-1", "panel-6-2", "panel-8-1", "2-10-4-1", "3-12-3-2",
         "2-12-4-2"])
def test_closed_forms_are_exact_on_a_singular_mean_state(model):
    """Pure or rank-2 states leave S_B singular (all but panel-6-2, whose
    eight state vectors span C^6): the SLD and RLD bounds equal the same
    bounds on the moments compressed to supp(S_B)."""
    moments, W = build_moments(model), model.weight_spec.constant
    reference = compressed_moments(moments)
    for bound in (sld_bound, rld_bound):
        v, ref = bound(moments, W)[0], bound(reference, W)[0]
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))


def test_sld_fisher_point_of_a_pure_state_is_four_covariances():
    """For psi(theta) = exp(-i theta.H) psi the QFI is 4 Re Cov_psi(H_j, H_k):
    the singular state is solved exactly on its support."""
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    H = np.stack([random_hermitian(rng, 5) for _ in range(2)])
    J = sld_fisher_point(rho, np.stack([-1j * (Hj @ rho - rho @ Hj) for Hj in H]))
    mean = np.einsum("a,jab,b->j", psi.conj(), H, psi)
    second = np.einsum("a,jab,kbc,c->jk", psi.conj(), H, H, psi)
    expected = 4.0 * (second - np.outer(mean, mean)).real
    assert np.abs(J - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("state, derivative", [
    (np.eye(2) / 2, np.eye(2)),
    # traceless, but not Hermitian: its Hermitian part must not be used instead
    (np.diag([0.7, 0.3]), np.array([[0.1, 0.2], [0.0, -0.1]])),
], ids=["traced", "non-hermitian"])
def test_sld_fisher_point_requires_traceless_derivatives(state, derivative):
    with pytest.raises(ValueError):
        sld_fisher_point(state, np.stack([derivative]))


def test_van_tree_needs_derivatives_and_score():
    with pytest.raises(CapabilityError):
        van_tree_bound(classical_binary(1.0, 0.6), np.eye(1))


def test_van_tree_matches_the_information_average():
    """The value is Tr(W (J_prior + sum_m pi_m J_m)^{-1}) on the grid."""
    model = qubit_z_line(5)
    vt = van_tree_bound(model, np.eye(1))
    pi = model.pi
    J = sum(pi[m] * sld_fisher_point(p.state, p.state_derivatives)
            for m, p in enumerate(model.points))
    J = J + np.einsum("m,mi,mj->ij", pi, model.prior_score, model.prior_score)
    assert abs(vt - 1.0 / J[0, 0]) < 1e-12
    # a sharper prior score only shrinks the baseline
    spiked = StatisticalModel(n=1, d=2, points=model.points,
                              weight_spec=model.weight_spec,
                              prior_score=np.ones((len(model.points), 1)) * 3.0)
    assert van_tree_bound(spiked, np.eye(1)) < vt


def test_van_tree_flags_singular_information():
    state = np.eye(2) / 2
    zero = np.zeros((1, 2, 2), dtype=complex)
    pts = (GridPoint(theta=np.zeros(1), weight=1.0, state=state,
                     state_derivatives=zero),)
    model = StatisticalModel(n=1, d=2, points=pts,
                             weight_spec=WeightSpec(constant=np.eye(1)),
                             prior_score=np.zeros((1, 1)))
    with pytest.raises(SingularInformationError):
        van_tree_bound(model, np.eye(1))


def test_rld_singular_weight_stays_exact():
    """PSD-singular W: W Im(Kt) is a defective nilpotent here, but the
    congruence value is still exact (the nonzero spectrum is empty), and no
    warning of any class is raised."""
    mom = two_parameter_fixture()
    W = np.diag([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, pkg = rld_bound(mom, W)
    assert np.abs(W @ pkg.Ktilde.imag).max() > 1e-3   # nonzero nilpotent
    assert abs(value - (0.1 - 0.2 / 3.75)) < 1e-12    # trace-norm term is 0


def test_van_tree_pinned_line_value():
    """Three-point line with zero scores: mean of 1/(1 - theta^2), inverted."""
    model = qubit_z_line(3)
    value = van_tree_bound(model, np.eye(1))
    assert abs(value - 9.0 / 11.0) < 1e-9
