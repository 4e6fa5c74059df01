"""Unit tests for grid models, moments, the zoo, and the JSON format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_grid_model, random_spd
from qbayes.model import (
    GridPoint,
    ModelError,
    StatisticalModel,
    WeightSpec,
    build_extended_moments,
    build_moments,
    classical_binary,
    correlated_pair,
    load_model,
    model_from_dict,
    model_to_dict,
    model_zoo,
    qubit_xy,
    qubit_z_line,
    random_model,
    save_model,
    with_weight,
)


def test_model_rejects_bad_states():
    with pytest.raises(ModelError):
        GridPoint(theta=np.zeros(1), weight=-0.5, state=np.eye(2) / 2)
    spec = WeightSpec(constant=np.eye(1))
    off_trace = GridPoint(theta=np.zeros(1), weight=1.0,
                          state=np.array([[0.9, 0.0], [0.0, 0.2]]))
    with pytest.raises(ModelError):
        StatisticalModel(n=1, d=2, points=(off_trace,), weight_spec=spec)
    indefinite = GridPoint(theta=np.zeros(1), weight=1.0,
                           state=np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ModelError):
        StatisticalModel(n=1, d=2, points=(indefinite,), weight_spec=spec)


def test_model_requires_normalized_prior():
    state = np.eye(2) / 2
    pts = (GridPoint(theta=np.zeros(1), weight=0.7, state=state),
           GridPoint(theta=np.ones(1), weight=0.7, state=state))
    with pytest.raises(ModelError):
        StatisticalModel(n=1, d=2, points=pts,
                         weight_spec=WeightSpec(constant=np.eye(1)))


def test_weight_spec_modes():
    const = WeightSpec(constant=np.eye(2))
    assert const.is_constant
    assert np.allclose(const.matrix_at(0), np.eye(2))
    per = WeightSpec(per_point=(np.eye(2), 2.0 * np.eye(2)))
    assert not per.is_constant
    assert np.allclose(per.matrix_at(1), 2.0 * np.eye(2))


def test_classical_binary_moments():
    """Two diagonal states at theta = +-a with equal prior."""
    model = classical_binary(1.0, 0.6)
    mom = build_moments(model)
    assert abs(np.trace(mom.S_B) - 1.0) < 1e-12
    assert np.allclose(mom.theta_bar, 0.0)
    assert np.allclose(mom.M, np.array([[1.0]]))
    # D_B = sum_m pi_m theta_m S_m = (a/2)(S_+ - S_-) has trace a * 0 here
    assert abs(np.trace(mom.D_B[0])) < 1e-12


def test_correlated_pair_embeds_the_binary_model():
    model = correlated_pair(1.0, 0.6)
    assert model.n == 2
    mom = build_moments(model)
    # both coordinates carry the same marginal: theta_1 = theta_2 on the grid
    assert np.allclose(mom.M, mom.M[0, 0] * np.ones((2, 2)))


def test_qubit_z_line_has_derivatives_and_score():
    model = qubit_z_line(3)
    assert model.has_derivatives()
    assert model.prior_score is not None
    for pt in model.points:
        assert abs(np.trace(pt.state_derivatives[0])) < 1e-12


def test_qubit_xy_and_random_model_are_valid():
    for model in (qubit_xy(0.5, 4), random_model(2, 3, seed=7)):
        assert abs(sum(pt.weight for pt in model.points) - 1.0) < 1e-12
        for pt in model.points:
            w = np.linalg.eigvalsh(pt.state)
            assert w[0] > -1e-12 and abs(np.trace(pt.state) - 1.0) < 1e-12


def test_build_moments_second_moment_dominates_mean():
    rng = np.random.default_rng(11)
    model = random_grid_model(rng, 2, 2, 3)
    mom = build_moments(model)
    gram = mom.M - np.outer(mom.theta_bar, mom.theta_bar)
    assert np.linalg.eigvalsh(gram)[0] > -1e-10


def test_extended_moments_tensor_structure_under_identity_weight():
    rng = np.random.default_rng(12)
    model = random_grid_model(rng, 2, 2, 3)
    mom = build_moments(model)
    em = build_extended_moments(model)
    assert em.constant_W is not None
    # with W = I the extended blocks are diag(S_B, S_B) and D_bar = D_B
    assert np.allclose(em.S_bar.blocks[0, 0], mom.S_B)
    assert np.allclose(em.S_bar.blocks[0, 1], 0.0)
    assert np.allclose(em.D_bar, mom.D_B)
    assert abs(em.w_bar - np.trace(mom.M)) < 1e-12


def test_extended_moments_mix_weights_per_point():
    rng = np.random.default_rng(13)
    base = random_grid_model(rng, 2, 2, 2)
    Ws = tuple(random_spd(rng, 2) for _ in base.points)
    model = StatisticalModel(n=2, d=2, points=base.points,
                             weight_spec=WeightSpec(per_point=Ws))
    em = build_extended_moments(model)
    assert em.constant_W is None
    expected = sum(pt.weight * np.kron(Ws[m], pt.state)
                   for m, pt in enumerate(model.points))
    assert np.allclose(em.S_bar.full(), expected, atol=1e-12)
    D_expected = sum(pt.weight * (Ws[m] @ pt.theta)[:, None, None] * pt.state
                     for m, pt in enumerate(model.points))
    assert np.allclose(em.D_bar, D_expected, atol=1e-12)
    w_expected = sum(pt.weight * pt.theta @ Ws[m] @ pt.theta
                     for m, pt in enumerate(model.points))
    assert abs(em.w_bar - w_expected) < 1e-12
    assert abs(build_moments(model).w_bar - w_expected) < 1e-12


def test_with_weight_replaces_the_constant_block():
    model = classical_binary(1.0, 0.6)
    W = np.array([[2.0, 0.0], [0.0, 3.0]])[:1, :1]
    scaled = with_weight(model, 2.0 * np.eye(1))
    assert np.allclose(scaled.weight_spec.constant, 2.0 * np.eye(1))
    em = build_extended_moments(scaled)
    em0 = build_extended_moments(model)
    assert abs(em.w_bar - 2.0 * em0.w_bar) < 1e-12
    assert W.shape == (1, 1)


@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(2, 3))
@settings(max_examples=15, deadline=None)
def test_json_round_trip_preserves_the_model(seed, n, d):
    """to_dict/from_dict is lossless for states, prior, and weights."""
    rng = np.random.default_rng(seed)
    model = random_grid_model(rng, n, d, 3, W=random_spd(rng, n))
    back = model_from_dict(model_to_dict(model))
    assert back.n == model.n and back.d == model.d
    for p, q in zip(model.points, back.points):
        assert np.allclose(p.state, q.state, atol=1e-15)
        assert np.allclose(p.theta, q.theta)
        assert abs(p.weight - q.weight) < 1e-15
    assert np.allclose(back.weight_spec.constant, model.weight_spec.constant)


def test_json_round_trip_keeps_derivatives_and_score(tmp_path):
    model = qubit_z_line(3)
    path = tmp_path / "line.json"
    save_model(model, str(path))
    back = load_model(str(path))
    assert back.has_derivatives()
    assert back.prior_score is not None
    for p, q in zip(model.points, back.points):
        assert np.allclose(p.state_derivatives, q.state_derivatives, atol=1e-15)
    data = json.loads(path.read_text())
    assert "points" in data and "drho" in data["points"][0]


def test_model_from_dict_rejects_malformed_input():
    model = classical_binary(1.0, 0.6)
    data = model_to_dict(model)
    bad = json.loads(json.dumps(data))
    bad["points"][0]["rho"][0][1] = [5.0, 0.0]   # breaks hermiticity
    with pytest.raises(ModelError):
        model_from_dict(bad)
    missing = json.loads(json.dumps(data))
    del missing["points"]
    with pytest.raises(ModelError):
        model_from_dict(missing)


def test_model_zoo_dispatch_and_unknown_name():
    model = model_zoo("classical_binary", (1.0, 0.6))
    assert model.n == 1
    sized = model_zoo("qubit_xy", (0.5,), grid_size=6)
    assert len(sized.points) == 6
    with pytest.raises(ModelError):
        model_zoo("does_not_exist")


def test_empty_grid_is_rejected():
    with pytest.raises(ModelError):
        StatisticalModel(n=1, d=2, points=(),
                         weight_spec=WeightSpec(constant=np.eye(1)))


def test_zoo_rejects_states_outside_the_ball():
    """Radius beyond 1 would make the qubit states indefinite."""
    with pytest.raises(ModelError):
        classical_binary(1.0, 1.2)
    with pytest.raises(ModelError):
        qubit_xy(1.3, 4)


def test_moments_are_affine_in_the_prior():
    """Mixing two priors on one support mixes the moments linearly."""
    rng = np.random.default_rng(77)
    base = random_grid_model(rng, 2, 2, 4)
    t = 0.3
    wts_a = np.array([0.1, 0.2, 0.3, 0.4])
    wts_b = np.array([0.4, 0.3, 0.2, 0.1])

    def reweighted(wts):
        pts = tuple(GridPoint(theta=p.theta, weight=w, state=p.state)
                    for p, w in zip(base.points, wts))
        return StatisticalModel(n=base.n, d=base.d, points=pts,
                                weight_spec=base.weight_spec)

    mixed = reweighted(t * wts_a + (1 - t) * wts_b)
    ma = build_moments(reweighted(wts_a))
    mb = build_moments(reweighted(wts_b))
    mc = build_moments(mixed)
    assert np.allclose(mc.S_B, t * ma.S_B + (1 - t) * mb.S_B, atol=1e-12)
    assert np.allclose(mc.D_B, t * ma.D_B + (1 - t) * mb.D_B, atol=1e-12)
    assert np.allclose(mc.M, t * ma.M + (1 - t) * mb.M, atol=1e-12)
    assert abs(mc.w_bar - (t * ma.w_bar + (1 - t) * mb.w_bar)) < 1e-12


def test_moment_unitary_covariance():
    """Conjugating every state rotates S_B and D_B and fixes M, w_bar."""
    rng = np.random.default_rng(78)
    model = random_grid_model(rng, 2, 3, 3)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Q, R = np.linalg.qr(G)
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    pts = tuple(GridPoint(theta=p.theta, weight=p.weight,
                          state=U @ p.state @ U.conj().T)
                for p in model.points)
    rotated = StatisticalModel(n=2, d=3, points=pts,
                               weight_spec=model.weight_spec)
    m0 = build_moments(model)
    m1 = build_moments(rotated)
    assert np.allclose(m1.S_B, U @ m0.S_B @ U.conj().T, atol=1e-12)
    for j in range(2):
        assert np.allclose(m1.D_B[j], U @ m0.D_B[j] @ U.conj().T, atol=1e-12)
    assert np.allclose(m1.M, m0.M, atol=1e-12)
    assert np.allclose(m1.theta_bar, m0.theta_bar, atol=1e-12)
    assert abs(m1.w_bar - m0.w_bar) < 1e-12


def test_per_point_weight_json_round_trip():
    rng = np.random.default_rng(79)
    Ws = np.stack([random_spd(rng, 2) for _ in range(3)])
    base = random_grid_model(rng, 2, 2, 3)
    pts = tuple(GridPoint(theta=p.theta, weight=p.weight, state=p.state)
                for p in base.points)
    model = StatisticalModel(n=2, d=2, points=pts,
                             weight_spec=WeightSpec(per_point=Ws))
    back = model_from_dict(model_to_dict(model))
    assert back.weight_spec.constant is None
    assert np.allclose(back.weight_spec.per_point, Ws, atol=1e-15)
