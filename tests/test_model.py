"""Unit tests for grid models, moments, the zoo, and the JSON format."""

import json
import re

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
    mom = build_extended_moments(model)
    assert abs(np.trace(mom.S_B) - 1.0) < 1e-12
    assert np.allclose(mom.M, np.array([[1.0]]))
    # D_B = sum_m pi_m theta_m S_m = (a/2)(S_+ - S_-) has trace a * 0 here
    assert abs(np.trace(mom.D_B[0])) < 1e-12


def test_correlated_pair_embeds_the_binary_model():
    model = correlated_pair(1.0, 0.6)
    assert model.n == 2
    mom = build_extended_moments(model)
    # both coordinates carry the same marginal: theta_1 = theta_2 on the grid
    assert np.allclose(mom.M, mom.M[0, 0] * np.ones((2, 2)))


@pytest.mark.parametrize("build", [build_moments, build_extended_moments],
                         ids=["moments", "extended"])
def test_overflowing_moments_are_rejected(build):
    """theta = +-1e200 is finite, but its square is not: the second moment
    M and w_bar overflow to inf, a ModelError that names the first moment
    checked, w_bar. `build_moments` is the same builder under the name the
    benchmark calls."""
    with pytest.raises(ModelError, match="^moment w_bar has non-finite entries$"):
        build(correlated_pair(1e200, 0.6))


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
    mom = build_extended_moments(model)
    theta_bar = model.pi @ model.thetas
    gram = mom.M - np.outer(theta_bar, theta_bar)
    assert np.linalg.eigvalsh(gram)[0] > -1e-10


def test_extended_moments_tensor_structure_under_identity_weight():
    rng = np.random.default_rng(12)
    model = random_grid_model(rng, 2, 2, 3)
    em = build_extended_moments(model)
    assert em.weight_spec.is_constant
    # with W = I the extended blocks are diag(S_B, S_B) and D_bar = D_B
    assert em.S_bar.shape == (4, 4)
    assert np.allclose(em.S_bar[:2, :2], em.S_B)
    assert np.allclose(em.S_bar[:2, 2:], 0.0)
    assert np.allclose(em.D_bar, em.D_B)
    assert abs(em.w_bar - np.trace(em.M)) < 1e-12


def test_extended_moments_mix_weights_per_point():
    rng = np.random.default_rng(13)
    base = random_grid_model(rng, 2, 2, 2)
    Ws = tuple(random_spd(rng, 2) for _ in base.points)
    model = StatisticalModel(n=2, d=2, points=base.points,
                             weight_spec=WeightSpec(per_point=Ws))
    em = build_extended_moments(model)
    assert not em.weight_spec.is_constant
    expected = sum(pt.weight * np.kron(Ws[m], pt.state)
                   for m, pt in enumerate(model.points))
    assert np.allclose(em.S_bar, expected, atol=1e-12)
    D_expected = sum(pt.weight * (Ws[m] @ pt.theta)[:, None, None] * pt.state
                     for m, pt in enumerate(model.points))
    assert np.allclose(em.D_bar, D_expected, atol=1e-12)
    w_expected = sum(pt.weight * pt.theta @ Ws[m] @ pt.theta
                     for m, pt in enumerate(model.points))
    assert abs(em.w_bar - w_expected) < 1e-12


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
    ma = build_extended_moments(reweighted(wts_a))
    mb = build_extended_moments(reweighted(wts_b))
    mc = build_extended_moments(mixed)
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
    m0 = build_extended_moments(model)
    m1 = build_extended_moments(rotated)
    assert np.allclose(m1.S_B, U @ m0.S_B @ U.conj().T, atol=1e-12)
    for j in range(2):
        assert np.allclose(m1.D_B[j], U @ m0.D_B[j] @ U.conj().T, atol=1e-12)
    assert np.allclose(m1.M, m0.M, atol=1e-12)
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


HALF = np.eye(2) / 2


def _two_points(n=1, weight=None, score=None):
    """A model on C^2 with two maximally mixed points at theta = 0 and 1."""
    pts = (GridPoint(theta=np.zeros(n), weight=0.5, state=HALF),
           GridPoint(theta=np.ones(n), weight=0.5, state=HALF))
    return StatisticalModel(n=n, d=2, points=pts, prior_score=score,
                            weight_spec=weight or WeightSpec(constant=np.eye(n)))


def _one_point(n=1, **point):
    """A one-point model on C^2 built from the GridPoint fields `point`."""
    fields = {"theta": np.zeros(n), "weight": 1.0, "state": HALF, **point}
    return StatisticalModel(n=n, d=2, points=(GridPoint(**fields),),
                            weight_spec=WeightSpec(constant=np.eye(n)))


def _edited_file(edit):
    """The dict form of qubit_z_line(2), which carries drho and score on
    every point, after edit(data)."""
    data = model_to_dict(qubit_z_line(2))
    edit(data)
    return model_from_dict(data)


def _set(path, value):
    """An edit that sets data[path[0]][path[1]]... to value."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


@pytest.mark.parametrize("build, fragment", [
    (lambda: _one_point(state=np.eye(3) / 3),
     "point 0: state shape (3, 3), expected (2, 2)"),
    (lambda: _two_points(weight=WeightSpec(constant=np.eye(2))),
     "weight shape (2, 2), expected (1, 1)"),
    (lambda: _two_points(2, WeightSpec(per_point=[np.eye(2), [[1, 0.5], [0, 1]]])),
     "weight 1: weight matrix not symmetric"),
    (lambda: _two_points(2, WeightSpec(per_point=[np.eye(2), np.diag([1.0, -1.0])])),
     "weight 1: weight matrix not PSD"),
    (lambda: WeightSpec(constant=np.eye(1), per_point=np.ones((2, 1, 1))),
     "exactly one of constant/per_point"),
    (lambda: WeightSpec(), "exactly one of constant/per_point"),
    (lambda: _one_point(2, theta=[0.0]), "point 0: theta length 1, expected 2"),
    (lambda: _one_point(state_derivatives=np.zeros((2, 2, 2))),
     "point 0: derivative shape (2, 2, 2)"),
    (lambda: _two_points(score=np.zeros((2, 2))),
     "prior_score shape (2, 2), expected (2, 1)"),
    (lambda: model_zoo("classical_binary", (1.0,)),
     "classical_binary takes parameters (a, r)"),
    (lambda: model_zoo("qubit_xy"), "qubit_xy takes parameters (b[, grid])"),
    (lambda: model_zoo("random_model", (2, 2)),
     "random_model takes parameters (n, d, seed[, grid])"),
    (lambda: random_model(2, 2, 0, grid=0), "grid count must be an integer >= 1, got 0"),
    (lambda: random_model(0, 2, 0), "n must be an integer >= 1, got 0"),
    (lambda: _edited_file(_set(["points", 0, "rho"], [[0.5, 0.0], [0.0, 0.5]])),
     "point 0: entries must be [re, im] pairs"),
    (lambda: _edited_file(_set(["points", 0, "rho"], [[[1.0, 0.0]]])),
     "point 0: shape (1, 1), expected (2, 2)"),
    (lambda: _edited_file(_set(["weight"], {})),
     "'weight' must contain 'constant' or 'per_point'"),
    (lambda: model_from_dict([]), "model file must contain a JSON object"),
    (lambda: _edited_file(_set(["points"], [])),
     "'points' must be a non-empty list"),
    (lambda: _edited_file(lambda data: data["points"][0]["drho"].append(
        data["points"][0]["drho"][0])),
     "point 0: expected 1 derivative matrices"),
    (lambda: _edited_file(lambda data: data["points"][1].pop("score")),
     "'score' must be attached to every point or none"),
    (lambda: _edited_file(_set(["points", 0, "theta"], "12")),
     "point 0: field 'theta': expected a list, got str"),
    (lambda: _edited_file(_set(["points", 1, "score"], "00")),
     "point 1: field 'score': expected a list, got str"),
    (lambda: _edited_file(_set(["points", 1, "score"], [0.0, 0.0])),
     "point 1: field 'score': length 2, expected 1"),
    (lambda: _edited_file(_set(["n"], True)),
     "model: field 'n': expected a number, got bool"),
    (lambda: _edited_file(_set(["points", 0, "weight"], "0.5")),
     "point 0: field 'weight': expected a number, got str"),
    (lambda: _edited_file(_set(["points", 0, "theta"], [False])),
     "point 0: field 'theta': expected a number, got bool"),
    (lambda: _edited_file(_set(["points", 0, "weight"], 10 ** 400)),
     "point 0: field 'weight': int too large to convert to float"),
    (lambda: _edited_file(_set(["weight", "constant"], [["1"]])),
     "model: field 'weight': expected a number, got str"),
    (lambda: _edited_file(_set(["weight"], "constant")),
     "model: field 'weight': expected an object, got str"),
    (lambda: _edited_file(_set(["points", 0, "rho", 0, 0], [True, 0.0])),
     "point 0: entries must be [re, im] pairs of numbers (expected a number, "
     "got bool)"),
    (lambda: _edited_file(_set(["points", 0, "drho"], "ab")),
     "point 0 drho: entries must be [re, im] pairs of numbers (expected a "
     "list, got str)"),
], ids=["state-shape", "weight-shape", "weight-not-symmetric",
        "weight-not-psd", "weight-spec-both-forms", "weight-spec-neither-form",
        "theta-length", "derivative-shape", "prior-score-shape",
        "zoo-binary-arity", "zoo-qubit-xy-arity",
        "zoo-random-arity", "random-model-zero-grid", "random-model-zero-n",
        "json-entries-not-pairs", "json-matrix-shape",
        "json-weight-form", "json-not-an-object", "json-empty-points",
        "json-drho-count", "json-partial-scores", "json-theta-string",
        "json-score-string", "json-score-length", "json-n-boolean",
        "json-weight-string", "json-theta-boolean", "json-weight-overflow",
        "json-weight-matrix-string", "json-weight-form-string",
        "json-rho-boolean", "json-drho-string"])
def test_model_checks_name_what_is_wrong(build, fragment):
    with pytest.raises(ModelError, match=re.escape(fragment)):
        build()
