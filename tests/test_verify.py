"""Unit tests for measurements, exact grid risk, and the seesaw harness."""

import dataclasses
import warnings

import numpy as np
import pytest

from helpers import (
    count_moment_builds,
    pure_panel,
    random_grid_model,
    random_spd,
    record_row_counts,
    single_parameter_models,
)
from qbayes import conic
from qbayes.closedform import sld_bound
from qbayes.model import (
    CapabilityError,
    StatisticalModel,
    WeightSpec,
    build_extended_moments,
    classical_binary,
    qubit_xy,
    random_model,
)
from qbayes.sdpbounds import nagaoka_hayashi_bound
from qbayes.verify import (
    Povm,
    bayes_risk,
    optimal_povm_step,
    ordering_audit,
    posterior_mean_estimator,
    random_povm,
    rounded_measurement,
    seesaw,
)


def test_povm_validation():
    with pytest.raises(ValueError):
        Povm(())
    with pytest.raises(ValueError):
        Povm((np.diag([1.2, 1.0]), np.diag([-0.2, 0.0])))   # negative element
    with pytest.raises(ValueError):
        Povm((np.eye(2) / 2,))                               # does not resolve I
    povm = Povm((np.eye(2) / 2, np.eye(2) / 2))
    assert povm.dim == 2 and len(povm) == 2


def test_povm_is_one_checked_stack():
    """The elements are kept as one (outcomes, d, d) complex array, checked
    Hermitian as a stack: the pair below sums to I and its Hermitian parts
    are PSD, yet E is not Hermitian, so it is no measurement."""
    E = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(ValueError, match="deviates from Hermitian"):
        Povm((E, np.eye(2) - E))
    povm = Povm([np.eye(2) / 2, np.eye(2) / 2])
    assert isinstance(povm.elements, np.ndarray)
    assert povm.elements.shape == (2, 2, 2) and povm.elements.dtype == complex


def test_random_povm_is_valid_and_seeded():
    a = random_povm(3, 4, np.random.default_rng(5))
    b = random_povm(3, 4, np.random.default_rng(5))
    total = sum(a.elements)
    assert np.allclose(total, np.eye(3), atol=1e-9)
    assert all(np.array_equal(x, y) for x, y in zip(a.elements, b.elements))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_povm_needs_at_least_d_outcomes(d):
    """Fewer rank-one elements than d leave their sum singular up to the ridge."""
    with pytest.raises(ValueError, match=f"needs at least {d} outcomes"):
        random_povm(d, d - 1, np.random.default_rng(0))
    assert len(random_povm(d, d, np.random.default_rng(0))) == d


def test_ordering_audit_rejects_fewer_outcomes_than_d_before_solving(monkeypatch):
    import qbayes.conic as conic

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting the outcome count")

    monkeypatch.setattr(conic, "solve", no_solve)
    model = random_model(2, 4, seed=2)
    with pytest.raises(ValueError, match="needs at least 4 outcomes"):
        ordering_audit(model, outcome_count=model.d - 1)


@pytest.mark.parametrize("call, message", [
    (lambda m: bayes_risk(m, Povm((np.eye(2),)), np.zeros((2, 2))),
     r"estimates shape \(2, 2\), expected \(1, 2\)"),
    (lambda m: bayes_risk(m, Povm((np.eye(2),)), [[np.nan, 0.0]]),
     "estimates have non-finite entries"),
    (lambda m: optimal_povm_step(m, np.zeros((3, 1))),
     "estimate dimension 1, expected 2"),
    (lambda m: optimal_povm_step(m, np.zeros((0, 2))),
     "a measurement update needs at least one estimate"),
    (lambda m: optimal_povm_step(m, np.zeros((3, 2, 2))),
     r"estimates shape \(3, 2, 2\), expected \(K, 2\)"),
    (lambda m: Povm((np.eye(2) / 2, np.diag([0.5, 0.5, 0.0]))),
     "measurement elements must share one dimension"),
    (lambda m: seesaw(m, iters=2.5), "iters must be positive and an integer, got 2.5"),
    (lambda m: seesaw(m, iters=True), "iters must be positive and an integer, got True"),
    (lambda m: seesaw(m, outcome_count=2.5),
     "outcome_count must be positive and an integer, got 2.5"),
    (lambda m: ordering_audit(m, iters=2.5), "iters must be positive and an integer"),
], ids=["bayes-risk-estimates-shape", "bayes-risk-nan-estimates",
        "povm-step-estimate-dimension", "povm-step-no-estimates",
        "povm-step-estimates-3d", "povm-elements-of-two-dimensions",
        "seesaw-fractional-iters", "seesaw-bool-iters",
        "seesaw-fractional-outcome-count", "audit-fractional-iters"])
def test_documented_argument_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call(qubit_xy(0.6))


def test_bayes_risk_hand_computation():
    """Reading the diagonal of the classical binary model in its own basis."""
    model = classical_binary(1.0, 0.6)
    povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    dec = posterior_mean_estimator(model, povm)
    # the posterior mean after outcome k is r * a * (+-1), risk 1 - r^2
    assert abs(dec.estimates[0, 0] - 0.6) < 1e-12
    assert abs(dec.estimates[1, 0] + 0.6) < 1e-12
    assert abs(dec.risk - 0.64) < 1e-12
    assert abs(bayes_risk(model, povm, dec.estimates) - dec.risk) < 1e-15


def test_posterior_mean_is_the_best_estimator_for_a_fixed_povm():
    rng = np.random.default_rng(51)
    model = random_grid_model(rng, 2, 2, 3)
    povm = random_povm(2, 4, rng)
    dec = posterior_mean_estimator(model, povm)
    jitter = dec.estimates + 0.01 * rng.standard_normal(dec.estimates.shape)
    assert bayes_risk(model, povm, jitter) >= dec.risk - 1e-12


def test_dead_outcomes_fall_back_to_the_prior_mean():
    model = classical_binary(1.0, 0.6)
    povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))))
    dec = posterior_mean_estimator(model, povm)
    prior_mean = model.pi @ model.thetas
    assert np.allclose(dec.estimates[2], prior_mean)


def test_optimal_povm_step_improves_a_random_start():
    rng = np.random.default_rng(52)
    model = random_grid_model(rng, 2, 2, 3)
    start = posterior_mean_estimator(model, random_povm(2, 4, rng))
    stepped = optimal_povm_step(model, start.estimates)
    assert bayes_risk(model, stepped, start.estimates) <= start.risk + 1e-9


def test_optimal_povm_step_charges_each_outcome_its_grid_loss(monkeypatch):
    """The objective on element x is F_x = sum_m pi_m l(x, m) S_m, with l
    the quadratic loss under the grid point's own weight W_m."""
    rng = np.random.default_rng(54)
    model = _per_point_model(rng, 2, 3, 3, [random_spd(rng, 2) for _ in range(3)])
    est = rng.uniform(-1.0, 1.0, (4, 2))
    seen = []
    set_objective = conic.ConicProgram.set_objective

    def recording(self, coeffs=None, offset=0.0):
        seen.append(coeffs)
        set_objective(self, coeffs, offset)

    monkeypatch.setattr(conic.ConicProgram, "set_objective", recording)
    optimal_povm_step(model, est)
    assert len(seen) == 1 and len(seen[0]) == len(est)
    for x, F in enumerate(seen[0].values()):
        expected = sum(p.weight * (est[x] - p.theta)
                       @ model.weight_spec.per_point[m] @ (est[x] - p.theta)
                       * p.state for m, p in enumerate(model.points))
        assert np.allclose(F, expected, atol=1e-14)


@pytest.mark.parametrize("bad,message", [
    (np.nan, "estimates have non-finite entries"),
    (np.inf, "estimates have non-finite entries"),
    (1e200, "the loss at these estimates overflows"),
])
def test_optimal_povm_step_rejects_estimates_it_cannot_score(bad, message):
    """Non-finite estimates, and finite ones whose quadratic loss
    overflows, are rejected before a program is built, with the message
    `bayes_risk` gives non-finite estimates or one naming the overflow."""
    rng = np.random.default_rng(55)
    model = random_grid_model(rng, 2, 2, 3)
    est = rng.uniform(-1.0, 1.0, (3, 2))
    est[1, 0] = bad
    with pytest.raises(ValueError, match=message):
        optimal_povm_step(model, est)


def test_optimal_povm_step_pins_the_identity_resolution(monkeypatch):
    """One program with d^2 rows for sum_x E_x = I, however many outcomes."""
    counts = record_row_counts(monkeypatch)
    rng = np.random.default_rng(53)
    model = random_grid_model(rng, 2, 3, 3)
    povm = optimal_povm_step(model, rng.uniform(-1.0, 1.0, (5, 2)))
    assert counts == [9]
    assert len(povm) == 5
    assert np.allclose(sum(povm.elements), np.eye(3), atol=1e-9)


def test_seesaw_certifies_the_classical_binary_value():
    dec = seesaw(classical_binary(1.0, 0.6), iters=25, seed=0)
    assert dec.risk <= 0.64 + 1e-6
    em = build_extended_moments(classical_binary(1.0, 0.6))
    assert dec.risk >= nagaoka_hayashi_bound(em).value - 1e-6


def test_seesaw_risk_is_reproducible_and_above_the_bound():
    model = random_model(2, 2, seed=9)
    a = seesaw(model, iters=6, seed=3)
    b = seesaw(model, iters=6, seed=3)
    assert a.risk == b.risk
    em = build_extended_moments(model)
    assert a.risk >= nagaoka_hayashi_bound(em).value - 1e-6


def test_seesaw_default_outcome_count_covers_the_dimension():
    """d = 6 exceeds n + 2 = 4; the default start must still resolve I."""
    model = random_model(2, 6, seed=1, grid=4)
    dec = seesaw(model, iters=2)
    assert len(dec.povm) >= model.d
    assert np.allclose(sum(dec.povm.elements), np.eye(model.d), atol=1e-8)


def test_rounded_nh_measurement_attains_the_single_parameter_bound():
    """For n = 1 the eigenbasis of NH's observable attains m - K."""
    for model in single_parameter_models():
        nh = nagaoka_hayashi_bound(build_extended_moments(model))
        target = sld_bound(build_extended_moments(model), np.eye(1))[0]
        dec = rounded_measurement(model, nh.Xopt)
        assert len(dec.povm) == model.d
        assert abs(dec.risk - target) <= 1e-7


def test_rounded_nh_measurement_attains_nh_on_qubit_xy():
    model = qubit_xy(0.6)
    nh = nagaoka_hayashi_bound(build_extended_moments(model))
    dec = rounded_measurement(model, nh.Xopt)
    assert abs(dec.risk - nh.value) <= 1e-6
    assert dec.risk == bayes_risk(model, dec.povm, dec.estimates)


def test_seesaw_from_a_start_is_deterministic_and_monotone():
    model = random_model(2, 3, seed=4, grid=3)
    start = posterior_mean_estimator(
        model, random_povm(3, 4, np.random.default_rng(7)))
    a = seesaw(model, iters=4, start=start)
    b = seesaw(model, iters=4, start=start)
    assert a.risk == b.risk
    assert np.array_equal(a.estimates, b.estimates)
    assert a.risk <= start.risk


@pytest.mark.parametrize("iters", [0, -3])
def test_seesaw_rejects_an_iteration_count_below_one(iters):
    with pytest.raises(ValueError, match="iters must be positive"):
        seesaw(random_model(2, 2, seed=9), iters=iters, seed=3)


def test_seesaw_takes_numpy_integer_counts():
    model = qubit_xy(0.6)
    a = seesaw(model, outcome_count=np.int64(4), iters=np.int64(2), seed=0)
    b = seesaw(model, outcome_count=4, iters=2, seed=0)
    assert a.risk == b.risk


@pytest.mark.parametrize("iters", [0, -3])
def test_ordering_audit_rejects_an_iteration_count_below_one(iters):
    """Also where the rounded NH measurement attains NH and no seesaw runs."""
    with pytest.raises(ValueError, match="iters must be positive"):
        ordering_audit(qubit_xy(0.6), iters=iters)


@pytest.mark.parametrize("kwargs", [{"outcome_count": 0}, {"seed": -1}],
                         ids=["outcome_count-0", "seed-minus-1"])
def test_ordering_audit_rejects_bad_fallback_arguments_before_solving(kwargs):
    """On qubit_xy(0.6) the rounded NH measurement attains NH, so the seeded
    fallback that would reject these arguments never runs."""
    with pytest.raises(ValueError):
        ordering_audit(qubit_xy(0.6), **kwargs)


def test_start_of_the_wrong_dimension_is_rejected():
    model = random_model(2, 3, seed=4, grid=3)
    qubit = random_model(2, 2, seed=4, grid=3)
    start = posterior_mean_estimator(
        qubit, random_povm(2, 4, np.random.default_rng(7)))
    with pytest.raises(ValueError):
        seesaw(model, iters=2, start=start)
    with pytest.raises(ValueError):
        rounded_measurement(model, np.zeros((2, 2, 2)))


def test_personick_measurement_attains_the_quadratic_bound():
    """The eigenbasis of the SLD L, read by `rounded_measurement`, attains
    m - K; its estimates are the eigenvalues of L."""
    for model in (classical_binary(1.0, 0.6), random_model(1, 3, seed=2)):
        value, sld = sld_bound(build_extended_moments(model), np.eye(1))
        dec = rounded_measurement(model, sld.L)
        assert abs(dec.risk - value) < 1e-9
        assert np.allclose(np.sort(dec.estimates[:, 0]),
                           np.linalg.eigvalsh(sld.L[0]), atol=1e-12)


def test_per_point_weight_reaches_the_seesaw_but_not_the_audit(monkeypatch):
    """The estimator and the seesaw take a weight per grid point. With W_m =
    c_m I the estimate is the posterior mean reweighted by c_m. The audit's
    SLD and RLD rungs need a constant weight and say so before any solve."""
    rng = np.random.default_rng(53)
    base = random_grid_model(rng, 2, 2, 2)
    c = np.array([1.0, 2.0])
    model = StatisticalModel(n=2, d=2, points=base.points,
                             weight_spec=WeightSpec(
                                 per_point=(c[0] * np.eye(2), c[1] * np.eye(2))))
    povm = random_povm(2, 3, rng)
    dec = posterior_mean_estimator(model, povm)
    for x, E in enumerate(povm.elements):
        w = c * model.pi * np.real(np.einsum("mab,ba->m", model.states, E))
        assert np.allclose(dec.estimates[x], w @ model.thetas / w.sum(),
                           atol=1e-12)
    assert dec.risk == bayes_risk(model, povm, dec.estimates)
    assert seesaw(model, iters=2, start=dec).risk <= dec.risk

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(conic, "solve", no_solve)
    with pytest.raises(CapabilityError, match="constant weight"):
        ordering_audit(model, iters=2)


def _per_point_model(rng, n, d, grid, weights):
    base = random_grid_model(rng, n, d, grid)
    return dataclasses.replace(base, weight_spec=WeightSpec(
        per_point=np.stack(weights)))


def test_weighted_posterior_mean_solves_the_normal_equations():
    """Per outcome, sum_m w_m W_m (theta_hat - theta_m) = 0 with w_m =
    pi_m Tr(S_m E_x), solved here directly."""
    rng = np.random.default_rng(61)
    model = _per_point_model(rng, 3, 3, 4, [random_spd(rng, 3) for _ in range(4)])
    povm = random_povm(3, 5, rng)
    dec = posterior_mean_estimator(model, povm)
    Ws = model.weight_spec.per_point
    for x, E in enumerate(povm.elements):
        w = model.pi * np.real(np.einsum("mab,ba->m", model.states, E))
        P = np.einsum("m,mjk->jk", w, Ws)
        b = np.einsum("m,mjk,mk->j", w, Ws, model.thetas)
        assert np.allclose(dec.estimates[x], np.linalg.solve(P, b),
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("shared_null", [False, True],
                         ids=["one-singular", "all-singular"])
def test_weighted_posterior_mean_is_a_minimum_with_singular_weights(shared_null):
    """Where one W_m is singular, or all share a null direction (so that
    sum_m w_m W_m is singular too), no small move of any estimate lowers the
    exact risk."""
    rng = np.random.default_rng(62)
    v = rng.standard_normal(2)
    if shared_null:
        u = np.array([-v[1], v[0]])
        weights = [s * np.outer(u, u) for s in rng.uniform(0.5, 2.0, 3)]
    else:
        weights = [np.outer(v, v), random_spd(rng, 2), random_spd(rng, 2)]
    model = _per_point_model(rng, 2, 3, 3, weights)
    povm = random_povm(3, 4, rng)
    dec = posterior_mean_estimator(model, povm)
    assert np.isfinite(dec.estimates).all()
    for _ in range(20):
        step = 1e-3 * rng.standard_normal(dec.estimates.shape)
        for sign in (1.0, -1.0):
            moved = bayes_risk(model, povm, dec.estimates + sign * step)
            assert moved >= dec.risk - 1e-13


def test_ordering_audit_summary():
    rng = np.random.default_rng(54)
    model = random_grid_model(rng, 2, 2, 2, W=random_spd(rng, 2))
    audit = ordering_audit(model, iters=6, seed=0)
    assert set(audit["values"]) == {"sld", "rld", "holevo", "nh", "seesaw_risk"}
    assert set(audit["margins"]) == {"seesaw_minus_nh", "nh_minus_holevo",
                                     "holevo_minus_sld", "holevo_minus_rld"}
    assert audit["min_margin"] == min(audit["margins"].values())
    assert audit["ok"] and audit["min_margin"] >= -1e-6
    assert set(audit) == {"values", "margins", "min_margin", "ok",
                          "rounded_risk"}
    assert audit["rounded_risk"] >= audit["values"]["seesaw_risk"]


def test_ordering_audit_folds_each_model_once(monkeypatch):
    """Every rung of the audit, closed forms and SDPs alike, reads one fold
    of the model's moments."""
    folds = count_moment_builds(monkeypatch)
    models = [classical_binary(1.0, 0.6), qubit_xy(0.6, 3)]
    for model in models:
        ordering_audit(model, iters=2, seed=0)
    assert [id(m) for m in folds] == [id(m) for m in models]


def test_ordering_audit_on_pure_states():
    """A singular mean state needs no fallback: on every pure-panel model the
    audit's chain holds and no warning is drawn."""
    for model in pure_panel():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            audit = ordering_audit(model, iters=8, seed=0)
        assert audit["ok"], audit["margins"]


def test_single_outcome_povm_risks_the_prior_covariance():
    """With no information the posterior mean is the prior mean and the
    risk is the weighted prior variance."""
    rng = np.random.default_rng(31)
    model = random_grid_model(rng, 2, 3, 4, W=random_spd(rng, 2))
    W = model.weight_spec.constant
    run = posterior_mean_estimator(model, Povm((np.eye(3, dtype=complex),)))
    pi = np.array([p.weight for p in model.points])
    thetas = np.array([p.theta for p in model.points])
    mean = pi @ thetas
    assert np.allclose(run.estimates[0], mean, atol=1e-12)
    cov = sum(w * np.outer(t - mean, t - mean) for w, t in zip(pi, thetas))
    assert abs(run.risk - np.trace(W @ cov)) < 1e-10


def test_povm_step_with_equal_estimates_is_flat():
    """If every outcome maps to the same estimate the POVM cannot matter."""
    rng = np.random.default_rng(32)
    model = random_grid_model(rng, 2, 2, 3)
    target = np.array([0.2, -0.1])
    povm = optimal_povm_step(model, [target, target, target])
    risk_a = bayes_risk(model, povm, [target, target, target])
    risk_b = bayes_risk(model, random_povm(2, 3, rng),
                        [target, target, target])
    assert abs(risk_a - risk_b) < 1e-9
