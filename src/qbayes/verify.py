"""Achievability harness: explicit measurements whose exact grid risk
upper-bounds the optimum, certifying every lower bound numerically.

At a fixed measurement the loss is quadratic per outcome, so the optimal
estimate is the W-weighted posterior mean, for a constant weight and for one
given per grid point alike; and at fixed estimates the measurement update is
a linear PSD program. Alternating the two (`seesaw`) produces a
non-increasing sequence of achieved risks. The seesaw starts from a given
decision or from a seeded random measurement.

One measurement comes from a bound's optimum: `rounded_measurement` reads
the eigenbasis of estimator observables X_j, and where they commute it
attains the bound. `ordering_audit` keeps that decision as it is where
its risk is within the solver's gap tolerance of NH (no seesaw round could
resolve a lower risk), and otherwise runs one seesaw from the even mixture
of it and the seeded random measurement. Its SLD and RLD rungs need a
constant weight.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import numpy.linalg as npl

from .closedform import rld_bound, sld_bound, van_tree_bound
from .conic import GAP_TOL, ConicProgram, hvec, solve_or_raise
from .matcore import PSD_CLAMP, check_hermitian, hermitize
from .model import StatisticalModel, build_extended_moments
from .sdpbounds import BoundSolution, _require_count, holevo_type_bound, \
    nagaoka_bound, nagaoka_hayashi_bound

POVM_SUM_TOL = 1e-9          # allowed deviation of the identity resolution
DEAD_OUTCOME_PROB = 1e-12    # below this an outcome's estimate uses the prior
MARGIN_TOL = 1e-6            # an ordering margin below -MARGIN_TOL is a violation

# The sandwich as (upper, lower) pairs: seesaw >= NH >= nagaoka2 >= Holevo
# >= max(SLD, RLD), plus NH >= Holevo for models without nagaoka2.
LADDER = (("seesaw", "nh"), ("nh", "nagaoka2"), ("nagaoka2", "holevo"),
          ("nh", "holevo"), ("holevo", "sld"), ("holevo", "rld"))


# The one table of lower-bound rungs, read by `ordering_audit` and `qbayes
# bounds`: each rung's call on (model, moments, gap_tol), `moments` a cached
# zero-argument fold. An SDP returns its BoundSolution, a closed form its
# value; the closed forms need a constant weight, checked after the fold.
RUNGS = {
    "nh": lambda m, em, tol: nagaoka_hayashi_bound(em(), tol),
    "holevo": lambda m, em, tol: holevo_type_bound(em(), tol),
    "nagaoka2": lambda m, em, tol: nagaoka_bound(em(), tol),
    "sld": lambda m, em, tol: sld_bound(em(), m.weight_spec.require_constant())[0],
    "rld": lambda m, em, tol: rld_bound(em(), m.weight_spec.require_constant())[0],
    "vantree": lambda m, em, tol: van_tree_bound(m, m.weight_spec.require_constant()),
}


def rung_entry(result) -> dict:
    """Report entry of a `RUNGS` result: an SDP's value and its solve's
    record, or a closed form's value."""
    if not isinstance(result, BoundSolution):
        return {"value": result, "solver_status": "closed-form", "gap": 0.0}
    diag = result.diagnostics
    return {"value": result.value, "solver_status": diag.status, "gap": diag.gap,
            "iterations": diag.iterations, "feas_primal": diag.feas_primal,
            "feas_dual": diag.feas_dual}


def ladder_margins(values: dict) -> dict:
    """upper - lower, keyed "<upper>_minus_<lower>", for every `LADDER` pair
    whose two rungs are both in `values`."""
    return {f"{hi}_minus_{lo}": values[hi] - values[lo]
            for hi, lo in LADDER if hi in values and lo in values}


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: any sequence of d x d matrices, kept
    as one (outcomes, d, d) complex stack and checked once as one: Hermitian
    (`check_hermitian`), PSD to -PSD_CLAMP and summing to the identity."""

    elements: np.ndarray         # (outcomes, d, d)

    def __post_init__(self):
        if not len(self.elements):
            raise ValueError("a measurement needs at least one element")
        try:   # elements of two dimensions do not stack
            E = np.array(self.elements, dtype=complex)
        except ValueError:
            E = np.zeros(0)
        if E.ndim != 3 or E.shape[1] != E.shape[2]:
            raise ValueError("measurement elements must share one dimension")
        E = check_hermitian(E)
        if npl.eigvalsh(E)[:, 0].min() < -PSD_CLAMP:
            raise ValueError("measurement element has a negative eigenvalue")
        if np.abs(E.sum(axis=0) - np.eye(E.shape[1])).max() > POVM_SUM_TOL:
            raise ValueError("measurement elements do not resolve the identity")
        object.__setattr__(self, "elements", E)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class DecisionRisk:
    """A measurement, its per-outcome estimates, and their exact grid risk."""

    povm: Povm
    estimates: np.ndarray        # (outcomes, n)
    risk: float


def bayes_risk(model: StatisticalModel, povm: Povm, estimates) -> float:
    """Exact grid risk of a decision: the prior-weighted quadratic loss
    summed over grid points and outcomes. This is the yardstick every other
    routine is compared against, so it is a plain loop over the definition.
    A measurement on another dimension, or estimates of another shape or with
    a non-finite entry, are a ValueError."""
    _require_dim(model, povm)
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    if est.shape != (len(povm), model.n):
        raise ValueError(f"estimates shape {est.shape}, expected "
                         f"({len(povm)}, {model.n})")
    if not np.isfinite(est).all():
        raise ValueError("estimates have non-finite entries")
    Ws = model.weight_spec.stack(len(model.points))
    total = 0.0
    for m, point in enumerate(model.points):
        for x, E in enumerate(povm.elements):
            prob = float(np.real(np.trace(point.state @ E)))
            diff = est[x] - point.theta
            total += point.weight * prob * float(diff @ Ws[m] @ diff)
    return total


def posterior_mean_estimator(model: StatisticalModel, povm: Povm) -> DecisionRisk:
    """Optimal estimates for a fixed measurement: W-weighted posterior means.

    With w_m = pi_m Tr(S_m E_x), mu = sum_m w_m theta_m / sum_m w_m and
    P = sum_m w_m W_m, outcome x gets theta_hat = mu + P^+ sum_m w_m W_m
    (theta_m - mu), which solves the normal equations P theta_hat =
    sum_m w_m W_m theta_m even where P is singular; for a constant W it is
    mu. Outcomes with probability below DEAD_OUTCOME_PROB take the prior in
    place of w (their risk weight vanishes).
    """
    _require_dim(model, povm)
    pi, thetas = model.pi, model.thetas
    Ws = model.weight_spec.stack(len(model.points))
    w = pi * np.einsum("mab,xba->xm", model.states, povm.elements).real
    w[w.sum(axis=1) <= DEAD_OUTCOME_PROB] = pi
    mu = (w @ thetas) / w.sum(axis=1)[:, None]
    P = np.einsum("xm,mjk->xjk", w, Ws)
    r = np.einsum("xm,mjk,xmk->xj", w, Ws, thetas - mu[:, None])
    est = mu + np.einsum("xjk,xk->xj", npl.pinv(P, hermitian=True), r)
    return DecisionRisk(povm=povm, estimates=est,
                        risk=bayes_risk(model, povm, est))


def optimal_povm_step(model: StatisticalModel, estimates,
                      gap_tol: float = GAP_TOL) -> Povm:
    """Risk-minimizing measurement at fixed estimates.

    The risk is linear in the measurement, so this is one PSD program:
    elements as PSD blocks, identity-resolution equality rows, objective
    coefficients F_x = sum_m pi_m ell(x, m) S_m with ell the quadratic loss
    under W_m.
    The solution is exactly renormalized through the inverse square root of
    its element sum before being returned.
    """
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    if est.ndim != 2:
        raise ValueError(f"estimates shape {est.shape}, expected (K, {model.n})")
    K = est.shape[0]
    if K == 0:
        raise ValueError("a measurement update needs at least one estimate")
    if est.shape[1] != model.n:
        raise ValueError(f"estimate dimension {est.shape[1]}, expected {model.n}")
    if not np.isfinite(est).all():
        raise ValueError("estimates have non-finite entries")
    d = model.d

    prog = ConicProgram()
    blocks = [prog.add_psd_block(d) for _ in range(K)]
    prog.add_pins([(blk, 0, 0, 1.0) for blk in blocks], hvec(np.eye(d)))
    # loss[x, m] = (est_x - theta_m)^T W_m (est_x - theta_m)
    diff = est[:, None, :] - model.thetas
    with np.errstate(over="ignore"):
        loss = np.einsum("xmj,mjk,xmk->xm", diff,
                         model.weight_spec.stack(len(model.points)), diff)
        F = np.einsum("m,xm,mab->xab", model.pi, loss, model.states)
    if not np.isfinite(F).all():
        raise ValueError("the loss at these estimates overflows")
    prog.set_objective(dict(zip(blocks, hermitize(F))))

    sol = solve_or_raise(prog, gap_tol, what="measurement update")
    return _renormalize(sol.variable_values)


def _renormalize(elements) -> Povm:
    """Exact identity resolution: one congruence by the sum's inverse root."""
    w, U = npl.eigh(hermitize(np.sum(elements, axis=0)))
    if w[0] <= 0:
        raise ValueError("degenerate measurement: element sum is singular")
    inv_sqrt = (U * w ** -0.5) @ U.conj().T
    return Povm(hermitize(inv_sqrt @ elements @ inv_sqrt))


def random_povm(d: int, outcomes: int, rng: np.random.Generator) -> Povm:
    """Seeded random measurement: a ridge-stabilized pure-state resolution.

    Needs at least d outcomes: fewer rank-one elements leave their sum
    singular up to the ridge, too close to renormalize."""
    _require_count("d", d)
    _require_count("outcomes", outcomes)
    _require_outcomes(d, outcomes)
    g = rng.standard_normal((outcomes, 2, d))   # per element: real, then imag
    v = g[:, 0] + 1j * g[:, 1]
    return _renormalize(v[:, :, None] * v[:, None, :].conj() + 1e-8 * np.eye(d))


def _require_outcomes(d: int, outcomes: int) -> None:
    if outcomes < d:
        raise ValueError(f"a random measurement on C^{d} needs at least {d} "
                         f"outcomes, got {outcomes}")


def _require_dim(model: StatisticalModel, povm: Povm) -> None:
    if povm.dim != model.d:
        raise ValueError(f"measurement acts on C^{povm.dim}, the model on "
                         f"C^{model.d}")


def _start_outcomes(model: StatisticalModel, outcome_count: int | None,
                    seed: int) -> int:
    """The outcome count of the seesaw's seeded start, `random_povm` from a
    fresh default_rng(seed), checked with the seed before anything is drawn.
    The default max(n + 2, d) keeps at least d rank-one elements, as the
    identity on C^d needs."""
    K = outcome_count if outcome_count is not None else max(model.n + 2, model.d)
    _require_count("outcome_count", K)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    _require_outcomes(model.d, K)
    return K


def seesaw(model: StatisticalModel, outcome_count: int | None = None,
           iters: int = 50, seed: int = 0,
           gap_tol: float = GAP_TOL,
           start: DecisionRisk | None = None) -> DecisionRisk:
    """Alternate estimator and measurement updates from `start`, or from a
    seeded random measurement with `outcome_count` outcomes when no start is
    given (`outcome_count` and `seed` are then unused). A start is scored
    with `bayes_risk`, whatever its `risk` field says. The weight may be
    constant or given per grid point: each estimator update is the
    W-weighted posterior mean of `posterior_mean_estimator`, exact for
    either.

    The achieved risk never increases: a candidate measurement is accepted
    only if its exact grid risk (at the estimates it was optimized for) does
    not exceed the current risk, which shields the monotonicity guarantee
    from solver-level noise. Stops after `iters` rounds or when the
    improvement drops below 1e-10.
    """
    _require_count("iters", iters)
    if start is not None:
        current = replace(start, risk=bayes_risk(model, start.povm, start.estimates))
    else:
        K = _start_outcomes(model, outcome_count, seed)
        current = posterior_mean_estimator(
            model, random_povm(model.d, K, np.random.default_rng(seed)))
    for _ in range(iters):
        povm = optimal_povm_step(model, current.estimates, gap_tol)
        risk_povm = bayes_risk(model, povm, current.estimates)
        if risk_povm > current.risk:
            break   # solver noise: keep the certified decision
        candidate = posterior_mean_estimator(model, povm)
        if candidate.risk > risk_povm:
            candidate = DecisionRisk(povm=povm, estimates=current.estimates,
                                     risk=risk_povm)
        improvement = current.risk - candidate.risk
        current = candidate
        if improvement < 1e-10:
            break
    return current


def rounded_measurement(model: StatisticalModel, X) -> DecisionRisk:
    """Projective measurement read off estimator observables X (n, d, d).

    The outcomes are the rank-one eigenprojectors of one fixed generic
    combination sum_j c_j X_j, and the estimates their posterior means. When
    the X_j commute this is their joint eigenbasis, so at the NH optimum the
    decision attains the bound. At n = 1 with the SLD L of `sld_bound` it
    attains m - K: Tr(D_B P_i) = l_i Tr(S_B P_i), so the estimates are the
    eigenvalues l_i. The risk is exact however X was obtained.
    """
    X = np.asarray(X)
    if X.shape != (model.n, model.d, model.d):
        raise ValueError(f"observables shape {X.shape}, expected "
                         f"({model.n}, {model.d}, {model.d})")
    # irrational weight ratios, so that symmetric eigenvalue patterns of
    # distinct X_j do not merge into one degenerate eigenspace
    c = np.sqrt(np.arange(2.0, model.n + 2))
    _, U = npl.eigh(hermitize(np.tensordot(c, X, axes=1)))
    return posterior_mean_estimator(
        model, Povm(U.T[:, :, None] * U.T[:, None, :].conj()))


def ordering_audit(model: StatisticalModel,
                   gap_tol: float = GAP_TOL,
                   iters: int = 50, seed: int = 0,
                   outcome_count: int | None = None) -> dict:
    """Run the sld, rld, holevo and nh rungs of `RUNGS` on one fold of the
    model, plus an achieved risk, and their margins.

    Returns {"values": {...}, "margins": {...}, "min_margin": float,
    "ok": bool, "rounded_risk": float}; the margins are `ladder_margins` of
    the values, and `ok` means every one clears -MARGIN_TOL.

    The achieved decision is `rounded_measurement` at NH's optimal
    observables (risk `rounded_risk`) where that risk is within
    gap_tol * max(1, |NH|) of NH, gap_tol being the gap NH was solved to.
    Otherwise one seesaw runs from the even mixture of its d projectors and
    `seesaw`'s seeded start (`seed`, `outcome_count`), and the lower risk of
    the two decisions is kept. Either way the achieved risk is the exact risk
    of an explicit measurement, an upper bound however NH was solved.

    The SLD and RLD values need a constant weight: a per-point one raises
    CapabilityError before any solve.
    """
    model.weight_spec.require_constant()
    _require_count("iters", iters)
    # checked up front, so bad arguments fail before any solve; drawn only
    # where the seesaw runs
    K = _start_outcomes(model, outcome_count, seed)
    em = build_extended_moments(model)
    rungs = {name: RUNGS[name](model, lambda: em, gap_tol)
             for name in ("sld", "rld", "holevo", "nh")}
    values = {name: rung_entry(r)["value"] for name, r in rungs.items()}
    nh, c_nh = rungs["nh"], values["nh"]
    rounded = achieved = rounded_measurement(model, nh.Xopt)
    # NH was solved to gap_tol: below it a seesaw round cannot resolve a
    # lower risk, so the rounded decision stands
    if rounded.risk - c_nh > gap_tol * max(1.0, abs(c_nh)):
        # the 1/2 weights cancel in each outcome's posterior mean, so the
        # first measurement update chooses among both starts' estimates
        seeded = random_povm(model.d, K, np.random.default_rng(seed)).elements
        blend = Povm(0.5 * np.concatenate((rounded.povm.elements, seeded)))
        run = seesaw(model, iters=iters, gap_tol=gap_tol,
                     start=posterior_mean_estimator(model, blend))
        achieved = min(rounded, run, key=lambda r: r.risk)
    values["seesaw_risk"] = achieved.risk
    margins = ladder_margins({**values, "seesaw": achieved.risk})
    return {
        "values": values,
        "margins": margins,
        "min_margin": min(margins.values()),
        "ok": all(v >= -MARGIN_TOL for v in margins.values()),
        "rounded_risk": rounded.risk,
    }
