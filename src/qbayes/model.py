"""Discretized Bayesian estimation problems: grid prior, states, weight matrix.

A StatisticalModel is a finite grid {(theta_m, pi_m, S_m)} with a quadratic
loss weight (constant or per grid point). The moment builders compute every
prior-averaged quantity the bound modules consume. Models are immutable after
construction and the grid is treated as exact: continuous priors are the
caller's responsibility to discretize.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
import numpy.linalg as npl

from .matcore import ExtendedOperator, check_hermitian, hermitize

WEIGHT_SUM_TOL = 1e-12
DENSITY_EIG_TOL = 1e-12
WEIGHT_PSD_TOL = 1e-10
MOMENT_PSD_TOL = 1e-10
DERIV_TRACE_TOL = 1e-9


class ModelError(ValueError):
    """A model or model file violates its invariants."""


class CapabilityError(ValueError):
    """An operation needs optional model data that was not attached."""


def _check_density(rho: np.ndarray, d: int, where: str) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ModelError(f"{where}: state shape {rho.shape}, expected {(d, d)}")
    try:
        rho = check_hermitian(rho)
    except ValueError as exc:
        raise ModelError(f"{where}: {exc}") from exc
    w = npl.eigvalsh(rho)
    if w[0] < -DENSITY_EIG_TOL:
        raise ModelError(f"{where}: eigenvalue {w[0]:.3e} below -{DENSITY_EIG_TOL:.0e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-12:
        raise ModelError(f"{where}: trace {tr!r} not within 1e-12 of 1")
    return rho


def _check_derivatives(D: np.ndarray, where: str) -> np.ndarray:
    """The Hermitian part of each dS/dtheta_j, raising unless each is
    Hermitian (`check_hermitian`) and traceless (DERIV_TRACE_TOL)."""
    for j, Dj in enumerate(D):
        try:
            check_hermitian(Dj)
        except ValueError as exc:
            raise ModelError(f"{where}: derivative {j}: {exc}") from exc
        tr = abs(complex(np.trace(Dj)))
        if tr > DERIV_TRACE_TOL:
            raise ModelError(f"{where}: derivative {j} has trace {tr:.3e}, expected 0")
    return hermitize(D)


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ModelError(f"{what} has non-finite entries")


def _check_weights(spec: WeightSpec, n: int, grid: int) -> None:
    """Raise unless the weight, one (n, n) matrix or one per grid point, is
    finite, symmetric and PSD; a bad per-point matrix is named by its index."""
    W = spec.constant if spec.is_constant else spec.per_point
    shape = (n, n) if spec.is_constant else (grid, n, n)
    if W.shape != shape:
        raise ModelError(f"weight shape {W.shape}, expected {shape}")
    _check_finite(W, "weight matrix")
    Ws = W.reshape(-1, n, n)
    asym = np.abs(Ws - Ws.swapaxes(1, 2)).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(Ws).max(axis=(1, 2)))
    low = npl.eigvalsh((Ws + Ws.swapaxes(1, 2)) / 2)[:, 0]
    for what, bad in (("not symmetric", asym > 1e-12 * scale),
                      ("not PSD", low < -WEIGHT_PSD_TOL)):
        if bad.any():
            where = "" if spec.is_constant else f" {int(np.argmax(bad))}"
            raise ModelError(f"weight{where}: weight matrix {what}")


@dataclass(frozen=True)
class GridPoint:
    """One prior atom: parameter value, mass, state, optional derivatives."""

    theta: np.ndarray                       # (n,)
    weight: float
    state: np.ndarray                       # (d, d) density matrix
    state_derivatives: np.ndarray | None = None  # (n, d, d), dS/dtheta_j

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float).reshape(-1))
        object.__setattr__(self, "weight", float(self.weight))
        _check_finite(self.theta, "theta")
        if not (np.isfinite(self.weight) and self.weight >= 0):
            raise ModelError(f"grid weight {self.weight!r} is not a finite "
                             "non-negative number")
        if self.state_derivatives is not None:
            object.__setattr__(self, "state_derivatives",
                               np.asarray(self.state_derivatives, dtype=complex))
            _check_finite(self.state_derivatives, "state derivative")


@dataclass(frozen=True)
class WeightSpec:
    """Quadratic-loss weight: one constant matrix or one matrix per grid point."""

    constant: np.ndarray | None = None      # (n, n)
    per_point: np.ndarray | None = None     # (m, n, n)

    def __post_init__(self):
        if (self.constant is None) == (self.per_point is None):
            raise ModelError("weight spec needs exactly one of constant/per_point")
        if self.constant is not None:
            object.__setattr__(self, "constant", np.asarray(self.constant, dtype=float))
        else:
            object.__setattr__(self, "per_point", np.asarray(self.per_point, dtype=float))

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    def stack(self, m: int) -> np.ndarray:
        """The (m, n, n) weights of an m-point grid: a read-only broadcast
        view of the constant matrix, or `per_point`. Every grid sum of the
        package reads its weights here."""
        if self.constant is None:
            return self.per_point
        return np.broadcast_to(self.constant, (m, *self.constant.shape))

    def matrix_at(self, m: int) -> np.ndarray:
        """The weight at grid point m; kept for bench/checks.py and the
        tests, as the package reads `stack`."""
        return self.constant if self.constant is not None else self.per_point[m]

    def require_constant(self) -> np.ndarray:
        """The constant matrix; CapabilityError for a per-point weight."""
        if self.constant is None:
            raise CapabilityError("the SLD, RLD and van Tree bounds need a "
                                  "constant weight matrix; this model gives "
                                  "one per grid point")
        return self.constant


@dataclass(frozen=True)
class StatisticalModel:
    """Finite-grid prior over parametrized states with a loss weight."""

    n: int
    d: int
    points: tuple[GridPoint, ...]
    weight_spec: WeightSpec
    prior_score: np.ndarray | None = None   # (m, n), d log pi / d theta per point

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise ModelError("empty grid")
        object.__setattr__(self, "points", points)
        total = float(sum(p.weight for p in points))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ModelError(f"grid weights sum to {total!r}, expected 1")
        checked = []
        for m, p in enumerate(points):
            if p.theta.shape != (self.n,):
                raise ModelError(f"point {m}: theta length {p.theta.shape[0]}, expected {self.n}")
            state = _check_density(p.state, self.d, f"point {m}")
            derivs = p.state_derivatives
            if derivs is not None:
                if derivs.shape != (self.n, self.d, self.d):
                    raise ModelError(f"point {m}: derivative shape {derivs.shape}")
                derivs = _check_derivatives(derivs, f"point {m}")
            checked.append(replace(p, state=state, state_derivatives=derivs))
        object.__setattr__(self, "points", tuple(checked))
        _check_weights(self.weight_spec, self.n, len(points))
        if self.prior_score is not None:
            score = np.asarray(self.prior_score, dtype=float)
            if score.shape != (len(points), self.n):
                raise ModelError(f"prior_score shape {score.shape}, expected {(len(points), self.n)}")
            _check_finite(score, "prior_score")
            object.__setattr__(self, "prior_score", score)

    @property
    def pi(self) -> np.ndarray:
        return np.array([p.weight for p in self.points])

    @property
    def thetas(self) -> np.ndarray:
        return np.stack([p.theta for p in self.points])

    @property
    def states(self) -> np.ndarray:
        return np.stack([p.state for p in self.points])

    def has_derivatives(self) -> bool:
        return all(p.state_derivatives is not None for p in self.points)


def with_weight(model: StatisticalModel, W: np.ndarray) -> StatisticalModel:
    """The same model with a different constant weight matrix."""
    return replace(model, weight_spec=WeightSpec(constant=np.asarray(W, dtype=float)))


@dataclass(frozen=True)
class BayesMoments:
    """Prior-averaged state and first/second moments.

    S_B = sum pi_m S_m, D_B[j] = sum pi_m theta_mj S_m, M_jk = sum pi_m
    theta_mj theta_mk, theta_bar the prior mean, w_bar = sum pi_m
    theta_m^T W(theta_m) theta_m.
    """

    S_B: np.ndarray          # (d, d)
    D_B: np.ndarray          # (n, d, d)
    M: np.ndarray            # (n, n)
    theta_bar: np.ndarray    # (n,)
    w_bar: float

    def __post_init__(self):
        object.__setattr__(self, "S_B", _check_density(self.S_B, np.asarray(self.S_B).shape[0], "S_B"))
        object.__setattr__(self, "D_B", np.asarray(self.D_B, dtype=complex))
        object.__setattr__(self, "M", np.asarray(self.M, dtype=float))
        object.__setattr__(self, "theta_bar", np.asarray(self.theta_bar, dtype=float).reshape(-1))
        object.__setattr__(self, "w_bar", float(self.w_bar))
        cov = self.M - np.outer(self.theta_bar, self.theta_bar)
        if npl.eigvalsh((cov + cov.T) / 2)[0] < -MOMENT_PSD_TOL:
            raise ModelError("second moment minus mean outer product is not PSD")

    @property
    def n(self) -> int:
        return self.D_B.shape[0]


@dataclass(frozen=True)
class ExtendedMoments:
    """Weight-folded moments on C^n (x) H.

    S_bar = sum pi_m W(theta_m) (x) S_m, D_bar[j] = sum pi_m sum_k
    W_jk(theta_m) theta_mk S_m. Beyond those, the per-point data (pi, states,
    weight_spec) is kept: the two-parameter commutator bound and the
    per-point Holevo program need it and it cannot be recovered from the
    averaged operators.
    """

    S_bar: ExtendedOperator
    D_bar: np.ndarray                       # (n, d, d)
    w_bar: float
    pi: np.ndarray                          # (m,)
    states: np.ndarray                      # (m, d, d)
    weight_spec: WeightSpec

    @property
    def n(self) -> int:
        return self.S_bar.nblocks

    @property
    def d(self) -> int:
        return self.S_bar.blockdim

    @property
    def constant_W(self) -> np.ndarray | None:
        return self.weight_spec.constant


def _fold(model: StatisticalModel) -> tuple[np.ndarray, float]:
    """The pi-scaled weight stack pi_m W_m, (m, n, n), and w_bar = sum_m
    pi_m theta_m^T W_m theta_m."""
    piW = model.pi[:, None, None] * model.weight_spec.stack(len(model.points))
    return piW, float(np.einsum("mjk,mj,mk->", piW, model.thetas, model.thetas))


def build_moments(model: StatisticalModel) -> BayesMoments:
    """Average the grid: S_B, D_B, second moment M, prior mean, w_bar."""
    pi = model.pi
    thetas = model.thetas
    states = model.states
    S_B = hermitize(np.einsum("m,mab->ab", pi, states))
    D_B = np.einsum("m,mj,mab->jab", pi, thetas, states)
    M = np.einsum("m,mj,mk->jk", pi, thetas, thetas)
    theta_bar = pi @ thetas
    return BayesMoments(S_B=S_B, D_B=D_B, M=M, theta_bar=theta_bar,
                        w_bar=_fold(model)[1])


def build_extended_moments(model: StatisticalModel) -> ExtendedMoments:
    """Fold the weight into the grid, one einsum per moment over the pi-scaled
    weight stack: S_bar = sum_m pi_m W_m (x) S_m, D_bar[j] = sum_m pi_m
    sum_k (W_m)_jk theta_mk S_m and w_bar = sum_m pi_m theta_m^T W_m theta_m.

    For a constant weight this reduces to S_bar = W (x) S_B and
    D_bar[j] = sum_k W_jk D_B[k], which the tests pin entrywise. The same
    fold without the sum over m gives the per-point moments.
    """
    piW, w_bar = _fold(model)
    states = model.states
    S_bar = np.einsum("mjk,mab->jkab", piW, states)
    D_bar = np.einsum("mjk,mk,mab->jab", piW, model.thetas, states)
    return ExtendedMoments(
        S_bar=ExtendedOperator(S_bar), D_bar=D_bar, w_bar=w_bar,
        pi=model.pi, states=states, weight_spec=model.weight_spec)


# ---------------------------------------------------------------------------
# Model zoo
# ---------------------------------------------------------------------------

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def classical_binary(a: float, r: float) -> StatisticalModel:
    """Two equiprobable points theta = +-a with states (I +- r sigma_z)/2, W = 1."""
    points = (
        GridPoint(theta=[a], weight=0.5, state=(I2 + r * SZ) / 2),
        GridPoint(theta=[-a], weight=0.5, state=(I2 - r * SZ) / 2),
    )
    return StatisticalModel(n=1, d=2, points=points,
                            weight_spec=WeightSpec(constant=[[1.0]]))


def correlated_pair(a: float, r: float) -> StatisticalModel:
    """Two perfectly correlated parameters on the classical binary states, W = I."""
    points = (
        GridPoint(theta=[a, a], weight=0.5, state=(I2 + r * SZ) / 2),
        GridPoint(theta=[-a, -a], weight=0.5, state=(I2 - r * SZ) / 2),
    )
    return StatisticalModel(n=2, d=2, points=points,
                            weight_spec=WeightSpec(constant=np.eye(2)))


def qubit_xy(b: float, grid: int = 4) -> StatisticalModel:
    """Uniform grid on the circle of radius b, states (I + t1 sx + t2 sy)/2, W = I."""
    if not 0 <= b <= 1:
        raise ModelError(f"radius {b!r} leaves the state ball")
    angles = 2 * np.pi * np.arange(grid) / grid
    points = []
    for ang in angles:
        t = np.array([b * np.cos(ang), b * np.sin(ang)])
        state = (I2 + t[0] * SX + t[1] * SY) / 2
        points.append(GridPoint(theta=t, weight=1.0 / grid, state=state))
    return StatisticalModel(n=2, d=2, points=tuple(points),
                            weight_spec=WeightSpec(constant=np.eye(2)))


def qubit_z_line(grid: int = 3) -> StatisticalModel:
    """Uniform grid on theta in [-1/2, 1/2], states (I + theta sz)/2, W = 1.

    Attaches the exact derivative sigma_z/2 at every point and a zero prior
    score (flat-prior proxy), so the van Tree baseline runs out of the box.
    """
    thetas = np.linspace(-0.5, 0.5, grid)
    points = []
    for t in thetas:
        points.append(GridPoint(
            theta=[t], weight=1.0 / grid, state=(I2 + t * SZ) / 2,
            state_derivatives=np.array([SZ / 2])))
    return StatisticalModel(n=1, d=2, points=tuple(points),
                            weight_spec=WeightSpec(constant=[[1.0]]),
                            prior_score=np.zeros((grid, 1)))


def random_model(n: int, d: int, seed: int, grid: int = 3) -> StatisticalModel:
    """Seeded random model: full-rank states, uniform-ish weights, W = I."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.5, 1.5, grid)
    weights = raw / raw.sum()
    # residual rounding in the normalized weights lands on the last point
    weights[-1] = 1.0 - float(weights[:-1].sum())
    points = []
    for m in range(grid):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = G @ G.conj().T
        rho = rho / np.trace(rho).real
        rho = 0.9 * rho + 0.1 * np.eye(d) / d
        rho = hermitize(rho / np.trace(rho).real)
        points.append(GridPoint(theta=rng.uniform(-1, 1, n),
                                weight=weights[m], state=rho))
    return StatisticalModel(n=n, d=d, points=tuple(points),
                            weight_spec=WeightSpec(constant=np.eye(n)))


_ZOO = {
    "classical_binary": classical_binary,
    "correlated_pair": correlated_pair,
    "qubit_xy": qubit_xy,
    "qubit_z_line": qubit_z_line,
    "random_model": random_model,
}


def model_zoo(
    name: str,
    params: Sequence[float] = (),
    grid_size: int | None = None,
) -> StatisticalModel:
    """Build a named example model.

    Known names: classical_binary(a, r), correlated_pair(a, r),
    qubit_xy(b, grid), qubit_z_line(grid), random_model(n, d, seed). A grid
    count may come either as the trailing entry of params or via grid_size.
    Counts and seeds must be whole numbers, n, d and grid counts at least 1.
    """
    if name not in _ZOO:
        raise ModelError(f"unknown zoo model {name!r}; known: {sorted(_ZOO)}")
    params = [float(p) for p in params]
    if name == "classical_binary" or name == "correlated_pair":
        if len(params) != 2:
            raise ModelError(f"{name} takes parameters (a, r)")
        return _ZOO[name](params[0], params[1])
    if name == "qubit_xy":
        if not params:
            raise ModelError("qubit_xy takes parameters (b[, grid])")
        g = grid_size if grid_size is not None else (params[1] if len(params) > 1 else 4)
        return qubit_xy(params[0], _whole(g, "grid count", 1))
    if name == "qubit_z_line":
        g = grid_size if grid_size is not None else (params[0] if params else 3)
        return qubit_z_line(_whole(g, "grid count", 1))
    # random_model
    if len(params) < 3:
        raise ModelError("random_model takes parameters (n, d, seed)")
    g = grid_size if grid_size is not None else (params[3] if len(params) > 3 else 3)
    return random_model(_whole(params[0], "n", 1), _whole(params[1], "d", 1),
                        _whole(params[2], "seed", 0), _whole(g, "grid count", 1))


def _whole(value: float, what: str, least: int) -> int:
    """`value` as an int, if it is a whole number no less than `least`."""
    value = float(value)
    if not (value.is_integer() and value >= least):
        raise ModelError(f"{what} must be an integer >= {least}, got {value:g}")
    return int(value)


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

def _matrix_to_json(A: np.ndarray) -> list:
    A = np.asarray(A, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def _matrix_from_json(rows, d: int, where: str) -> np.ndarray:
    try:
        A = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    except (TypeError, IndexError) as exc:
        raise ModelError(f"{where}: entries must be [re, im] pairs") from exc
    if A.shape != (d, d):
        raise ModelError(f"{where}: shape {A.shape}, expected {(d, d)}")
    return A


def model_to_dict(model: StatisticalModel) -> dict:
    """The JSON-ready dict form of a model (row-major matrices, [re, im] entries)."""
    if model.weight_spec.is_constant:
        weight = {"constant": [[float(x) for x in row] for row in model.weight_spec.constant]}
    else:
        weight = {"per_point": [[[float(x) for x in row] for row in W]
                                for W in model.weight_spec.per_point]}
    points = []
    for m, p in enumerate(model.points):
        entry: dict = {
            "theta": [float(t) for t in p.theta],
            "weight": float(p.weight),
            "rho": _matrix_to_json(p.state),
        }
        if p.state_derivatives is not None:
            entry["drho"] = [_matrix_to_json(D) for D in p.state_derivatives]
        if model.prior_score is not None:
            entry["score"] = [float(s) for s in model.prior_score[m]]
        points.append(entry)
    return {"n": model.n, "d": model.d, "weight": weight, "points": points}


def _field(entry: dict, key: str, parse, where: str = "model"):
    """parse(entry[key]), with a missing key, or a ValueError or TypeError
    from parsing it, reported as a ModelError that names the field."""
    if key not in entry:
        raise ModelError(f"{where}: missing field '{key}'")
    try:
        return parse(entry[key])
    except ModelError:
        raise
    except (ValueError, TypeError) as exc:
        raise ModelError(f"{where}: field '{key}': {exc}") from None


def _weight_spec(weight) -> WeightSpec:
    if "constant" in weight:
        return WeightSpec(constant=np.asarray(weight["constant"], dtype=float))
    if "per_point" in weight:
        return WeightSpec(per_point=np.asarray(weight["per_point"], dtype=float))
    raise ModelError("'weight' must contain 'constant' or 'per_point'")


def model_from_dict(data: dict) -> StatisticalModel:
    """Parse the JSON model format, with field-level diagnostics."""
    if not isinstance(data, dict):
        raise ModelError("model file must contain a JSON object")
    n = _field(data, "n", lambda v: _whole(v, "n", 1))
    d = _field(data, "d", lambda v: _whole(v, "d", 1))
    spec = _field(data, "weight", _weight_spec)
    raw_points = _field(data, "points", lambda v: v)
    if not isinstance(raw_points, list) or not raw_points:
        raise ModelError("'points' must be a non-empty list")
    points = []
    scores = []
    for m, entry in enumerate(raw_points):
        where = f"point {m}"
        if not isinstance(entry, dict):
            raise ModelError(f"{where} must be a JSON object")
        theta = _field(entry, "theta", lambda v: [float(t) for t in v], where)
        w = _field(entry, "weight", float, where)
        rho = _field(entry, "rho", lambda v: _matrix_from_json(v, d, where), where)
        drho = None
        if "drho" in entry:
            mats = _field(entry, "drho", lambda v: [
                _matrix_from_json(Dj, d, f"{where} drho[{j}]")
                for j, Dj in enumerate(v)], where)
            if len(mats) != n:
                raise ModelError(f"{where}: expected {n} derivative matrices")
            drho = np.stack(mats)
        try:
            points.append(GridPoint(theta=theta, weight=w, state=rho,
                                    state_derivatives=drho))
        except ModelError as exc:
            raise ModelError(f"{where}: {exc}") from None
        if "score" in entry:
            scores.append(_field(entry, "score",
                                 lambda v: [float(s) for s in v], where))
    if scores and len(scores) != len(points):
        raise ModelError("'score' must be attached to every point or none")
    return StatisticalModel(
        n=n, d=d, points=tuple(points), weight_spec=spec,
        prior_score=np.asarray(scores, dtype=float) if scores else None)


def save_model(model: StatisticalModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path: str) -> StatisticalModel:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)   # json.JSONDecodeError carries line/column
    return model_from_dict(data)
