"""Discretized Bayesian estimation problems: grid prior, states, weight matrix.

A StatisticalModel is a finite grid {(theta_m, pi_m, S_m)} with a quadratic
loss weight (constant or per grid point). One moment builder folds every
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

from .matcore import HERM_TOL, PSD_CLAMP, check_hermitian, hermitize

WEIGHT_SUM_TOL = 1e-12
DENSITY_EIG_TOL = 1e-12
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
    for what, bad in (("not symmetric", asym > HERM_TOL * scale),
                      ("not PSD", low < -PSD_CLAMP)):
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
class ExtendedMoments:
    """Every prior average of one model, read by every rung.

    S_B = sum pi_m S_m, D_B[j] = sum pi_m theta_mj S_m, M_jk = sum pi_m
    theta_mj theta_mk; S_bar = sum pi_m W(theta_m) (x) S_m, an (nd, nd)
    array in np.kron order, D_bar[j] = sum pi_m sum_k W_jk(theta_m)
    theta_mk S_m, w_bar = sum pi_m theta_m^T W(theta_m) theta_m. The
    per-point data (pi, states, weight_spec) is kept: the two-parameter
    commutator bound and the per-point Holevo program need it.
    """

    S_B: np.ndarray                         # (d, d)
    D_B: np.ndarray                         # (n, d, d)
    M: np.ndarray                           # (n, n)
    S_bar: np.ndarray                       # (nd, nd)
    D_bar: np.ndarray                       # (n, d, d)
    w_bar: float
    pi: np.ndarray                          # (m,)
    states: np.ndarray                      # (m, d, d)
    weight_spec: WeightSpec

    @property
    def n(self) -> int:
        return self.D_bar.shape[0]

    @property
    def d(self) -> int:
        return self.D_bar.shape[1]


def build_extended_moments(model: StatisticalModel) -> ExtendedMoments:
    """Fold the grid once, one einsum per moment: S_B, D_B and M over the
    prior, and S_bar = sum_m pi_m W_m (x) S_m, D_bar[j] = sum_m pi_m
    sum_k (W_m)_jk theta_mk S_m and w_bar = sum_m pi_m theta_m^T W_m theta_m
    over the pi-scaled weight stack.

    For a constant weight this reduces to S_bar = W (x) S_B and
    D_bar[j] = sum_k W_jk D_B[k], which the tests pin entrywise. The same
    fold without the sum over m gives the per-point moments. The fold of a
    checked grid needs no check of its own (S_B is a convex combination of
    densities, M minus the outer square of the prior mean a covariance),
    except that finite data can overflow, theta = 1e200 squaring to inf in
    M and w_bar: a ModelError names the first moment that is not finite.
    """
    pi, thetas, states = model.pi, model.thetas, model.states
    piW = pi[:, None, None] * model.weight_spec.stack(len(pi))
    w_bar = float(np.einsum("mjk,mj,mk->", piW, thetas, thetas))
    S_bar = np.einsum("mjk,mab->jkab", piW, states).transpose(0, 2, 1, 3)
    D_bar = np.einsum("mjk,mk,mab->jab", piW, thetas, states)
    S_B = hermitize(np.einsum("m,mab->ab", pi, states))
    D_B = np.einsum("m,mj,mab->jab", pi, thetas, states)
    M = np.einsum("m,mj,mk->jk", pi, thetas, thetas)
    for name, value in dict(w_bar=w_bar, S_bar=S_bar, D_bar=D_bar, S_B=S_B,
                            D_B=D_B, M=M).items():
        _check_finite(np.asarray(value), f"moment {name}")
    return ExtendedMoments(
        S_B=S_B, D_B=D_B, M=M, S_bar=S_bar.reshape(model.n * model.d, -1),
        D_bar=D_bar, w_bar=w_bar, pi=pi, states=states,
        weight_spec=model.weight_spec)


# the name bench/workloads.py and bench/spans.py call; the package reads
# `build_extended_moments`
build_moments = build_extended_moments


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


# name: (builder, parameter count, default grid count or None, usage)
_ZOO = {
    "classical_binary": (classical_binary, 2, None, "(a, r)"),
    "correlated_pair": (correlated_pair, 2, None, "(a, r)"),
    "qubit_xy": (qubit_xy, 1, 4, "(b[, grid])"),
    "qubit_z_line": (qubit_z_line, 0, 3, "([grid])"),
    "random_model": (random_model, 3, 3, "(n, d, seed[, grid])"),
}


def model_zoo(
    name: str,
    params: Sequence[float] = (),
    grid_size: int | None = None,
) -> StatisticalModel:
    """Build a named example model.

    Known names: classical_binary(a, r), correlated_pair(a, r),
    qubit_xy(b[, grid]), qubit_z_line([grid]), random_model(n, d, seed[,
    grid]). A grid count may come either as the trailing entry of params or
    via grid_size, not both, and only to a model with a grid; a parameter
    the model does not take is a ModelError, never dropped. Counts and seeds
    must be whole numbers, n, d and grid counts at least 1.
    """
    if name not in _ZOO:
        raise ModelError(f"unknown zoo model {name!r}; known: {sorted(_ZOO)}")
    build, count, grid, usage = _ZOO[name]
    params = [float(p) for p in params]
    if grid_size is not None:
        params.append(grid_size)
    if not count <= len(params) <= count + (grid is not None):
        raise ModelError(f"{name} takes parameters {usage}, got {len(params)}"
                         + (" with the grid size" if grid_size is not None else ""))
    if len(params) > count:
        grid = params.pop()
    if name == "random_model":
        params = [_whole(params[0], "n", 1), _whole(params[1], "d", 1),
                  _whole(params[2], "seed", 0)]
    if grid is not None:
        params.append(_whole(grid, "grid count", 1))
    return build(*params)


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


def _numbers(value, depth: int) -> np.ndarray:
    """value as a float array, if it is a JSON number (depth 0) or lists
    nested depth deep of JSON numbers. Anything else, a string or a boolean
    among them, is a TypeError, and ragged lists are a ValueError."""
    level = [value]
    for below in range(depth, -1, -1):
        kind = list if below else (int, float)
        for v in level:
            if isinstance(v, bool) or not isinstance(v, kind):
                raise TypeError(f"expected a {'list' if below else 'number'}, "
                                f"got {type(v).__name__}")
        if below:
            level = [x for v in level for x in v]
    return np.array(value, dtype=float)


def _matrices_from_json(value, depth: int, d: int, where: str) -> np.ndarray:
    """The complex array given as lists nested depth deep (2 for a matrix)
    of [re, im] pairs of JSON numbers, whose last two axes are (d, d)."""
    try:
        A = _numbers(value, depth + 1)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{where}: entries must be [re, im] pairs of "
                         f"numbers ({exc})") from None
    if A.shape[-1] != 2:
        raise ModelError(f"{where}: entries must be [re, im] pairs of numbers")
    if A.shape[-3:-1] != (d, d):
        raise ModelError(f"{where}: shape {A.shape[-3:-1]}, expected {(d, d)}")
    return A.view(complex)[..., 0]   # each C-ordered (re, im) pair, exactly


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
    """parse(entry[key]), with a missing key, or a ValueError, TypeError or
    OverflowError from parsing it, reported as a ModelError that names the
    field."""
    if key not in entry:
        raise ModelError(f"{where}: missing field '{key}'")
    try:
        return parse(entry[key])
    except ModelError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ModelError(f"{where}: field '{key}': {exc}") from None


def _weight_spec(weight) -> WeightSpec:
    if not isinstance(weight, dict):
        raise TypeError(f"expected an object, got {type(weight).__name__}")
    if "constant" in weight:
        return WeightSpec(constant=_numbers(weight["constant"], 2))
    if "per_point" in weight:
        return WeightSpec(per_point=_numbers(weight["per_point"], 3))
    raise ModelError("'weight' must contain 'constant' or 'per_point'")


def model_from_dict(data: dict) -> StatisticalModel:
    """Parse the JSON model format, with field-level diagnostics. Every
    number of the format must be a JSON number: a string or a boolean in its
    place is a ModelError that names the point and the field."""
    if not isinstance(data, dict):
        raise ModelError("model file must contain a JSON object")
    n = _field(data, "n", lambda v: _whole(_numbers(v, 0), "n", 1))
    d = _field(data, "d", lambda v: _whole(_numbers(v, 0), "d", 1))
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
        theta = _field(entry, "theta", lambda v: _numbers(v, 1), where)
        w = _field(entry, "weight", lambda v: _numbers(v, 0), where)
        rho = _field(entry, "rho",
                     lambda v: _matrices_from_json(v, 2, d, where), where)
        drho = None
        if "drho" in entry:
            drho = _field(entry, "drho", lambda v: _matrices_from_json(
                v, 3, d, f"{where} drho"), where)
            if len(drho) != n:
                raise ModelError(f"{where}: expected {n} derivative matrices")
        try:
            points.append(GridPoint(theta=theta, weight=w, state=rho,
                                    state_derivatives=drho))
        except ModelError as exc:
            raise ModelError(f"{where}: {exc}") from None
        if "score" in entry:
            score = _field(entry, "score", lambda v: _numbers(v, 1), where)
            if score.shape != (n,):
                raise ModelError(f"{where}: field 'score': length "
                                 f"{len(score)}, expected {n}")
            scores.append(score)
    if scores and len(scores) != len(points):
        raise ModelError("'score' must be attached to every point or none")
    return StatisticalModel(
        n=n, d=d, points=tuple(points), weight_spec=spec,
        prior_score=np.stack(scores) if scores else None)


def save_model(model: StatisticalModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path: str) -> StatisticalModel:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)   # json.JSONDecodeError carries line/column
    return model_from_dict(data)
