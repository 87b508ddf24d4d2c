"""Analytic joint distributions over (X, Y) with closed-form conditionals.

Three kinds are implemented:

* ``linear_gaussian`` -- X ~ N(mu, Sigma), Y = beta0 + beta.X + noise.
* ``nonlinear_independent`` -- independent per-feature marginals and a
  polynomial response from a whitelist (univariate monomials up to degree 3
  plus pairwise products), chosen so every conditional integral has a closed
  form.
* ``discrete_classification`` -- an explicit finite joint table P(X, Y).

Each kind supplies i.i.d. samples, the loss-optimal predictor, the exact
conditional-expectation curve, and the exact expected prediction error of
subset-optimal predictors, which together make every estimator in the
package testable against an oracle.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, FeatureSpec
from .errors import UnsupportedCombination
from .models import (CLASSIFICATION_LOSSES, REGRESSION_LOSSES, LossFunction,
                     PredictorHandle, _eval_poly_response, feature_subset as subset_indices)
from ._util import derive_seed

KINDS = ("linear_gaussian", "nonlinear_independent", "discrete_classification")


def _raw_moment(marginal, order):
    """E[X^order] for a marginal that passed `_check_marginal`."""
    if marginal["family"] == "normal":
        mu, sd = float(marginal["mu"]), float(marginal["sd"])
        moments = [1.0, mu]
        for n in range(2, order + 1):
            moments.append(mu * moments[n - 1] + (n - 1) * sd * sd * moments[n - 2])
        return moments[order]
    low, high = float(marginal["low"]), float(marginal["high"])
    if high == low:
        return low ** order
    return (high ** (order + 1) - low ** (order + 1)) / ((order + 1) * (high - low))


def _valid_marginal(marginal):
    if not isinstance(marginal, dict) or marginal.get("family") not in ("normal", "uniform"):
        return False
    keys = ("mu", "sd") if marginal["family"] == "normal" else ("low", "high")
    if set(marginal) != {"family", *keys}:
        return False
    a, b = (marginal[key] for key in keys)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
               for v in (a, b)):
        return False
    return b >= 0 if marginal["family"] == "normal" else a <= b


def _check_marginal(i, marginal):
    """Admit {"family": "normal", "mu", "sd"} with sd >= 0, or {"family":
    "uniform", "low", "high"} with low <= high, all parameters finite."""
    if not _valid_marginal(marginal):
        raise ValueError(f"marginal {i} must be {{family: normal, mu, sd >= 0}} or "
                         f"{{family: uniform, low <= high}} with finite numbers, "
                         f"got {marginal!r}")


def _sample_marginal(marginal, count, rng):
    if marginal["family"] == "normal":
        return rng.normal(marginal["mu"], marginal["sd"], size=count)
    return rng.uniform(marginal["low"], marginal["high"], size=count)


def _check_term(powers):
    items = {int(i): int(p) for i, p in powers.items()}
    if sorted(items.values()) in ([], [1], [2], [3], [1, 1]):
        return items
    raise UnsupportedCombination(
        f"response term {powers!r} outside the whitelist (univariate monomials "
        "up to degree 3 and pairwise products)")


@dataclass
class Phenomenon:
    """One analytic joint distribution; immutable value object."""

    kind: str
    # linear_gaussian
    mu: np.ndarray = None
    sigma: np.ndarray = None
    beta: np.ndarray = None
    beta0: float = 0.0
    noise_sd: float = 0.0
    # nonlinear_independent
    marginals: list = None
    terms: list = None
    intercept: float = 0.0
    # discrete_classification
    x_levels: list = None
    y_levels: list = None
    table: np.ndarray = None
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown phenomenon kind {self.kind!r}")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
        if self.kind == "linear_gaussian":
            self.mu = np.asarray(self.mu, dtype=float)
            self.sigma = np.asarray(self.sigma, dtype=float)
            self.beta = np.asarray(self.beta, dtype=float)
            n = self.mu.shape[0]
            if self.sigma.shape != (n, n) or self.beta.shape != (n,):
                raise ValueError("mu, sigma, beta dimensions disagree")
            if not np.allclose(self.sigma, self.sigma.T, atol=1e-12):
                raise ValueError("sigma must be symmetric")
            if np.min(np.linalg.eigvalsh(self.sigma)) <= 0:
                raise ValueError("sigma must be positive definite")
        elif self.kind == "nonlinear_independent":
            if not self.marginals:
                raise ValueError("marginals required")
            for i, m in enumerate(self.marginals):
                _check_marginal(i, m)
            self.terms = [{"coef": float(t["coef"]), "powers": _check_term(t["powers"])}
                          for t in (self.terms or [])]
            for t in self.terms:
                for idx in t["powers"]:
                    if not (0 <= idx < len(self.marginals)):
                        raise ValueError(f"term references unknown feature {idx}")
        else:
            if not self.x_levels or self.y_levels is None:
                raise ValueError("x_levels and y_levels required")
            self.x_levels = [sorted(float(v) for v in lv) for lv in self.x_levels]
            self.y_levels = [float(v) for v in self.y_levels]
            dims = tuple(len(lv) for lv in self.x_levels) + (len(self.y_levels),)
            self.table = np.asarray(self.table, dtype=float).reshape(dims)
            if np.any(self.table < 0):
                raise ValueError("joint table entries must be non-negative")
            if abs(self.table.sum() - 1.0) > 1e-12:
                raise ValueError("joint table must sum to 1 within 1e-12")

    # -- schema -----------------------------------------------------------

    @property
    def n(self):
        if self.kind == "linear_gaussian":
            return self.mu.shape[0]
        if self.kind == "nonlinear_independent":
            return len(self.marginals)
        return len(self.x_levels)

    @property
    def is_regression(self):
        return self.kind != "discrete_classification"

    def feature_specs(self):
        levels = [None] * self.n if self.is_regression else self.x_levels
        return [FeatureSpec(name=f"x{j + 1}", kind=_level_kind(lv))
                for j, lv in enumerate(levels)]

    def target_spec(self):
        return FeatureSpec(name="y", kind=_level_kind(None if self.is_regression
                                                      else self.y_levels))

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        d = {"kind": self.kind, "noise_sd": self.noise_sd}
        if self.name:
            d["name"] = self.name
        if self.kind == "linear_gaussian":
            d.update(mu=self.mu.tolist(), sigma=self.sigma.tolist(),
                     beta=self.beta.tolist(), beta0=self.beta0)
        elif self.kind == "nonlinear_independent":
            d.update(marginals=self.marginals, intercept=self.intercept,
                     terms=[{"coef": t["coef"],
                             "powers": {str(i): p for i, p in t["powers"].items()}}
                            for t in self.terms])
        else:
            d.update(x_levels=self.x_levels, y_levels=self.y_levels,
                     table=self.table.reshape(-1).tolist())
        return d

    @classmethod
    def from_dict(cls, d):
        kw = dict(d)
        kw.pop("name", None)
        return cls(name=d.get("name", ""), **kw)


def _level_kind(levels):
    """Schema kind of a variable: integer when every level is whole, numeric
    for continuous variables (levels None)."""
    whole = levels is not None and all(v == int(v) for v in levels)
    return "integer" if whole else "numeric"


# -- sampling ----------------------------------------------------------------


def _draw_cells(probs, count, rng):
    """Coordinates of `count` cells drawn from the probability table `probs`."""
    cells = rng.choice(probs.size, size=count, p=probs.reshape(-1))
    return list(np.unravel_index(cells, probs.shape))


def _level_rows(p, coords):
    """Feature rows holding the X levels at the given table coordinates."""
    return np.column_stack([np.asarray(lv)[c] for lv, c in zip(p.x_levels, coords)])


def sample(p, k, seed):
    """Draw k i.i.d. observations; provenance is synthetic."""
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = np.random.default_rng(derive_seed(seed, "phenomenon-sample"))
    if p.kind == "linear_gaussian":
        x = rng.multivariate_normal(p.mu, p.sigma, size=k, method="cholesky")
        y = p.beta0 + x @ p.beta
    elif p.kind == "nonlinear_independent":
        x = np.column_stack([_sample_marginal(m, k, rng) for m in p.marginals])
        y = _eval_poly_response({"intercept": p.intercept, "terms": p.terms}, x, None)
    else:
        coords = _draw_cells(p.table, k, rng)
        x, y = _level_rows(p, coords), np.asarray(p.y_levels)[coords[-1]]
    if p.is_regression and p.noise_sd > 0:
        y = y + rng.normal(0.0, p.noise_sd, size=k)
    return Dataset(features=p.feature_specs(), target=p.target_spec(),
                   rows=x, targets=y, provenance="synthetic", seed=seed)


def sample_conditional(p, feature_index, value, count, seed):
    """Draw full feature vectors from P(X_{-p} | X_p = value), with the
    conditioned coordinate fixed at `value`. Oracle-side helper."""
    rng = np.random.default_rng(derive_seed(seed, "phenomenon-conditional",
                                            feature_index, float(value)))
    j = feature_index
    if p.kind == "linear_gaussian":
        rest = [i for i in range(p.n) if i != j]
        s = p.sigma
        cov = s[np.ix_(rest, rest)] - np.outer(s[rest, j], s[j, rest]) / s[j, j]
        mean = _gaussian_conditional_mean(p, j, value)
        x = np.tile(mean, (count, 1))
        if rest:
            x[:, rest] = rng.multivariate_normal(mean[rest], cov, size=count, method="cholesky")
        return x
    if p.kind == "nonlinear_independent":
        x = np.empty((count, p.n))
        for i, m in enumerate(p.marginals):
            x[:, i] = value if i == j else _sample_marginal(m, count, rng)
        return x
    # discrete: condition the joint table on X_j = value
    try:
        code = p.x_levels[j].index(float(value))
    except ValueError:
        raise UnsupportedCombination(f"{value!r} is not a level of feature {j}") from None
    sliced = np.take(p.table.sum(axis=-1), code, axis=j)
    if sliced.sum() <= 0:
        raise UnsupportedCombination(f"conditioning value {value!r} has zero probability")
    coords = _draw_cells(sliced / sliced.sum(), count, rng)
    coords.insert(j, np.full(count, code, dtype=int))
    return _level_rows(p, coords)


def _gaussian_conditional_mean(p, j, value):
    """E[X | X_j = value] under a linear_gaussian phenomenon."""
    mean = p.mu + p.sigma[:, j] / p.sigma[j, j] * (value - p.mu[j])
    mean[j] = value
    return mean


# -- response polynomial helpers ---------------------------------------------


def _poly_expectation(marginals, terms):
    total = 0.0
    for coef, powers in terms:
        value = coef
        for idx, power in powers.items():
            value *= _raw_moment(marginals[idx], power)
        total += value
    return total


def _poly_square(terms):
    squared = []
    for (c1, p1), (c2, p2) in itertools.product(terms, terms):
        merged = dict(p1)
        for idx, power in p2.items():
            merged[idx] = merged.get(idx, 0) + power
        squared.append((c1 * c2, merged))
    return squared


def _terms_with_intercept(p):
    return [(p.intercept, {})] + [(t["coef"], dict(t["powers"])) for t in p.terms]


def _condition_terms(marginals, terms, subset, at=None):
    """E[poly | X_subset]: integrate out off-subset factors term by term.
    With `at`, the kept factors are also evaluated at X_subset = at, in the
    same left-to-right product, so every term comes back as a constant."""
    conditioned = []
    for coef, powers in terms:
        kept, scale = {}, coef
        for idx, power in powers.items():
            if idx not in subset:
                scale *= _raw_moment(marginals[idx], power)
            elif at is None:
                kept[idx] = power
            else:
                scale *= at ** power
        conditioned.append((scale, kept))
    return conditioned


# -- optimal predictors --------------------------------------------------------


@dataclass(frozen=True)
class OptimalPredictorSpec:
    phenomenon: Phenomenon
    loss: LossFunction

    def __post_init__(self):
        _check_loss(self.phenomenon, self.loss, "optimal_predictor")


def _check_loss(p, loss, operation):
    """Regression phenomena admit MSE and MAE; discrete_classification
    admits 0-1 and KL."""
    admitted = REGRESSION_LOSSES if p.is_regression else CLASSIFICATION_LOSSES
    if loss not in admitted:
        raise UnsupportedCombination(
            f"loss {loss.value} does not apply to a {p.kind} phenomenon, which admits "
            + " and ".join(a.value for a in admitted), operation=operation)


def optimal_predictor(spec):
    """The closed-form loss minimizer: conditional mean (MSE), conditional
    median (MAE; equals the mean under the symmetric noise used here),
    argmax class (0-1), or the full conditional distribution (KL)."""
    p, loss = spec.phenomenon, spec.loss
    schema = p.feature_specs()
    if p.kind == "linear_gaussian":
        params = {"intercept": p.beta0, "coef": p.beta.copy(),
                  "encoder": [{"type": "numeric", "mean": 0.0, "scale": 1.0}] * p.n}
        return PredictorHandle(input_schema=schema, output_kind="scalar",
                               kind="linear", params=params,
                               metadata={"learner": "oracle", "loss": loss.value})
    if p.kind == "nonlinear_independent":
        params = {"intercept": p.intercept, "terms": p.to_dict()["terms"]}
        return PredictorHandle(input_schema=schema, output_kind="scalar",
                               kind="poly_response", params=params,
                               metadata={"learner": "oracle", "loss": loss.value})

    joint_x = p.table.reshape(-1, len(p.y_levels))
    px = joint_x.sum(axis=1, keepdims=True)
    cond = np.divide(joint_x, px, out=np.full_like(joint_x, np.nan), where=px > 0)
    params = {"x_levels": [np.asarray(lv, dtype=float) for lv in p.x_levels],
              "y_levels": np.asarray(p.y_levels, dtype=float), "cond": cond}
    kind = "table_argmax" if loss == LossFunction.ZERO_ONE else "table_conditional"
    output = "scalar" if loss == LossFunction.ZERO_ONE else "distribution"
    return PredictorHandle(input_schema=schema, output_kind=output, kind=kind,
                           params=params, metadata={"learner": "oracle", "loss": loss.value})


# -- exact descriptor values ---------------------------------------------------


def true_conditional_expectation(p, feature_index, value):
    """Exact E[Y | X_p = value] for regression phenomena."""
    if not p.is_regression:
        raise UnsupportedCombination(
            "conditional expectation oracle needs a regression phenomenon",
            operation="true_conditional_expectation")
    j = feature_index
    if p.kind == "linear_gaussian":
        return float(p.beta0 + p.beta @ _gaussian_conditional_mean(p, j, value))
    conditioned = _condition_terms(p.marginals, _terms_with_intercept(p), {j}, at=value)
    # -0.0 is the additive identity, so this is intercept + term + ... in order
    return float(sum((scale for scale, _ in conditioned), -0.0))


def _linear_gaussian_residual_variance(p, subset):
    """Var(Y - E[Y | X_S]) = sigma^2 + beta' Sigma beta - explained part."""
    total = float(p.beta @ p.sigma @ p.beta)
    if subset:
        s = sorted(subset)
        c = p.sigma[np.ix_(s, range(p.n))] @ p.beta
        explained = float(c @ np.linalg.solve(p.sigma[np.ix_(s, s)], c))
    else:
        explained = 0.0
    return p.noise_sd ** 2 + total - explained


def true_epe(p, loss, feature_subset):
    """Exact expected prediction error of the subset-optimal predictor."""
    subset = set(subset_indices(feature_subset, p.n))
    _check_loss(p, loss, "true_epe")

    if p.kind == "linear_gaussian":
        residual_var = _linear_gaussian_residual_variance(p, subset)
        if loss == LossFunction.MSE:
            return residual_var
        # conditional law of Y - median is centered Gaussian
        return math.sqrt(2.0 * residual_var / math.pi)

    if p.kind == "nonlinear_independent":
        terms = _terms_with_intercept(p)
        if loss == LossFunction.MAE:
            if subset == set(range(p.n)):
                return p.noise_sd * math.sqrt(2.0 / math.pi)
            raise UnsupportedCombination(
                "MAE closed form requires the full subset for nonlinear phenomena",
                operation="true_epe")
        e_f2 = _poly_expectation(p.marginals, _poly_square(terms))
        conditioned = _condition_terms(p.marginals, terms, subset)
        e_g2 = _poly_expectation(p.marginals, _poly_square(conditioned))
        return p.noise_sd ** 2 + e_f2 - e_g2

    # discrete_classification: exact enumeration over the joint table
    axes_rest = tuple(j for j in range(p.n) if j not in subset)
    joint_s = p.table.sum(axis=axes_rest, keepdims=True)
    if loss == LossFunction.ZERO_ONE:
        return float(1.0 - joint_s.max(axis=-1).sum())
    # forward KL of P(Y|X) against P(Y|X_S), averaged over P(X); cells of
    # probability 0, zero-probability x rows among them, add nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (p.table / p.table.sum(axis=-1, keepdims=True)) \
            / (joint_s / joint_s.sum(axis=-1, keepdims=True))
        return float(np.where(p.table > 0, p.table * np.log(ratio), 0.0).sum())
