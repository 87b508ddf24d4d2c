"""The closed-form oracle against the per-law code it replaced.

The references below are the old `phenomenon` functions: each kind sampled
and added noise on its own, the loss-versus-kind rule was written out twice,
the Gaussian conditional mean and the polynomial conditioning each had a
second copy, and the KL risk looped over every cell of the table. Samples,
conditional draws, conditional expectations and the MSE, MAE and 0-1 risks
must keep their bits; the KL risk may differ by summation order only (within
KL_RTOL relative, or KL_ATOL near zero).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descry import (
    Dataset, FeatureSpec, LossFunction, OptimalPredictorSpec, Phenomenon, sample,
    sample_conditional, true_conditional_expectation, true_epe,
)
from descry.errors import UnsupportedCombination
from descry.models import _eval_poly_response
from descry.phenomenon import (
    _check_term, _linear_gaussian_residual_variance, _poly_expectation, _poly_square,
    _raw_moment, _sample_marginal, _terms_with_intercept,
)
from descry._util import derive_seed

MSE, MAE = LossFunction.MSE, LossFunction.MAE
ZO, KL = LossFunction.ZERO_ONE, LossFunction.KL
KL_RTOL, KL_ATOL = 1e-12, 1e-15


# -- the reference: one law per call site -------------------------------------------


def reference_kinds(p):
    if p.kind == "discrete_classification":
        features = ["integer" if all(v == int(v) for v in lv) else "numeric"
                    for lv in p.x_levels]
        target = "integer" if all(v == int(v) for v in p.y_levels) else "numeric"
        return features, target
    return ["numeric"] * p.n, "numeric"


def reference_sample(p, k, seed):
    rng = np.random.default_rng(derive_seed(seed, "phenomenon-sample"))
    if p.kind == "linear_gaussian":
        x = rng.multivariate_normal(p.mu, p.sigma, size=k, method="cholesky")
        y = p.beta0 + x @ p.beta
        if p.noise_sd > 0:
            y = y + rng.normal(0.0, p.noise_sd, size=k)
    elif p.kind == "nonlinear_independent":
        x = np.column_stack([_sample_marginal(m, k, rng) for m in p.marginals])
        y = _eval_poly_response({"intercept": p.intercept, "terms": p.terms}, x, None)
        if p.noise_sd > 0:
            y = y + rng.normal(0.0, p.noise_sd, size=k)
    else:
        flat = p.table.reshape(-1)
        cells = rng.choice(flat.size, size=k, p=flat)
        coords = np.unravel_index(cells, p.table.shape)
        x = np.column_stack([np.asarray(p.x_levels[j])[coords[j]] for j in range(p.n)])
        y = np.asarray(p.y_levels)[coords[-1]]
    features, target = reference_kinds(p)
    return Dataset(features=[FeatureSpec(name=f"x{j + 1}", kind=kind)
                             for j, kind in enumerate(features)],
                   target=FeatureSpec(name="y", kind=target),
                   rows=x, targets=y, provenance="synthetic", seed=seed)


def reference_sample_conditional(p, j, value, count, seed):
    rng = np.random.default_rng(derive_seed(seed, "phenomenon-conditional", j, float(value)))
    if p.kind == "linear_gaussian":
        rest = [i for i in range(p.n) if i != j]
        mean = p.mu[rest] + p.sigma[rest, j] / p.sigma[j, j] * (value - p.mu[j])
        cov = p.sigma[np.ix_(rest, rest)] \
            - np.outer(p.sigma[rest, j], p.sigma[j, rest]) / p.sigma[j, j]
        draws = rng.multivariate_normal(mean, cov, size=count, method="cholesky") \
            if rest else np.zeros((count, 0))
        x = np.empty((count, p.n))
        x[:, j] = value
        x[:, rest] = draws
        return x
    if p.kind == "nonlinear_independent":
        x = np.empty((count, p.n))
        for i, m in enumerate(p.marginals):
            x[:, i] = value if i == j else _sample_marginal(m, count, rng)
        return x
    levels = p.x_levels[j]
    try:
        code = levels.index(float(value))
    except ValueError:
        raise UnsupportedCombination(f"{value!r} is not a level of feature {j}") from None
    sliced = np.take(p.table.sum(axis=-1), code, axis=j)
    flat = sliced.reshape(-1)
    if flat.sum() <= 0:
        raise UnsupportedCombination(f"conditioning value {value!r} has zero probability")
    cells = rng.choice(flat.size, size=count, p=flat / flat.sum())
    coords = list(np.unravel_index(cells, sliced.shape))
    coords.insert(j, np.full(count, code, dtype=int))
    return np.column_stack([np.asarray(p.x_levels[i])[coords[i]] for i in range(p.n)])


def reference_conditional_expectation(p, j, value):
    if not p.is_regression:
        raise UnsupportedCombination("conditional expectation oracle needs regression")
    if p.kind == "linear_gaussian":
        cond_mean = p.mu + p.sigma[:, j] / p.sigma[j, j] * (value - p.mu[j])
        cond_mean[j] = value
        return float(p.beta0 + p.beta @ cond_mean)
    total = p.intercept
    for t in p.terms:
        value_term = t["coef"]
        for idx, power in t["powers"].items():
            value_term *= value ** power if idx == j else _raw_moment(p.marginals[idx], power)
        total += value_term
    return float(total)


def reference_condition_terms(marginals, terms, subset):
    conditioned = []
    for coef, powers in terms:
        kept, scale = {}, coef
        for idx, power in powers.items():
            if idx in subset:
                kept[idx] = power
            else:
                scale *= _raw_moment(marginals[idx], power)
        conditioned.append((scale, kept))
    return conditioned


def reference_loss_refused(p, loss):
    regression = p.is_regression
    return (loss in (MSE, MAE) and not regression) or (loss in (ZO, KL) and regression)


def reference_epe(p, loss, subset):
    subset = set(subset)
    if reference_loss_refused(p, loss):
        raise UnsupportedCombination(f"{loss.value} on {p.kind}")
    if p.kind == "linear_gaussian":
        residual_var = _linear_gaussian_residual_variance(p, subset)
        if loss == MSE:
            return residual_var
        return math.sqrt(2.0 * residual_var / math.pi)
    if p.kind == "nonlinear_independent":
        terms = _terms_with_intercept(p)
        if loss == MAE:
            if subset == set(range(p.n)):
                return p.noise_sd * math.sqrt(2.0 / math.pi)
            raise UnsupportedCombination("MAE closed form requires the full subset")
        e_f2 = _poly_expectation(p.marginals, _poly_square(terms))
        conditioned = reference_condition_terms(p.marginals, terms, subset)
        e_g2 = _poly_expectation(p.marginals, _poly_square(conditioned))
        return p.noise_sd ** 2 + e_f2 - e_g2
    axes_rest = tuple(j for j in range(p.n) if j not in subset)
    joint_s = p.table.sum(axis=axes_rest) if axes_rest else p.table
    if loss == ZO:
        return float(1.0 - joint_s.max(axis=-1).sum())
    flat = p.table.reshape(-1, len(p.y_levels))
    shapes = tuple(len(lv) for lv in p.x_levels)
    total = 0.0
    for cell in range(flat.shape[0]):
        row = flat[cell]
        px = row.sum()
        if px <= 0:
            continue
        coords = np.unravel_index(cell, shapes)
        s_coords = tuple(coords[j] for j in range(p.n) if j in sorted(subset))
        row_s = joint_s[s_coords] if subset else joint_s
        ps = row_s.sum()
        for yi in range(len(p.y_levels)):
            if row[yi] > 0:
                total += row[yi] * math.log((row[yi] / px) / (row_s[yi] / ps))
    return float(total)


def reference_term_accepted(powers):
    items = {int(i): int(p) for i, p in powers.items()}
    if len(items) == 1:
        (_, p), = items.items()
        return 1 <= p <= 3
    if len(items) == 2:
        return all(p == 1 for p in items.values())
    return len(items) == 0


# -- drawn phenomena ------------------------------------------------------------------


# k / 997 has a full mantissa, so a product's rounding depends on its order
coefs = st.integers(-3000, 3000).map(lambda k: k / 997)
positive = st.integers(50, 2000).map(lambda k: k / 997)
noise = st.one_of(st.just(0.0), positive)


@st.composite
def linear_gaussian(draw):
    n = draw(st.integers(1, 3))
    a = np.array(draw(st.lists(coefs, min_size=n * n, max_size=n * n))).reshape(n, n)
    sigma = a @ a.T + draw(positive) * np.eye(n)
    return Phenomenon(kind="linear_gaussian",
                      mu=draw(st.lists(coefs, min_size=n, max_size=n)), sigma=sigma,
                      beta=draw(st.lists(coefs, min_size=n, max_size=n)),
                      beta0=draw(coefs), noise_sd=draw(noise))


@st.composite
def marginal(draw):
    if draw(st.booleans()):
        return {"family": "normal", "mu": draw(coefs), "sd": draw(positive)}
    low = draw(coefs)
    return {"family": "uniform", "low": low, "high": low + draw(st.just(0.0) | positive)}


@st.composite
def nonlinear_independent(draw):
    n = draw(st.integers(1, 3))
    powers = [{}] + [{i: d} for i in range(n) for d in (1, 2, 3)] \
        + [{i: 1, k: 1} for i, k in itertools.permutations(range(n), 2)]
    terms = draw(st.lists(st.sampled_from(powers), max_size=5))
    return Phenomenon(kind="nonlinear_independent",
                      marginals=draw(st.lists(marginal(), min_size=n, max_size=n)),
                      terms=[{"coef": draw(coefs), "powers": dict(t)} for t in terms],
                      intercept=draw(coefs), noise_sd=draw(noise))


@st.composite
def discrete_classification(draw):
    n = draw(st.integers(1, 3))
    whole = draw(st.booleans())
    x_levels = [[float(v) if whole else v + 0.5 for v in range(draw(st.integers(1, 3)))]
                for _ in range(n)]
    y_levels = [0.0, 1.0, 2.0][:draw(st.integers(2, 3))] if whole else [0.25, 1.5]
    shape = tuple(len(lv) for lv in x_levels) + (len(y_levels),)
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.7, 3.0]),
                                     min_size=int(np.prod(shape)),
                                     max_size=int(np.prod(shape))))).reshape(shape)
    if draw(st.booleans()):  # one x row of probability 0
        weights[(0,) * n] = 0.0
    if weights.sum() == 0:
        weights[(-1,) * (n + 1)] = 1.0
    return Phenomenon(kind="discrete_classification", x_levels=x_levels,
                      y_levels=y_levels, table=weights / weights.sum(), noise_sd=draw(noise))


phenomena = st.one_of(linear_gaussian(), nonlinear_independent(), discrete_classification())


def all_subsets(n):
    return [s for r in range(n + 1) for s in itertools.combinations(range(n), r)]


def outcome(f, *args):
    """f's value, or the type of what it raised."""
    try:
        return f(*args)
    except (UnsupportedCombination, ValueError) as e:
        return type(e)


def conditioning_values(p, j):
    if p.is_regression:
        return [0.0, -1.25, 0.7, 2.0]
    return p.x_levels[j] + [9.5]


def assert_same_bits(got, ref):
    if isinstance(ref, type):
        assert got is ref
    else:
        assert float(got).hex() == float(ref).hex()


# -- equivalence ------------------------------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=phenomena, k=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_sample_keeps_its_bytes(p, k, seed):
    got, ref = sample(p, k, seed), reference_sample(p, k, seed)
    assert got.features == ref.features and got.target == ref.target
    assert got.codes.tobytes() == ref.codes.tobytes()
    assert got.targets.tobytes() == ref.targets.tobytes()
    assert got.fingerprint == ref.fingerprint


@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=phenomena, count=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_sample_conditional_keeps_its_bytes(p, count, seed):
    for j in range(p.n):
        for value in conditioning_values(p, j):
            got = outcome(sample_conditional, p, j, value, count, seed)
            ref = outcome(reference_sample_conditional, p, j, value, count, seed)
            if isinstance(ref, type):
                assert got is ref
            else:
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=st.one_of(linear_gaussian(), nonlinear_independent()),
       values=st.lists(coefs, min_size=1, max_size=4))
def test_conditional_expectation_keeps_its_bits(p, values):
    for j in range(p.n):
        for value in values:
            assert_same_bits(true_conditional_expectation(p, j, value),
                             reference_conditional_expectation(p, j, value))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=phenomena)
def test_risks_keep_their_bits(p):
    for loss in (MSE, MAE, ZO):
        for subset in all_subsets(p.n):
            assert_same_bits(outcome(true_epe, p, loss, subset),
                             outcome(reference_epe, p, loss, subset))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=discrete_classification())
def test_kl_risk_within_summation_order(p):
    for subset in all_subsets(p.n):
        got, ref = true_epe(p, KL, subset), reference_epe(p, KL, subset)
        assert math.isclose(got, ref, rel_tol=KL_RTOL, abs_tol=KL_ATOL)


def test_fixture_risks(benchmark_phenomenon, nonlinear_phenomenon, discrete_phenomenon):
    for p in (benchmark_phenomenon, nonlinear_phenomenon, discrete_phenomenon):
        for loss, subset in itertools.product((MSE, MAE, ZO), all_subsets(p.n)):
            assert_same_bits(outcome(true_epe, p, loss, subset),
                             outcome(reference_epe, p, loss, subset))
        for subset in all_subsets(p.n):
            if not p.is_regression:
                assert math.isclose(true_epe(p, KL, subset), reference_epe(p, KL, subset),
                                    rel_tol=KL_RTOL, abs_tol=KL_ATOL)


# -- the accepted and refused inputs ----------------------------------------------------


@pytest.mark.parametrize("powers", [
    {}, {0: 1}, {1: 2}, {2: 3}, {0: 1, 1: 1}, {"1": 1, "0": "1"},
    {0: 0}, {0: 4}, {0: -1}, {0: 2, 1: 1}, {0: 1, 1: 2}, {0: 1, 1: 1, 2: 1}, {0: 1.5},
])
def test_term_whitelist_unchanged(powers):
    accepted = reference_term_accepted(powers)
    if accepted:
        assert _check_term(powers) == {int(i): int(p) for i, p in powers.items()}
    else:
        with pytest.raises(UnsupportedCombination, match="outside the whitelist"):
            _check_term(powers)


@pytest.mark.parametrize("loss", [MSE, MAE, ZO, KL])
def test_loss_kind_pairs_unchanged(loss, benchmark_phenomenon, nonlinear_phenomenon,
                                   discrete_phenomenon):
    for p in (benchmark_phenomenon, nonlinear_phenomenon, discrete_phenomenon):
        subset = tuple(range(p.n))
        if reference_loss_refused(p, loss):
            for operation, call in (("optimal_predictor", lambda: OptimalPredictorSpec(p, loss)),
                                    ("true_epe", lambda: true_epe(p, loss, subset))):
                with pytest.raises(UnsupportedCombination, match="admits") as e:
                    call()
                assert e.value.operation == operation
        else:
            OptimalPredictorSpec(p, loss)
            true_epe(p, loss, subset)
