"""The stacked ols trainer against the one-design fit it replaced.

The reference below is the old two-dimensional fit of one Dataset copy: its
own encoding, `design.T @ design`, `eigvalsh`, `solve`, a residual dot
product and `inv`. The stack takes each fit's design as rows of its dataset's
design and makes the same BLAS and LAPACK calls slice by slice, so every
handle of a stack must equal, bit for bit, both the reference and its own
lone fit: coefficients, intercept, standard errors, residual variance and
whether it took the ridge fallback.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from descry import Dataset, FeatureSpec, LearnerConfig, LossFunction, models, train
from descry.errors import SingularDesign
from descry.models import build_encoder, encode, train_each

MSE = LossFunction.MSE
OLS = LearnerConfig(learner="ols", seed=3)


# -- the reference: one design at a time -------------------------------------------


def reference_solve(gram, rhs):
    eigvals = np.linalg.eigvalsh(gram)
    if not eigvals[0] <= 1e-10 * max(eigvals[-1], 1.0):
        try:
            coef = np.linalg.solve(gram, rhs)
            if np.all(np.isfinite(coef)):
                return coef, False
        except np.linalg.LinAlgError:
            pass
    return np.linalg.solve(gram + 1e-8 * np.eye(gram.shape[0]), rhs), True


def reference_fit(d):
    encoder = [dict(e, categories=e["categories"][1:]) if e["type"] == "onehot" else e
               for e in build_encoder(d.features, d.codes)]
    design = np.concatenate([np.ones((d.k, 1)), encode(d.codes, encoder, d.features)], axis=1)
    gram = design.T @ design
    coef, ridged = reference_solve(gram, design.T @ d.targets)
    residuals = d.targets - design @ coef
    sigma2 = float(residuals @ residuals) / max(d.k - design.shape[1], 1)
    cov = sigma2 * np.linalg.inv(gram + (1e-8 * np.eye(design.shape[1]) if ridged else 0))
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return {"intercept": float(coef[0]), "coef": coef[1:], "encoder": encoder,
            "ridge_fallback": ridged, "intercept_se": float(se[0]), "coef_se": se[1:].tolist(),
            "residual_variance": sigma2}


def fit_bits(handle):
    """A handle's fitted numbers as bytes (so -0.0 differs from 0.0), and the rest."""
    meta = handle.metadata
    return (np.float64(handle.params["intercept"]).tobytes(), handle.params["coef"].tobytes(),
            np.float64(meta["intercept_se"]).tobytes(), np.array(meta["coef_se"]).tobytes(),
            np.float64(meta["residual_variance"]).tobytes(), meta["ridge_fallback"],
            handle.params["encoder"])


def reference_bits(fit):
    return (np.float64(fit["intercept"]).tobytes(), fit["coef"].tobytes(),
            np.float64(fit["intercept_se"]).tobytes(), np.array(fit["coef_se"]).tobytes(),
            np.float64(fit["residual_variance"]).tobytes(), fit["ridge_fallback"],
            fit["encoder"])


# -- data --------------------------------------------------------------------------


def make_dataset(k, numeric, levels, seed):
    """k rows of `numeric` rounded normal columns and one categorical column per
    entry of `levels` (its level count); the target depends on all of them."""
    rng = np.random.default_rng(seed)
    features = [FeatureSpec(name=f"x{j}", kind="numeric") for j in range(numeric)]
    features += [FeatureSpec(name=f"c{j}", kind="categorical",
                             categories=tuple(f"l{i}" for i in range(count)))
                 for j, count in enumerate(levels)]
    x = np.round(rng.normal(size=(k, numeric)), 2)
    cats = [rng.integers(0, count, size=k) for count in levels]
    rows = [[*map(float, x[i]), *(f"l{c[i]}" for c in cats)] for i in range(k)]
    y = x.sum(axis=1) + sum(cats) + rng.normal(scale=0.3, size=k)
    return Dataset(features=features, target=FeatureSpec(name="y", kind="numeric"),
                   rows=rows, targets=y, provenance="synthetic")


CASES = st.fixed_dictionaries({
    "k": st.integers(2, 60),
    "numeric": st.integers(0, 3),
    # one-hot blocks; a 1-level block encodes to no column once its first level is dropped
    "levels": st.lists(st.integers(1, 5), max_size=2),
    "method": st.sampled_from(["bootstrap", "subsample", "all"]),
    "fraction": st.sampled_from([0.3, 0.5, 0.9]),
    "replicates": st.integers(1, 6),
    # a slice of one repeated row: its design has rank 1, so it takes the ridge
    "singular": st.one_of(st.none(), st.integers(0, 5)),
    "seed": st.integers(0, 50),
}).filter(lambda c: c["numeric"] or c["levels"])


def fits_of(case, d):
    rng = np.random.default_rng(case["seed"] + 1000)
    if case["method"] == "all":
        fits = [(d, None)] * case["replicates"]
    elif case["method"] == "bootstrap":
        # a bootstrap has d.k rows, as the full-data fit that leads it does
        fits = [(d, None)] + [(d, rng.integers(0, d.k, size=d.k))
                              for _ in range(case["replicates"] - 1)]
    else:
        m = max(1, int(case["fraction"] * d.k))
        fits = [(d, rng.permutation(d.k)[:m]) for _ in range(case["replicates"])]
    if case["singular"] is not None:
        r = case["singular"] % len(fits)
        size = d.k if fits[r][1] is None else len(fits[r][1])
        fits[r] = (d, np.full(size, case["seed"] % d.k))
    return fits


@settings(derandomize=True, deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
def test_every_handle_of_a_stack_equals_its_lone_fit(case):
    d = make_dataset(case["k"], case["numeric"], case["levels"], case["seed"])
    fits = fits_of(case, d)
    stacks = []
    train_ols = models._train_ols

    def recording_train_ols(config, stack):
        stacks.append(len(stack))
        return train_ols(config, stack)

    with mock.patch.object(models, "_train_ols", recording_train_ols):
        handles = list(train_each(OLS, iter(fits), MSE))
    assert stacks == [len(handles)] == [len(fits)]
    for handle, (_, rows) in zip(handles, fits):
        copy = d if rows is None else d.take(rows)
        assert fit_bits(handle) == fit_bits(train(OLS, copy, MSE)) == \
            reference_bits(reference_fit(copy))
        assert handle.input_schema == d.features
        assert handle.metadata["seed"] == OLS.seed
    width = 1 + case["numeric"] + sum(count - 1 for count in case["levels"])
    if case["singular"] is not None and width > 1:   # an intercept alone is regular
        r = case["singular"] % len(fits)
        assert handles[r].metadata["ridge_fallback"]


def test_datasets_of_one_shape_stack_with_their_own_designs():
    # separately sampled datasets (as bias_variance_me trains) share a stack,
    # each fit on its own design
    datasets = [make_dataset(30, 2, [3], seed) for seed in range(4)]
    stacks = []
    train_ols = models._train_ols

    def recording_train_ols(config, stack):
        stacks.append(len(stack))
        return train_ols(config, stack)

    with mock.patch.object(models, "_train_ols", recording_train_ols):
        handles = list(train_each(OLS, [(d, None) for d in datasets], MSE))
    assert stacks == [4]
    for handle, d in zip(handles, datasets):
        assert fit_bits(handle) == reference_bits(reference_fit(d))


def test_a_slice_the_ridge_cannot_solve_is_refused_after_the_slices_before_it():
    d = make_dataset(20, 2, [], 1)
    fits = [(d, np.arange(10)), (d, np.arange(10, 20)), (d, np.arange(5, 15))]
    solve = models._solve_normal_equations

    def refusing_second(gram, rhs):
        coef, ridged, refusals = solve(gram, rhs)
        refusals[1] = "ridge fallback produced non-finite coefficients"
        return coef, ridged, refusals

    with mock.patch.object(models, "_solve_normal_equations", refusing_second):
        handles = train_each(OLS, fits, MSE)
        first = next(handles)
        with pytest.raises(SingularDesign, match="non-finite"):
            next(handles)
    assert fit_bits(first) == reference_bits(reference_fit(d.take(np.arange(10))))
