"""One resolver for a feature given by name or by index.

`Dataset.feature_index` turns a name or an index into a column index. Every
operation that takes a feature resolves it there, so each must return the
same index, or raise the same error with the same message, as the resolver
itself does for any name, Python or numpy integer, or out-of-range index.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descry import (
    Dataset, FeatureSpec, LearnerConfig, LossFunction, build_grid, cpdp, cpfi, ice,
    local_conditional_contribution, train,
)
from descry.descriptors import feature_grid
from descry.errors import DescryError, UnknownFeature

MSE = LossFunction.MSE
OLS = LearnerConfig(learner="ols")


def grid_dataset(n):
    """Every combination of the values 0, 1, 2 over n integer features, twice,
    so that each row, and each row with one value changed, is on support."""
    rows = [list(r) for r in itertools.product([0.0, 1.0, 2.0], repeat=n)] * 2
    return Dataset(features=[FeatureSpec(name=f"x{j}", kind="integer") for j in range(n)],
                   target=FeatureSpec(name="y", kind="numeric"), rows=rows,
                   targets=[sum(r) + 0.1 * (i % 3) for i, r in enumerate(rows)],
                   provenance="observed")


DATASETS = {n: grid_dataset(n) for n in (2, 3)}
HANDLES = {n: train(OLS, d, MSE) for n, d in DATASETS.items()}


def outcome(resolve):
    """The index an operation resolved, or the type and message of its error."""
    try:
        return resolve()
    except (ValueError, DescryError) as exc:
        return type(exc), str(exc)


@st.composite
def feature_of(draw, n):
    """A feature reference: a known or unknown name, an in-range Python or
    numpy integer, or an index at or beyond n, or below 0."""
    return draw(st.one_of(
        st.sampled_from([f"x{j}" for j in range(n)] + ["x9", "", "X0"]),
        st.integers(0, n - 1),
        st.integers(0, n - 1).map(np.int64),
        st.integers(0, n - 1).map(np.int32),
        st.integers(n, 50),
        st.integers(-50, -1),
    ))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.sampled_from([2, 3]))
def test_every_operation_resolves_like_the_dataset(data, n):
    d, h = DATASETS[n], HANDLES[n]
    feature = data.draw(feature_of(n))
    instance = [1.0] * n
    expected = outcome(lambda: d.feature_index(feature))
    resolved = {
        "build_grid": lambda: build_grid(d, feature).feature_index,
        "feature_grid": lambda: feature_grid(d, feature, None, 20).feature_index,
        "cpdp": lambda: cpdp(h, d, feature).spec.feature,
        "ice": lambda: ice(h, instance, feature, None, d).spec.feature,
        "cpfi": lambda: cpfi(OLS, d, d, feature, MSE).spec.feature,
        "local_conditional_contribution": lambda: local_conditional_contribution(
            OLS, d, d, instance, 3.0, feature, MSE).spec.feature,
    }
    for name, resolve in resolved.items():
        assert outcome(resolve) == expected, name
    if isinstance(expected, int):
        assert type(expected) is int and 0 <= expected < n
    elif isinstance(feature, str):
        assert expected == (UnknownFeature, f"no feature named {feature!r}")
    else:
        assert expected == (ValueError,
                            f"feature index {feature} is outside 0..{n - 1} of {n} features")


def test_build_grid_refuses_an_index_beyond_the_features():
    with pytest.raises(ValueError, match=r"^feature index 7 is outside 0\.\.1 of 2 features$"):
        build_grid(DATASETS[2], 7)
