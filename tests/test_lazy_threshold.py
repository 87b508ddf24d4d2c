"""The support checker's threshold is computed on its first read.

`EagerChecker` below is the former constructor and `check_rows`, kept
verbatim: it computes the threshold while it is built and scans every row
that passes the band test and copies no reference row, also when there is
none. The lazy checker must give every decision and every threshold read
the same bits, in any order of checks, and must compute the threshold only
when a checked row reaches the distance scan: the work is counted at
`samplers.nearest`, which the threshold and the scan both call.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import descry
from descry import (
    Dataset, FeatureSpec, LearnerConfig, LossFunction, clear_caches,
    local_conditional_contribution, shapley_local,
)
from descry import samplers
from descry.data import gower_decode, gower_encode
from descry.models import feature_ranges, nearest
from descry.samplers import SUPPORT_QUANTILE_BAND, SupportChecker, get_support_checker

CATEGORIES = ("a", "b", "c")
TARGET = FeatureSpec(name="y", kind="numeric")


class EagerChecker(SupportChecker):
    def __init__(self, d):
        self.d = d
        self.ranges = feature_ranges(d.codes, d.features)
        self.encoded = d.codes
        levels = [SUPPORT_QUANTILE_BAND, 1.0 - SUPPORT_QUANTILE_BAND]
        self.bounds = [None if f.kind == "categorical" else np.quantile(self.encoded[:, j], levels)
                       for j, f in enumerate(d.features)]
        self.nn_threshold = self._self_distance_percentile()
        self.index_mask = np.uint64((1 << max(d.k - 1, 1).bit_length()) - 1)
        self.keys = np.sort(samplers._row_hashes(self.encoded) & ~self.index_mask
                            | np.arange(d.k, dtype=np.uint64))

    def check_rows(self, rows):
        x = gower_encode(rows, self.d.features)
        ok = np.ones(len(x), dtype=bool)
        for j, bound in enumerate(self.bounds):
            ok &= np.isin(x[:, j], self.encoded[:, j]) if bound is None \
                else (bound[0] <= x[:, j]) & (x[:, j] <= bound[1])
        scan = np.flatnonzero(ok)
        scan = scan[~self._copies(x[scan])]
        _, dist = nearest(x[scan], self.encoded, 1, self.ranges)
        ok[scan] = dist[:, 0] <= self.nn_threshold
        return ok


@contextmanager
def counted_nearest():
    """The query counts of the `nearest` calls the support checker makes."""
    calls = []

    def counting(queries, *args):
        calls.append(len(queries))
        return nearest(queries, *args)
    with mock.patch.object(samplers, "nearest", counting):
        yield calls


def dataset(codes, kinds):
    features = [FeatureSpec(name=f"x{j}", kind=kind,
                            categories=CATEGORIES if kind == "categorical" else None)
                for j, kind in enumerate(kinds)]
    return Dataset(features=features, target=TARGET, rows=gower_decode(codes, features),
                   targets=np.zeros(len(codes)), provenance="observed")


@st.composite
def mixed_problem(draw):
    """Numeric, integer and categorical columns with repeated rows, and a
    pool of queries: copies of rows, band failures (a value above a numeric
    column's largest, or an unobserved category) and rows that reach the
    scan (a row nudged along one column, two rows' midpoint, or a row of
    band edges, which is often far from every row)."""
    k = draw(st.sampled_from([1, 2, 3, 7, 40, 150, 300]))
    kinds = draw(st.sampled_from([
        ("numeric", "integer", "categorical"), ("numeric",), ("integer", "integer"),
        ("categorical", "numeric"), ("categorical",)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observed = draw(st.integers(1, len(CATEGORIES)))
    codes = np.column_stack([
        rng.integers(0, observed, size=k) if kind == "categorical"
        else rng.integers(0, 6, size=k) if kind == "integer"
        else rng.normal(size=k) for kind in kinds]).astype(float)
    copies = rng.random(k) < draw(st.sampled_from([0.0, 0.5]))
    codes[copies] = codes[rng.integers(0, np.maximum(np.arange(k), 1))[copies]]
    d = dataset(codes, kinds)

    pick = lambda: codes[rng.integers(0, k)].copy()
    pool = [pick() for _ in range(4)]
    for j, kind in enumerate(kinds):
        fail, nudged = pick(), pick()
        if kind == "categorical":
            fail[j] = observed if observed < len(CATEGORIES) else -1   # -1: undeclared
            nudged[j] = rng.integers(0, observed)
        else:
            fail[j] = codes[:, j].max() + 1.0
            nudged[j] += 1.0 if kind == "integer" else 1e-3
        pool += [fail, nudged]
    pool.append((pick() + pick()) / 2)
    edges = np.quantile(codes, [SUPPORT_QUANTILE_BAND, 1.0 - SUPPORT_QUANTILE_BAND], axis=0)
    pool.append(np.where(np.arange(len(kinds)) % 2, edges[0], edges[1]))
    pool[-1][np.array(kinds) == "categorical"] = 0.0
    pool = np.array(pool)
    # each step checks some of the pool's rows in some order (maybe none),
    # or reads the threshold
    steps = draw(st.lists(st.one_of(
        st.none(), st.lists(st.integers(0, len(pool) - 1), max_size=6)), min_size=1, max_size=6))
    return d, pool, steps


@settings(derandomize=True, deadline=None, max_examples=150)
@given(mixed_problem())
def test_lazy_checker_answers_as_the_eager_one(problem):
    d, pool, steps = problem
    eager, lazy = EagerChecker(d), SupportChecker(d)
    for step in steps:
        if step is None:
            assert lazy.nn_threshold == eager.nn_threshold
        else:
            rows = pool[np.array(step, dtype=np.intp)]
            assert lazy.check_rows(rows).tolist() == eager.check_rows(rows).tolist()
    assert lazy.nn_threshold == eager.nn_threshold


def mixed_rows():
    rng = np.random.default_rng(5)
    codes = np.column_stack([rng.normal(size=300), rng.integers(0, 9, size=300),
                             rng.integers(0, 3, size=300)]).astype(float)
    return dataset(codes, ("numeric", "integer", "categorical")), codes


def test_checks_that_reach_no_scan_compute_no_threshold():
    d, codes = mixed_rows()
    band_failures = codes[:10] + [100.0, 0.0, 0.0]
    with counted_nearest() as calls:
        checker = SupportChecker(d)
        assert checker.check_rows(codes[:50]).all()
        assert not checker.check_rows(band_failures).any()
        assert checker.check_rows(codes[:0]).tolist() == []
        assert checker.check(list(d.rows[3]))
        assert descry.support_check(d, d.rows[3])
    assert calls == []
    assert "nn_threshold" not in checker.__dict__


def test_the_first_scan_computes_the_threshold_once():
    d, codes = mixed_rows()
    with counted_nearest() as threshold_calls:
        SupportChecker(d).nn_threshold
    assert len(threshold_calls) >= 1
    near = codes[7:9] + [0.001, 0.0, 0.0]
    checker = SupportChecker(d)
    with counted_nearest() as calls:
        first = checker.check_rows(np.vstack([codes[:5], near]))
    # the scan takes only the two nudged rows, then the threshold is built
    assert calls == [2] + threshold_calls
    with counted_nearest() as calls:
        assert checker.check_rows(near).tolist() == first[5:].tolist()
        checker.nn_threshold
    assert calls == [2]


def observed_instance(d):
    """The index of the first row inside every column's [0.1, 0.9] quantiles."""
    low, high = np.quantile(d.codes, [0.1, 0.9], axis=0)
    return int(np.flatnonzero(((low <= d.codes) & (d.codes <= high)).all(axis=1))[0])


@pytest.mark.parametrize("question", ["shapley_local", "local_conditional_contribution"])
def test_an_observed_instance_computes_no_threshold(question):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 3))
    d_train, d_eval = dataset(x[:200], ("numeric",) * 3), dataset(x[200:], ("numeric",) * 3)
    config = LearnerConfig(learner="knn", knn_k=5)
    i = observed_instance(d_eval)

    def ask(instance):
        if question == "shapley_local":
            return shapley_local(config, d_train, d_eval, instance)
        return local_conditional_contribution(config, d_train, d_eval, instance, 0.0, 0,
                                              LossFunction.MSE)

    clear_caches()
    with counted_nearest() as calls:
        ask(list(d_eval.rows[i]))
    assert calls == []
    assert "nn_threshold" not in get_support_checker(d_eval).__dict__
    # a row the data do not hold reaches the scan and builds the threshold
    with counted_nearest() as calls:
        ask(list(d_eval.rows[i] + [1e-3, 0.0, 0.0]))
    assert calls[0] == 1 and len(calls) > 1
    assert "nn_threshold" in get_support_checker(d_eval).__dict__


@pytest.mark.parametrize("rows, width", [
    ([[0.1]], 1), (np.array([[0.1]]), 1), ([[0.1] * 5], 5), (np.zeros((1, 5)), 5),
    ([[0.1, 0.2], [0.3]], 1), ([[0.1, 0.2], [0.3, 0.4, 0.5]], 3)])
def test_rows_of_another_width_are_refused(rows, width):
    d = dataset(np.random.default_rng(3).normal(size=(50, 2)), ("numeric", "numeric"))
    checker = SupportChecker(d)
    with counted_nearest() as calls, pytest.raises(
            ValueError, match=f"^a row has width {width}, but the data has 2 features$"):
        checker.check_rows(rows)
    assert calls == []
    assert "nn_threshold" not in checker.__dict__


@pytest.mark.parametrize("x, width", [([0.1], 1), ([0.1, 0.2, 0.3], 3)])
def test_support_check_refuses_an_instance_of_another_width(x, width):
    d = dataset(np.random.default_rng(3).normal(size=(50, 2)), ("numeric", "numeric"))
    with pytest.raises(ValueError, match=f"^a row has width {width}, but the data has 2 features$"):
        descry.support_check(d, x)
