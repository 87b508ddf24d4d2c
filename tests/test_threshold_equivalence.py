"""The support checker's self-distance threshold against the full scan it replaced.

`reference_threshold` below is the former `_self_distance_percentile`, kept
verbatim: one `nearest` over every sampled row and every reference row, then
the 0.99 quantile of each row's distance to its nearest other row. The
threshold scans exactly only the rows whose distance can reach the
quantile's positions, so its bits must equal the full scan's, also on data
full of ties: integer copies, categorical-only rows and constant columns.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from descry import Dataset, FeatureSpec
from descry import samplers
from descry.models import nearest
from descry.samplers import SELF_DISTANCE_SAMPLE, SUPPORT_QUANTILE_BAND, SupportChecker
from descry._util import derive_seed

CATEGORIES = ("a", "b", "c")
TARGET = FeatureSpec(name="y", kind="numeric")


def reference_threshold(self):
    k = self.d.k
    if k < 2:
        return 0.0
    # seeded by k and the band, not the content: a new hash moves no threshold
    rng = np.random.default_rng(derive_seed(0, "support-self", k, SUPPORT_QUANTILE_BAND))
    queries = np.arange(k) if k <= SELF_DISTANCE_SAMPLE \
        else np.sort(rng.choice(k, size=SELF_DISTANCE_SAMPLE, replace=False))
    # the nearest row other than the query itself is one of the two nearest
    index, dist = nearest(self.encoded[queries], self.encoded, 2, self.ranges)
    others = np.where(index[:, 0] == queries, dist[:, 1], dist[:, 0])
    return float(np.quantile(others, 0.99))


def dataset(columns, kinds):
    features = [FeatureSpec(name=f"x{j}", kind=kind,
                            categories=CATEGORIES if kind == "categorical" else None)
                for j, kind in enumerate(kinds)]
    rows = np.empty((len(columns[0]), len(kinds)), dtype=object)
    for j, column in enumerate(columns):
        rows[:, j] = column
    if "categorical" not in kinds:
        rows = rows.astype(float)
    return Dataset(features=features, target=TARGET, rows=rows,
                   targets=np.zeros(len(rows)), provenance="observed")


@st.composite
def tie_heavy_dataset(draw):
    k = draw(st.sampled_from([2, 3, 7, 50, 300, 600, 1000, 1001, 2500]))
    kinds = draw(st.sampled_from([
        ("numeric", "numeric"), ("integer", "integer"), ("categorical", "categorical"),
        ("numeric", "integer", "categorical"), ("integer", "numeric"), ("categorical",),
        ("integer",)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    constant = draw(st.integers(-1, len(kinds) - 1))   # -1: no constant column
    columns = []
    for j, kind in enumerate(kinds):
        if kind == "categorical":
            levels = CATEGORIES[:1] if j == constant else CATEGORIES
            columns.append(rng.choice(levels, size=k).astype(object))
        elif j == constant:
            columns.append(np.full(k, 2.5))
        elif kind == "integer":
            columns.append(rng.integers(0, draw(st.integers(1, 12)), size=k).astype(float))
        else:
            columns.append(rng.normal(size=k) * draw(st.sampled_from([1e-3, 1.0, 1e3])))
    # copies of earlier rows, so that many rows sit at distance 0 from another
    copies = rng.random(k) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    source = rng.integers(0, np.maximum(np.arange(k), 1))
    for column in columns:
        column[copies] = column[source[copies]]
    return dataset(columns, kinds)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(tie_heavy_dataset(), st.sampled_from([(None, None), (1, 1), (1, 32), (256, 1), (3, 5)]))
def test_threshold_matches_the_full_scan(d, sizes):
    subset, batch = sizes
    with mock.patch.multiple(samplers, SELF_DISTANCE_SUBSET=subset or samplers.SELF_DISTANCE_SUBSET,
                             SELF_DISTANCE_BATCH=batch or samplers.SELF_DISTANCE_BATCH):
        checker = SupportChecker(d)
        checker.nn_threshold   # computed on first read, so under the patched sizes
    assert checker.nn_threshold == reference_threshold(checker)


@pytest.mark.parametrize("k", [1, 2, 1001])
def test_threshold_of_one_repeated_row(k):
    d = dataset([np.full(k, 3.0), np.full(k, -1.0)], ("numeric", "integer"))
    checker = SupportChecker(d)
    assert checker.nn_threshold == reference_threshold(checker) == 0.0


def test_quantile_reads_only_the_largest_values():
    """For every sample size the threshold can have, np.quantile at 0.99
    reads only the q - floor(0.99 (q - 1)) largest values: lowering any
    other value does not move a bit of it."""
    rng = np.random.default_rng(5)
    for q in range(2, SELF_DISTANCE_SAMPLE + 1):
        values = rng.random(q)
        need = q - int(0.99 * (q - 1))
        lowered = values.copy()
        lowered[np.argsort(values)[:q - need]] = -1.0
        assert np.quantile(lowered, 0.99) == np.quantile(values, 0.99)


def test_scans_fewer_pairs_than_the_full_scan():
    """On 2 000 rows of continuous data the threshold bounds every sampled
    row by one row in eight and takes exact distances for a few batches of
    rows, not for all 1 000: a quarter of the full scan's pairs."""
    x = np.random.default_rng(9).normal(size=(2000, 3))
    d = dataset(list(x.T), ("numeric",) * 3)
    pairs = []
    real_nearest = samplers.nearest

    def counting_nearest(queries, reference, count, ranges=None):
        pairs.append(len(queries) * len(reference))
        return real_nearest(queries, reference, count, ranges)

    with mock.patch.object(samplers, "nearest", counting_nearest):
        checker = SupportChecker(d)
        threshold = checker.nn_threshold
    assert threshold == reference_threshold(checker)
    assert sum(pairs) < SELF_DISTANCE_SAMPLE * d.k / 3
