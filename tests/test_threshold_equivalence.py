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

from descry import Dataset, FeatureSpec, build_grid
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
def tie_heavy_dataset(draw, sizes=(2, 3, 7, 50, 300, 600, 1000, 1001, 2500)):
    k = draw(st.sampled_from(sizes))
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
@given(tie_heavy_dataset(), st.sampled_from([(None, None), (0, 1), (0, 32), (1, 1), (1, 32),
                                             (256, 1), (3, 5)]))
def test_threshold_matches_the_full_scan(d, sizes):
    """Window 0 holds only a row's own row, so no bound settles anything;
    a wide window holds every row and all bounds are exact."""
    window, batch = sizes
    with mock.patch.multiple(samplers, SELF_DISTANCE_WINDOW=samplers.SELF_DISTANCE_WINDOW
                             if window is None else window,
                             SELF_DISTANCE_BATCH=batch or samplers.SELF_DISTANCE_BATCH):
        checker = SupportChecker(d)
        checker.nn_threshold   # computed on first read, so under the patched sizes
    assert checker.nn_threshold == reference_threshold(checker)


def band_then_full_scan(checker, x):
    """The support check as it reads: the band test of each code row, then
    the nearest-row distance of each row that passes it, from one full scan,
    against the full scan's threshold."""
    d = checker.d
    ok = np.ones(len(x), dtype=bool)
    for j, spec in enumerate(d.features):
        column = d.codes[:, j]
        if spec.kind == "categorical":
            ok &= np.isin(x[:, j], column)
        else:
            low, high = np.quantile(column, [SUPPORT_QUANTILE_BAND, 1.0 - SUPPORT_QUANTILE_BAND])
            ok &= (low <= x[:, j]) & (x[:, j] <= high)
    if ok.any():
        _, dist = nearest(x[ok], d.codes, 1, checker.ranges)
        ok[ok] = dist[:, 0] <= reference_threshold(checker)
    return ok


def checked_rows(d, rng):
    """Code rows of every kind the checker settles apart: copies of rows,
    nudged copies (a numeric cell moved by a tiny, small or large step, an
    integer by one, a category changed), each feature's grid values spliced
    into a row, midpoints of two rows, a row of band edges and off-band rows
    (a numeric cell above its column, an undeclared category)."""
    codes = d.codes
    k, n = codes.shape
    pick = lambda m: codes[rng.integers(0, k, size=m)]   # a copy
    rows = [pick(6)]
    nudged = pick(12)
    for row, j, step in zip(nudged, rng.integers(0, n, size=12),
                            rng.choice([1e-9, 1e-3, 0.3], size=12)):
        kind = d.features[j].kind
        row[j] = rng.integers(0, len(CATEGORIES)) if kind == "categorical" \
            else row[j] + (1.0 if kind == "integer" else step * (1.0 + np.ptp(codes[:, j])))
    rows.append(nudged)
    for j in range(n):
        grid = build_grid(d, j, max_points=6)
        spliced = np.repeat(pick(1), len(grid.points), axis=0)
        spliced[:, j] = grid.codes(d)
        rows.append(spliced)
    rows.append((pick(4) + pick(4)) / 2)
    rows.append(np.quantile(codes, [SUPPORT_QUANTILE_BAND], axis=0))
    off = pick(n)
    for j, row in enumerate(off):
        row[j] = -1.0 if d.features[j].kind == "categorical" else codes[:, j].max() + 1.0
    rows.append(off)
    rows = np.concatenate(rows)
    categorical = [j for j, f in enumerate(d.features) if f.kind == "categorical"]
    # a midpoint or band edge of a categorical column is no category: take the nearest code
    rows[:len(rows) - n, categorical] = np.round(rows[:len(rows) - n, categorical])
    return rows


@settings(derandomize=True, deadline=None, max_examples=120)
@given(tie_heavy_dataset(sizes=(2, 3, 4, 7, 10, 17, 18, 50, 300, 1001)),
       st.sampled_from([0, 1, None]), st.integers(0, 2**32 - 1))
def test_check_rows_match_the_band_test_and_full_scan(d, window, seed):
    """Whatever the window, from one row (0, which bounds no threshold row)
    up, every decision and the threshold are the full scan's: a bound is
    a distance to a real row, never below the nearest one."""
    rows = checked_rows(d, np.random.default_rng(seed))
    with mock.patch.object(samplers, "SELF_DISTANCE_WINDOW",
                           samplers.SELF_DISTANCE_WINDOW if window is None else window):
        checker = SupportChecker(d)
        decided = checker.check_rows(rows)
        assert checker.nn_threshold == reference_threshold(checker)
    assert decided.tolist() == band_then_full_scan(checker, rows).tolist()


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
    row by its window in Z order, which `nearest` does not compute, and
    takes exact distances for one batch of rows, not for all 1 000: under a
    sixteenth of the full scan's pairs."""
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
    assert sum(pairs) < SELF_DISTANCE_SAMPLE * d.k / 16
