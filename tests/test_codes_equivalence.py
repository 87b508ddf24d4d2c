"""A Dataset's code matrix against the object-row code it replaced.

The reference functions below are the former implementations that derived
numbers from a Dataset's object rows: the Gower encoding, the one-hot
encoding, the per-feature ranges, and the support check with its full
self-distance scan (the fingerprint only seeded the subsample of datasets
over SELF_DISTANCE_SAMPLE rows). Every value read from `codes` must equal
theirs exactly, for numeric, integer and categorical columns and for query
rows that carry an undeclared category.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from descry import Dataset, FeatureSpec, build_grid, conditional_groups, select_features
from descry import samplers
from descry.models import build_encoder, encode, feature_ranges, gower_encode
from descry.samplers import SELF_DISTANCE_SAMPLE, SupportChecker, grid_membership
from descry._util import derive_seed

CATEGORIES = ("a", "b", "c")
UNDECLARED = "zz"
TARGET = FeatureSpec(name="y", kind="numeric")


def reference_gower_encode(rows, features):
    rows = np.array(rows, dtype=object).reshape(len(rows), len(features))
    out = np.empty(rows.shape)
    for j, spec in enumerate(features):
        if spec.kind == "categorical":
            index = {c: i for i, c in enumerate(spec.categories)}
            out[:, j] = [index.get(v, -1) for v in rows[:, j]]
        else:
            out[:, j] = rows[:, j]
    return out


def reference_encode(rows, encoder):
    rows = np.asarray(rows)
    cols = []
    for j, enc in enumerate(encoder):
        if enc["type"] == "numeric":
            col = np.asarray(rows[:, j], dtype=float)
            cols.append(((col - enc["mean"]) / enc["scale"])[:, None])
        else:
            cats = enc["categories"]
            onehot = np.zeros((rows.shape[0], len(cats)))
            for c, cat in enumerate(cats):
                onehot[:, c] = [1.0 if v == cat else 0.0 for v in rows[:, j]]
            cols.append(onehot)
    return np.concatenate(cols, axis=1) if cols else np.zeros((rows.shape[0], 0))


def reference_feature_ranges(rows, features):
    spans = np.ptp(reference_gower_encode(rows, features), axis=0)
    return [0.0 if f.kind == "categorical" else float(r) for f, r in zip(features, spans)]


def reference_gower_distances(rows, x, features, ranges):
    acc = np.zeros(len(rows))
    for j, spec in enumerate(features):
        if spec.kind == "categorical":
            acc += np.array([0.0 if v == x[j] else 1.0 for v in rows[:, j]])
        else:
            diff = np.abs(np.asarray(rows[:, j], dtype=float) - float(x[j]))
            acc += diff / ranges[j] if ranges[j] > 0 else (diff > 0).astype(float)
    return acc / max(len(features), 1)


def reference_support(d, queries, quantile_band=0.005):
    """Thresholds and checks from the object rows; k <= SELF_DISTANCE_SAMPLE."""
    ranges = reference_feature_ranges(d.rows, d.features)
    nearest_other = np.empty(d.k)
    for i in range(d.k):
        dist = reference_gower_distances(d.rows, d.rows[i], d.features, ranges)
        dist[i] = np.inf
        nearest_other[i] = dist.min()
    threshold = float(np.quantile(nearest_other, 0.99)) if d.k > 1 else 0.0
    checks = []
    for x in queries:
        ok = True
        for j, spec in enumerate(d.features):
            if spec.kind == "categorical":
                ok &= x[j] in set(d.rows[:, j])
            else:
                lo, hi = np.quantile(np.asarray(d.rows[:, j], dtype=float),
                                     [quantile_band, 1.0 - quantile_band])
                ok &= bool(lo <= float(x[j]) <= hi)
        checks.append(bool(ok) and bool(
            reference_gower_distances(d.rows, x, d.features, ranges).min() <= threshold))
    return ranges, threshold, checks


@st.composite
def mixed_problem(draw):
    """Numeric, integer and categorical columns in any order (the integer
    cells given as ints or floats, numeric cells possibly -0.0), and query
    rows that may step outside the data or carry an undeclared category."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "integer", "categorical"]),
                          min_size=1, max_size=4))
    features = [FeatureSpec(name=f"x{j}", kind=kind,
                            categories=CATEGORIES if kind == "categorical" else None)
                for j, kind in enumerate(kinds)]
    k = draw(st.integers(2, 30))

    def cell(spec, query):
        if spec.kind == "categorical":
            return draw(st.sampled_from(CATEGORIES + ((UNDECLARED,) if query else ())))
        if spec.kind == "integer":
            return draw(st.sampled_from([int, float]))(draw(st.integers(-3, 3)))
        return draw(st.sampled_from([-0.0, 0.0, 0.5, -1.25, 2.0, 3.75]))

    rows = [[cell(f, False) for f in features] for _ in range(k)]
    queries = [[cell(f, True) for f in features] for _ in range(draw(st.integers(1, 10)))]
    queries += [list(rows[i]) for i in draw(st.lists(st.integers(0, k - 1), max_size=4))]
    targets = [draw(st.integers(-2, 2)) / 4 for _ in range(k)]
    d = Dataset(features=features, target=TARGET, rows=rows, targets=targets,
                provenance="observed")
    return d, np.array(queries, dtype=object)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(mixed_problem())
def test_codes_are_the_gower_encoding_of_the_rows(problem):
    d, queries = problem
    assert d.codes.dtype == float and not d.codes.flags.writeable
    assert np.array_equal(d.codes, reference_gower_encode(d.rows, d.features))
    if all(f.is_numeric for f in d.features):
        assert d.codes is d.rows
    assert np.array_equal(gower_encode(queries, d.features),
                          reference_gower_encode(queries, d.features))
    assert feature_ranges(d.codes, d.features) == reference_feature_ranges(d.rows, d.features)
    for j, f in enumerate(d.features):
        if f.is_numeric:
            assert np.array_equal(d.numeric_column(j), np.asarray(d.rows[:, j], dtype=float))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(mixed_problem(), st.lists(st.integers(0, 29), max_size=12), st.data())
def test_slices_keep_their_codes(problem, picks, data):
    d, _ = problem
    idx = [i % d.k for i in picks]
    columns = data.draw(st.lists(st.integers(0, d.n - 1), unique=True))
    for part in (d.take(idx), select_features(d, columns), select_features(d.take(idx), columns)):
        assert np.array_equal(part.codes, reference_gower_encode(part.rows, part.features))
        assert not (part.rows.flags.writeable or part.codes.flags.writeable)
        if all(f.is_numeric for f in part.features):
            assert part.codes is part.rows and part.rows.dtype == float
        rebuilt = Dataset(features=part.features, target=TARGET, rows=part.rows,
                          targets=part.targets, provenance="observed")
        assert rebuilt.rows.tolist() == part.rows.tolist()
        assert rebuilt.fingerprint == part.fingerprint


@settings(derandomize=True, deadline=None, max_examples=80)
@given(mixed_problem(), st.booleans())
def test_one_hot_encoding_matches_object_rows(problem, standardize):
    d, queries = problem
    encoder = build_encoder(d.features, d.codes, standardize=standardize)
    # the ols plan drops each categorical's first level
    dropped = [dict(e, categories=e["categories"][1:]) if e["type"] == "onehot" else e
               for e in encoder]
    for plan in (encoder, dropped):
        expected = reference_encode(d.rows, plan)
        assert np.array_equal(encode(d.codes, plan, d.features), expected)
        assert np.array_equal(encode(d.rows, plan, d.features), expected)
        assert np.array_equal(encode(queries, plan, d.features), reference_encode(queries, plan))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mixed_problem())
def test_support_check_matches_object_rows(problem):
    d, queries = problem
    checker = SupportChecker(d)
    ranges, threshold, checks = reference_support(d, queries)
    assert checker.encoded is d.codes
    assert checker.ranges == ranges
    assert checker.nn_threshold == threshold
    assert checker.check_rows(queries).tolist() == checks
    assert checker.check_rows(gower_encode(queries, d.features)).tolist() == checks


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mixed_problem())
def test_grids_and_groups_match_object_rows(problem):
    d, _ = problem
    for j, spec in enumerate(d.features):
        grid = build_grid(d, j, max_points=4)
        members = grid_membership(d, grid, 0.0)
        col = d.rows[:, j]
        if spec.kind == "categorical":
            assert grid.points == tuple(c for c in CATEGORIES if c in set(col))
            expected = np.column_stack([col == p for p in grid.points])
        else:
            expected = np.asarray(col, dtype=float)[:, None] == np.asarray(grid.points)
        assert np.array_equal(members, expected)


# -- fingerprint invariants -----------------------------------------------------


def small_mixed(rows, targets=(0.5, -1.0, 2.0)):
    features = [FeatureSpec(name="n", kind="numeric"), FeatureSpec(name="i", kind="integer"),
                FeatureSpec(name="c", kind="categorical", categories=CATEGORIES)]
    return Dataset(features=features, target=TARGET, rows=rows, targets=list(targets),
                   provenance="observed")


ROWS = [[0.0, 1, "a"], [1.5, 2, "b"], [-2.0, 3, "c"]]


def test_equal_content_hashes_equally():
    d = small_mixed(ROWS)
    as_floats = small_mixed([[float(a), float(b), c] for a, b, c in ROWS])
    negative_zero = small_mixed([[-0.0, 1, "a"]] + ROWS[1:], targets=(0.5, -1.0, 2.0))
    assert as_floats.fingerprint == d.fingerprint
    assert negative_zero.fingerprint == d.fingerprint
    assert d.take(range(d.k)).fingerprint == d.fingerprint
    assert d.replace(provenance="synthetic", seed=3).fingerprint == d.fingerprint
    numeric = Dataset(features=[FeatureSpec(name="n", kind="numeric")], target=TARGET,
                      rows=[[0.0], [1.0]], targets=[0.0, 1.0], provenance="observed")
    signed = Dataset(features=numeric.features, target=TARGET, rows=[[-0.0], [1.0]],
                     targets=[-0.0, 1.0], provenance="observed")
    assert signed.fingerprint == numeric.fingerprint


@pytest.mark.parametrize("row, column, value", [
    (0, 0, 1e-300), (1, 1, 3), (2, 2, "a"), (0, 2, "c"), (2, 0, -2.0000000000000004),
])
def test_one_changed_cell_changes_the_hash(row, column, value):
    rows = [list(r) for r in ROWS]
    rows[row][column] = value
    assert small_mixed(rows).fingerprint != small_mixed(ROWS).fingerprint


def test_one_changed_target_or_schema_changes_the_hash():
    d = small_mixed(ROWS)
    assert small_mixed(ROWS, targets=(0.5, -1.0, 2.5)).fingerprint != d.fingerprint
    assert d.take([0, 1]).fingerprint != d.fingerprint
    assert d.take([1, 0, 2]).fingerprint != d.fingerprint
    renamed = Dataset(features=[FeatureSpec(name="m", kind="numeric")] + d.features[1:],
                      target=TARGET, rows=ROWS, targets=d.targets, provenance="observed")
    assert renamed.fingerprint != d.fingerprint


# -- the support checker's subsample seed -----------------------------------------


def test_support_subsample_seed_depends_on_k_and_band_only():
    """Over SELF_DISTANCE_SAMPLE rows the self-distance threshold scans a
    subsample drawn from a seed of k and the quantile band, never of the
    content, so a change of the fingerprint moves no threshold."""
    k = SELF_DISTANCE_SAMPLE + 200
    assert derive_seed(0, "support-self", k, 0.005) == 8131774451943743170
    rng = np.random.default_rng(derive_seed(0, "support-self", k, 0.005))
    expected = np.sort(rng.choice(k, size=SELF_DISTANCE_SAMPLE, replace=False))
    assert np.setdiff1d(np.arange(k), expected)[:6].tolist() == [10, 26, 32, 35, 36, 44]

    seen = []
    real_nearest = samplers.nearest

    def recording_nearest(queries, reference, count, ranges=None):
        if len(queries) == SELF_DISTANCE_SAMPLE:
            seen.append(queries.copy())
        return real_nearest(queries, reference, count, ranges)

    features = [FeatureSpec(name="x", kind="numeric")]
    for seed in (1, 2):
        x = np.random.default_rng(seed).normal(size=(k, 1))
        d = Dataset(features=features, target=TARGET, rows=x, targets=x[:, 0],
                    provenance="observed")
        with mock.patch.object(samplers, "nearest", recording_nearest):
            SupportChecker(d).nn_threshold
        assert np.array_equal(seen.pop(), d.codes[expected])


# -- integer features answer at integer values ------------------------------------


def test_integer_quantile_grid_holds_observed_values():
    """42 distinct integers in 1 000 rows exceed max_points, so the grid takes
    quantiles; each is an observed value that band 0 matches."""
    rng = np.random.default_rng(5)
    grades = rng.integers(0, 42, size=1000)
    d = Dataset(features=[FeatureSpec(name="g", kind="integer")], target=TARGET,
                rows=grades[:, None], targets=grades * 0.5, provenance="observed")
    grid = build_grid(d, "g", max_points=20)
    levels = (np.arange(20) + 0.5) / 20
    assert grid.points == tuple(np.unique(np.quantile(grades, levels, method="inverted_cdf")))
    assert set(grid.points) <= set(grades.astype(float))
    members, dropped = conditional_groups(d, grid)
    assert members.sum(axis=0).min() > 0
    assert all(p["members"] > 0 for p in dropped)
