"""The blocked distance kernel against the per-query code it replaced.

The reference functions below are the former per-query implementations of
the Gower distance, the knn evaluator and the support check, and the full
stable argsort that `nearest` once took of every distance row. Every value
the kernel produces must equal theirs exactly, including the tie order of
nearest neighbours on integer-valued data.

`nearest` now selects a row's few nearest columns by repeated first-minimum
scans: up to `SCAN_PICKS` calls of `np.argmin`, each picked cell set to
+inf in the distance block itself before the next. Rows whose first pick is
not finite or whose last pick reads +inf get their picked values back and
fall back to the full stable argsort, which every row takes for larger
counts. The selection test crosses both sides of
that cutoff and pins those fallback rows by example.

The knn lattice selects on squared Euclidean sums and roots only each row's
picks (`_smallest` with `root`); its order and values must be those of the
stable argsort of the rooted block, also where different sums share a root.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from descry import Dataset, FeatureSpec, LearnerConfig, LossFunction, train
from descry import models, samplers
from descry.data import gower_decode
from descry.errors import SchemaMismatch
from descry.models import (
    build_encoder, encode, feature_ranges, gower_distances, gower_encode, nearest,
)
from descry.samplers import SUPPORT_QUANTILE_BAND, SupportChecker

CATEGORIES = ("a", "b", "c", "d")
UNDECLARED = "zz"


def reference_nearest(block, count):
    order = np.argsort(block, axis=1, kind="stable")[:, :count]
    return order, np.take_along_axis(block, order, axis=1)


def reference_gower_distances(rows, x, features, ranges):
    rows = np.asarray(rows)
    acc = np.zeros(rows.shape[0])
    for j, spec in enumerate(features):
        if spec.kind == "categorical":
            acc += np.array([0.0 if v == x[j] else 1.0 for v in rows[:, j]])
        else:
            col = np.asarray(rows[:, j], dtype=float)
            r = ranges[j]
            diff = np.abs(col - float(x[j]))
            acc += diff / r if r > 0 else (diff > 0).astype(float)
    return acc / max(len(features), 1)


def reference_eval_knn(params, rows):
    gower = params["distance"] == "gower"
    targets = np.asarray(params["train_targets"], dtype=float)
    k = int(params["k"])
    out = np.empty(rows.shape[0])
    features = [FeatureSpec.from_dict(f) for f in params["features"]]
    if gower:
        train_rows = np.asarray(params["train_matrix"], dtype=object)
    else:
        encoded = encode(rows, params["encoder"], features)
        train_enc = np.asarray(params["train_encoded"], dtype=float)
    for i in range(rows.shape[0]):
        if gower:
            dist = reference_gower_distances(train_rows, rows[i], features, params["ranges"])
        else:
            dist = np.sqrt(((train_enc - encoded[i]) ** 2).sum(axis=1))
        values = targets[np.argsort(dist, kind="stable")[:k]]
        if params["agg"] == "mode":
            levels, counts = np.unique(values, return_counts=True)
            out[i] = levels[np.argmax(counts)]
        else:
            out[i] = float(np.mean(values))
    return out


def reference_threshold(d, ranges):
    nearest_other = np.empty(d.k)
    for row_idx in range(d.k):
        dist = reference_gower_distances(d.rows, d.rows[row_idx], d.features, ranges)
        dist[row_idx] = np.inf
        nearest_other[row_idx] = dist.min()
    return float(np.quantile(nearest_other, 0.99))


def reference_check(d, x, quantile_band, ranges, threshold):
    for idx, spec in enumerate(d.features):
        if spec.kind == "categorical":
            if x[idx] not in set(d.column(idx)):
                return False
        else:
            lo, hi = np.quantile(d.numeric_column(idx), [quantile_band, 1.0 - quantile_band])
            if not (lo <= float(x[idx]) <= hi):
                return False
    dist = reference_gower_distances(d.rows, x, d.features, ranges)
    return bool(dist.min() <= threshold)


@st.composite
def mixed_problem(draw):
    """Integer-valued numeric columns (many ties), one of them possibly
    constant, a categorical column, and queries that may step outside the
    data or carry an undeclared category. At least 8 one-hot encoded columns."""
    n_numeric = draw(st.integers(4, 6))
    k = draw(st.integers(5, 40))
    constant = draw(st.booleans())
    features = [FeatureSpec(name=f"x{j}", kind="integer" if j % 2 else "numeric")
                for j in range(n_numeric)]
    features.append(FeatureSpec(name="c", kind="categorical", categories=CATEGORIES))
    numeric = st.integers(0, 3).map(float)

    def row(values, categories, pin):
        r = [draw(values) for _ in range(n_numeric)] + [draw(st.sampled_from(categories))]
        if pin:
            r[0] = 2.0
        return r

    observed = CATEGORIES[:draw(st.integers(1, len(CATEGORIES)))]
    rows = [row(numeric, observed, constant) for _ in range(k)]
    q = draw(st.integers(1, 30))
    queries = [row(st.integers(-1, 4).map(float), CATEGORIES + (UNDECLARED,),
                   draw(st.booleans())) for _ in range(q)]
    # some queries are copies of data rows, so they sit on support
    queries += [list(rows[i]) for i in draw(st.lists(st.integers(0, k - 1), max_size=10))]
    targets = [draw(st.integers(0, 2)) / 7 for _ in range(k)]
    block_cells = draw(st.sampled_from([1, 37, 500, models.DISTANCE_BLOCK_CELLS]))
    d = Dataset(features=features, target=FeatureSpec(name="y", kind="numeric"),
                rows=rows, targets=targets, provenance="observed")
    return d, np.array(queries, dtype=object), block_cells


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mixed_problem(), st.integers(1, 5))
def test_kernel_matches_per_query_reference(problem, count):
    d, queries, block_cells = problem
    ranges = feature_ranges(d.codes, d.features)
    encoder = build_encoder(d.features, d.codes, standardize=True)
    train_enc = encode(d.codes, encoder, d.features)
    assert train_enc.shape[1] >= 8
    with mock.patch.object(models, "DISTANCE_BLOCK_CELLS", block_cells):
        gower_index, gower_dist = nearest(gower_encode(queries, d.features),
                                          d.codes, count, ranges)
        euclid_index, euclid_dist = nearest(encode(queries, encoder, d.features),
                                            train_enc, count)
    for i, x in enumerate(queries):
        expected = reference_gower_distances(d.rows, x, d.features, ranges)
        assert np.array_equal(gower_distances(d.rows, x, d.features, ranges), expected)
        order = np.argsort(expected, kind="stable")[:count]
        assert gower_index[i].tolist() == order.tolist()
        assert gower_dist[i].tolist() == expected[order].tolist()
        query = encode(queries[i:i + 1], encoder, d.features)[0]
        expected = np.sqrt(((train_enc - query) ** 2).sum(axis=1))
        order = np.argsort(expected, kind="stable")[:count]
        assert euclid_index[i].tolist() == order.tolist()
        assert euclid_dist[i].tolist() == expected[order].tolist()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mixed_problem())
def test_support_check_matches_per_query_reference(problem):
    d, queries, block_cells = problem
    with mock.patch.object(models, "DISTANCE_BLOCK_CELLS", block_cells):
        checker = SupportChecker(d)
        batched = checker.check_rows(queries)
        single = [checker.check(list(x)) for x in queries]
        checker.nn_threshold   # under the patched block size, if no check computed it
    ranges = feature_ranges(d.codes, d.features)
    threshold = reference_threshold(d, ranges)
    assert checker.nn_threshold == threshold
    expected = [reference_check(d, list(x), SUPPORT_QUANTILE_BAND, ranges, threshold)
                for x in queries]
    assert batched.tolist() == expected
    assert single == expected


@settings(derandomize=True, deadline=None, max_examples=40)
@given(mixed_problem(), st.integers(1, 12),
       st.sampled_from(["euclidean_standardized", "gower"]),
       st.sampled_from([LossFunction.MSE, LossFunction.ZERO_ONE]))
def test_knn_matches_per_query_reference(problem, knn_k, distance, loss):
    """Declared queries match the reference; a batch holding an undeclared
    category is refused, by the trained and by the loaded handle."""
    d, queries, block_cells = problem
    declared = queries[:, -1] != UNDECLARED
    h = train(LearnerConfig(learner="knn", knn_k=min(knn_k, d.k), distance=distance), d, loss)
    with mock.patch.object(models, "DISTANCE_BLOCK_CELLS", block_cells):
        predicted = h.predict_batch(queries[declared])
    listed = h.to_dict()
    params = dict(listed["params"], features=listed["input_schema"],
                  train_encoded=h.params.get("train_encoded"))
    expected = reference_eval_knn(params, queries[declared])
    assert predicted.tolist() == expected.tolist()
    if not declared.all():
        for handle in (h, models.PredictorHandle.from_dict(listed)):
            with pytest.raises(SchemaMismatch, match=f"'c': '{UNDECLARED}' not in categories"):
                handle.predict_batch(queries)


@st.composite
def gower_problem(draw):
    """Mixed columns in any order: floats rounded to one decimal, small
    integers, one constant numeric column and one categorical column (the
    last two take the zero-range mismatch branch), with queries that may
    step outside the data; and a block size that leaves a short last block."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k, q = draw(st.integers(2, 40)), draw(st.integers(3, 40))
    kinds = draw(st.permutations(
        ["constant", "categorical", *draw(st.lists(st.sampled_from(["numeric", "integer"]),
                                                   max_size=4))]))
    features, columns = [], []
    for j, kind in enumerate(kinds):
        if kind == "categorical":
            features.append(FeatureSpec(name=f"x{j}", kind=kind, categories=CATEGORIES))
            levels = CATEGORIES[:draw(st.integers(1, len(CATEGORIES)))]
            columns.append((rng.choice(levels, size=k),
                            rng.choice(CATEGORIES + (UNDECLARED,), size=q)))
            continue
        features.append(FeatureSpec(name=f"x{j}", kind="numeric" if kind == "constant" else kind))
        if kind == "constant":
            cells = np.full(k + q, 1.5)
            cells[k:] += rng.integers(-1, 2, size=q)
        elif kind == "integer":
            cells = rng.integers(-3, 4, size=k + q).astype(float)
        else:
            cells = (rng.normal(size=k + q) * 10.0 ** rng.integers(-2, 3)).round(1)
        columns.append((cells[:k], cells[k:]))
    rows = np.array([[*r] for r in zip(*(c[0] for c in columns))], dtype=object)
    queries = np.array([[*r] for r in zip(*(c[1] for c in columns))], dtype=object)
    step = draw(st.sampled_from([s for s in range(1, q) if q % s]))
    d = Dataset(features=features, target=FeatureSpec(name="y", kind="numeric"),
                rows=rows, targets=np.zeros(k), provenance="observed")
    return d, queries, step * k


@settings(derandomize=True, deadline=None, max_examples=100)
@given(gower_problem())
def test_gower_kernel_matches_per_query_reference(problem):
    """The Gower terms of all blocks share one workspace; every distance, in
    every block, keeps the bits of the per-query column loop."""
    d, queries, block_cells = problem
    ranges = feature_ranges(d.codes, d.features)
    assert ranges.count(0.0) >= 2
    expected = np.array([reference_gower_distances(d.rows, x, d.features, ranges)
                         for x in queries])
    encoded = gower_encode(queries, d.features)
    assert np.array_equal(models._distances(encoded, d.codes, ranges).view(np.int64),
                          expected.view(np.int64))
    with mock.patch.object(models, "DISTANCE_BLOCK_CELLS", block_cells):
        index, dist = nearest(encoded, d.codes, d.k, ranges)
    expected_index, expected_dist = reference_nearest(expected, d.k)
    assert np.array_equal(index, expected_index)
    assert np.array_equal(dist.view(np.int64), expected_dist.view(np.int64))


@st.composite
def encoded_rows(draw, width):
    """Queries and reference rows of one encoded width: random floats,
    small integers (many ties), or the standardized knn encoding of one
    numeric and one categorical feature with width - 1 levels."""
    q, k = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["float", "integer", "onehot"]))
    if kind == "float":
        cells = rng.normal(size=(q + k, width)) * 10.0 ** rng.integers(-3, 4, size=width)
    elif kind == "integer":
        cells = rng.integers(-2, 3, size=(q + k, width)).astype(float)
    else:
        features = [FeatureSpec(name="x", kind="numeric")]
        if width > 1:
            levels = tuple(f"c{i}" for i in range(width - 1))
            features.append(FeatureSpec(name="c", kind="categorical", categories=levels))
        # few distinct levels per draw, so one-hot columns repeat and tie
        codes = np.column_stack([rng.normal(size=q + k).round(1),
                                 rng.integers(0, min(width - 1, 4) or 1, size=q + k)])
        codes = codes[:, :len(features)]
        cells = encode(codes, build_encoder(features, codes[q:], standardize=True), features)
    assert cells.shape[1] == width
    count = draw(st.sampled_from(sorted({c for c in (1, 2, 5, k) if c <= k})))
    return cells[:q], cells[q:], count


@pytest.mark.parametrize("width", [*range(1, 21), 127, 128, 129, 257])
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data(), block_cells=st.sampled_from([1, 37, 500]))
def test_euclidean_kernel_sums_in_numpy_order(width, data, block_cells):
    """The column loop adds the squared differences in the order numpy's sum
    over the cube's last axis takes (left to right below 8 columns, 8-way
    pairwise above), so every distance has the cube's exact bits."""
    queries, reference, count = data.draw(encoded_rows(width))
    cube = np.sqrt(((reference - queries[:, None, :]) ** 2).sum(axis=2))
    assert np.array_equal(models._distances(queries, reference).view(np.int64),
                          cube.view(np.int64))
    with mock.patch.object(models, "DISTANCE_BLOCK_CELLS", block_cells):
        index, dist = nearest(queries, reference, count)
    expected_index, expected_dist = reference_nearest(cube, count)
    assert np.array_equal(index, expected_index)
    assert np.array_equal(dist.view(np.int64), expected_dist.view(np.int64))


@st.composite
def distance_block(draw):
    """A (queries x rows) distance block of small integers (many ties) mixed
    with NaN, +inf and -inf, some rows all NaN or all equal, and a count."""
    q, k = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    cell = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.0, 3.0, -0.0, np.nan, np.inf, -np.inf])
    block = np.array(draw(st.lists(cell, min_size=q * k, max_size=q * k))).reshape(q, k)
    for i in draw(st.lists(st.integers(0, q - 1), max_size=3)):
        block[i] = draw(st.sampled_from([np.nan, 1.0, np.inf]))
    picks = models.SCAN_PICKS
    count = draw(st.sampled_from(sorted({c for c in (1, 2, 5, picks, picks + 1, k - 1, k)
                                         if 1 <= c <= k})))
    return block, count


@settings(derandomize=True, deadline=None, max_examples=300)
@given(distance_block(), st.sampled_from([1, 37, 500]))
# a finite pick, then a genuine +inf: the second scan finds the first pick again
@example((np.array([[1.0, np.inf, np.inf]]), 2), 500)
# argmin returns the first NaN, which a stable sort puts last
@example((np.array([[2.0, 0.0, np.nan, 1.0, 0.0]]), 2), 500)
@example((np.array([[1.0, 0.0, -np.inf, 2.0, 0.0], [0.0, 1.0, 2.0, 3.0, 4.0]]), 3), 500)
def test_selection_matches_stable_argsort(problem, block_cells):
    block, count = problem
    # query i's distance row is block[i]; the kernel itself is covered above
    queries, reference = np.arange(len(block), dtype=float)[:, None], np.zeros((block.shape[1], 1))
    with mock.patch.object(models, "_distances", lambda qs, ref, ranges, work: block[qs[:, 0].astype(int)]), \
            mock.patch.object(models, "DISTANCE_BLOCK_CELLS", block_cells):
        index, dist = nearest(queries, reference, count)
    expected_index, expected_dist = reference_nearest(block, count)
    assert np.array_equal(index, expected_index)
    assert np.array_equal(dist, expected_dist, equal_nan=True)
    assert np.array_equal(np.signbit(dist), np.signbit(expected_dist))


@pytest.mark.parametrize("distance", ["euclidean_standardized", "gower"])
def test_callers_sort_no_whole_distance_row(distance):
    """The support checker's threshold and check, and knn prediction, pick
    their one, two or knn_k nearest rows from finite distances without
    calling argsort at all."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=(300, 3))
    d = Dataset(features=[FeatureSpec(name=f"x{j}", kind="numeric") for j in range(3)],
                target=FeatureSpec(name="y", kind="numeric"), rows=x,
                targets=x.sum(axis=1), provenance="observed")
    h = train(LearnerConfig(learner="knn", knn_k=5, distance=distance), d, LossFunction.MSE)
    argsort = np.argsort
    widths = []

    def recording_argsort(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return argsort(a, *args, **kwargs)

    def widest_sort(call, *args):
        widths.clear()
        with mock.patch.object(np, "argsort", recording_argsort):
            result = call(*args)
        return max(widths, default=0), result

    width, checker = widest_sort(SupportChecker, d)
    assert width == 0
    assert widest_sort(checker.check_rows, x[:40] + 0.01)[0] == 0
    assert widest_sort(h.predict_batch, x[:40] + 0.01)[0] == 0


def ulps(value, steps):
    """value moved |steps| doubles up (steps > 0) or down toward 0."""
    for _ in range(abs(steps)):
        value = np.nextafter(value, np.inf if steps > 0 else 0.0)
    return value


# sqrt(UP4) == 2.0 and sqrt(DOWN6) == sqrt(6.0); the two doubles above 7.0 root as it does
UP4, DOWN6, UP7 = np.nextafter(4.0, np.inf), np.nextafter(6.0, 0.0), ulps(7.0, 2)


@st.composite
def squared_block(draw):
    """A (rows x width) block of non-negative squared sums: a few bases moved
    0-3 doubles either way, so that different values share a root, with
    exact ties, integer values, NaN and +inf; and a count in
    1..SCAN_PICKS + 1, so that count + 1 crosses the scan cutoff and the
    width."""
    q, k = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    bases = st.sampled_from([0.0, 1e-300, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 7.0])
    cell = st.one_of(st.builds(ulps, bases, st.integers(-3, 3)),
                     st.integers(0, 12).map(float), st.sampled_from([np.nan, np.inf]))
    block = np.array(draw(st.lists(cell, min_size=q * k, max_size=q * k))).reshape(q, k)
    for i in draw(st.lists(st.integers(0, q - 1), max_size=2)):
        block[i] = block[draw(st.integers(0, q - 1))]
    for i in draw(st.lists(st.integers(0, q - 1), max_size=2)):
        block[i, draw(st.integers(0, k)):] = np.inf
    return block, draw(st.integers(1, models.SCAN_PICKS + 1))


# a row of each settle branch, and the most cells of it `_smallest` roots:
# "picks" (count + 1) when its picks settle it, "row" when a tie scans the
# row and settles it, "whole" when the row is restored and rooted whole
ROOT_BRANCHES = [
    (np.array([[3.0, 1.0, 2.0, 5.0]]), 2, "picks"),       # a strict gap
    (np.array([[3.0, 1.0, 3.0, 5.0]]), 2, "picks"),       # a tie at 3.0, one value roots to it
    (np.array([[4.0, 1.0, 4.0, 9.0]]), 2, "row"),         # a tie at 4.0, no cell at UP4
    (np.array([[UP4, 1.0, 4.0, 4.0]]), 2, "whole"),       # a tie at 4.0 and a cell at UP4
    (np.array([[UP7, 1.0, 7.0, 7.0]]), 2, "whole"),       # a tie at 7.0, a cell two doubles up
    (np.array([[6.0, DOWN6, 1.0, 9.0]]), 2, "whole"),     # two picks of one root
    (np.full((1, 5), np.nan), 2, "whole"),                # all NaN
    (np.array([[1.0, 2.0, np.inf, np.inf]]), 2, "whole"),  # fewer than count + 1 finite cells
    (np.array([[1.0, np.inf, np.inf, np.inf]]), 2, "whole"),  # one cell picked twice
]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(squared_block())
@example((np.array([[3.0, 1.0, 2.0, 5.0]]), 2))
@example((np.array([[3.0, 1.0, 3.0, 5.0]]), 2))
@example((np.array([[4.0, 1.0, 4.0, 9.0]]), 2))
@example((np.array([[UP4, 1.0, 4.0, 4.0]]), 2))
@example((np.array([[UP7, 1.0, 7.0, 7.0]]), 2))
@example((np.array([[6.0, DOWN6, 1.0, 9.0]]), 2))
@example((np.full((1, 5), np.nan), 2))
@example((np.array([[1.0, 2.0, np.inf, np.inf]]), 2))
@example((np.array([[1.0, np.inf, np.inf, np.inf]]), 2))
def test_rooted_selection_matches_stable_argsort(problem):
    block, count = problem
    index, dist = models._smallest(block.copy(), count, np.sqrt)
    expected_index, expected_dist = reference_nearest(np.sqrt(block), count)
    assert np.array_equal(index, expected_index)
    assert np.array_equal(dist.view(np.int64), expected_dist.view(np.int64))


@pytest.mark.parametrize("block, count, branch", ROOT_BRANCHES)
def test_rooted_selection_branches(block, count, branch):
    """Each example above takes its branch: a settled row keeps its count
    picked cells at +inf, and only a scanned tie roots more than its count
    + 1 picks; an unsettled row gets its values back and is rooted whole."""
    rooted = []

    def recording_sqrt(a, *args, **kwargs):
        rooted.append(np.size(a))
        return sqrt(a, *args, **kwargs)

    sqrt, picked = np.sqrt, block.copy()
    with mock.patch.object(np, "sqrt", recording_sqrt):
        index, _ = models._smallest(picked, count, np.sqrt)
    assert np.array_equal(index, reference_nearest(np.sqrt(block), count)[0])
    changed = ~((picked == block) | np.isnan(block))
    assert changed.sum() == (0 if branch == "whole" else count)
    assert max(rooted) == (count + 1 if branch == "picks" else block.shape[1])


@pytest.mark.parametrize("distance", ["euclidean_standardized", "gower"])
def test_lattice_roots_only_each_rows_picks(distance):
    """On continuous data the knn lattice picks neighbours on squared sums:
    every `np.sqrt` call it makes is inside a `_smallest` call and maps at
    most knn_k + 1 cells per row selected there. Under Gower it divides
    before selecting and roots nothing."""
    rng = np.random.default_rng(29)
    x = rng.normal(size=(200, 4))
    d = Dataset(features=[FeatureSpec(name=f"x{j}", kind="numeric") for j in range(4)],
                target=FeatureSpec(name="y", kind="numeric"), rows=x,
                targets=x.sum(axis=1), provenance="observed")
    config = LearnerConfig(learner="knn", knn_k=5, distance=distance)
    subsets = [s for r in range(1, 5) for s in itertools.combinations(range(4), r)]
    sqrt, smallest = np.sqrt, models._smallest
    selecting, calls = [], []

    def recording_sqrt(a, *args, **kwargs):
        calls.append((np.size(a), selecting[-1] if selecting else 0))
        return sqrt(a, *args, **kwargs)

    def recording_smallest(block, *args):
        selecting.append(len(block))
        try:
            return smallest(block, *args)
        finally:
            selecting.pop()

    with mock.patch.object(np, "sqrt", recording_sqrt), \
            mock.patch.object(models, "_smallest", recording_smallest):
        models.subset_predictions(config, d, LossFunction.MSE, subsets, x[:60] + 0.01)
    assert all(0 < cells <= (config.knn_k + 1) * rows for cells, rows in calls)
    assert bool(calls) == (distance == "euclidean_standardized")


def in_band(d, x):
    """The band test of each code row: an observed category, and a numeric
    value inside the column's [q, 1 - q] quantiles."""
    ok = np.ones(len(x), dtype=bool)
    for j, spec in enumerate(d.features):
        col = d.codes[:, j]
        if spec.kind == "categorical":
            ok &= np.isin(x[:, j], col)
        else:
            lo, hi = np.quantile(col, [SUPPORT_QUANTILE_BAND, 1.0 - SUPPORT_QUANTILE_BAND])
            ok &= (lo <= x[:, j]) & (x[:, j] <= hi)
    return ok


def band_then_scan(d, x):
    """The support check without the copy lookup: the band test, then the
    nearest-row distance of every row that passes it."""
    ok = in_band(d, x)
    _, dist = nearest(x[ok], d.codes, 1, feature_ranges(d.codes, d.features))
    ok[ok] = dist[:, 0] <= SupportChecker(d).nn_threshold
    return ok


@st.composite
def copy_problem(draw):
    """Small integer-valued columns (many ties, zeros to flip to -0.0), a
    categorical and possibly a constant column, repeated reference rows,
    and code-row queries: copies, -0.0 variants, one-ulp near-copies, rows
    inside the data's box, and rows that may step outside it or carry an
    undeclared category."""
    kinds = draw(st.permutations(
        ["categorical", *draw(st.lists(st.sampled_from(["numeric", "integer", "constant"]),
                                       min_size=1, max_size=4))]))
    features = [FeatureSpec(name=f"x{j}", kind=kind, categories=CATEGORIES)
                if kind == "categorical" else
                FeatureSpec(name=f"x{j}", kind="numeric" if kind == "constant" else kind)
                for j, kind in enumerate(kinds)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 30))
    codes = rng.integers(-1, 3, size=(k, len(kinds))).astype(float)
    for j, kind in enumerate(kinds):
        if kind == "categorical":
            codes[:, j] = rng.integers(0, draw(st.integers(1, len(CATEGORIES))), size=k)
        elif kind == "constant":
            codes[:, j] = 0.0
        elif kind == "numeric" and draw(st.booleans()):
            codes[:, j] += rng.normal(size=k).round(2)
    if draw(st.booleans()):
        codes = codes[rng.integers(0, k, size=k)]  # repeated rows
    copies = codes[rng.integers(0, k, size=draw(st.integers(0, 12)))]
    signed = np.where(copies == 0.0, -0.0, copies)
    near = copies.copy()
    cells = (np.arange(len(near)), rng.integers(0, len(kinds), size=len(near)))
    near[cells] = np.nextafter(near[cells], rng.choice([-np.inf, np.inf], size=len(near)))
    outside = rng.integers(-2, 5, size=(draw(st.integers(0, 4)), len(kinds))).astype(float)
    inside = rng.uniform(codes.min(axis=0), codes.max(axis=0),
                         size=(draw(st.integers(0, 8)), len(kinds))).round(1)
    queries = np.vstack([copies, signed, near, outside, inside])
    d = Dataset(features=features, target=FeatureSpec(name="y", kind="numeric"),
                rows=gower_decode(codes, features), targets=np.zeros(k), provenance="observed")
    return d, queries[rng.permutation(len(queries))]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(copy_problem(), st.booleans())
def test_copy_lookup_matches_band_then_scan(problem, colliding):
    """A query equal to a reference row skips the scan with the scan's own
    answer. With every hash made equal, each query's only candidate is
    reference row 0, and every other query must fall back to the scan."""
    d, queries = problem
    expected = band_then_scan(d, queries)
    hashes = (lambda codes: np.zeros(len(codes), dtype=np.uint64)) if colliding \
        else samplers._row_hashes
    with mock.patch.object(samplers, "_row_hashes", hashes):
        checker = SupportChecker(d)
        assert checker.check_rows(queries).tolist() == expected.tolist()
        assert checker.check_rows(queries[:0]).tolist() == []


def test_one_row_checker_passes_only_its_own_row():
    features = [FeatureSpec(name="x", kind="numeric"),
                FeatureSpec(name="c", kind="categorical", categories=CATEGORIES)]
    d = Dataset(features=features, target=FeatureSpec(name="y", kind="numeric"),
                rows=[[0.0, "b"]], targets=[1.0], provenance="observed")
    checker = SupportChecker(d)
    assert checker.nn_threshold == 0.0
    queries = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 2.0], [np.nextafter(0.0, 1.0), 1.0]])
    assert checker.check_rows(queries).tolist() == [True, True, False, False]
    assert band_then_scan(d, queries).tolist() == [True, True, False, False]
    assert checker.check_rows(np.empty((0, 2))).tolist() == []


def test_scan_runs_only_on_rows_that_copy_no_reference_row():
    """A counterfactual's candidates (the instance, every evaluation row and
    perturbations) send to nearest only the rows that pass the band test
    and equal no reference row."""
    rng = np.random.default_rng(5)
    features = [FeatureSpec(name="x1", kind="numeric"), FeatureSpec(name="x2", kind="integer"),
                FeatureSpec(name="c", kind="categorical", categories=CATEGORIES)]
    codes = np.column_stack([rng.normal(size=300), rng.integers(0, 9, size=300),
                             rng.integers(0, 3, size=300)])
    d = Dataset(features=features, target=FeatureSpec(name="y", kind="numeric"),
                rows=gower_decode(codes, features), targets=np.zeros(300), provenance="observed")
    queries = np.vstack([codes[7] + [0.001, 0.0, 0.0], codes, codes[:40] + [0.05, 1.0, 0.0]])
    copies = (queries[:, None] == codes).all(axis=2).any(axis=1)
    assert copies.sum() == 300
    checker = SupportChecker(d)
    checker.nn_threshold   # computed here, so that the one recorded scan is check_rows' own
    scanned = []

    def recording_nearest(x, *args):
        scanned.append(x.copy())
        return nearest(x, *args)
    with mock.patch.object(samplers, "nearest", recording_nearest):
        result = checker.check_rows(queries)
    assert result.tolist() == band_then_scan(d, queries).tolist()
    assert len(scanned) == 1
    assert np.array_equal(scanned[0], queries[in_band(d, queries) & ~copies])
