"""A Dataset's decoded rows against the object view it no longer stores.

A Dataset used to keep its rows twice: the codes, and an object array of
the rows as given, with numeric cells parsed to floats. The reference
functions below are that former object view and the former code that read
it: its construction and slicing, centering, jitter, the student merge,
serialization, and the three searches that scanned
object rows. Decoded rows must equal the object view in value, element type,
dtype and write flag, and everything written from them must keep its bytes.
"""

import csv
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from descry import (
    Dataset, FeatureSpec, LearnerConfig, LossFunction, PredictorHandle, select_features, train,
)
from descry.data import STUDENT_JOIN_KEYS, center_feature, jitter_augment, merge_students
from descry.descriptors import (
    PERTURB_TOP_ROWS, DescriptorResult, DescriptorSpec, _perturbations, _require_on_support,
    counterfactual_local, feature_grid, ice, relevant_value_global,
)
from descry.errors import AllGroupsEmpty, DescryError
from descry.models import gower_distances, gower_encode
from descry.samplers import get_support_checker
from descry._util import canonical_json, fmt_number

CATEGORIES = ("a", "b", "c")
TARGET = FeatureSpec(name="y", kind="numeric")


# -- the former object view and its readers -------------------------------------


def reference_rows(rows, features):
    """The object view the constructor built: numeric cells as floats, an
    all-numeric dataset as a float matrix."""
    has_cat = any(f.kind == "categorical" for f in features)
    rows = np.array(rows, dtype=object if has_cat else float)
    codes = gower_encode(rows, features)
    for j, spec in enumerate(features):
        if spec.is_numeric:
            rows[:, j] = codes[:, j]
    rows.setflags(write=False)
    return rows


def reference_slice(rows, codes, features, picks, cols):
    """take/select_features: the object view sliced, or the codes sliced
    when the kept columns are all numeric."""
    has_cat = any(features[j].kind == "categorical" for j in cols)
    out = (rows if has_cat else codes)[picks][:, cols]
    out.setflags(write=False)
    return out


def reference_center(d, rows, j):
    col = d.numeric_column(j)
    out = np.array(rows, dtype=rows.dtype, copy=True)
    out[:, j] = col - float(np.mean(col))
    return reference_rows(out, d.features)


def reference_jitter(d, rows, j, offsets):
    col = d.numeric_column(j)
    out = np.tile(rows, (len(offsets) + 1, 1))
    for i, off in enumerate(offsets, start=1):
        out[i * d.k:(i + 1) * d.k, j] = col + off
    return reference_rows(out, d.features)


def reference_merge(math_d, math_rows, por_d, por_rows):
    """The matched rows and targets of merge_students, keyed on object rows."""
    def key_of(ds, row):
        return tuple(row[ds.feature_index(k)] for k in STUDENT_JOIN_KEYS)

    por_by_key = {}
    for i in range(por_d.k):
        por_by_key.setdefault(key_of(por_d, por_rows[i]), []).append(i)
    matched_rows, matched_targets = [], []
    for i in range(math_d.k):
        candidates = por_by_key.get(key_of(math_d, math_rows[i]), [])
        if len(candidates) == 1:
            matched_rows.append(list(math_rows[i]) + [por_d.targets[candidates[0]]])
            matched_targets.append(math_d.targets[i])
    return matched_rows, matched_targets


def reference_to_dict(d, rows):
    return {"schema": {"features": [f.to_dict() for f in d.features],
                       "target": d.target.to_dict()},
            "provenance": d.provenance, "seed": d.seed,
            "rows": [list(r) for r in rows], "targets": list(d.targets)}


def reference_write_csv(path, d, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(d.feature_names + [d.target.name])
        for row, y in zip(rows, d.targets):
            writer.writerow([v if isinstance(v, str) else fmt_number(v) for v in row]
                            + [fmt_number(y)])


def reference_ice(h, instance, feature, d_eval, rows, max_points):
    grid = feature_grid(d_eval, feature, None, max_points)
    j = grid.feature_index
    spec = DescriptorSpec(question="ice", feature=j, instance=list(instance),
                          max_points=max_points)
    checker = _require_on_support(d_eval, spec)
    spliced = np.array([list(instance)] * len(grid.points), dtype=rows.dtype)
    spliced[:, j] = grid.points
    on_support = checker.check_rows(spliced)
    kept = [point for point, ok in zip(grid.points, on_support) if ok]
    off_support = [point for point, ok in zip(grid.points, on_support) if not ok]
    if not kept:
        raise AllGroupsEmpty("no grid point is on support for this instance", operation="ice")
    preds = h.predict_batch(spliced[on_support])
    curve = [(point, float(pred), 1) for point, pred in zip(kept, preds)]
    return DescriptorResult(spec=spec, curve=curve, diagnostics={
        "off_support_grid_points": off_support, "evaluation_size": d_eval.k})


def reference_relevant_value_global(h, d_eval, rows, y_rel):
    objective = np.abs(h.predict_batch(d_eval.codes) - float(y_rel))
    best_idx = int(np.argmin(objective))
    best_obj = float(objective[best_idx])
    best_x = list(rows[best_idx])
    checker = get_support_checker(d_eval)
    top = np.argsort(objective, kind="stable")[:PERTURB_TOP_ROWS]
    perturbed = _perturbations(d_eval, [rows[i] for i in top])
    candidates = [c for c, ok in zip(perturbed, checker.check_rows(perturbed)) if ok]
    perturbed_used = False
    if candidates:
        cand_obj = np.abs(h.predict_batch(np.array(candidates, dtype=rows.dtype)) - float(y_rel))
        ci = int(np.argmin(cand_obj))
        if float(cand_obj[ci]) < best_obj:
            best_obj, best_x = float(cand_obj[ci]), list(candidates[ci])
            best_idx, perturbed_used = None, True
    spec = DescriptorSpec(question="relevant_value_global", y_rel=float(y_rel))
    return DescriptorResult(spec=spec, point={
        "x": best_x, "objective": best_obj, "row_index": best_idx,
        "from_perturbation": perturbed_used,
    }, diagnostics={"candidates_scanned": d_eval.k + len(candidates)})


def reference_counterfactual_local(h, d_eval, rows, instance, y_rel, lam):
    spec = DescriptorSpec(question="counterfactual_local", instance=list(instance),
                          y_rel=float(y_rel), lam=float(lam))
    checker = _require_on_support(d_eval, spec)
    candidates = [list(instance)] + [list(r) for r in rows]
    codes = np.vstack([gower_encode(candidates[:1], d_eval.features), d_eval.codes])
    gap = np.abs(h.predict_batch(codes) - float(y_rel))
    top = np.argsort(gap, kind="stable")[:PERTURB_TOP_ROWS]
    perturbed = _perturbations(d_eval, [candidates[i] for i in top])
    candidates.extend(perturbed)
    codes = np.vstack([codes, gower_encode(perturbed, d_eval.features)])
    on_support = np.flatnonzero(checker.check_rows(codes))
    supported = codes[on_support]
    gaps = np.abs(h.predict_batch(supported) - float(y_rel))
    dists = gower_distances(supported, list(instance), d_eval.features, checker.ranges)
    objectives = gaps + lam * dists
    best = int(np.argmin(objectives))
    return DescriptorResult(spec=spec, point={
        "x": list(candidates[on_support[best]]),
        "objective": float(objectives[best]),
        "prediction_gap": float(gaps[best]),
        "gower_distance": float(dists[best]),
    }, diagnostics={"candidates_scanned": len(on_support)})


# -- checks ----------------------------------------------------------------------


def assert_same_rows(new, ref):
    """Equal values, element types (a repr names np.float64), signs of zero,
    dtype, shape and write flag."""
    assert (new.dtype, new.shape, new.flags.writeable) == \
        (ref.dtype, ref.shape, ref.flags.writeable)
    assert [repr(v) for v in new.ravel()] == [repr(v) for v in ref.ravel()]


def assert_dataset_rows(d, ref):
    assert "rows" not in vars(d)
    assert_same_rows(d.rows, ref)
    if all(f.is_numeric for f in d.features):
        assert d.rows is d.codes


def attempt(run):
    """run()'s result, or the type and message of the error it raised."""
    try:
        return run()
    except (DescryError, ValueError) as exc:
        return type(exc), str(exc)


def outcome(run):
    """The canonical JSON of run()'s result, or the error it raised."""
    result = attempt(run)
    return result if isinstance(result, tuple) else canonical_json(result.to_dict())


def linear_handle(features, coef):
    """A linear model over numeric cells and one-hot categories."""
    encoder = [{"type": "onehot", "categories": list(f.categories)} if f.kind == "categorical"
               else {"type": "numeric", "mean": 0.0, "scale": 1.0} for f in features]
    return PredictorHandle(input_schema=list(features), output_kind="scalar", kind="linear",
                           params={"intercept": 0.0, "coef": list(coef), "encoder": encoder})


@st.composite
def mixed_data(draw, min_k=2):
    """A dataset of numeric, integer and categorical columns, with the rows
    as given (integer cells as ints or floats, numeric cells possibly -0.0)."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "integer", "categorical"]),
                          min_size=1, max_size=4))
    features = [FeatureSpec(name=f"x{j}", kind=kind,
                            categories=CATEGORIES if kind == "categorical" else None)
                for j, kind in enumerate(kinds)]

    def cell(spec):
        if spec.kind == "categorical":
            return draw(st.sampled_from(CATEGORIES))
        if spec.kind == "integer":
            return draw(st.sampled_from([int, float]))(draw(st.integers(-3, 3)))
        return draw(st.sampled_from([-0.0, 0.0, 0.5, -1.25, 2.0, 3.75]))

    rows = [[cell(f) for f in features] for _ in range(draw(st.integers(min_k, 30)))]
    targets = [draw(st.integers(-2, 2)) / 4 for _ in rows]
    d = Dataset(features=features, target=TARGET, rows=rows, targets=targets,
                provenance="observed", seed=draw(st.sampled_from([None, 7])))
    return d, rows


# -- construction, slices and transformations ------------------------------------------


@settings(derandomize=True, deadline=None, max_examples=80)
@given(mixed_data(), st.lists(st.integers(0, 29), max_size=12), st.data())
def test_rows_and_slices_match_the_object_view(data_rows, picks, data):
    d, given_rows = data_rows
    ref = reference_rows(given_rows, d.features)
    assert_dataset_rows(d, ref)
    picks = np.array([i % d.k for i in picks], dtype=int)
    cols = sorted(data.draw(st.lists(st.integers(0, d.n - 1), unique=True, min_size=1)))
    every = list(range(d.n))
    assert_dataset_rows(d.take(picks), reference_slice(ref, d.codes, d.features, picks, every))
    assert_dataset_rows(select_features(d, cols),
                        reference_slice(ref, d.codes, d.features, slice(None), cols))
    assert_dataset_rows(select_features(d.take(picks), cols),
                        reference_slice(ref, d.codes, d.features, picks, cols))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mixed_data(), st.lists(st.sampled_from([1.0, -1.0, 2.5, -2.5]), min_size=1,
                              max_size=3, unique=True), st.data())
def test_center_and_jitter_match_the_object_view(data_rows, offsets, data):
    d, given_rows = data_rows
    numeric = [j for j, f in enumerate(d.features) if f.is_numeric]
    if not numeric:
        return
    j = data.draw(st.sampled_from(numeric))
    ref = reference_rows(given_rows, d.features)
    centered, _ = center_feature(d, d.features[j].name)
    assert_dataset_rows(centered, reference_center(d, ref, j))
    jittered = jitter_augment(d, d.features[j].name, offsets)
    assert_dataset_rows(jittered, reference_jitter(d, ref, j, offsets))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_merge_students_matches_the_object_view(data):
    kinds = data.draw(st.lists(st.sampled_from(["categorical", "integer"]),
                               min_size=len(STUDENT_JOIN_KEYS), max_size=len(STUDENT_JOIN_KEYS)))
    features = [FeatureSpec(name=name, kind=kind,
                            categories=("p", "q") if kind == "categorical" else None)
                for name, kind in zip(STUDENT_JOIN_KEYS, kinds)]
    features.append(FeatureSpec(name="absences", kind="numeric"))
    grade = FeatureSpec(name="G3", kind="integer")

    def rows(count):
        return [[data.draw(st.sampled_from(["p", "q"])) if f.kind == "categorical"
                 else data.draw(st.sampled_from([0, 1.0])) for f in features[:-1]]
                + [data.draw(st.sampled_from([0.5, -0.0]))] for _ in range(count)]

    math_rows = rows(data.draw(st.integers(1, 12)))
    picks = data.draw(st.lists(st.integers(0, len(math_rows) - 1), max_size=12))
    por_rows = [math_rows[i] for i in picks] + rows(data.draw(st.integers(0, 4)))
    if not por_rows:
        return
    math_d = Dataset(features=features, target=grade, rows=math_rows,
                     targets=list(range(len(math_rows))), provenance="observed")
    por_d = Dataset(features=features, target=grade, rows=por_rows,
                    targets=[10 + i for i in range(len(por_rows))], provenance="observed")
    try:
        merged, counts = merge_students(math_d, por_d)
    except ValueError:   # no student matched: an empty merge
        assert not reference_merge(math_d, reference_rows(math_rows, features),
                                   por_d, reference_rows(por_rows, features))[0]
        return
    matched_rows, matched_targets = reference_merge(
        math_d, reference_rows(math_rows, features), por_d, reference_rows(por_rows, features))
    assert_dataset_rows(merged, reference_rows(matched_rows, merged.features))
    assert merged.targets.tolist() == matched_targets
    assert counts["matched"] == len(matched_rows)


# -- serialization ------------------------------------------------------------------


@settings(derandomize=True, deadline=None, max_examples=40)
@given(mixed_data())
def test_dataset_json_csv_and_knn_model_keep_their_bytes(data_rows):
    d, given_rows = data_rows
    ref = reference_rows(given_rows, d.features)
    assert canonical_json(d.to_dict()) == canonical_json(reference_to_dict(d, ref))
    with tempfile.TemporaryDirectory() as tmp:
        new_csv, ref_csv = os.path.join(tmp, "new.csv"), os.path.join(tmp, "ref.csv")
        d.write_csv(new_csv)
        reference_write_csv(ref_csv, d, ref)
        with open(new_csv, "rb") as a, open(ref_csv, "rb") as b:
            assert a.read() == b.read()
    for distance in ("gower", "euclidean_standardized"):
        handle = train(LearnerConfig(learner="knn", knn_k=1, distance=distance), d,
                       LossFunction.MSE)
        expected = handle.to_dict()
        expected["params"]["train_matrix"] = ref.tolist()
        assert canonical_json(handle.to_dict()) == canonical_json(expected)


# -- searches --------------------------------------------------------------------------


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mixed_data(min_k=3), st.data())
def test_searches_match_the_object_row_scans(data_rows, data):
    d, given_rows = data_rows
    ref = reference_rows(given_rows, d.features)
    width = sum(len(f.categories) if f.kind == "categorical" else 1 for f in d.features)
    h = linear_handle(d.features, data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                                                     min_size=width, max_size=width)))
    instance = given_rows[data.draw(st.integers(0, d.k - 1))]   # JSON integers kept
    y_rel = data.draw(st.sampled_from([-1.0, 0.0, 0.75, 3.0]))
    lam = data.draw(st.sampled_from([0.0, 0.5, 2.0]))
    j = data.draw(st.integers(0, d.n - 1))
    assert outcome(lambda: relevant_value_global(h, d, y_rel)) == \
        outcome(lambda: reference_relevant_value_global(h, d, ref, y_rel))
    assert outcome(lambda: counterfactual_local(h, d, instance, y_rel, lam)) == \
        outcome(lambda: reference_counterfactual_local(h, d, ref, instance, y_rel, lam))
    assert outcome(lambda: ice(h, instance, j, None, d, max_points=4)) == \
        outcome(lambda: reference_ice(h, instance, j, d, ref, 4))


def cluster_data():
    """Uniform x1 with a small cluster of category b around x1 = 5, x2 = 2,
    so that a model with a large b effect ranks the instance [5, 2, "b"]
    among the best rows and keeps its perturbations on support."""
    rng = np.random.default_rng(11)
    features = [FeatureSpec(name="x1", kind="numeric"), FeatureSpec(name="x2", kind="integer"),
                FeatureSpec(name="c", kind="categorical", categories=("a", "b"))]
    rows = [[float(np.round(rng.uniform(0, 10), 3)), int(rng.integers(0, 5)), "a"]
            for _ in range(60)]
    rows += [[4.0, 2, "b"], [5.0, 2, "b"], [6.0, 2, "b"], [5.0, 2, "b"]]
    d = Dataset(features=features, target=TARGET, rows=rows, targets=[0.0] * len(rows),
                provenance="observed")
    return d, rows, linear_handle(features, [1.0, 0.0, 0.0, 100.0])


def test_an_instance_given_with_integers_keeps_them_in_the_answer():
    d, given_rows, h = cluster_data()
    ref = reference_rows(given_rows, d.features)
    instance = [5, 2, "b"]
    step = 0.5 * float(np.std(d.numeric_column(0)))
    for y_rel, answer in ((105.0, [5, 2, "b"]), (105.0 + step, [5.0 + step, 2, "b"])):
        expected = reference_counterfactual_local(h, d, ref, instance, y_rel, 0.5)
        # the instance itself, or its perturbation along x1, wins; x2 stays the int 2
        assert expected.point["x"] == answer and type(expected.point["x"][1]) is int
        assert canonical_json(counterfactual_local(h, d, instance, y_rel, 0.5).to_dict()) == \
            canonical_json(expected.to_dict())
        assert canonical_json(relevant_value_global(h, d, y_rel).to_dict()) == \
            canonical_json(reference_relevant_value_global(h, d, ref, y_rel).to_dict())
    assert canonical_json(ice(h, instance, 0, None, d).to_dict()) == \
        canonical_json(reference_ice(h, instance, 0, d, ref, 20).to_dict())
