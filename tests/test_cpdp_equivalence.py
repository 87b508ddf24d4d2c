"""cpdp's count-weighted group means against the per-group loop they replaced.

The reference below is the old code, with grid membership written out so
that it shares no grouping code with descry: cpdp grouped rows point by point
and took each group's mean and standard error. The new cpdp may differ by
summation order only: curve values and standard errors within RTOL (relative,
or of the largest value); grid points, integer group sizes, dropped points
and errors are identical.
"""

from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descry import Dataset, FeatureSpec, LearnerConfig, LossFunction
from descry import build_grid, conditional_groups, cpdp, train
from descry.errors import AllGroupsEmpty
from descry.samplers import MIN_GROUP_SIZE

RTOL = 1e-12
LEVELS = ("a", "b", "c", "d", "e")
# 0.125 is the lattice step of numeric x: rows sit exactly on the band edge
EDGE_BAND = 0.125


# -- the reference: one group at a time -------------------------------------------


def reference_members(d, j, point, band):
    if d.features[j].kind == "categorical":
        return np.flatnonzero(np.array([v == point for v in d.column(j)]))
    col = d.numeric_column(j)
    return np.flatnonzero(col == point) if band == 0 \
        else np.flatnonzero(np.abs(col - point) <= band)


def reference_band(d, grid, band):
    """band, or by default half the median gap between grid points."""
    if band is not None:
        return band
    if d.features[grid.feature_index].kind in ("integer", "categorical") \
            or len(grid.points) < 2:
        return 0.0
    return float(np.median(np.diff(np.asarray(grid.points, dtype=float))) / 2.0)


def reference_cpdp(h, d, grid, band):
    """The per-group cpdp's curve, stderr and dropped points."""
    if d.k == 0:
        raise ValueError("evaluation dataset is empty")
    j = grid.feature_index
    band = reference_band(d, grid, band)
    groups, dropped = [], []
    for point in grid.points:
        members = reference_members(d, j, point, band)
        if members.size >= MIN_GROUP_SIZE:
            groups.append((point, members))
        else:
            dropped.append({"grid_point": point, "members": int(members.size)})
    if not groups:
        raise AllGroupsEmpty("every grid point fell below the minimum group size",
                             operation="cpdp")
    preds = h.predict_batch(d.rows)
    curve, stderr = [], []
    for point, members in groups:
        member_preds = preds[members]
        curve.append((point, float(member_preds.mean()), member_preds.size))
        stderr.append(float(member_preds.std(ddof=1) / np.sqrt(member_preds.size))
                      if member_preds.size > 1 else 0.0)
    return {"curve": curve, "stderr": stderr, "dropped": dropped}


def outcome(run):
    """run()'s value, or the type and message of the error it raised."""
    try:
        return run()
    except (ValueError, AllGroupsEmpty) as exc:
        return type(exc), str(exc)


# -- data -------------------------------------------------------------------------


def dataset(kind, counts, seed):
    """x with exactly counts[v] rows at level v (numeric x adds a lattice
    offset of 0, 0.125 or 0.25), z numeric, y linear in both."""
    rng = np.random.default_rng(seed)
    level = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    z = rng.normal(size=level.size)
    y = 1.5 * level + z + rng.normal(scale=0.5, size=level.size)
    if kind == "categorical":
        x = [LEVELS[v] for v in level]
        spec = FeatureSpec(name="x", kind="categorical", categories=LEVELS)
    elif kind == "integer":
        x = level.astype(float)
        spec = FeatureSpec(name="x", kind="integer")
    else:
        x = level + rng.choice([0.0, 0.125, 0.25], size=level.size)
        spec = FeatureSpec(name="x", kind="numeric")
    return Dataset(features=[spec, FeatureSpec(name="z", kind="numeric")],
                   target=FeatureSpec(name="y", kind="numeric"),
                   rows=[[a, float(b)] for a, b in zip(x, z)], targets=y,
                   provenance="observed")


@lru_cache(maxsize=None)
def model(kind, learner):
    d = dataset(kind, (12,) * len(LEVELS), seed=99)
    return train(LearnerConfig(learner=learner, knn_k=3, seed=0), d, LossFunction.MSE)


cases = st.fixed_dictionaries({
    "kind": st.sampled_from(["numeric", "integer", "categorical"]),
    # group sizes around MIN_GROUP_SIZE, and datasets where every group is too small
    "counts": st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                       max_size=len(LEVELS)).filter(any),
    "seed": st.integers(min_value=0, max_value=2**31),
    "max_points": st.sampled_from([3, 20]),
    "band": st.sampled_from([None, 0.0, EDGE_BAND]),
    "learner": st.sampled_from(["ols", "knn"]),
})


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cases)
# a group of exactly MIN_GROUP_SIZE rows next to groups one row either side
@example({"kind": "integer", "counts": [MIN_GROUP_SIZE - 1, MIN_GROUP_SIZE, MIN_GROUP_SIZE + 1],
          "seed": 0, "max_points": 20, "band": 0.0, "learner": "ols"})
# every lattice value is a grid point, and many rows sit exactly one band away
@example({"kind": "numeric", "counts": [4, 4, 4], "seed": 1, "max_points": 20,
          "band": EDGE_BAND, "learner": "knn"})
def test_weighted_group_means_match_per_group_cpdp(case):
    d = dataset(case["kind"], case["counts"], case["seed"])
    h = model(case["kind"], case["learner"])
    grid = build_grid(d, 0, case["max_points"])
    band = case["band"]

    ref = outcome(lambda: reference_cpdp(h, d, grid, band))
    new = outcome(lambda: cpdp(h, d, 0, grid, band=band))
    if isinstance(ref, tuple):
        assert new == ref
    else:
        assert [(v, g) for v, _, g in new.curve] == [(v, g) for v, _, g in ref["curve"]]
        assert all(type(g) is int for _, _, g in new.curve)
        values = [e for _, e, _ in ref["curve"]]
        # a mean near 0 keeps the rounding of its larger summands
        slack = RTOL * max(abs(e) for e in values)
        assert np.allclose([e for _, e, _ in new.curve], values, rtol=RTOL, atol=slack)
        assert np.allclose(new.diagnostics["stderr"], ref["stderr"], rtol=RTOL, atol=slack)
        assert new.diagnostics["dropped_grid_points"] == ref["dropped"]
        assert new.diagnostics["evaluation_size"] == d.k

    members, _ = conditional_groups(d, grid, band=band)
    assert members.sum(axis=0).tolist() == [
        reference_members(d, 0, point, reference_band(d, grid, band)).size
        for point in grid.points]

