"""The count-vector replicate loop of ci_estimation / ci_combined against the
per-replicate Dataset copies it replaced.

The reference below is the old loop: every replicate is `resample`d into its
own Dataset, and cpdp / cpfi are computed on that copy row by row. The new
loop weights per-row predictions or losses by the replicate's row counts, so
values may differ by summation order only: replicate curves within
CURVE_RTOL (relative, or of the largest value), identical NaN masks and
retained counts, and intervals within the tolerance that this implies for a
variance and its square root.
"""

import functools
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from descry import CIConfig, Dataset, FeatureSpec, LearnerConfig, LossFunction, ResamplePlan
from descry import ci_combined, ci_estimation, train, uncertainty
from descry.data import resample, select_features
from descry.descriptors import DescriptorSpec
from descry.errors import AllGroupsEmpty
from descry.models import pointwise_loss, subset_model
from descry.samplers import MIN_GROUP_SIZE, build_grid, default_band
from descry._util import derive_seed

MSE = LossFunction.MSE
CURVE_RTOL = 1e-12
ROUNDING_RTOL = 1e-12
LEVELS = ("a", "b", "c")
CURVES = uncertainty._curves


# -- the reference: one Dataset copy per replicate ------------------------------


def reference_cpdp(h, d_r, grid, band):
    if d_r.k == 0:
        raise ValueError("evaluation dataset is empty")
    band = default_band(d_r, grid) if band is None else band
    j = grid.feature_index
    preds = h.predict_batch(d_r.rows)
    curve = []
    for point in grid.points:
        if d_r.features[j].kind == "categorical":
            members = np.flatnonzero(np.array([v == point for v in d_r.column(j)]))
        else:
            col = d_r.numeric_column(j)
            members = np.flatnonzero(col == point) if band == 0 \
                else np.flatnonzero(np.abs(col - point) <= band)
        curve.append(preds[members].mean() if members.size >= MIN_GROUP_SIZE else np.nan)
    if np.all(np.isnan(curve)):
        raise AllGroupsEmpty("every grid point fell below the minimum group size",
                             operation="cpdp")
    return np.array(curve)


def reference_cpfi(config, d_train, d_r, feature, loss):
    def mean_loss(subset):
        h = subset_model(config, d_train, loss, subset)
        rows = select_features(d_r, subset)
        return np.mean(pointwise_loss(loss, rows.targets, h.predict_batch(rows.rows)))

    full_set = tuple(range(d_train.n))
    return mean_loss(tuple(j for j in full_set if j != feature)) - mean_loss(full_set)


def reference_curves(spec, grid, views, handles, draws=None, members=None, *, config,
                     d_trains):
    """One curve per resampled copy of d = views[0]; cpfi refits on the next
    training replicate of d_trains, in the order ci_combined asks for them.
    The point estimate (draws None, or a None sample) is the routine's own."""
    if draws is None:
        return CURVES(spec, grid, views, handles, members=members)
    d, d_train = views[0], next(d_trains) if spec.question == "cpfi" else None
    curves = []
    for rows in draws:
        if rows is None:
            curves.append(CURVES(spec, grid, views, handles, members=members)[0])
            continue
        d_r = d.take(rows)
        if spec.question == "cpdp":
            curves.append(reference_cpdp(handles[0], d_r, grid, spec.band))
        else:
            curves.append([reference_cpfi(config, d_train, d_r, spec.feature, spec.loss)])
    return np.array(curves)


def training_replicates(d, cfg):
    """ci_combined's training replicates of d, as Dataset copies."""
    base = cfg.resample_plan
    plan = ResamplePlan(method=base.method, fraction=base.fraction,
                        replicates=cfg.me_replicates, seed=derive_seed(base.seed, "ci-me-train"))
    return (resample(d, plan, r) for r in range(cfg.me_replicates))


def outcome(run):
    """The report of run(), or the type and message of the error it raised."""
    try:
        return run()
    except (ValueError, AllGroupsEmpty) as exc:
        return type(exc), str(exc)


def assert_reports_match(new, ref, q):
    """q: the interval's quantile factor."""
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert not isinstance(new, tuple), new
    curves, ref_curves = new.replicate_curves, ref.replicate_curves
    # a mean near 0 keeps the rounding of its larger summands, so the absolute
    # slack scales with the largest replicate value
    e = CURVE_RTOL * np.nanmax(np.abs(ref_curves), initial=0.0)
    assert np.array_equal(np.isnan(curves), np.isnan(ref_curves))
    assert np.allclose(curves, ref_curves, rtol=CURVE_RTOL, atol=e, equal_nan=True)
    assert new.diagnostics == ref.diagnostics   # replicate_retained_counts among them
    assert np.array_equal(new.point_estimates, ref.point_estimates, equal_nan=True)
    # Curves 2e apart move an RMS deviation by at most 4.4 e (ddof=1, 20
    # replicates): a variance v by 9 e sqrt(v) + 20 e^2, a half-width by 4.4 q e;
    # ROUNDING_RTOL covers the variance's own summation.
    for key, bound in (("var_ee", None), ("var_me_ee", None), ("ci_ee", 4.4 * q * e),
                       ("ci_me_ee", 4.4 * q * e)):
        value, ref_value = getattr(new, key), getattr(ref, key)
        if ref_value is None:
            assert value is None
            continue
        assert np.array_equal(np.isnan(value), np.isnan(ref_value))
        if bound is None:
            bound = 9.0 * e * np.sqrt(np.nan_to_num(ref_value)) + 20.0 * e ** 2
        gap = np.abs(np.nan_to_num(value - ref_value))
        assert np.all(gap <= bound + ROUNDING_RTOL * np.abs(np.nan_to_num(ref_value))), key


# -- data -------------------------------------------------------------------------


def mixed_dataset(kind, k, seed):
    """x (numeric on a coarse lattice, integer or categorical), z numeric,
    y linear in both; coarse values give ties and groups near MIN_GROUP_SIZE."""
    rng = np.random.default_rng(seed)
    level = rng.integers(0, 4, size=k)
    z = rng.normal(size=k)
    y = 1.5 * level + z + rng.normal(scale=0.5, size=k)
    if kind == "categorical":
        x = [LEVELS[min(v, 2)] for v in level]
        spec = FeatureSpec(name="x", kind="categorical", categories=LEVELS)
    elif kind == "integer":
        x = level.astype(float)
        spec = FeatureSpec(name="x", kind="integer")
    else:
        x = level + rng.choice([0.0, 0.125, 0.25], size=k)
        spec = FeatureSpec(name="x", kind="numeric")
    rows = [[a, float(b)] for a, b in zip(x, z)]
    return Dataset(features=[spec, FeatureSpec(name="z", kind="numeric")],
                   target=FeatureSpec(name="y", kind="numeric"),
                   rows=rows, targets=y, provenance="observed")


cases = st.fixed_dictionaries({
    "kind": st.sampled_from(["numeric", "integer", "categorical"]),
    "k": st.integers(min_value=12, max_value=60),
    "seed": st.integers(min_value=0, max_value=2**31),
    "method": st.sampled_from(["bootstrap", "subsample"]),
    "fraction": st.sampled_from([0.5, 0.8]),
    "max_points": st.sampled_from([5, 12]),
    # 0.125 is the lattice step of numeric x: rows exactly at the band edge
    "band": st.sampled_from([None, 0.0, 0.125, 0.2]),
    "learner": st.sampled_from(["ols", "knn"]),
    "question": st.sampled_from(["cpdp", "cpfi"]),
})


def _setup(case):
    d = mixed_dataset(case["kind"], case["k"], case["seed"])
    config = LearnerConfig(learner=case["learner"], knn_k=3, seed=0)
    plan = ResamplePlan(method=case["method"], fraction=case["fraction"], replicates=20,
                        seed=case["seed"] % 997)
    cfg = CIConfig(ee_replicates=20, me_replicates=20, resample_plan=plan)
    if case["question"] == "cpdp":
        grid = build_grid(d, 0, case["max_points"])
        spec = DescriptorSpec(question="cpdp", feature=0, grid=grid, band=case["band"])
    else:
        spec = DescriptorSpec(question="cpfi", feature=case["seed"] % 2, loss=MSE)
    return d, config, spec, cfg


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases)
# every lattice value is a grid point, and many rows sit exactly one band away
@example({"kind": "numeric", "k": 60, "seed": 3, "method": "subsample", "fraction": 0.8,
          "max_points": 12, "band": 0.125, "learner": "ols", "question": "cpdp"})
def test_count_vector_replicates_match_dataset_copies(case):
    d, config, spec, cfg = _setup(case)
    runs = [(ci_combined, config, cfg.quantile(cfg.me_replicates * cfg.ee_replicates))]
    if spec.question == "cpdp":    # ci_estimation has no learner to refit cpfi with
        runs.append((ci_estimation, train(config, d, MSE), cfg.quantile(cfg.ee_replicates)))
    for ci, model, q in runs:
        hook = functools.partial(reference_curves, config=config,
                                 d_trains=training_replicates(d, cfg))
        with mock.patch.object(uncertainty, "_curves", hook):
            ref = outcome(lambda: ci(model, d, spec, cfg))
        assert_reports_match(outcome(lambda: ci(model, d, spec, cfg)), ref, q)
