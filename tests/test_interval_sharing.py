"""Intervals on the same data share their replicate draws and full-feature refits.

An interval's draws depend only on the row count and its resampling plans;
its refits on a column set only on the learner config, the data, the loss,
the training plan and the set. Both are kept for the next interval, and a
shared interval must equal, bit for bit, one computed after `clear_caches`.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from descry import (
    CIConfig, DescriptorSpec, LearnerConfig, LossFunction, ResamplePlan, ci_combined,
    ci_estimation, clear_caches, data, descriptors, models, sample, train, uncertainty,
)
from descry._util import canonical_json
from descry.data import resample_indices
from descry.errors import DescryError
from descry.samplers import build_grid

MSE = LossFunction.MSE
LEARNERS = {"ols": LearnerConfig(learner="ols", seed=0),
            "knn": LearnerConfig(learner="knn", knn_k=3, seed=0),
            "mlp": LearnerConfig(learner="mlp", hidden=(4,), epochs=3, seed=1)}


def plan_config(method, seed):
    plan = ResamplePlan(method=method, fraction=0.5, replicates=1, seed=seed)
    return CIConfig(ee_replicates=20, me_replicates=20, resample_plan=plan)


def spec_of(question, d):
    if question == "cpdp":
        return DescriptorSpec(question="cpdp", feature=0, grid=build_grid(d, 0, max_points=5))
    return DescriptorSpec(question="cpfi", feature=1, loss=MSE)


def run(step, config, datasets):
    """A step's report, as its canonical JSON and replicate bytes, or its error."""
    question, mode, which, seed, method = step
    d = datasets[which]
    spec, cfg = spec_of(question, d), plan_config(method, seed)
    try:
        if mode == "ee":
            report = ci_estimation(train(config, d, MSE), d, spec, cfg)
        else:
            report = ci_combined(config, d, spec, cfg)
    except (DescryError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return canonical_json(report.to_dict()), report.replicate_curves.tobytes()


steps = st.tuples(
    st.sampled_from(["cpdp", "cpfi"]),
    st.sampled_from(["combined", "ee"]),
    st.sampled_from([0, 1]),        # the data, or other data of the same row count
    st.sampled_from([3, 4]),        # the plan's seed
    st.sampled_from(["subsample", "bootstrap"]),
).filter(lambda s: not (s[0] == "cpfi" and s[1] == "ee"))


@settings(derandomize=True, deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.too_slow])
@given(learner=st.sampled_from(sorted(LEARNERS)), k=st.sampled_from([30, 48]),
       sequence=st.lists(steps, min_size=2, max_size=5))
# cpdp once, cpfi once, cpdp twice, another seed, other data with the same k;
# then mlp, and ee intervals on two datasets of one row count, which share draws
@example(learner="ols", k=48, sequence=[
    ("cpdp", "combined", 0, 3, "subsample"), ("cpfi", "combined", 0, 3, "subsample"),
    ("cpdp", "combined", 0, 3, "subsample"), ("cpdp", "combined", 0, 3, "subsample"),
    ("cpdp", "combined", 0, 4, "subsample"), ("cpfi", "combined", 1, 3, "subsample")])
@example(learner="mlp", k=30, sequence=[
    ("cpfi", "combined", 0, 3, "bootstrap"), ("cpdp", "combined", 0, 3, "bootstrap"),
    ("cpdp", "ee", 1, 3, "bootstrap"), ("cpdp", "ee", 0, 3, "bootstrap")])
def test_a_shared_interval_equals_one_after_a_reset(benchmark_phenomenon, learner, k,
                                                   sequence):
    datasets = [sample(benchmark_phenomenon, k, seed=s) for s in (11, 12)]
    config = LEARNERS[learner]
    fresh = []
    for step in sequence:
        clear_caches()
        fresh.append(run(step, config, datasets))
    clear_caches()
    assert [run(step, config, datasets) for step in sequence] == fresh


# -- the work a shared interval skips -----------------------------------------------


class Work:
    """Counts the draws (at data._draw) and records the refits trained (at the
    ols and knn trainers, with the columns each was trained on) and the fits
    of each ols stack, of what runs inside it."""

    def __enter__(self):
        self.draws, self.refits, self.ols_stacks = 0, [], []
        draw, train_ols, train_knn = data._draw, models._train_ols, models._train_knn

        def counting_draw(*args):
            self.draws += 1
            return draw(*args)

        def recording_train_ols(config, fits):
            self.ols_stacks.append(len(fits))
            self.refits.extend(tuple(d.feature_names) for d, _ in fits)
            return train_ols(config, fits)

        def recording_train_knn(config, d, loss):
            self.refits.append(tuple(d.feature_names))
            return train_knn(config, d, loss)

        self._patches = [mock.patch.object(data, "_draw", counting_draw),
                         mock.patch.object(models, "_train_ols", recording_train_ols),
                         mock.patch.object(models, "_train_knn", recording_train_knn)]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self._patches):
            patch.stop()


@pytest.fixture
def d600(benchmark_phenomenon):
    return sample(benchmark_phenomenon, 600, seed=1)


def cpdp_spec(d):
    return DescriptorSpec(question="cpdp", feature=0, grid=build_grid(d, 0, max_points=8))


CPFI = DescriptorSpec(question="cpfi", feature=0, loss=MSE)
OLS = LEARNERS["ols"]


def test_cpfi_after_cpdp_draws_nothing_and_trains_only_its_reduced_set(d600):
    cfg = plan_config("subsample", 3)
    with Work() as first:
        ci_combined(OLS, d600, cpdp_spec(d600), cfg)
    # 20 training draws and 20 x 20 evaluation draws; the full-data refit and 20 more
    assert first.draws == 420
    assert first.refits == [("x1", "x2")] * 21
    with Work() as second:
        shared = ci_combined(OLS, d600, CPFI, cfg)
    assert second.draws == 0
    assert second.refits == [("x2",)] * 21

    clear_caches()
    with Work() as alone:
        fresh = ci_combined(OLS, d600, CPFI, cfg)
    assert alone.draws == 420
    assert alone.refits.count(("x1", "x2")) == alone.refits.count(("x2",)) == 21
    assert canonical_json(shared.to_dict()) == canonical_json(fresh.to_dict())
    assert shared.replicate_curves.tobytes() == fresh.replicate_curves.tobytes()


@pytest.mark.parametrize("method, stacks", [("subsample", [1, 20]), ("bootstrap", [21])])
def test_an_interval_trains_its_ols_refits_per_column_set_in_one_stack(d600, method, stacks):
    # the full-data refit has all 600 rows; each subsample has 300, so the 20
    # replicates of a column set are one stack; a bootstrap has 600 rows, so
    # the full-data refit leads the stack of 21
    cfg = plan_config(method, 3)
    with Work() as cpdp:
        ci_combined(OLS, d600, cpdp_spec(d600), cfg)
    with Work() as cpfi:
        ci_combined(OLS, d600, CPFI, cfg)
    assert cpdp.ols_stacks == cpfi.ols_stacks == stacks
    assert cpfi.refits == [("x2",)] * 21
    clear_caches()
    # alone, cpfi trains both sets' streams in step: each stack when it is first read
    with Work() as alone:
        ci_combined(OLS, d600, CPFI, cfg)
    assert alone.ols_stacks == [n for n in stacks for _ in range(2)]


def test_a_second_estimation_interval_draws_nothing(d600):
    cfg, h = plan_config("bootstrap", 3), train(OLS, d600, MSE)
    with Work() as first:
        ci_estimation(h, d600, cpdp_spec(d600), cfg)
    with Work() as second:
        ci_estimation(h, d600, cpdp_spec(d600), cfg)
    assert (first.draws, second.draws) == (20, 0)
    assert first.refits == second.refits == []


def test_other_data_of_the_same_size_shares_the_draws_not_the_refits(
        d600, benchmark_phenomenon):
    other = sample(benchmark_phenomenon, 600, seed=2)
    cfg = plan_config("subsample", 3)
    ci_combined(OLS, d600, cpdp_spec(d600), cfg)
    with Work() as work:
        ci_combined(OLS, other, cpdp_spec(other), cfg)
    assert work.draws == 0
    assert work.refits == [("x1", "x2")] * 21


def test_another_seed_misses_the_draws_and_the_refits(d600):
    ci_combined(OLS, d600, cpdp_spec(d600), plan_config("subsample", 3))
    with Work() as work:
        ci_combined(OLS, d600, cpdp_spec(d600), plan_config("subsample", 4))
    assert work.draws == 420
    assert work.refits == [("x1", "x2")] * 21


def test_another_config_or_loss_misses_the_refits(discrete_phenomenon):
    # the draws depend on neither, so they are shared
    d = sample(discrete_phenomenon, 200, seed=5)
    cfg = plan_config("bootstrap", 3)
    knn = LearnerConfig(learner="knn", knn_k=5, seed=0)
    ci_combined(knn, d, DescriptorSpec(question="cpdp", feature=0), cfg)
    for config, loss in ((LearnerConfig(learner="knn", knn_k=7, seed=0), MSE),
                         (knn, LossFunction.ZERO_ONE)):
        with Work() as work:
            ci_combined(config, d, DescriptorSpec(question="cpdp", feature=0, loss=loss), cfg)
        assert work.draws == 0
        assert len(work.refits) == 21


def test_an_interval_over_the_cell_bound_keeps_nothing(d600, monkeypatch):
    cfg = plan_config("subsample", 3)
    kept = [ci_combined(OLS, d600, spec, cfg) for spec in (cpdp_spec(d600), CPFI)]
    clear_caches()
    monkeypatch.setattr(uncertainty, "KEPT_CELLS", 1)
    with Work() as work:
        lazy = [ci_combined(OLS, d600, spec, cfg) for spec in (cpdp_spec(d600), CPFI)]
    assert work.draws == 2 * 420
    assert len(work.refits) == 21 + 42
    assert len(uncertainty._draw_cache) == len(uncertainty._refit_cache) == 0
    for a, b in zip(kept, lazy):
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        assert a.replicate_curves.tobytes() == b.replicate_curves.tobytes()


def test_kept_draws_are_read_only_and_compact():
    plans = [ResamplePlan(method="subsample", fraction=0.5, replicates=20, seed=3),
             ResamplePlan(method="bootstrap", replicates=5, seed=4)]
    matrices = uncertainty._draws(600, plans)
    assert [m.shape for m in matrices] == [(20, 300), (5, 600)]
    assert {m.dtype for m in matrices} == {np.dtype(np.uint16)}
    for plan, matrix in zip(plans, matrices):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1
        for r in range(plan.replicates):
            assert np.array_equal(matrix[r], resample_indices(600, plan, r))
    assert uncertainty._draws(600, plans) is matrices


# -- an interval computes its grid membership once ---------------------------------


def test_an_estimation_interval_predicts_and_groups_once(d600):
    h = train(OLS, d600, MSE)
    grids = []
    membership = descriptors.grid_membership

    def counting_membership(*args):
        grids.append(args[1])
        return membership(*args)

    with mock.patch.object(h, "predict_batch", wraps=h.predict_batch) as predict, \
            mock.patch.object(descriptors, "grid_membership", counting_membership):
        report = ci_estimation(h, d600, cpdp_spec(d600), plan_config("bootstrap", 3))
    assert predict.call_count == 1
    assert predict.call_args.args[0].shape == (600, 2)
    assert len(grids) == 1
    assert report.replicate_curves.shape == (20, report.point_estimates.size)

    # a combined interval groups once for its point estimate and 20 refits;
    # cpfi's one group is no grid membership
    grids.clear()
    cfg = plan_config("subsample", 3)
    with mock.patch.object(descriptors, "grid_membership", counting_membership):
        ci_combined(OLS, d600, cpdp_spec(d600), cfg)
        assert len(grids) == 1
        ci_combined(OLS, d600, CPFI, cfg)
    assert len(grids) == 1


@pytest.mark.parametrize("cells", [uncertainty.KEPT_CELLS, 1], ids=["kept", "not-kept"])
def test_refits_train_as_they_are_read(benchmark_phenomenon, monkeypatch, cells):
    # 9 rows and band 0: the point estimate keeps no grid point, and each
    # 4-row training half is too small for 5 neighbours. The point estimate
    # comes first, so its error is the one reported, and nothing is kept.
    monkeypatch.setattr(uncertainty, "KEPT_CELLS", cells)
    d = sample(benchmark_phenomenon, 9, seed=7)
    spec = DescriptorSpec(question="cpdp", feature=0, band=0.0)
    with pytest.raises(Exception) as info:
        ci_combined(LearnerConfig(learner="knn", knn_k=5), d, spec, plan_config("subsample", 3))
    assert type(info.value).__name__ == "AllGroupsEmpty"
    assert len(uncertainty._refit_cache) == 0
