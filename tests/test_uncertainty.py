import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from descry import (
    CIConfig, LearnerConfig, LossFunction, OptimalPredictorSpec,
    ResamplePlan, bias_variance_me, ci_combined, ci_estimation, estimation_error,
    model_error, optimal_predictor, sample, true_conditional_expectation,
)
from descry.descriptors import DescriptorSpec
from descry.errors import (
    AllGroupsEmpty, InsufficientReplicates, NoOracleAvailable, NoReferenceAvailable,
    error_report,
)
from descry.samplers import build_grid

MSE = LossFunction.MSE
OLS = LearnerConfig(learner="ols", seed=0)


@pytest.fixture(scope="module")
def setup(benchmark_phenomenon):
    p = benchmark_phenomenon
    reference = sample(p, 30000, seed=200)
    grid = build_grid(reference, "x1", max_points=10)
    oracle = optimal_predictor(OptimalPredictorSpec(p, MSE))
    spec = DescriptorSpec(question="cpdp", feature=0, grid=grid)
    return p, reference, grid, oracle, spec


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(2, 10_000), st.sampled_from(["student_t", "normal"]))
def test_quantile_has_the_bits_of_scipy_stats(alpha, replicates, family):
    """CIConfig.quantile calls scipy.special directly; it must equal the
    scipy.stats ppf it replaced bit for bit, so every interval keeps its bytes."""
    q = 1.0 - alpha / 2.0
    expected = (stats.norm.ppf(q) if family == "normal"
                else stats.t.ppf(q, df=replicates - 1))
    got = CIConfig(alpha=alpha, quantile_family=family).quantile(replicates)
    assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)


@pytest.mark.parametrize("operation, question, named", [
    ("estimation_error", "ice", "estimation_error does not support the question 'ice'"),
    ("estimation_error", "cpfi", "estimation_error does not support the question 'cpfi'"),
    ("estimation_error", "sage", "estimation_error does not support the question 'sage'"),
    ("estimation_error", "shapley_local",
     "estimation_error does not support the question 'shapley_local'"),
    ("estimation_error", "local_conditional_contribution",
     "estimation_error does not support the question 'local_conditional_contribution'"),
    ("estimation_error", "relevant_value_global",
     "estimation_error does not support the question 'relevant_value_global'"),
    ("estimation_error", "counterfactual_local",
     "estimation_error does not support the question 'counterfactual_local'"),
    ("model_error", "ice", "model_error does not support the question 'ice'"),
    ("model_error", "cpfi", "model_error does not support the question 'cpfi'"),
    ("model_error", "sage", "model_error does not support the question 'sage'"),
    ("model_error", "shapley_local", "model_error does not support the question 'shapley_local'"),
    ("model_error", "local_conditional_contribution",
     "model_error does not support the question 'local_conditional_contribution'"),
    ("model_error", "relevant_value_global",
     "model_error does not support the question 'relevant_value_global'"),
    ("model_error", "counterfactual_local",
     "model_error does not support the question 'counterfactual_local'"),
    ("bias_variance_me", "ice", "bias_variance_me does not support the question 'ice'"),
    ("bias_variance_me", "cpfi", "bias_variance_me does not support the question 'cpfi'"),
    ("bias_variance_me", "sage", "bias_variance_me does not support the question 'sage'"),
    ("bias_variance_me", "shapley_local",
     "bias_variance_me does not support the question 'shapley_local'"),
    ("bias_variance_me", "local_conditional_contribution",
     "bias_variance_me does not support the question 'local_conditional_contribution'"),
    ("bias_variance_me", "relevant_value_global",
     "bias_variance_me does not support the question 'relevant_value_global'"),
    ("bias_variance_me", "counterfactual_local",
     "bias_variance_me does not support the question 'counterfactual_local'"),
    ("ci_estimation", "ice", "ci_estimation does not support the question 'ice'"),
    ("ci_estimation", "cpfi", "cpfi intervals refit the learner, which ci_estimation holds "
                              "fixed; use ci_combined (--mode combined)"),
    ("ci_estimation", "sage", "ci_estimation does not support the question 'sage'"),
    ("ci_estimation", "shapley_local",
     "ci_estimation does not support the question 'shapley_local'"),
    ("ci_estimation", "local_conditional_contribution",
     "ci_estimation does not support the question 'local_conditional_contribution'"),
    ("ci_estimation", "relevant_value_global",
     "ci_estimation does not support the question 'relevant_value_global'"),
    ("ci_estimation", "counterfactual_local",
     "ci_estimation does not support the question 'counterfactual_local'"),
    ("ci_combined", "ice", "ci_combined does not support the question 'ice'"),
    ("ci_combined", "sage", "ci_combined does not support the question 'sage'"),
    ("ci_combined", "shapley_local", "ci_combined does not support the question 'shapley_local'"),
    ("ci_combined", "local_conditional_contribution",
     "ci_combined does not support the question 'local_conditional_contribution'"),
    ("ci_combined", "relevant_value_global",
     "ci_combined does not support the question 'relevant_value_global'"),
    ("ci_combined", "counterfactual_local",
     "ci_combined does not support the question 'counterfactual_local'")])
def test_unsupported_question_is_refused_by_name(setup, operation, question, named):
    """Every refused pair of the five operations and the eight questions."""
    from unittest import mock
    from descry import data, models
    p, reference, _, oracle, _ = setup
    spec = DescriptorSpec(question=question, feature=0, instance=[0.0, 0.0], y_rel=1.0,
                          lam=0.5, loss=MSE)
    cfg = CIConfig(ee_replicates=20, me_replicates=20)
    run = {"estimation_error": lambda: estimation_error(oracle, reference, reference, spec),
           "model_error": lambda: model_error(oracle, oracle, reference, spec),
           "bias_variance_me": lambda: bias_variance_me(OLS, p, 50, 2, spec, 0, 200),
           "ci_estimation": lambda: ci_estimation(oracle, reference, spec, cfg),
           "ci_combined": lambda: ci_combined(OLS, reference, spec, cfg)}[operation]
    # refused before any draw or refit
    with mock.patch.object(data, "_draw", side_effect=AssertionError("draw")), \
            mock.patch.object(models, "_train_ols", side_effect=AssertionError("refit")):
        with pytest.raises(ValueError) as info:
            run()
    assert str(info.value) == named


class TestEstimationError:
    def test_reference_against_itself_is_zero(self, setup):
        _, reference, _, oracle, spec = setup
        assert estimation_error(oracle, reference, reference, spec) == 0.0

    def test_missing_reference(self, setup):
        _, reference, _, oracle, spec = setup
        with pytest.raises(NoReferenceAvailable):
            estimation_error(oracle, None, reference, spec)

    def test_mean_ee_equals_variance(self, setup):
        # over fresh evaluation sets, E[EE] = Var[ghat]: the bias term vanishes
        p, reference, grid, oracle, spec = setup
        n_sets, curves, errors = 200, [], []
        for i in range(n_sets):
            d_eval = sample(p, 1500, seed=300 + i)
            errors.append(estimation_error(oracle, reference, d_eval, spec))
            from descry.uncertainty import _curves
            curves.append(_curves(spec, grid, [d_eval], [oracle])[0])
        curves = np.array(curves)
        mean_ee = np.mean(errors)
        variance_part = np.nanmean(np.nanvar(curves, axis=0, ddof=0))
        ref_curve = np.array([true_conditional_expectation(p, 0, v) for v in grid.points])
        bias_part = np.nanmean((np.nanmean(curves, axis=0) - ref_curve) ** 2)
        assert bias_part < 0.1 * variance_part
        assert 0.8 <= mean_ee / (variance_part + bias_part) <= 1.25

    def test_halving_evaluation_size_doubles_ee(self, setup):
        p, reference, _, oracle, spec = setup
        mean_ee = {}
        for size in (2000, 1000):
            errors = [estimation_error(oracle, reference, sample(p, size, seed=600 + i), spec)
                      for i in range(150)]
            mean_ee[size] = np.mean(errors)
        ratio = mean_ee[1000] / mean_ee[2000]
        assert 1.5 <= ratio <= 2.5


class TestModelError:
    def test_oracle_against_itself_is_zero(self, setup):
        _, reference, _, oracle, spec = setup
        assert model_error(oracle, oracle, reference, spec) == 0.0

    def test_missing_oracle(self, setup):
        _, reference, _, oracle, spec = setup
        with pytest.raises(NoOracleAvailable):
            model_error(oracle, None, reference, spec)

    def test_consistency_in_training_size(self, setup):
        from descry import train
        p, reference, _, oracle, spec = setup
        medians = []
        for k in (50, 5000):
            errors = []
            for s in range(20):
                handle = train(OLS, sample(p, k, seed=700 + 13 * s + k), MSE)
                errors.append(model_error(handle, oracle, reference, spec))
            medians.append(np.median(errors))
        assert medians[1] < medians[0]

    def test_flat_model_error_is_curve_variance(self, setup):
        p, reference, grid, oracle, spec = setup
        from descry.models import PredictorHandle
        flat = PredictorHandle(input_schema=reference.features, output_kind="scalar",
                               kind="constant",
                               params={"value": float(reference.targets.mean())})
        me = model_error(flat, oracle, reference, spec)
        truth = np.array([true_conditional_expectation(p, 0, v) for v in grid.points])
        assert me == pytest.approx(np.mean((truth - truth.mean()) ** 2), rel=0.1)


class TestBiasVariance:
    def test_ols_is_unbiased(self, setup):
        # a large reference sample keeps discretization noise out of the bias term
        p, _, _, _, spec = setup
        bias_sq, variance = bias_variance_me(OLS, p, k=250, replicates=200, spec=spec,
                                             seed=42, reference_size=120000)
        assert np.mean(bias_sq) < np.mean(variance) / 10

    def test_constant_learner_closed_form(self, setup):
        p, reference, grid, _, _ = setup
        k, replicates = 200, 120
        # knn with k neighbors = training size predicts the global target mean
        config = LearnerConfig(learner="knn", knn_k=k)
        spec = DescriptorSpec(question="cpdp", feature=0, grid=grid)
        bias_sq, variance = bias_variance_me(config, p, k=k, replicates=replicates,
                                             spec=spec, seed=43, reference_size=1500)
        var_y_mean = 8.0 / k   # Var(ybar) = Var(Y)/k at every grid point
        assert np.mean(variance) == pytest.approx(var_y_mean, rel=0.35)
        # the flat fit's squared bias tracks the squared true curve
        truth = np.array([true_conditional_expectation(p, 0, v) for v in grid.points])
        assert np.allclose(bias_sq, truth**2, atol=0.15 + 0.05 * truth**2)

    def test_decomposition_identity(self, setup):
        p, reference, grid, _, spec = setup
        replicates = 80
        bias_sq, variance = bias_variance_me(OLS, p, k=250, replicates=replicates,
                                             spec=spec, seed=44, reference_size=10000)
        # recompute per-replicate ME with the same derived seeds
        from descry.uncertainty import _curves
        from descry import train
        from descry._util import derive_seed
        from descry.phenomenon import sample as psample
        ref = psample(p, 10000, derive_seed(44, "bv-reference"))
        truth = np.array([true_conditional_expectation(p, 0, v) for v in grid.points])
        mes = []
        for r in range(replicates):
            d_train = psample(p, 250, derive_seed(44, "bv-train", r))
            handle = train(OLS, d_train, MSE)
            curve = _curves(spec, grid, [ref], [handle])[0]
            mes.append((curve - truth) ** 2)
        mean_me = np.nanmean(np.array(mes), axis=0)
        assert np.allclose(mean_me, bias_sq + variance, rtol=1e-8, atol=1e-12)


class TestCiEstimation:
    def test_minimum_replicates_enforced(self, setup):
        _, reference, _, oracle, spec = setup
        cfg = CIConfig(ee_replicates=10)
        with pytest.raises(InsufficientReplicates):
            ci_estimation(oracle, reference, spec, cfg)

    def test_deterministic_descriptor_zero_width(self, benchmark_phenomenon):
        from descry.models import PredictorHandle
        d_eval = sample(benchmark_phenomenon, 2000, seed=800)
        flat = PredictorHandle(input_schema=d_eval.features, output_kind="scalar",
                               kind="constant", params={"value": 3.0})
        spec = DescriptorSpec(question="cpdp", feature=0, max_points=8)
        cfg = CIConfig(ee_replicates=25,
                       resample_plan=ResamplePlan(method="bootstrap", replicates=25, seed=5))
        report = ci_estimation(flat, d_eval, spec, cfg)
        widths = report.ci_ee[:, 1] - report.ci_ee[:, 0]
        assert np.nanmax(widths) < 1e-12

    def test_alpha_monotonicity(self, setup):
        p, _, _, oracle, spec = setup
        d_eval = sample(p, 1200, seed=801)
        plan = ResamplePlan(method="bootstrap", replicates=40, seed=9)
        r05 = ci_estimation(oracle, d_eval, spec,
                            CIConfig(alpha=0.05, ee_replicates=40, resample_plan=plan))
        r01 = ci_estimation(oracle, d_eval, spec,
                            CIConfig(alpha=0.01, ee_replicates=40, resample_plan=plan))
        assert np.all(r01.ci_ee[:, 0] < r05.ci_ee[:, 0])
        assert np.all(r01.ci_ee[:, 1] > r05.ci_ee[:, 1])

    def test_determinism(self, setup):
        p, _, _, oracle, spec = setup
        d_eval = sample(p, 1000, seed=802)
        cfg = CIConfig(ee_replicates=25,
                       resample_plan=ResamplePlan(method="bootstrap", replicates=25, seed=6))
        r1 = ci_estimation(oracle, d_eval, spec, cfg)
        r2 = ci_estimation(oracle, d_eval, spec, cfg)
        assert np.array_equal(r1.ci_ee, r2.ci_ee, equal_nan=True)

    def test_replicate_sufficiency(self, setup):
        # doubling the replicate count moves mean half-widths by < 15%
        p, _, _, oracle, spec = setup
        d_eval = sample(p, 1500, seed=803)
        widths = {}
        for reps in (100, 200):
            cfg = CIConfig(ee_replicates=reps,
                           resample_plan=ResamplePlan(method="bootstrap",
                                                      replicates=reps, seed=7))
            report = ci_estimation(oracle, d_eval, spec, cfg)
            widths[reps] = np.nanmean(report.ci_ee[:, 1] - report.ci_ee[:, 0])
        assert abs(widths[200] - widths[100]) / widths[100] < 0.15

    def test_flags(self, setup):
        p, _, _, oracle, spec = setup
        d_eval = sample(p, 800, seed=804)
        cfg = CIConfig(ee_replicates=20,
                       resample_plan=ResamplePlan(method="bootstrap", replicates=20, seed=8))
        report = ci_estimation(oracle, d_eval, spec, cfg)
        assert report.assumptions == {"unbiased_learner_assumed": False,
                                      "resampling_overlap_warning": False}
        assert report.var_me_ee is None


class TestCiCombined:
    def _config(self, seed=11, ee=20, me=20):
        plan = ResamplePlan(method="subsample", fraction=0.5,
                            replicates=max(ee, me), seed=seed)
        return CIConfig(alpha=0.05, ee_replicates=ee, me_replicates=me,
                        resample_plan=plan)

    def test_combined_dominates_estimation(self, setup):
        p, _, grid, _, spec = setup
        d = sample(p, 1200, seed=900)
        report = ci_combined(OLS, d, spec, self._config())
        ok = ~np.isnan(report.var_me_ee)
        assert np.all(report.var_me_ee[ok] >= report.var_ee[ok] - 1e-9)
        assert np.all(report.ci_me_ee[ok, 0] <= report.ci_ee[ok, 0] + 1e-9)
        assert np.all(report.ci_me_ee[ok, 1] >= report.ci_ee[ok, 1] - 1e-9)

    def test_flags_and_determinism(self, setup):
        p, _, _, _, spec = setup
        d = sample(p, 900, seed=901)
        r1 = ci_combined(OLS, d, spec, self._config())
        r2 = ci_combined(OLS, d, spec, self._config())
        assert r1.assumptions == {"unbiased_learner_assumed": True,
                                  "resampling_overlap_warning": True}
        assert np.array_equal(r1.ci_me_ee, r2.ci_me_ee, equal_nan=True)

    def test_minimum_replicates_enforced(self, setup):
        p, _, _, _, spec = setup
        d = sample(p, 900, seed=902)
        with pytest.raises(InsufficientReplicates):
            ci_combined(OLS, d, spec, self._config(me=5))

    def test_scalar_question_cpfi(self, setup):
        p, _, _, _, _ = setup
        d = sample(p, 1500, seed=903)
        spec = DescriptorSpec(question="cpfi", feature=0, loss=MSE)
        report = ci_combined(OLS, d, spec, self._config())
        assert report.grid is None
        assert report.point_estimates.shape == (1,)
        lo, hi = report.ci_me_ee[0]
        assert lo <= 3.0 <= hi   # population cpfi value on this benchmark

    @pytest.mark.parametrize("config", [
        OLS, LearnerConfig(learner="knn", knn_k=5),
        LearnerConfig(learner="mlp", hidden=(6, 4), epochs=5, seed=2)])
    def test_cpfi_point_is_the_descriptor(self, setup, config):
        # the point is the mean of reduced-minus-full row losses, cpfi the
        # difference of their means: equal up to summation order
        from descry import cpfi
        from descry import clear_caches
        p, _, _, _, _ = setup
        d = sample(p, 300, seed=906)
        spec = DescriptorSpec(question="cpfi", feature=1, loss=MSE)
        (point,) = ci_combined(config, d, spec, self._config()).point_estimates
        expected = cpfi(config, d, d, 1, MSE).scalar
        clear_caches()
        assert abs(point - expected) <= 1e-12 * abs(expected)


class TestReplicateErrors:
    """An error in one evaluation replicate, pinned through ci_estimation,
    ci_combined and the CLI's error.json."""

    def _check(self, tmp_path, p, *, k, seed, band, fraction, ee_error, combined_error):
        import json
        import os
        from descry import train
        from descry._util import write_json
        from descry.cli import main

        d = sample(p, k, seed=seed)
        grid = build_grid(d, "x1", max_points=3)
        spec = DescriptorSpec(question="cpdp", feature=0, grid=grid, band=band)
        plan = ResamplePlan(method="subsample", fraction=fraction, replicates=20, seed=0)
        cfg = CIConfig(ee_replicates=20, me_replicates=20, resample_plan=plan)
        handle = train(OLS, d, MSE)
        for run, expected in ((lambda: ci_estimation(handle, d, spec, cfg), ee_error),
                              (lambda: ci_combined(OLS, d, spec, cfg), combined_error)):
            with pytest.raises(Exception) as info:
                run()
            assert (type(info.value).__name__, str(info.value)) == \
                (expected["error"], expected["message"])

        data, model = str(tmp_path / "d.json"), str(tmp_path / "m.json")
        write_json(data, d.to_dict())
        write_json(model, handle.to_dict())
        common = ["--data", data, "--feature", "x1", "--max-points", "3", "--band", str(band),
                  "--resample", "subsample", "--fraction", str(fraction),
                  "--ee-replicates", "20", "--me-replicates", "20"]
        for mode, extra, expected in (("ee", ["--model", model], ee_error),
                                      ("combined", ["--learner", "ols"], combined_error)):
            out = str(tmp_path / mode)
            assert main(["uncertainty", "--question", "cpdp", "--mode", mode, "--out", out]
                        + common + extra) == 1
            assert json.load(open(os.path.join(out, "error.json"))) == expected

    def test_replicate_without_grid_points(self, tmp_path, benchmark_phenomenon):
        # the full data keeps a group of >= 5 rows within 0.05 of a quantile
        # point; half-samples do not
        error = {"error": "AllGroupsEmpty", "module": "samplers", "operation": "cpdp",
                 "message": "every grid point fell below the minimum group size"}
        self._check(tmp_path, benchmark_phenomenon, k=60, seed=1, band=0.05, fraction=0.5,
                    ee_error=error, combined_error=error)

    @pytest.mark.parametrize("k, fraction", [(4, 0.5), (8, 0.5)])
    def test_cpfi_below_the_minimum_group_size(self, tmp_path, benchmark_phenomenon,
                                               k, fraction):
        # cpfi has one group, all evaluation rows: too few in the data itself
        # (4 rows), or in each half-sample (8 rows, 4 per replicate)
        import json
        import os
        from descry._util import write_json
        from descry.cli import main

        d = sample(benchmark_phenomenon, k, seed=1)
        spec = DescriptorSpec(question="cpfi", feature=0, loss=MSE)
        plan = ResamplePlan(method="subsample", fraction=fraction, replicates=20, seed=0)
        cfg = CIConfig(ee_replicates=20, me_replicates=20, resample_plan=plan)
        expected = {"error": "AllGroupsEmpty", "module": "samplers", "operation": "cpfi",
                    "message": "the evaluation rows fell below the minimum group size"}
        with pytest.raises(AllGroupsEmpty) as info:
            ci_combined(OLS, d, spec, cfg)
        assert error_report(info.value) == expected

        data, out = str(tmp_path / "d.json"), str(tmp_path / "out")
        write_json(data, d.to_dict())
        assert main(["uncertainty", "--question", "cpfi", "--mode", "combined", "--data", data,
                     "--feature", "x1", "--learner", "ols", "--resample", "subsample",
                     "--fraction", str(fraction), "--ee-replicates", "20",
                     "--me-replicates", "20", "--out", out]) == 1
        assert json.load(open(os.path.join(out, "error.json"))) == expected

    def test_empty_replicate(self, tmp_path, benchmark_phenomenon):
        # floor(0.05 * 10) = 0 rows; in combined mode the empty training
        # replicate fails first
        def error(module, message):
            return {"error": "ValueError", "module": module, "operation": "uncertainty",
                    "message": message}
        self._check(tmp_path, benchmark_phenomenon, k=10, seed=1, band=100.0, fraction=0.05,
                    ee_error=error("uncertainty", "evaluation dataset is empty"),
                    combined_error=error("models", "training dataset is empty"))
