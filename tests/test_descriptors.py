import numpy as np
import pytest

from descry import (
    Dataset, FeatureSpec, Grid, LearnerConfig, LossFunction, OptimalPredictorSpec,
    Phenomenon, PredictorHandle, build_grid, counterfactual_local, cpdp, cpfi, ice,
    local_conditional_contribution, model_distance, optimal_predictor,
    relevant_value_global, sage, sample, shapley_local, subset_model, support_check,
    true_conditional_expectation,
)
from descry.errors import AllGroupsEmpty, OffSupportInstance, TooManyFeaturesForExact
from descry.samplers import conditional_groups

MSE = LossFunction.MSE
OLS = LearnerConfig(learner="ols", seed=0)


def constant_handle(features, value):
    return PredictorHandle(input_schema=list(features), output_kind="scalar",
                           kind="constant", params={"value": value})


def linear_handle(features, intercept, coef):
    return PredictorHandle(
        input_schema=list(features), output_kind="scalar", kind="linear",
        params={"intercept": intercept, "coef": list(coef),
                "encoder": [{"type": "numeric", "mean": 0.0, "scale": 1.0}] * len(features)})


class TestCpdp:
    def test_oracle_identity(self, benchmark_phenomenon):
        p = benchmark_phenomenon
        d_eval = sample(p, 20000, seed=100)
        oracle = optimal_predictor(OptimalPredictorSpec(p, MSE))
        grid = build_grid(d_eval, "x1", max_points=15)
        result = cpdp(oracle, d_eval, 0, grid)
        stderr = result.diagnostics["stderr"]
        for (v, estimate, _), se in zip(result.curve, stderr):
            assert abs(estimate - true_conditional_expectation(p, 0, v)) <= 4 * se + 1e-9

    def test_constant_model_flat(self, benchmark_phenomenon):
        d_eval = sample(benchmark_phenomenon, 3000, seed=101)
        h = constant_handle(d_eval.features, 7.25)
        result = cpdp(h, d_eval, 0)
        assert all(estimate == 7.25 for _, estimate, _ in result.curve)

    def test_all_groups_empty(self):
        rows = [[float(i), 0.0] for i in range(4)]   # all groups below minimum
        d = Dataset(features=[FeatureSpec(name="x1", kind="integer"),
                              FeatureSpec(name="x2", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=rows, targets=[0.0] * 4, provenance="observed")
        h = constant_handle(d.features, 0.0)
        with pytest.raises(AllGroupsEmpty):
            cpdp(h, d, 0)

    def test_continuity_surrogate(self, benchmark_phenomenon):
        # close models yield close curves: the cPDP gap is bounded by
        # sqrt(empirical model distance / smallest group weight)
        d_eval = sample(benchmark_phenomenon, 5000, seed=102)
        h1 = linear_handle(d_eval.features, 0.0, [2.0, 1.0])
        h2 = linear_handle(d_eval.features, 0.02, [2.05, 0.98])
        delta = model_distance(h1, h2, d_eval, MSE)
        grid = build_grid(d_eval, "x1", max_points=12)
        r1 = cpdp(h1, d_eval, 0, grid)
        r2 = cpdp(h2, d_eval, 0, grid)
        curve1 = {v: e for v, e, _ in r1.curve}
        curve2 = {v: e for v, e, _ in r2.curve}
        members, dropped = conditional_groups(d_eval, grid)
        kept = [g for g, point in enumerate(grid.points)
                if point not in {rep["grid_point"] for rep in dropped}]
        min_weight = members[:, kept].sum(axis=0).min() / d_eval.k
        shared = sorted(set(curve1) & set(curve2))
        gap = max(abs(curve1[v] - curve2[v]) for v in shared)
        assert gap <= np.sqrt(delta / min_weight) + 1e-12


class TestGridFeature:
    @pytest.mark.parametrize("feature", [1, "x2"])
    def test_a_grid_along_another_feature_is_refused(self, benchmark_phenomenon, feature):
        d_eval = sample(benchmark_phenomenon, 500, seed=108)
        grid = build_grid(d_eval, "x1", max_points=5)
        h = constant_handle(d_eval.features, 0.0)
        with pytest.raises(ValueError, match="does not match the grid"):
            cpdp(h, d_eval, feature, grid)
        with pytest.raises(ValueError, match="does not match the grid"):
            ice(h, [0.0, 0.0], feature, grid, d_eval)

    def test_a_name_matching_the_grid_is_accepted(self, benchmark_phenomenon):
        d_eval = sample(benchmark_phenomenon, 500, seed=108)
        grid = build_grid(d_eval, "x2", max_points=5)
        h = constant_handle(d_eval.features, 0.0)
        assert cpdp(h, d_eval, "x2", grid).spec.feature == 1
        assert ice(h, [0.0, 0.0], "x2", grid, d_eval).spec.feature == 1


class TestIce:
    def test_linear_slope(self, benchmark_phenomenon):
        d_eval = sample(benchmark_phenomenon, 4000, seed=103)
        h = linear_handle(d_eval.features, 1.0, [2.0, 1.0])
        instance = [0.0, 0.0]
        grid = build_grid(d_eval, "x1", max_points=10)
        result = ice(h, instance, 0, grid, d_eval)
        points = [(v, e) for v, e, _ in result.curve]
        for (v1, e1), (v2, e2) in zip(points, points[1:]):
            assert (e2 - e1) / (v2 - v1) == pytest.approx(2.0)

    def test_additive_model_centered_curves_identical(self):
        p = Phenomenon(kind="nonlinear_independent",
                       marginals=[{"family": "normal", "mu": 0.0, "sd": 1.0},
                                  {"family": "normal", "mu": 0.0, "sd": 1.0}],
                       terms=[{"coef": 1.0, "powers": {0: 2}},
                              {"coef": -2.0, "powers": {1: 1}}],
                       noise_sd=0.3)
        d_eval = sample(p, 5000, seed=104)
        h = optimal_predictor(OptimalPredictorSpec(p, MSE))
        grid = Grid(feature_index=0, points=(-0.8, -0.4, 0.0, 0.4, 0.8),
                    strategy="unique_values")
        curves = []
        for instance in ([0.1, 0.2], [-0.2, -0.5]):
            result = ice(h, instance, 0, grid, d_eval)
            assert len(result.curve) == len(grid.points)
            values = np.array([e for _, e, _ in result.curve])
            curves.append(values - values.mean())
        assert np.allclose(curves[0], curves[1], atol=1e-12)

    def test_fringe_instance_loses_grid_points(self, benchmark_phenomenon):
        d_eval = sample(benchmark_phenomenon, 5000, seed=105)
        x2 = d_eval.numeric_column(1)
        fringe_idx = int(np.argsort(x2)[int(0.97 * d_eval.k)])
        instance = list(d_eval.rows[fringe_idx])
        grid = build_grid(d_eval, "x1", max_points=15)
        h = optimal_predictor(OptimalPredictorSpec(benchmark_phenomenon, MSE))
        result = ice(h, instance, 0, grid, d_eval)
        off = result.diagnostics["off_support_grid_points"]
        assert len(result.curve) + len(off) == len(grid.points)
        assert len(off) >= 1
        # itemized drop list matches a brute-force support scan
        for v in off:
            spliced = list(instance)
            spliced[0] = v
            assert not support_check(d_eval, spliced)

    def test_off_support_instance_rejected(self, benchmark_phenomenon):
        d_eval = sample(benchmark_phenomenon, 2000, seed=106)
        grid = build_grid(d_eval, "x1", max_points=10)
        h = constant_handle(d_eval.features, 0.0)
        with pytest.raises(OffSupportInstance):
            ice(h, [50.0, -50.0], 0, grid, d_eval)


class TestCpfi:
    def test_benchmark_value(self, benchmark_phenomenon):
        d_train = sample(benchmark_phenomenon, 4000, seed=107)
        d_eval = sample(benchmark_phenomenon, 4000, seed=108)
        result = cpfi(OLS, d_train, d_eval, 0, MSE)
        assert result.scalar == pytest.approx(3.0, abs=0.5)
        assert result.diagnostics["epe_full"] < result.diagnostics["epe_reduced"]

    def test_irrelevant_feature_scores_zero(self):
        p = Phenomenon(kind="linear_gaussian", mu=[0, 0, 0],
                       sigma=np.eye(3).tolist(), beta=[2.0, 1.0, 0.0], noise_sd=1.0)
        d_train = sample(p, 6000, seed=109)
        d_eval = sample(p, 6000, seed=110)
        result = cpfi(OLS, d_train, d_eval, 2, MSE)
        assert abs(result.scalar) < 0.1

    def test_duplicate_feature_scores_zero(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 5000, seed=111)
        rows = np.column_stack([d.numeric_column(0), d.numeric_column(0),
                                d.numeric_column(1)])
        features = [FeatureSpec(name="x1", kind="numeric"),
                    FeatureSpec(name="x1_copy", kind="numeric"),
                    FeatureSpec(name="x2", kind="numeric")]
        dup = Dataset(features=features, target=d.target, rows=rows,
                      targets=d.targets, provenance="synthetic")
        train_d, eval_d = dup.take(range(2500)), dup.take(range(2500, 5000))
        result = cpfi(OLS, train_d, eval_d, 0, MSE)
        assert abs(result.scalar) < 0.1


class TestSage:
    def test_efficiency(self, benchmark_phenomenon):
        d_train = sample(benchmark_phenomenon, 2000, seed=112)
        d_eval = sample(benchmark_phenomenon, 2000, seed=113)
        result = sage(OLS, d_train, d_eval, MSE)
        epe_gap = -(result.diagnostics["value_empty"] - result.diagnostics["value_full"])
        assert result.attribution.sum() == pytest.approx(epe_gap, abs=1e-9)

    def test_symmetry_for_duplicates(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 3000, seed=114)
        rows = np.column_stack([d.numeric_column(0), d.numeric_column(0),
                                d.numeric_column(1)])
        features = [FeatureSpec(name="a", kind="numeric"),
                    FeatureSpec(name="a_copy", kind="numeric"),
                    FeatureSpec(name="b", kind="numeric")]
        dup = Dataset(features=features, target=d.target, rows=rows,
                      targets=d.targets, provenance="synthetic")
        result = sage(OLS, dup, dup, MSE)
        assert result.attribution[0] == pytest.approx(result.attribution[1], abs=1e-9)

    def test_mc_matches_exact(self, benchmark_phenomenon):
        p = Phenomenon(kind="linear_gaussian", mu=[0, 0, 0],
                       sigma=[[1, 0.5, 0], [0.5, 1, 0], [0, 0, 1]],
                       beta=[2.0, 1.0, 0.5], noise_sd=1.0)
        d_train = sample(p, 3000, seed=115)
        d_eval = sample(p, 3000, seed=116)
        exact = sage(OLS, d_train, d_eval, MSE, mode="exact")
        mc = sage(OLS, d_train, d_eval, MSE, mode="permutation_mc",
                  mc_permutations=2000, seed=9)
        stderr = np.asarray(mc.diagnostics["mc_stderr"])
        assert np.all(np.abs(mc.attribution - exact.attribution) <= 3 * stderr + 1e-12)

    def test_exact_mode_limit(self, benchmark_phenomenon):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(50, 13))
        d = Dataset(features=[FeatureSpec(name=f"f{i}", kind="numeric") for i in range(13)],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=rows, targets=rows[:, 0], provenance="synthetic")
        with pytest.raises(TooManyFeaturesForExact):
            sage(OLS, d, d, MSE, mode="exact")


class TestShapleyLocal:
    def test_constant_model_zero_attributions(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 1000, seed=117)
        flat = d.replace(targets=np.full(d.k, 4.0))
        instance = list(d.rows[0])
        result = shapley_local(OLS, flat, flat, instance)
        assert np.allclose(result.attribution, 0.0, atol=1e-9)

    def test_efficiency(self, benchmark_phenomenon):
        d_train = sample(benchmark_phenomenon, 2000, seed=118)
        d_eval = sample(benchmark_phenomenon, 2000, seed=119)
        instance = list(d_eval.rows[10])
        result = shapley_local(OLS, d_train, d_eval, instance)
        full = subset_model(OLS, d_train, MSE, (0, 1)).predict(instance)
        empty = subset_model(OLS, d_train, MSE, ()).predict([])
        assert result.attribution.sum() == pytest.approx(full - empty, abs=1e-9)

    def test_additive_independent_closed_form(self):
        p = Phenomenon(kind="linear_gaussian", mu=[1.0, -1.0],
                       sigma=[[1.0, 0.0], [0.0, 1.0]], beta=[2.0, -1.5],
                       beta0=0.3, noise_sd=1.0)
        d_train = sample(p, 10000, seed=120)
        d_eval = sample(p, 4000, seed=121)
        instance = [1.8, -0.4]
        result = shapley_local(OLS, d_train, d_eval, instance)
        for j in range(2):
            expected = p.beta[j] * (instance[j] - p.mu[j])
            assert result.attribution[j] == pytest.approx(expected, abs=0.1)

    def test_off_support_instance(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 1000, seed=122)
        with pytest.raises(OffSupportInstance):
            shapley_local(OLS, d, d, [99.0, -99.0])


class TestLocalConditionalContribution:
    def test_matches_recomputation(self, benchmark_phenomenon):
        d_train = sample(benchmark_phenomenon, 3000, seed=123)
        d_eval = sample(benchmark_phenomenon, 3000, seed=124)
        instance = list(d_eval.rows[5])
        y = float(d_eval.targets[5])
        result = local_conditional_contribution(OLS, d_train, d_eval, instance, y, 0, MSE)
        full = subset_model(OLS, d_train, MSE, (0, 1))
        reduced = subset_model(OLS, d_train, MSE, (1,))
        expected = (y - reduced.predict([instance[1]])) ** 2 - (y - full.predict(instance)) ** 2
        assert result.scalar == pytest.approx(expected, abs=1e-12)

    def test_noiseless_full_model_has_zero_loss(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, size=(2000, 2))
        d = Dataset(features=[FeatureSpec(name="x1", kind="numeric"),
                              FeatureSpec(name="x2", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=x, targets=x[:, 0], provenance="synthetic")
        instance = [0.5, 0.1]
        result = local_conditional_contribution(OLS, d, d, instance, 0.5, 0, MSE)
        assert result.diagnostics["loss_full"] < 1e-12
        assert result.scalar == pytest.approx(result.diagnostics["loss_reduced"])
        assert result.scalar >= 0

    def test_irrelevant_feature_near_zero(self):
        p = Phenomenon(kind="linear_gaussian", mu=[0, 0], sigma=np.eye(2).tolist(),
                       beta=[2.0, 0.0], noise_sd=0.5)
        d_train = sample(p, 20000, seed=125)
        d_eval = sample(p, 100, seed=126)
        instance = [0.2, 0.4]
        result = local_conditional_contribution(OLS, d_train, d_eval, instance,
                                                2.0 * 0.2, 1, MSE)
        assert abs(result.scalar) < 0.01


class TestRelevantValue:
    def test_achievable_target(self, benchmark_phenomenon):
        d_eval = sample(benchmark_phenomenon, 2000, seed=127)
        h = linear_handle(d_eval.features, 0.0, [2.0, 1.0])
        y0 = float(h.predict(list(d_eval.rows[42])))
        result = relevant_value_global(h, d_eval, y0)
        assert result.point["objective"] == pytest.approx(0.0, abs=1e-12)
        preds = h.predict_batch(d_eval.rows)
        first_hit = int(np.argmin(np.abs(preds - y0)))
        assert result.point["row_index"] == first_hit

    def test_unreachable_target_hits_boundary(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.normal(0, 1, size=500))
        d = Dataset(features=[FeatureSpec(name="x", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=x[:, None], targets=x, provenance="synthetic")
        h = linear_handle(d.features, 0.0, [1.0])
        result = relevant_value_global(h, d, y_rel=100.0)
        # monotone model, target above range: the best point sits at the upper edge
        assert result.point["x"][0] >= np.quantile(x, 0.97)

    def test_never_worse_than_row_scan(self, benchmark_phenomenon):
        d_eval = sample(benchmark_phenomenon, 2000, seed=128)
        h = linear_handle(d_eval.features, 0.0, [2.0, 1.0])
        result = relevant_value_global(h, d_eval, y_rel=1.37)
        scan_best = np.min(np.abs(h.predict_batch(d_eval.rows) - 1.37))
        assert result.point["objective"] <= scan_best + 1e-12
        assert support_check(d_eval, result.point["x"])


class TestCounterfactual:
    def test_lambda_zero_reduces_to_gap_minimization(self, benchmark_phenomenon):
        d_eval = sample(benchmark_phenomenon, 2000, seed=129)
        h = linear_handle(d_eval.features, 0.0, [2.0, 1.0])
        instance = list(d_eval.rows[0])
        result = counterfactual_local(h, d_eval, instance, y_rel=2.0, lam=0.0)
        assert result.point["objective"] == pytest.approx(result.point["prediction_gap"])
        scan_best = np.min(np.abs(h.predict_batch(d_eval.rows) - 2.0))
        assert result.point["prediction_gap"] <= scan_best + 1e-12

    def test_huge_lambda_returns_instance(self, benchmark_phenomenon):
        d_eval = sample(benchmark_phenomenon, 2000, seed=130)
        h = linear_handle(d_eval.features, 0.0, [2.0, 1.0])
        instance = list(d_eval.rows[3])
        target_range = float(np.ptp(h.predict_batch(d_eval.rows)))
        result = counterfactual_local(h, d_eval, instance, y_rel=3.0,
                                      lam=1e6 * target_range)
        assert result.point["x"] == instance
        assert result.point["gower_distance"] == 0.0

    def test_distance_non_increasing_in_lambda(self, benchmark_phenomenon):
        d_eval = sample(benchmark_phenomenon, 1500, seed=131)
        h = linear_handle(d_eval.features, 0.0, [2.0, 1.0])
        instance = list(d_eval.rows[7])
        lambdas = np.linspace(0.0, 5.0, 10)
        distances = [counterfactual_local(h, d_eval, instance, y_rel=4.0,
                                          lam=float(l)).point["gower_distance"]
                     for l in lambdas]
        assert all(b <= a + 1e-12 for a, b in zip(distances, distances[1:]))

    def test_result_on_support(self, benchmark_phenomenon):
        d_eval = sample(benchmark_phenomenon, 1500, seed=132)
        h = linear_handle(d_eval.features, 0.0, [2.0, 1.0])
        instance = list(d_eval.rows[11])
        result = counterfactual_local(h, d_eval, instance, y_rel=-2.5, lam=0.5)
        assert support_check(d_eval, result.point["x"])
