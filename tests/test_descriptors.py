import numpy as np
import pytest

from descry import (
    DescriptorSpec, Dataset, FeatureSpec, Grid, LearnerConfig, LossFunction, OptimalPredictorSpec,
    Phenomenon, PredictorHandle, build_grid, counterfactual_local, cpdp, cpfi, ice,
    local_conditional_contribution, model_distance, optimal_predictor,
    relevant_value_global, sage, sample, shapley_local, subset_epe, subset_model,
    support_check, true_conditional_expectation,
)
from descry.errors import (
    AllGroupsEmpty, OffSupportInstance, SchemaMismatch, TooManyFeaturesForExact, UnknownFeature,
    error_report,
)
from descry.samplers import conditional_groups, group_means

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

    def test_error_report_names_the_module_under_a_wrapper(self, monkeypatch):
        # group_means, wrapped outside descry as a tracer wraps it, raises in samplers
        import descry.descriptors
        called = []

        def wrapped(*args, **kwargs):
            called.append(True)
            return group_means(*args, **kwargs)

        monkeypatch.setattr(descry.descriptors, "group_means", wrapped)
        rows = [[float(i), 0.0] for i in range(4)]
        d = Dataset(features=[FeatureSpec(name="x1", kind="integer"),
                              FeatureSpec(name="x2", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=rows, targets=[0.0] * 4, provenance="observed")
        with pytest.raises(AllGroupsEmpty) as info:
            cpdp(constant_handle(d.features, 0.0), d, 0)
        assert called
        assert error_report(info.value, "describe") == {
            "error": "AllGroupsEmpty", "module": "samplers", "operation": "cpdp",
            "message": "every grid point fell below the minimum group size"}

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
        grid = Grid(feature_index=0, points=(-0.8, -0.4, 0.0, 0.4, 0.8))
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


    @pytest.mark.parametrize("config", [OLS, LearnerConfig(learner="knn", knn_k=3)])
    def test_mean_over_rows_is_cpfi(self, config):
        # mean over rows of (reduced - full) loss = EPE(reduced) - EPE(full),
        # up to summation order; small integer features keep every row on support
        rng = np.random.default_rng(4)
        features = [FeatureSpec(name=f"g{j}", kind="integer") for j in range(3)]

        def grades(k):
            x = rng.integers(0, 4, size=(k, 3)).astype(float)
            y = x @ [2.0, -1.0, 0.5] + rng.normal(0, 1, k)
            return Dataset(features=features, target=FeatureSpec(name="y", kind="numeric"),
                           rows=x, targets=y, provenance="synthetic")

        d_train, d_eval = grades(120), grades(80)
        rows = [list(row) for row in d_eval.rows]
        assert all(support_check(d_eval, row) for row in rows)
        for feature in range(3):
            local = [local_conditional_contribution(config, d_train, d_eval, row, y,
                                                    feature, MSE).scalar
                     for row, y in zip(rows, d_eval.targets)]
            expected = cpfi(config, d_train, d_eval, feature, MSE).scalar
            assert abs(np.mean(local) - expected) <= 1e-12 * max(1.0, abs(expected))


class TestEvaluationDataOfOtherFeatures:
    """A refit question, and the exported subset_epe, read d_eval's columns
    as d_train's features, so each refuses evaluation data whose features
    differ from the training data's and answers when both sides list them
    alike."""

    CONFIGS = [OLS, LearnerConfig(learner="knn", knn_k=5),
               LearnerConfig(learner="knn", knn_k=5, distance="gower")]

    @staticmethod
    def reversed_features(d):
        return Dataset(features=d.features[::-1], target=d.target, rows=d.rows[:, ::-1],
                       targets=d.targets, provenance=d.provenance)

    @staticmethod
    def questions(config, d_train, instance):
        return {
            "cpfi": lambda d: cpfi(config, d_train, d, "x1", MSE).scalar,
            "sage": lambda d: sage(config, d_train, d, MSE).attribution,
            "shapley_local": lambda d: shapley_local(config, d_train, d, instance).attribution,
            "local_conditional_contribution": lambda d: local_conditional_contribution(
                config, d_train, d, instance, 0.0, "x1", MSE).scalar,
            "subset_epe": lambda d: subset_epe(config, d_train, d, MSE,
                                               (d_train.feature_index("x2"),)),
        }

    @pytest.mark.parametrize("config", CONFIGS)
    def test_reversed_columns_are_refused(self, benchmark_phenomenon, config):
        d_train = sample(benchmark_phenomenon, 2000, seed=130)
        d_eval = sample(benchmark_phenomenon, 2000, seed=131)
        instance = [0.1, 0.2]
        for question, run in self.questions(config, d_train, instance).items():
            with pytest.raises(SchemaMismatch) as refusal:
                run(self.reversed_features(d_eval))
            assert refusal.value.operation == question
            assert "(x1, x2)" in str(refusal.value) and "(x2, x1)" in str(refusal.value)
            run(d_eval)
        # on its own columns cpfi of x1 is near its closed form, EPE({x2}) - EPE(full) = 3
        assert OLS != config or cpfi(config, d_train, d_eval, "x1", MSE).scalar > 2.5

    @pytest.mark.parametrize("config", CONFIGS)
    def test_one_order_on_both_sides_answers_alike(self, benchmark_phenomenon, config):
        d_train = sample(benchmark_phenomenon, 500, seed=132)
        d_eval = sample(benchmark_phenomenon, 500, seed=133)
        flipped = self.questions(config, self.reversed_features(d_train), [0.2, 0.1])
        for question, run in self.questions(config, d_train, [0.1, 0.2]).items():
            answer = np.atleast_1d(run(d_eval))
            again = np.atleast_1d(flipped[question](self.reversed_features(d_eval)))
            # an attribution lists the features in the data's order
            again = again[::-1] if question in ("sage", "shapley_local") else again
            assert again == pytest.approx(answer, rel=1e-9, abs=1e-12)


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


class TestRefusedArguments:
    """Values without a meaning are refused by the functions themselves,
    with a ValueError naming the field, before any work is done."""

    @pytest.fixture
    def problem(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 300, seed=133)
        return d, linear_handle(d.features, 0.0, [2.0, 1.0]), list(d.rows[0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, None])
    def test_non_finite_target_and_lambda(self, problem, value):
        d, h, x = problem
        with pytest.raises(ValueError, match="y_rel"):
            relevant_value_global(h, d, value)
        with pytest.raises(ValueError, match="y_rel"):
            counterfactual_local(h, d, x, y_rel=value, lam=0.5)
        with pytest.raises(ValueError, match="lambda"):
            counterfactual_local(h, d, x, y_rel=1.0, lam=value)

    @pytest.mark.parametrize("band", [np.nan, np.inf, -0.1])
    def test_non_finite_or_negative_band(self, problem, band):
        d, h, _ = problem
        with pytest.raises(ValueError, match="band"):
            cpdp(h, d, 0, band=band)

    @pytest.mark.parametrize("count", [-5, 0, 1])
    def test_too_few_mc_permutations(self, problem, count):
        d, _, x = problem
        with pytest.raises(ValueError, match="mc_permutations"):
            sage(OLS, d, d, MSE, mode="permutation_mc", mc_permutations=count)
        with pytest.raises(ValueError, match="mc_permutations"):
            shapley_local(OLS, d, d, x, mode="permutation_mc", mc_permutations=count)


    @pytest.mark.parametrize("feature", [2, 7, -1])
    def test_feature_outside_the_features(self, problem, feature):
        d, _, x = problem
        named = f"feature index {feature} is outside 0..1 of 2 features"
        with pytest.raises(ValueError, match=named):
            cpfi(OLS, d, d, feature, MSE)
        with pytest.raises(ValueError, match=named):
            local_conditional_contribution(OLS, d, d, x, 0.0, feature, MSE)

    def test_feature_by_name(self, problem):
        """cpfi and its local analogue take a feature name, as cpdp and ice
        do, and record its index; a name the data lacks is refused."""
        d, _, x = problem
        name = d.features[1].name
        assert cpfi(OLS, d, d, name, MSE).to_dict() == cpfi(OLS, d, d, 1, MSE).to_dict()
        named = local_conditional_contribution(OLS, d, d, x, 0.0, name, MSE)
        assert named.spec.feature == 1
        assert named.to_dict() == local_conditional_contribution(
            OLS, d, d, x, 0.0, 1, MSE).to_dict()
        with pytest.raises(UnknownFeature, match="no_such_feature"):
            cpfi(OLS, d, d, "no_such_feature", MSE)
        with pytest.raises(UnknownFeature, match="no_such_feature"):
            local_conditional_contribution(OLS, d, d, x, 0.0, "no_such_feature", MSE)


class TestSpecRequires:
    """A DescriptorSpec refuses a question without an input it needs, named
    by the question's entry in descriptors.QUESTIONS."""

    @pytest.mark.parametrize("question, given, message", [
        ("cpdp", {}, "cpdp requires feature"),
        ("ice", {"instance": [0.0, 0.0]}, "ice requires feature"),
        ("ice", {"feature": 0}, "ice requires instance"),
        ("cpfi", {}, "cpfi requires feature"),
        ("shapley_local", {}, "shapley_local requires instance"),
        ("local_conditional_contribution", {"instance": [0.0, 0.0]},
         "local_conditional_contribution requires feature"),
        ("local_conditional_contribution", {"feature": 0},
         "local_conditional_contribution requires instance"),
        ("relevant_value_global", {}, "relevant_value_global requires y_rel"),
        ("counterfactual_local", {"y_rel": 1.0, "lam": 0.5},
         "counterfactual_local requires instance"),
        ("counterfactual_local", {"instance": [0.0, 0.0], "lam": 0.5},
         "counterfactual_local requires y_rel"),
        ("counterfactual_local", {"instance": [0.0, 0.0], "y_rel": 1.0},
         "counterfactual_local requires lambda")])
    def test_missing_field_is_named(self, question, given, message):
        with pytest.raises(ValueError) as info:
            DescriptorSpec(question=question, **given)
        assert str(info.value) == message

    def test_sage_needs_no_field(self):
        assert DescriptorSpec(question="sage").to_dict()["question"] == "sage"


class TestIntegerFeatures:
    """Searches perturb an integer feature only to integer values."""

    @staticmethod
    def even_grades(k=400, seed=3):
        rng = np.random.default_rng(seed)
        grades = 2.0 * rng.integers(0, 11, size=k)
        other = rng.normal(0, 1, size=k)
        return Dataset(features=[FeatureSpec(name="g", kind="integer"),
                                 FeatureSpec(name="z", kind="numeric")],
                       target=FeatureSpec(name="y", kind="numeric"),
                       rows=np.column_stack([grades, other]), targets=grades,
                       provenance="observed")

    def test_perturbations_are_integral_and_new(self):
        from descry.descriptors import _perturbations
        d = self.even_grades()
        base = [d.rows[i] for i in range(5)]
        out = _perturbations(d, base)
        assert out
        assert all(float(c[0]).is_integer() for c in out)
        assert not any(list(c) == list(b) for c in out for b in base)
        assert len({tuple(c) for c in out}) == len(out)

    def test_searches_answer_at_integer_values(self):
        # y_rel between two observed grades: an unrounded step would land nearer
        d = self.even_grades()
        h = linear_handle(d.features, 0.0, [1.0, 0.0])
        rvg = relevant_value_global(h, d, y_rel=9.0)
        cf = counterfactual_local(h, d, list(d.rows[0]), y_rel=9.0, lam=0.01)
        for point in (rvg.point, cf.point):
            assert float(point["x"][0]).is_integer()
