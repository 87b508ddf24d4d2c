import itertools

import numpy as np
import pytest

from descry import (
    LossFunction, OptimalPredictorSpec, Phenomenon, optimal_predictor, sample,
    sample_conditional, true_conditional_expectation, true_epe,
)
from descry.errors import UnsupportedCombination

MSE, MAE = LossFunction.MSE, LossFunction.MAE
ZO, KL = LossFunction.ZERO_ONE, LossFunction.KL


class TestSampling:
    def test_noiseless_linear_identity(self):
        p = Phenomenon(kind="linear_gaussian", mu=[0.0], sigma=[[1.0]],
                       beta=[1.0], beta0=2.0, noise_sd=0.0)
        d = sample(p, 500, seed=4)
        assert np.max(np.abs(d.targets - (2.0 + d.numeric_column(0)))) < 1e-12

    def test_discrete_frequencies(self):
        p = Phenomenon(kind="discrete_classification", x_levels=[[0, 1]],
                       y_levels=[0, 1], table=[[0.5, 0.0], [0.0, 0.5]])
        d = sample(p, 10000, seed=9)
        freq = np.mean(d.targets == 1)
        assert 0.48 <= freq <= 0.52
        # deterministic dependence y == x in this table
        assert np.array_equal(d.targets, d.numeric_column(0))

    def test_seeds_differ(self, benchmark_phenomenon):
        d1 = sample(benchmark_phenomenon, 100, seed=1)
        d2 = sample(benchmark_phenomenon, 100, seed=2)
        assert not np.array_equal(d1.rows, d2.rows)

    def test_same_seed_identical(self, benchmark_phenomenon):
        d1 = sample(benchmark_phenomenon, 100, seed=1)
        d2 = sample(benchmark_phenomenon, 100, seed=1)
        assert np.array_equal(d1.rows, d2.rows)
        assert np.array_equal(d1.targets, d2.targets)

    def test_json_round_trip(self, nonlinear_phenomenon):
        clone = Phenomenon.from_dict(nonlinear_phenomenon.to_dict())
        d1 = sample(nonlinear_phenomenon, 50, seed=3)
        d2 = sample(clone, 50, seed=3)
        assert np.array_equal(d1.rows, d2.rows)


class TestInvariants:
    def test_table_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Phenomenon(kind="discrete_classification", x_levels=[[0, 1]],
                       y_levels=[0, 1], table=[[0.5, 0.0], [0.0, 0.4]])

    def test_sigma_must_be_positive_definite(self):
        with pytest.raises(ValueError):
            Phenomenon(kind="linear_gaussian", mu=[0, 0],
                       sigma=[[1.0, 1.0], [1.0, 1.0]], beta=[1, 1])

    def test_response_whitelist(self):
        with pytest.raises(UnsupportedCombination):
            Phenomenon(kind="nonlinear_independent",
                       marginals=[{"family": "normal", "mu": 0, "sd": 1}],
                       terms=[{"coef": 1.0, "powers": {0: 4}}])

    @pytest.mark.parametrize("marginal", [
        {"family": "beta"},                                   # sampled as uniform before
        {"family": "normal", "mu": 0},                        # KeyError: 'sd' when sampled
        {"family": "normal", "mu": 0, "sd": -1},              # true_epe read 1.0
        {"family": "uniform", "low": 1, "high": 0},           # true_epe read 0.0833
        {"family": "uniform", "low": 0, "high": float("inf")},
        {"family": "normal", "mu": float("nan"), "sd": 1},
        {"family": "normal", "mu": "0", "sd": 1},
        {"family": "normal", "mu": True, "sd": 1},
        {"family": "normal", "mu": 0, "sd": 1, "low": 0},
        {"family": ["normal"], "mu": 0, "sd": 1},
        {"mu": 0, "sd": 1},
        [0, 1]])
    def test_malformed_marginal_is_refused_by_its_index(self, marginal):
        with pytest.raises(ValueError, match=r"^marginal 1 must be "):
            Phenomenon(kind="nonlinear_independent",
                       marginals=[{"family": "normal", "mu": 0, "sd": 1}, marginal],
                       terms=[{"coef": 1.0, "powers": {1: 2}}])

    @pytest.mark.parametrize("marginal, variance", [
        ({"family": "normal", "mu": 2, "sd": 0}, 0.0),
        ({"family": "normal", "mu": np.float64(0.5), "sd": 3}, 9.0),
        ({"family": "uniform", "low": -1.5, "high": -1.5}, 0.0),
        ({"family": "uniform", "low": 0, "high": 3.0}, 0.75)])
    def test_degenerate_and_numpy_marginals_are_admitted(self, marginal, variance):
        p = Phenomenon(kind="nonlinear_independent", marginals=[marginal],
                       terms=[{"coef": 1.0, "powers": {0: 1}}])
        assert true_epe(p, MSE, ()) == pytest.approx(variance)
        assert p.to_dict()["marginals"] == [marginal]


class TestOptimalPredictor:
    def test_linear_mse(self):
        p = Phenomenon(kind="linear_gaussian", mu=[0.0], sigma=[[1.0]],
                       beta=[0.77], beta0=10.46, noise_sd=1.0)
        m = optimal_predictor(OptimalPredictorSpec(p, MSE))
        assert m.predict([0.0]) == pytest.approx(10.46)
        assert m.predict([2.0]) == pytest.approx(10.46 + 0.77 * 2)

    def test_mae_equals_mse_under_symmetric_noise(self, benchmark_phenomenon):
        m1 = optimal_predictor(OptimalPredictorSpec(benchmark_phenomenon, MSE))
        m2 = optimal_predictor(OptimalPredictorSpec(benchmark_phenomenon, MAE))
        x = [0.3, -1.2]
        assert m1.predict(x) == m2.predict(x)

    def test_zero_one_constant_posterior(self):
        # P(Y=1|X=x) = 0.9 for every x
        table = np.array([[[0.05, 0.45]], [[0.05, 0.45]]])
        p = Phenomenon(kind="discrete_classification", x_levels=[[0, 1], [0]],
                       y_levels=[0, 1], table=table)
        m = optimal_predictor(OptimalPredictorSpec(p, ZO))
        assert m.predict([0, 0]) == 1.0
        assert m.predict([1, 0]) == 1.0

    def test_kl_matches_normalized_table(self, discrete_phenomenon):
        p = discrete_phenomenon
        m = optimal_predictor(OptimalPredictorSpec(p, KL))
        flat = p.table.reshape(-1, 2)
        for cell, (x1, x2) in enumerate(itertools.product([0, 1], [0, 1])):
            expected = flat[cell] / flat[cell].sum()
            got = m.predict([x1, x2])
            assert np.allclose(got, expected)
            assert abs(got.sum() - 1.0) < 1e-9

    def test_loss_kind_compatibility(self, benchmark_phenomenon, discrete_phenomenon):
        with pytest.raises(UnsupportedCombination):
            OptimalPredictorSpec(benchmark_phenomenon, KL)
        with pytest.raises(UnsupportedCombination):
            OptimalPredictorSpec(discrete_phenomenon, MSE)


class TestConditionalExpectation:
    def test_correlated_gaussian_value(self, benchmark_phenomenon):
        assert true_conditional_expectation(benchmark_phenomenon, 0, 1.0) == pytest.approx(2.5)

    def test_monte_carlo_cross_check(self, benchmark_phenomenon):
        draws = sample_conditional(benchmark_phenomenon, 0, 1.0, 10**6, seed=11)
        m = optimal_predictor(OptimalPredictorSpec(benchmark_phenomenon, MSE))
        preds = m.predict_batch(draws)
        assert abs(preds.mean() - 2.5) < 0.01

    def test_independent_features_kill_correction(self):
        p = Phenomenon(kind="linear_gaussian", mu=[1.0, 2.0],
                       sigma=[[1.0, 0.0], [0.0, 4.0]], beta=[3.0, 5.0], beta0=0.5)
        v = 1.7
        assert true_conditional_expectation(p, 0, v) == pytest.approx(0.5 + 3 * v + 5 * 2.0)

    def test_conditioning_at_mean_gives_mean_response(self, benchmark_phenomenon):
        p = benchmark_phenomenon
        expected = p.beta0 + float(p.beta @ p.mu)
        assert true_conditional_expectation(p, 0, 0.0) == pytest.approx(expected)

    def test_nonlinear_matches_monte_carlo(self, nonlinear_phenomenon):
        p = nonlinear_phenomenon
        for v in (-0.5, 0.5, 1.5):
            draws = sample_conditional(p, 0, v, 400000, seed=21)
            m = optimal_predictor(OptimalPredictorSpec(p, MSE))
            preds = m.predict_batch(draws)
            se = preds.std(ddof=1) / np.sqrt(preds.size)
            assert abs(preds.mean() - true_conditional_expectation(p, 0, v)) < 4 * se + 1e-9

    def test_discrete_rejected(self, discrete_phenomenon):
        with pytest.raises(UnsupportedCombination):
            true_conditional_expectation(discrete_phenomenon, 0, 0.0)


class TestTrueEpe:
    def test_benchmark_values(self, benchmark_phenomenon):
        p = benchmark_phenomenon
        assert true_epe(p, MSE, {0, 1}) == pytest.approx(1.0)      # Bayes error
        assert true_epe(p, MSE, {1}) == pytest.approx(4.0)
        assert true_epe(p, MSE, set()) == pytest.approx(8.0)       # Var(Y)

    def test_subset_epe_monte_carlo_cross_check(self, benchmark_phenomenon):
        # regress y on x2 in a huge sample; residual mean square ~ EPE({x2})
        d = sample(benchmark_phenomenon, 200000, seed=31)
        x2 = d.numeric_column(1)
        design = np.column_stack([np.ones(d.k), x2])
        coef, *_ = np.linalg.lstsq(design, d.targets, rcond=None)
        residuals = d.targets - design @ coef
        assert np.mean(residuals**2) == pytest.approx(4.0, rel=0.03)

    def test_mae_closed_form(self, benchmark_phenomenon):
        # residual of the full-subset predictor is N(0, sigma^2)
        p = benchmark_phenomenon
        assert true_epe(p, MAE, {0, 1}) == pytest.approx(np.sqrt(2 / np.pi))

    def test_nonlinear_full_and_empty(self, nonlinear_phenomenon):
        p = nonlinear_phenomenon
        assert true_epe(p, MSE, {0, 1}) == pytest.approx(p.noise_sd**2)
        d = sample(p, 10**6, seed=41)
        var_y = d.targets.var(ddof=1)
        assert true_epe(p, MSE, set()) == pytest.approx(var_y, rel=0.02)

    def test_nonlinear_subset_nested_monte_carlo(self, nonlinear_phenomenon):
        # brute-force E[Var(f(X) | X_1)] + sigma^2 by nested sampling
        p = nonlinear_phenomenon
        rng = np.random.default_rng(55)
        outer = rng.normal(0.5, 1.0, size=1500)
        cond_vars = np.empty(outer.size)
        for i, v in enumerate(outer):
            draws = sample_conditional(p, 0, v, 1500, seed=1000 + i)
            m = optimal_predictor(OptimalPredictorSpec(p, MSE))
            preds = m.predict_batch(draws)
            cond_vars[i] = preds.var(ddof=1)
        estimate = cond_vars.mean() + p.noise_sd**2
        se = cond_vars.std(ddof=1) / np.sqrt(outer.size)
        assert abs(true_epe(p, MSE, {0}) - estimate) < 4 * se

    def test_discrete_zero_one(self, discrete_phenomenon):
        p = discrete_phenomenon
        # y follows x1 with probability 0.9 regardless of subset containing x1
        assert true_epe(p, ZO, {0, 1}) == pytest.approx(0.1)
        assert true_epe(p, ZO, {0}) == pytest.approx(0.1)
        # without x1 the best guess is a marginal coin flip
        assert true_epe(p, ZO, set()) == pytest.approx(0.5)
        assert true_epe(p, ZO, {1}) == pytest.approx(0.5)

    def test_discrete_kl_is_conditional_mutual_information(self, discrete_phenomenon):
        p = discrete_phenomenon
        assert true_epe(p, KL, {0, 1}) == pytest.approx(0.0)
        # E[KL(P(Y|X) || P(Y))] = I(X;Y) = H(Y) - H(Y|X1)
        h_y = np.log(2)
        h_y_given_x1 = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
        assert true_epe(p, KL, set()) == pytest.approx(h_y - h_y_given_x1)

    def test_monotone_under_inclusion(self, benchmark_phenomenon, nonlinear_phenomenon,
                                      discrete_phenomenon):
        cases = [(benchmark_phenomenon, MSE), (nonlinear_phenomenon, MSE),
                 (discrete_phenomenon, ZO), (discrete_phenomenon, KL)]
        for p, loss in cases:
            subsets = [set(s) for size in range(p.n + 1)
                       for s in itertools.combinations(range(p.n), size)]
            for s, t in itertools.product(subsets, subsets):
                if s <= t:
                    assert true_epe(p, loss, t) <= true_epe(p, loss, s) + 1e-9


class TestTowerRule:
    @pytest.mark.parametrize("which", ["linear", "nonlinear"])
    def test_conditional_average_recovers_curve(self, which, benchmark_phenomenon,
                                                nonlinear_phenomenon):
        p = benchmark_phenomenon if which == "linear" else nonlinear_phenomenon
        m = optimal_predictor(OptimalPredictorSpec(p, MSE))
        for v in (-1.0, 0.0, 1.0):
            draws = sample_conditional(p, 0, v, 10**6, seed=77)
            preds = m.predict_batch(draws)
            se = preds.std(ddof=1) / np.sqrt(preds.size)
            target = true_conditional_expectation(p, 0, v)
            assert abs(preds.mean() - target) <= 4 * se + 1e-12
