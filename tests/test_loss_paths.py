"""The MAE, 0-1 and KL loss paths against their closed forms: the best
constant under MAE and 0-1, the MAE row loss, and the KL model distance.

Bands come from the spread measured over independent samples: 4 standard
errors of a mean for the MAE risks, 4 standard deviations of a mean of ten
seeds for the knn descriptors."""

import numpy as np
import pytest

from descry import (
    LearnerConfig, LossFunction, OptimalPredictorSpec, Phenomenon, cpfi, epe,
    model_distance, optimal_predictor, sage, sample, subset_epe, true_epe,
)
from descry.models import best_constant, pointwise_loss

MAE, ZO, KL = LossFunction.MAE, LossFunction.ZERO_ONE, LossFunction.KL

KNN = LearnerConfig(learner="knn", knn_k=5)
SEEDS = range(10)


def mean_and_band(losses):
    """The mean of per-row losses and 4 standard errors of it."""
    return float(np.mean(losses)), 4 * losses.std(ddof=1) / np.sqrt(losses.size)


class TestMae:
    def test_oracle_epe_matches_true_epe(self, benchmark_phenomenon):
        # sd of the risk over 20 samples of 200 000 rows: 0.0010
        p = benchmark_phenomenon
        d = sample(p, 200_000, seed=3)
        m = optimal_predictor(OptimalPredictorSpec(p, MAE))
        losses = pointwise_loss(MAE, d.targets, m.predict_batch(d.codes))
        assert np.array_equal(losses, np.abs(d.targets - m.predict_batch(d.codes)))
        observed, band = mean_and_band(losses)
        assert epe(m, d, MAE) == observed
        assert abs(observed - true_epe(p, MAE, {0, 1})) < band   # sqrt(2 / pi) = 0.7979

    def test_best_constant_is_the_median(self, benchmark_phenomenon):
        # sd of the risk over 20 samples of 200 000 rows: 0.0033
        p = benchmark_phenomenon
        d = sample(p, 200_000, seed=4)
        median = best_constant(d, MAE)
        assert median == float(np.median(d.targets))
        observed, band = mean_and_band(np.abs(d.targets - median))
        assert subset_epe(LearnerConfig(learner="ols"), d, d, MAE, ()) == observed
        assert abs(observed - true_epe(p, MAE, set())) < band   # sqrt(16 / pi) = 2.2568


class TestZeroOne:
    def test_best_constant_is_the_modal_class(self, discrete_phenomenon):
        d = sample(discrete_phenomenon, 401, seed=5)
        ones = int(np.sum(d.targets == 1.0))
        assert best_constant(d, ZO) == (1.0 if ones > d.k - ones else 0.0)

    def test_knn_cpfi_matches_the_closed_form(self, discrete_phenomenon):
        # EPE without x1 is 0.5 and with it 0.1: cpfi of x1 is 0.4.
        # Over 30 seeds: mean 0.394, sd 0.047 (one fit in 30 reads 0.195,
        # when a cell's 5 tied neighbours mostly carry the minority label)
        p = discrete_phenomenon
        values = [cpfi(KNN, sample(p, 400, 2 * s), sample(p, 400, 2 * s + 1), "x1", ZO).scalar
                  for s in SEEDS]
        assert np.mean(values) == pytest.approx(0.4, abs=4 * 0.047 / np.sqrt(len(SEEDS)))

    def test_knn_sage_matches_the_closed_form(self, discrete_phenomenon):
        # x1 carries all of EPE(empty) - EPE(full) = 0.5 - 0.1, x2 none.
        # Over 30 seeds: means (0.395, -0.005), sds (0.033, 0.021)
        p = discrete_phenomenon
        results = []
        for s in SEEDS:
            d_train, d_eval = sample(p, 400, 2 * s), sample(p, 400, 2 * s + 1)
            result = sage(KNN, d_train, d_eval, ZO)
            modal = best_constant(d_train, ZO)
            assert result.diagnostics["value_empty"] == -float(np.mean(d_eval.targets != modal))
            results.append(result.attribution)
        band = 4 * np.array([0.033, 0.021]) / np.sqrt(len(SEEDS))
        assert np.all(np.abs(np.mean(results, axis=0) - [0.4, 0.0]) < band)


class TestKlDistance:
    def test_oracle_to_itself_is_zero(self, discrete_phenomenon):
        d = sample(discrete_phenomenon, 200, seed=6)
        m = optimal_predictor(OptimalPredictorSpec(discrete_phenomenon, KL))
        assert model_distance(m, m, d, KL) == 0.0

    def test_two_oracles_match_the_tables(self, discrete_phenomenon):
        p = discrete_phenomenon
        table = np.random.default_rng(0).dirichlet(np.ones(8)).reshape(2, 2, 2)
        q = Phenomenon(kind="discrete_classification", x_levels=p.x_levels,
                       y_levels=p.y_levels, table=table / table.sum())
        d = sample(p, 200, seed=7)
        m_p, m_q = (optimal_predictor(OptimalPredictorSpec(r, KL)) for r in (p, q))
        cond_p, cond_q = (r.table / r.table.sum(axis=-1, keepdims=True) for r in (p, q))
        x = d.codes.astype(int)   # levels 0 and 1 are their own cell indices
        per_row = [np.sum(cond_p[i, j] * np.log(cond_p[i, j] / cond_q[i, j])) for i, j in x]
        assert model_distance(m_p, m_q, d, KL) == pytest.approx(np.mean(per_row), rel=1e-12)
        assert model_distance(m_p, m_q, d, KL) > 0
