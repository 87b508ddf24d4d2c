"""The one rule for a feature subset, and for the rows a subset refit reads.

A subset is a set of integer feature indices in 0..n-1, duplicates counted
once. `subset_model`, `subset_risks` (and so `subset_epe`),
`subset_predictions`, `data.select_features` and `phenomenon.true_epe` all
read it through `feature_subset` (in `data`, re-exported by `models`), and
refuse anything else with a ValueError that names the index and n.
`subset_predictions` refuses a rows matrix of another width, as
`predict_batch` does.
"""

import numpy as np
import pytest

from descry import LearnerConfig, LossFunction, Phenomenon, sample, subset_epe, subset_model
from descry import data, models, select_features, true_epe
from descry.errors import SchemaMismatch

MSE = LossFunction.MSE
LEARNERS = {"ols": LearnerConfig(learner="ols"),
            "knn": LearnerConfig(learner="knn", knn_k=3),
            "knn gower": LearnerConfig(learner="knn", knn_k=3, distance="gower")}
P = Phenomenon(kind="linear_gaussian", mu=[0.0] * 3, sigma=np.eye(3).tolist(),
               beta=[2.0, 1.0, -0.5], beta0=0.0, noise_sd=1.0)
D_TRAIN, D_EVAL = sample(P, 60, seed=1), sample(P, 40, seed=2)


@pytest.mark.parametrize("learner", sorted(LEARNERS))
@pytest.mark.parametrize("subset", [(-1,), (5,), (0, 3), (1.7,), (np.float64(1.0),), ("0",)])
def test_an_index_outside_the_features_is_refused(learner, subset):
    """The last index of each subset is the one refused."""
    config = LEARNERS[learner]
    message = f"feature index {subset[-1]!r} is not an integer in 0..2"
    for run in (lambda: subset_epe(config, D_TRAIN, D_EVAL, MSE, subset),
                lambda: subset_model(config, D_TRAIN, MSE, subset),
                lambda: models.subset_risks(config, D_TRAIN, D_EVAL, MSE, [(), subset]),
                lambda: models.subset_predictions(config, D_TRAIN, MSE, [subset],
                                                  D_EVAL.codes),
                lambda: select_features(D_TRAIN, subset), lambda: true_epe(P, MSE, subset)):
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == message
    assert not models._risk_cache


@pytest.mark.parametrize("learner", sorted(LEARNERS))
def test_a_repeated_index_counts_once(learner):
    config = LEARNERS[learner]
    once = subset_epe(config, D_TRAIN, D_EVAL, MSE, (0,))
    assert subset_epe(config, D_TRAIN, D_EVAL, MSE, (0, 0)) == once
    assert subset_epe(config, D_TRAIN, D_EVAL, MSE, [np.int64(2), 0, 2]) == \
        subset_epe(config, D_TRAIN, D_EVAL, MSE, (0, 2))
    assert subset_model(config, D_TRAIN, MSE, (1, 1)) is subset_model(config, D_TRAIN, MSE, (1,))
    twice, single = models.subset_predictions(config, D_TRAIN, MSE, [(0, 0), (0,)],
                                              D_EVAL.codes)
    assert twice.tobytes() == single.tobytes()


@pytest.mark.parametrize("learner", sorted(LEARNERS))
@pytest.mark.parametrize("width", [2, 4])
def test_rows_of_another_width_are_refused(learner, width):
    rows = np.zeros((5, width))
    with pytest.raises(SchemaMismatch) as info:
        models.subset_predictions(LEARNERS[learner], D_TRAIN, MSE, [(), (0,)], rows)
    assert str(info.value) == f"expected 3 features, got shape (5, {width})"
    assert info.value.operation == "predict"


def test_select_features_and_true_epe_count_a_repeated_index_once():
    assert select_features(D_TRAIN, (0, 0)).feature_names == ["x1"]
    assert select_features(D_TRAIN, [np.int64(2), 0, 2]).feature_names == ["x1", "x3"]
    assert select_features(D_TRAIN, (2, 1, 0)) is D_TRAIN
    assert true_epe(P, MSE, (1, 1)) == true_epe(P, MSE, (1,))
    assert true_epe(P, MSE, [np.int64(2), 0, 2]) == true_epe(P, MSE, (0, 2))
    assert models.feature_subset is data.feature_subset
