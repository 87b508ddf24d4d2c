"""The subset-risk cache that sage and cpfi share.

`models.subset_risks` keeps the EPE of each feature-subset refit on one
evaluation dataset. The reference below computes every risk directly as
`epe(subset_model(...), select_features(d_eval, S))`, one subset at a time
and uncached; sage and cpfi must give byte-equal results through it and
through the cache (and, for knn, the subset lattice), whether the cache is
cold, warm or cleared.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from descry import Dataset, FeatureSpec, LearnerConfig, LossFunction, cpfi, sage
from descry import descriptors, models
from descry.data import select_features
from descry.models import (
    SUBSET_CACHE_SIZE, _risk_cache, _subset_cache, epe, subset_epe, subset_model,
)
from descry import clear_caches
from descry._util import canonical_json

MSE = LossFunction.MSE
LEARNERS = (LearnerConfig(learner="ols"), LearnerConfig(learner="knn", knn_k=3),
            LearnerConfig(learner="knn", knn_k=2, distance="gower"))


def dataset(seed, n, k=40):
    rng = np.random.default_rng(seed)
    x = rng.integers(-4, 5, size=(k, n)).astype(float)  # ties between knn neighbours
    return Dataset(features=[FeatureSpec(name=f"x{j}", kind="numeric") for j in range(n)],
                   target=FeatureSpec(name="y", kind="numeric"), rows=x,
                   targets=x @ np.arange(1.0, n + 1) + rng.normal(size=k),
                   provenance="observed")


def direct_epe(config, d_train, d_eval, loss, subset):
    return epe(subset_model(config, d_train, loss, subset), select_features(d_eval, subset), loss)


def direct_risks(config, d_train, d_eval, loss, subsets):
    return [direct_epe(config, d_train, d_eval, loss, subset) for subset in subsets]


def as_bytes(result):
    attribution = b"" if result.attribution is None else result.attribution.tobytes()
    return canonical_json(result.to_dict()).encode() + attribution


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 4), learner=st.sampled_from(LEARNERS),
       mode=st.sampled_from(["exact", "permutation_mc"]), shared=st.booleans())
def test_cached_risks_equal_direct_ones(seed, n, learner, mode, shared):
    d_train = dataset(seed, n)
    d_eval = d_train if shared else dataset(seed + 1, n, k=30)

    def run():
        return [as_bytes(sage(learner, d_train, d_eval, MSE, mode=mode, mc_permutations=6,
                              seed=seed))] + \
               [as_bytes(cpfi(learner, d_train, d_eval, j, MSE)) for j in range(n)]

    with mock.patch.object(descriptors, "subset_risks", direct_risks):
        reference = run()
    clear_caches()
    assert run() == reference  # cold
    assert run() == reference  # warm
    _risk_cache.clear()
    assert run() == reference  # refits warm, risks cold
    clear_caches()
    assert run() == reference  # cleared


def test_targets_key_the_risk():
    d_train, d_eval = dataset(1, 2), dataset(2, 2)
    shifted = Dataset(features=d_eval.features, target=d_eval.target, rows=d_eval.rows,
                      targets=d_eval.targets + 1.0, provenance="observed")
    assert np.array_equal(shifted.codes, d_eval.codes)
    clear_caches()
    for subset in [(), (0,), (0, 1)]:
        risks = [subset_epe(LEARNERS[0], d_train, d, MSE, subset) for d in (d_eval, shifted)]
        assert risks[0] != risks[1]
        assert risks == [direct_epe(LEARNERS[0], d_train, d, MSE, subset)
                         for d in (d_eval, shifted)]


def test_risk_cache_is_bounded():
    clear_caches()
    # ten datasets times four subsets: 40 distinct risks
    for seed in range(10):
        d = dataset(seed, 2)
        for subset in [(), (0,), (1,), (0, 1)]:
            subset_epe(LEARNERS[0], d, d, MSE, subset)
    assert len(_risk_cache) == SUBSET_CACHE_SIZE


def test_clear_empties_both_caches():
    d = dataset(3, 3)
    clear_caches()
    sage(LEARNERS[0], d, d, MSE)
    assert len(_subset_cache) == len(_risk_cache) == 8
    clear_caches()
    assert len(_subset_cache) == len(_risk_cache) == 0


def test_cpfi_after_sage_predicts_nothing_again():
    """sage computes each of the 4 columns' distance term once per query block
    and selects the neighbours of every non-empty subset at every evaluation
    row once; cpfi of every feature then reads its full and reduced risks
    from the cache."""
    d_train, d_eval = dataset(4, 4, k=60), dataset(5, 4, k=50)
    config = LEARNERS[1]
    # one query block: the workspace holds 4 column terms, 4 stack rows and 15 slots at most
    assert (2 * d_train.n + 2 ** d_train.n - 1) * d_eval.k * d_train.k <= models.LATTICE_WORK_CELLS
    clear_caches()
    with mock.patch.object(models, "_column_term", wraps=models._column_term) as terms, \
            mock.patch.object(models, "_smallest", wraps=models._smallest) as selections:
        def work():
            return terms.call_count, sum(len(c.args[0]) for c in selections.call_args_list)
        sage(config, d_train, d_eval, MSE)
        assert work() == (d_train.n, (2 ** d_train.n - 1) * d_eval.k)
        for j in range(d_train.n):
            cpfi(config, d_train, d_eval, j, MSE)
    assert work() == (d_train.n, (2 ** d_train.n - 1) * d_eval.k)


def test_an_equal_config_shares_the_refits_and_risks():
    """The caches key on the config's fields: an equal config built anew (with
    hidden given as a list) finds the refit and the risk another one left;
    a config that differs in one field does not."""
    d_train, d_eval = dataset(6, 3), dataset(7, 3, k=30)
    first = LearnerConfig(learner="knn", knn_k=3)
    again = LearnerConfig(learner="knn", knn_k=3, hidden=[32, 16, 8])
    assert again is not first and again == first and hash(again) == hash(first)
    clear_caches()
    refit = subset_model(first, d_train, MSE, (0, 2))
    risk = subset_epe(first, d_train, d_eval, MSE, (0, 2))
    with mock.patch.object(models, "train", side_effect=AssertionError("refit")), \
            mock.patch.object(models, "epe", side_effect=AssertionError("evaluated")):
        assert subset_model(again, d_train, MSE, (0, 2)) is refit
        assert subset_epe(again, d_train, d_eval, MSE, (2, 0)) == risk
    other = LearnerConfig(learner="knn", knn_k=4)
    assert subset_model(other, d_train, MSE, (0, 2)) is not refit
    assert len(_subset_cache) == 2
