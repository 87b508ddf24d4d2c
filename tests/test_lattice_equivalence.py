"""The knn subset lattice against each subset's own refit.

`models.subset_predictions` predicts knn subset refits at a matrix of rows
in one walk of the subsets' prefix tree per query block, from the
full-feature refit's columns; every prediction must equal, bit for bit, the
subset's own refit's `predict_batch` at the rows' subset columns, for every
learner. `models.subset_risks` takes each risk as the mean loss of those
predictions at the evaluation rows: every risk and every per-row loss must
equal those of the subset's own refit evaluated on the subset's columns, as
`epe(subset_model(...), select_features(d_eval, S), loss)` computes them;
sage and cpfi must answer and refuse as they do when every risk takes that
per-subset path. shapley_local and local_conditional_contribution read the
predictions at one instance, and must answer and refuse as they do when
every subset refit predicts the instance itself.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descry import (
    Dataset, FeatureSpec, LearnerConfig, LossFunction, clear_caches, cpfi,
    local_conditional_contribution, sage, shapley_local,
)
from descry import models
from descry.data import select_features
from descry.errors import SchemaMismatch
from descry.models import row_losses, subset_model, subset_risks
from descry._util import canonical_json

MSE, ZERO_ONE = LossFunction.MSE, LossFunction.ZERO_ONE
DISTANCES = ("euclidean_standardized", "gower")


def dataset(seed, levels, k, classes=0, shift=0):
    """k rows of integer-valued features (ties between neighbours): a
    categorical feature where `levels` gives a count, numeric where it gives
    0. Targets are integer classes when `classes` is set. `shift` moves each
    categorical's levels, so that they differ from another dataset's."""
    rng = np.random.default_rng(seed)
    features, rows = [], np.empty((k, len(levels)), dtype=object)
    for j, count in enumerate(levels):
        if count:
            names = [f"c{i + shift}" for i in range(count)]
            features.append(FeatureSpec(name=f"x{j}", kind="categorical", categories=names))
            rows[:, j] = np.array(names, dtype=object)[rng.integers(0, count, k)]
        else:
            features.append(FeatureSpec(name=f"x{j}", kind="numeric"))
            rows[:, j] = rng.integers(-2, 3, k).astype(float)
    targets = (rng.integers(0, classes, k) if classes else rng.integers(-5, 6, k)).astype(float)
    return Dataset(features=features, target=FeatureSpec(name="y", kind="numeric"), rows=rows,
                   targets=targets, provenance="observed")


def recorded_losses(config, d_train, d_eval, loss, subsets):
    """subset_risks' risks, and the per-row losses of each subset it computed,
    one loss call per subset, in the order given."""
    calls, pointwise_loss = [], models.pointwise_loss

    def recording(*args, **kwargs):
        losses = pointwise_loss(*args, **kwargs)
        calls.append(losses)
        return losses
    with mock.patch.object(models, "pointwise_loss", recording):
        risks = subset_risks(config, d_train, d_eval, loss, subsets)
    assert len(calls) == len(subsets)
    return risks, dict(zip(subsets, calls))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 9), distance=st.sampled_from(DISTANCES),
       loss=st.sampled_from([MSE, ZERO_ONE]), shared=st.booleans(), seed=st.integers(0, 2**16))
def test_lattice_risks_and_losses_equal_each_refits(data, n, distance, loss, shared, seed):
    levels = data.draw(st.lists(st.sampled_from([0, 0, 2, 3, 5]), min_size=n, max_size=n))
    k_train = data.draw(st.integers(3, 30))
    knn_k = data.draw(st.sampled_from([1, min(3, k_train), k_train]))
    classes = 3 if loss == ZERO_ONE else 0
    d_train = dataset(seed, levels, k_train, classes)
    d_eval = d_train if shared else dataset(seed + 1, levels, data.draw(st.integers(1, 25)),
                                            classes)
    everything = [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]
    if n > 5:   # 40 of them, in a random order
        picks = np.random.default_rng(seed).choice(len(everything), 40, replace=False)
        everything = [everything[i] for i in picks]
    config = LearnerConfig(learner="knn", knn_k=knn_k, distance=distance)
    clear_caches()
    risks, losses = recorded_losses(config, d_train, d_eval, loss, everything)
    for subset, risk in zip(everything, risks):
        refit = subset_model(config, d_train, loss, subset)
        evaluated = select_features(d_eval, subset)
        assert np.array_equal(losses[subset], row_losses(refit, evaluated, loss))
        assert risk == models.epe(refit, evaluated, loss)


PREDICTING = {
    "ols": LearnerConfig(learner="ols"),
    "mlp": LearnerConfig(learner="mlp", hidden=(4, 3), epochs=4),
    "knn euclidean": LearnerConfig(learner="knn", knn_k=3),
    "knn gower": LearnerConfig(learner="knn", knn_k=3, distance="gower"),
}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), learner=st.sampled_from(sorted(PREDICTING)), seed=st.integers(0, 2**16))
def test_predictions_at_rows_equal_each_refits(data, learner, seed):
    """At a matrix of several rows, each subset's predictions are its own
    refit's `predict_batch` at the rows' subset columns, bit for bit, given
    as codes or as rows. A 5-level and a 3-level one-hot block together
    cross 8 encoded columns, so that under Euclidean knn both the lattice
    and the per-subset refits answer."""
    levels = [5, 3] + data.draw(st.lists(st.sampled_from([0, 2]), min_size=0, max_size=2))
    loss = data.draw(st.sampled_from([MSE, ZERO_ONE])) if "knn" in learner else MSE
    classes = 3 if loss == ZERO_ONE else 0
    d_train = dataset(seed, levels, data.draw(st.integers(5, 30)), classes)
    queries = dataset(seed + 1, levels, data.draw(st.integers(2, 12)))
    config = PREDICTING[learner]
    n = len(levels)
    everything = [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]
    clear_caches()
    at_codes = models.subset_predictions(config, d_train, loss, everything, queries.codes)
    at_rows = models.subset_predictions(config, d_train, loss, everything, queries.rows)
    for subset, codes, rows in zip(everything, at_codes, at_rows):
        refit = subset_model(config, d_train, loss, subset)
        expected = refit.predict_batch(queries.codes[:, list(subset)])
        assert codes.shape == expected.shape == (queries.k,)
        assert codes.tobytes() == rows.tobytes() == expected.tobytes()


def test_the_lattice_crosses_the_pairwise_width():
    """Under Euclidean a categorical feature is a block of one-hot columns, so
    subsets below and at 8 encoded columns meet: those take their own pass."""
    d = dataset(3, [5, 0, 3, 0], 30)
    config = LearnerConfig(learner="knn", knn_k=2)
    on = {s: models._on_lattice(config, d, s) for s in [(0, 1), (0, 1, 3), (0, 2)]}
    assert on == {(0, 1): True, (0, 1, 3): True, (0, 2): False}
    everything = [s for size in range(5) for s in itertools.combinations(range(4), size)]
    clear_caches()
    risks = subset_risks(config, d, d, MSE, everything)
    assert risks == [models.epe(subset_model(config, d, MSE, s), select_features(d, s), MSE)
                     for s in everything]


def test_a_list_longer_than_the_cache_keeps_every_value():
    d_train, d_eval = dataset(8, [0] * 6, 30), dataset(9, [0] * 6, 20)
    config = LearnerConfig(learner="knn", knn_k=3, distance="gower")
    everything = [s for size in range(7) for s in itertools.combinations(range(6), size)]
    assert len(everything) > models.SUBSET_CACHE_SIZE
    clear_caches()
    risks = subset_risks(config, d_train, d_eval, MSE, everything)
    assert len(models._risk_cache) == models.SUBSET_CACHE_SIZE
    assert risks == [models.epe(subset_model(config, d_train, MSE, s),
                                select_features(d_eval, s), MSE) for s in everything]


def test_passes_split_by_the_loss_cap():
    """Subsets past LATTICE_LOSS_CELLS // d_eval.k rows of losses take another
    pass with the same workspace and give the same risks."""
    d_train, d_eval = dataset(10, [0, 2, 0, 0], 25), dataset(11, [0, 2, 0, 0], 20)
    config = LearnerConfig(learner="knn", knn_k=4)
    everything = [s for size in range(5) for s in itertools.combinations(range(4), size)]
    clear_caches()
    one_pass = subset_risks(config, d_train, d_eval, MSE, everything)
    clear_caches()
    with mock.patch.object(models, "LATTICE_LOSS_CELLS", 3 * d_eval.k):
        assert subset_risks(config, d_train, d_eval, MSE, everything) == one_pass


def test_a_wide_permutation_sage_keeps_the_workspace_bounded():
    """Permutation-mode sage has no feature limit, and under Gower every
    prefix up to the full set is on the lattice: 40 column terms and 41
    partial sums per query. The lattice then takes fewer queries per block,
    so its workspace stays within LATTICE_WORK_CELLS, and it answers as the
    per-subset path does."""
    d_train, d_eval = dataset(30, [0] * 40, 60), dataset(31, [0] * 40, 200)
    config = LearnerConfig(learner="knn", knn_k=3, distance="gower")
    workspace = (40 + 40 + 3) * d_train.k   # cells per query
    assert workspace <= models.LATTICE_WORK_CELLS < workspace * d_eval.k

    def run():
        return outcome(lambda: sage(config, d_train, d_eval, MSE, mode="permutation_mc",
                                    mc_permutations=4, seed=2))
    reference, lattice = per_subset_and_lattice(run)
    assert lattice == reference
    clear_caches()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of all 200 queries would take 8 MB
    assert peak < 2 * models.LATTICE_WORK_CELLS * 8


def outcome(run):
    """A result's bytes, or the class and message of what it raised."""
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - the outcome compared is any exception
        return type(exc), str(exc)
    attribution = b"" if result.attribution is None else result.attribution.tobytes()
    return canonical_json(result.to_dict()).encode() + attribution


def per_subset_and_lattice(run):
    """run() with every risk on the per-subset path, then through the
    lattice, each from cold caches."""
    clear_caches()
    with mock.patch.object(models, "_on_lattice", return_value=False):
        reference = run()
    clear_caches()
    return reference, run()


D_TRAIN = dataset(20, [2, 0, 0], 20)
CASES = {
    # 'c2' is a level d_train's schema does not declare
    "undeclared category": (3, dataset(21, [2, 0, 0], 15, shift=1)),
    "narrower d_eval": (3, dataset(22, [2, 0], 15)),
    "wider d_eval": (3, dataset(23, [2, 0, 0, 0], 15)),
    "knn_k above d_train.k": (D_TRAIN.k + 1, dataset(24, [2, 0, 0], 15)),
}


@pytest.mark.parametrize("distance", DISTANCES)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("question", ["sage exact", "sage permutation_mc", "cpfi"])
def test_refusals_and_answers_match_the_per_subset_path(distance, case, question):
    knn_k, d_eval = CASES[case]
    config = LearnerConfig(learner="knn", knn_k=knn_k, distance=distance)
    if question == "cpfi":
        def run():
            return cpfi(config, D_TRAIN, d_eval, 1, MSE)
    else:
        def run():
            return sage(config, D_TRAIN, d_eval, MSE, mode=question.split()[1],
                        mc_permutations=5, seed=1)
    reference, lattice = per_subset_and_lattice(lambda: outcome(run))
    assert lattice == reference
    # every case refuses; a d_eval whose features are not d_train's, by its schema
    assert isinstance(reference, tuple)
    assert (reference[0] is SchemaMismatch) == (case != "knn_k above d_train.k")


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 5), distance=st.sampled_from(DISTANCES),
       mode=st.sampled_from(["exact", "permutation_mc"]), shared=st.booleans())
def test_sage_and_cpfi_answer_as_on_the_per_subset_path(seed, n, distance, mode, shared):
    levels = [3 if j == 1 else 0 for j in range(n)]
    d_train = dataset(seed, levels, 30)
    d_eval = d_train if shared else dataset(seed + 1, levels, 20)
    config = LearnerConfig(learner="knn", knn_k=3, distance=distance)

    def run():
        return [outcome(lambda: sage(config, d_train, d_eval, MSE, mode=mode,
                                     mc_permutations=6, seed=seed))] + \
               [outcome(lambda: cpfi(config, d_train, d_eval, j, MSE)) for j in range(n)]
    reference, lattice = per_subset_and_lattice(run)
    assert lattice == reference


def central_row(d):
    """d's row nearest the middle of its numeric values: inside every
    quantile band, and a copy of an observed row, so on support."""
    numeric = [j for j, f in enumerate(d.features) if f.kind != "categorical"]
    spread = np.abs(d.codes[:, numeric]).sum(axis=1) if numeric else np.zeros(d.k)
    return list(d.rows[int(np.argmin(spread))])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 4), distance=st.sampled_from(DISTANCES),
       loss=st.sampled_from([MSE, ZERO_ONE]), shared=st.booleans(), seed=st.integers(0, 2**16))
def test_local_questions_answer_as_on_the_per_subset_path(data, n, distance, loss, shared, seed):
    """One-hot blocks below and across 8 encoded columns, integer features
    with tied neighbours, knn_k of 1, 3, SCAN_PICKS (whose average sums
    pairwise), d_train.k and above it, and an instance holding a category
    the schema does not declare. Regression targets have random fractions,
    so that the order of a neighbour average's terms shows in its bits."""
    levels = data.draw(st.lists(st.sampled_from([0, 0, 2, 3, 5]), min_size=n, max_size=n))
    k_train = data.draw(st.integers(3, 40))
    knn_k = data.draw(st.sampled_from([1, min(3, k_train), min(models.SCAN_PICKS, k_train),
                                       k_train, k_train + 1]))
    classes = 3 if loss == ZERO_ONE else 0

    def fractional(d, stream):
        fractions = np.random.default_rng(stream).random(d.k)
        return d if classes else d.replace(targets=d.targets + fractions)
    d_train = fractional(dataset(seed, levels, k_train, classes), seed)
    d_eval = d_train if shared else fractional(
        dataset(seed + 1, levels, data.draw(st.integers(1, 25)), classes), seed + 1)
    instance = central_row(d_eval)
    categorical = [j for j, count in enumerate(levels) if count]
    if categorical and data.draw(st.booleans()):
        instance[categorical[0]] = "undeclared"
    config = LearnerConfig(learner="knn", knn_k=knn_k, distance=distance)
    everything = [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]

    def predictions():
        try:
            return np.array(models.subset_predictions(config, d_train, loss, everything,
                                                      [instance])).tobytes()
        except Exception as exc:  # noqa: BLE001 - the outcome compared is any exception
            return type(exc), str(exc)

    def run():
        return [outcome(lambda: shapley_local(config, d_train, d_eval, instance, loss=loss)),
                outcome(lambda: shapley_local(config, d_train, d_eval, instance,
                                              mode="permutation_mc", mc_permutations=5,
                                              seed=seed, loss=loss)),
                predictions(),
                # the risks too, whose bits the integer targets above hide
                outcome(lambda: sage(config, d_train, d_eval, loss))] + \
               [outcome(lambda j=j: local_conditional_contribution(
                   config, d_train, d_eval, instance, 1.0, j, loss)) for j in range(n)]
    reference, lattice = per_subset_and_lattice(run)
    assert lattice == reference
    if "undeclared" in instance:
        assert reference[2][0] is SchemaMismatch or knn_k > k_train
