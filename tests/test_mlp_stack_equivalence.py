"""The stacked mlp trainer against the one-network loop it replaced.

The reference below is the old two-dimensional training loop, one network
per dataset, with the one rule that changed: an epoch is kept only when its
full-data loss is no greater than the previous one, so a non-finite loss is
rejected. The stacked trainer makes the same BLAS calls slice by slice and
the same elementwise arithmetic, so weights, biases, loss histories and final
learning rates must be equal bit for bit, for every replicate and at every
chunk boundary.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descry import CIConfig, Dataset, FeatureSpec, LearnerConfig, LossFunction, ResamplePlan
from descry import ci_combined, clear_caches, models, sample, train, uncertainty
from descry._util import canonical_json, derive_seed
from descry.descriptors import DescriptorSpec
from descry.models import PredictorHandle, build_encoder, encode, train_each

MSE = LossFunction.MSE
LEVELS = ("a", "b", "c")


# -- the reference: one network at a time ----------------------------------------


def reference_train_mlp(config, d):
    encoder = build_encoder(d.features, d.codes, standardize=True)
    X = encode(d.codes, encoder, d.features)
    y = d.targets
    rng = np.random.default_rng(derive_seed(config.seed, "mlp-init"))

    widths = [X.shape[1]] + list(config.hidden) + [1]
    weights = [rng.normal(0.0, np.sqrt(2.0 / widths[i]), size=(widths[i], widths[i + 1]))
               for i in range(len(widths) - 1)]
    biases = [np.zeros(w) for w in widths[1:]]

    def forward(a):
        activations = [a]
        for layer in range(len(weights) - 1):
            a = np.maximum(a @ weights[layer] + biases[layer], 0.0)
            activations.append(a)
        activations.append(a @ weights[-1] + biases[-1])
        return activations

    def full_loss():
        return float(np.mean((forward(X)[-1][:, 0] - y) ** 2))

    lr = config.learning_rate
    batch = min(config.batch_size, d.k)
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, "mlp-shuffle"))
    prev_loss = full_loss()
    history = [prev_loss]
    for _epoch in range(config.epochs):
        saved = ([w.copy() for w in weights], [b.copy() for b in biases])
        order = shuffle_rng.permutation(d.k)
        for start in range(0, d.k, batch):
            idx = order[start:start + batch]
            acts = forward(X[idx])
            delta = 2.0 * (acts[-1][:, 0] - y[idx])[:, None] / len(idx)
            for layer in range(len(weights) - 1, -1, -1):
                grad_w = acts[layer].T @ delta
                grad_b = delta.sum(axis=0)
                if layer > 0:
                    delta = (delta @ weights[layer].T) * (acts[layer] > 0)
                weights[layer] -= lr * grad_w
                biases[layer] -= lr * grad_b
        new_loss = full_loss()
        if not new_loss <= prev_loss:
            weights, biases = saved
            lr *= config.lr_decay
        else:
            prev_loss = new_loss
        history.append(prev_loss)

    params = {"weights": [w.tolist() for w in weights],
              "biases": [b.tolist() for b in biases], "encoder": encoder}
    meta = {"learner": "mlp", "seed": config.seed, "hidden": list(config.hidden),
            "epochs": config.epochs, "final_lr": lr, "loss_history": history}
    return PredictorHandle(input_schema=list(d.features), output_kind="scalar",
                           kind="mlp", params=params, metadata=meta)


def reference_fit(config, d):
    # a diverging epoch overflows before it is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        return reference_train_mlp(config, d)


def assert_same_fit(handle, expected):
    """Bit-equal parameters (so -0.0 differs from 0.0) and metadata."""
    for key in ("weights", "biases"):
        got, want = handle.params[key], expected.params[key]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert isinstance(g, np.ndarray)
            assert g.tobytes() == np.asarray(w, dtype=float).tobytes()
    assert handle.params["encoder"] == expected.params["encoder"]
    assert handle.metadata == expected.metadata
    assert np.float64(handle.metadata["final_lr"]).tobytes() == \
        np.float64(expected.metadata["final_lr"]).tobytes()


# -- data ------------------------------------------------------------------------


def make_dataset(k, seed, categorical, scale):
    """Numeric (and optionally categorical) rows; `scale` stretches the target
    so that one learning rate can converge on one replicate and diverge on
    another."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=k), 3)
    features = [FeatureSpec(name="x", kind="numeric")]
    rows = [[float(v)] for v in x]
    y = 2.0 * x + rng.normal(scale=0.5, size=k)
    if categorical:
        features.append(FeatureSpec(name="c", kind="categorical", categories=LEVELS))
        cats = rng.integers(0, len(LEVELS), size=k)
        rows = [[float(v), LEVELS[c]] for v, c in zip(x, cats)]
        y = y + cats
    return Dataset(features=features, target=FeatureSpec(name="y", kind="numeric"),
                   rows=rows, targets=scale * y, provenance="synthetic")


def stack_cells(chunk, datasets, config):
    """A STACK_CELLS value that holds exactly `chunk` replicates."""
    d = datasets[0]
    inputs = sum(len(f.categories) if f.kind == "categorical" else 1 for f in d.features)
    return chunk * d.k * max(inputs, *config.hidden)


CASES = st.fixed_dictionaries({
    "k": st.sampled_from([1, 2, 5, 13, 40, 64]),
    "batch_size": st.sampled_from([1, 3, 7, 32, 64]),
    # a width-1 layer takes matmul off gemm, onto gemv or numpy's own loop
    "hidden": st.sampled_from([(4,), (7,), (1,), (3, 1), (5, 3, 2), (6, 4, 3)]),
    "categorical": st.booleans(),
    "epochs": st.integers(1, 6),
    "learning_rate": st.sampled_from([0.01, 0.2, 2.0, 1e3]),
    "lr_decay": st.sampled_from([0.5, 1.0]),
    "scales": st.lists(st.sampled_from([1.0, 10.0, 300.0]), min_size=1, max_size=7),
    "chunk": st.sampled_from([1, 2, 3, None]),
    "seed": st.integers(0, 5),
})


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=CASES)
def test_stack_matches_one_network_at_a_time(case):
    config = LearnerConfig(learner="mlp", hidden=case["hidden"], epochs=case["epochs"],
                           batch_size=case["batch_size"], learning_rate=case["learning_rate"],
                           lr_decay=case["lr_decay"], seed=case["seed"])
    datasets = [make_dataset(case["k"], 100 * case["seed"] + r, case["categorical"], scale)
                for r, scale in enumerate(case["scales"])]
    cells = models.STACK_CELLS if case["chunk"] is None \
        else stack_cells(case["chunk"], datasets, config)
    with mock.patch.object(models, "STACK_CELLS", cells):
        handles = list(train_each(config, ((d, None) for d in datasets), MSE))
    assert len(handles) == len(datasets)
    for handle, d in zip(handles, datasets):
        assert_same_fit(handle, reference_fit(config, d))


def test_replicates_reject_different_epochs():
    # one learning rate, five target scales: each replicate rejects its own
    # epochs and so ends at its own rate
    config = LearnerConfig(learner="mlp", hidden=(6, 4, 3), epochs=8, batch_size=7,
                           learning_rate=0.3, seed=1)
    datasets = [make_dataset(30, r, True, scale)
                for r, scale in enumerate([1.0, 300.0, 1.0, 10.0, 300.0])]
    handles = list(train_each(config, [(d, None) for d in datasets], MSE))
    final_lrs = {h.metadata["final_lr"] for h in handles}
    assert len(final_lrs) > 1
    for handle, d in zip(handles, datasets):
        assert_same_fit(handle, reference_fit(config, d))


def test_single_train_is_a_stack_of_one():
    config = LearnerConfig(learner="mlp", hidden=(5, 3, 2), epochs=4, batch_size=6, seed=3)
    d = make_dataset(20, 4, True, 1.0)
    assert_same_fit(train(config, d, MSE), reference_fit(config, d))


def test_mixed_row_counts_start_new_stacks():
    config = LearnerConfig(learner="mlp", hidden=(4,), epochs=3, batch_size=5, seed=2)
    datasets = [make_dataset(k, k, False, 1.0) for k in (12, 12, 9, 12)]
    for handle, d in zip(train_each(config, [(d, None) for d in datasets], MSE), datasets):
        assert_same_fit(handle, reference_fit(config, d))


@pytest.mark.parametrize("chunk, method", [
    (None, "subsample"), (3, "subsample"), (None, "bootstrap"), (3, "bootstrap")],
    ids=["None", "3", "None-bootstrap", "3-bootstrap"])
def test_ci_combined_matches_per_replicate_training(chunk, method, nonlinear_phenomenon):
    d = sample(nonlinear_phenomenon, 80, seed=5)
    config = LearnerConfig(learner="mlp", hidden=(6, 4), epochs=6, learning_rate=0.05, seed=4)
    plan = ResamplePlan(method=method, fraction=0.5, replicates=20, seed=9)
    cfg = CIConfig(ee_replicates=20, me_replicates=20, resample_plan=plan)

    def one_at_a_time(config, fits, loss):
        return (reference_fit(config, d if rows is None else d.take(rows)) for d, rows in fits)

    # cpfi trains two streams of refits: on all features, and without feature 0;
    # each run starts with no kept refits, so that each trains its own
    for spec in (DescriptorSpec(question="cpdp", feature=0, max_points=6),
                 DescriptorSpec(question="cpfi", feature=0)):
        clear_caches()
        with mock.patch.object(uncertainty, "train_each", one_at_a_time):
            expected = ci_combined(config, d, spec, cfg)
        clear_caches()
        # stacks of 3 refits, 6 wide, or all in one: 20 of 40 rows under subsample (20 is
        # no multiple of 3), or under bootstrap 21 of 80 rows, the full-data fit first
        rows = 40 if method == "subsample" else 80
        cells = models.STACK_CELLS if chunk is None else chunk * rows * 6
        with mock.patch.object(models, "STACK_CELLS", cells):
            report = ci_combined(config, d, spec, cfg)
        assert report.replicate_curves.tobytes() == expected.replicate_curves.tobytes()
        assert canonical_json(report.to_dict()) == canonical_json(expected.to_dict())


@pytest.mark.parametrize("question, stacks", [("cpdp", [21]), ("cpfi", [21, 21])])
def test_ci_combined_trains_the_full_data_fit_in_the_bootstrap_stack(
        question, stacks, nonlinear_phenomenon):
    # the full-data refit leads each column set's one stream of refits, so under
    # bootstrap it stacks with the 20 replicates of its row count
    d = sample(nonlinear_phenomenon, 80, seed=5)
    config = LearnerConfig(learner="mlp", hidden=(6, 4), epochs=3, learning_rate=0.05, seed=4)
    plan = ResamplePlan(method="bootstrap", replicates=20, seed=9)
    cfg = CIConfig(ee_replicates=20, me_replicates=20, resample_plan=plan)
    sizes = []
    train_mlp = models._train_mlp

    def recording_train_mlp(config, fits):
        sizes.append(len(fits))
        return train_mlp(config, fits)

    with mock.patch.object(models, "_train_mlp", recording_train_mlp):
        ci_combined(config, d, DescriptorSpec(question=question, feature=0, max_points=6), cfg)
    assert sizes == stacks
