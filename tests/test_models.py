import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import descry
from descry import (
    Dataset, FeatureSpec, LearnerConfig, LossFunction, OptimalPredictorSpec,
    epe, model_distance, optimal_predictor, predict, sample, select_features,
    subset_model, train, true_epe,
)
from descry.errors import IncompatibleLoss, SchemaMismatch
from descry.models import (
    PredictorHandle, build_encoder, encode, pointwise_loss, train_each,
)
from descry import clear_caches
from descry._util import canonical_json

MSE, MAE = LossFunction.MSE, LossFunction.MAE
ZO, KL = LossFunction.ZERO_ONE, LossFunction.KL

OLS = LearnerConfig(learner="ols", seed=0)


def linear_dataset(k=100, slope=3.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, size=k)
    return Dataset(features=[FeatureSpec(name="x", kind="numeric")],
                   target=FeatureSpec(name="y", kind="numeric"),
                   rows=x[:, None], targets=slope * x, provenance="synthetic")


def mixed_dataset():
    features = [FeatureSpec(name="num", kind="numeric"),
                FeatureSpec(name="cat", kind="categorical", categories=("a", "b"))]
    rows = [[0.0, "a"], [1.0, "a"], [10.0, "b"], [11.0, "b"]]
    return Dataset(features=features, target=FeatureSpec(name="y", kind="numeric"),
                   rows=rows, targets=[0.0, 0.0, 1.0, 1.0], provenance="observed")


def assert_refuses_undeclared(*handles):
    """Each handle of a mixed_dataset model refuses a category its schema
    does not declare, in a batch as in one row."""
    for handle in handles:
        for call, rows in ((handle.predict_batch, [[0.5, "a"], [-3.0, "zz"]]),
                           (handle.predict, [-3.0, "zz"])):
            with pytest.raises(SchemaMismatch, match="feature 'cat': 'zz' not in categories"):
                call(np.array(rows, dtype=object))


class TestOls:
    def test_exact_interpolation(self):
        d = linear_dataset(slope=3.0)
        h = train(OLS, d, MSE)
        assert abs(h.params["coef"][0] - 3.0) < 1e-10
        assert abs(h.params["intercept"]) < 1e-10

    def test_residual_orthogonality(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 500, seed=1)
        h = train(OLS, d, MSE)
        design = np.column_stack([np.ones(d.k), np.asarray(d.rows, dtype=float)])
        coef = np.concatenate([[h.params["intercept"]], h.params["coef"]])
        residuals = d.targets - design @ coef
        assert np.max(np.abs(design.T @ residuals)) < 1e-8 * d.k

    def test_ridge_fallback_on_duplicate_columns(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, size=50)
        d = Dataset(features=[FeatureSpec(name="x1", kind="numeric"),
                              FeatureSpec(name="x2", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=np.column_stack([x, x]), targets=2 * x, provenance="synthetic")
        h = train(OLS, d, MSE)
        assert h.metadata["ridge_fallback"]
        preds = h.predict_batch(d.rows)
        assert np.allclose(preds, d.targets, atol=1e-3)

    def test_parameter_standard_errors_reported(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 2000, seed=5)
        h = train(OLS, d, MSE)
        assert h.metadata["intercept_se"] > 0
        assert all(se > 0 for se in h.metadata["coef_se"])

    def test_loss_compatibility(self):
        with pytest.raises(IncompatibleLoss):
            train(OLS, linear_dataset(), MAE)


class TestKnn:
    def test_k1_recovers_training_targets(self):
        d = linear_dataset(k=30)
        h = train(LearnerConfig(learner="knn", knn_k=1), d, MSE)
        assert np.array_equal(h.predict_batch(d.rows), d.targets)

    def test_gower_handles_mixed_types(self):
        h = train(LearnerConfig(learner="knn", knn_k=2, distance="gower"),
                  mixed_dataset(), MSE)
        assert h.predict([0.5, "a"]) == 0.0
        assert h.predict([10.5, "b"]) == 1.0

    def test_default_distance_handles_mixed_types(self):
        h = train(LearnerConfig(learner="knn", knn_k=2), mixed_dataset(), MSE)
        assert h.predict([0.5, "a"]) == 0.0
        assert h.predict([10.5, "b"]) == 1.0

    @pytest.mark.parametrize("distance", ["euclidean_standardized", "gower"])
    def test_arrays_in_memory_lists_in_json(self, distance):
        d = mixed_dataset()
        h = train(LearnerConfig(learner="knn", knn_k=2, distance=distance), d, MSE)
        assert isinstance(h.params["train_matrix"], np.ndarray)
        assert isinstance(h.params["train_targets"], np.ndarray)
        listed = dict(h.params, train_matrix=[list(r) for r in d.rows],
                      train_targets=d.targets.tolist())
        if distance == "euclidean_standardized":
            assert isinstance(h.params["train_encoded"], np.ndarray)
            listed["train_encoded"] = h.params["train_encoded"].tolist()
        from_lists = PredictorHandle(input_schema=h.input_schema, output_kind="scalar",
                                     kind="knn", params=listed, metadata=h.metadata)
        assert canonical_json(h.to_dict()) == canonical_json(from_lists.to_dict())
        queries = np.array([[0.5, "a"], [10.5, "b"], [5.0, "a"]], dtype=object)
        clone = PredictorHandle.from_dict(json.loads(canonical_json(h.to_dict())))
        assert np.array_equal(clone.predict_batch(queries), h.predict_batch(queries))

    @pytest.mark.parametrize("distance", ["euclidean_standardized", "gower"])
    def test_loaded_handle_holds_the_trained_arrays(self, distance):
        d = mixed_dataset()
        h = train(LearnerConfig(learner="knn", knn_k=2, distance=distance), d, MSE)
        text = canonical_json(h.to_dict())
        clone = PredictorHandle.from_dict(json.loads(text))
        # Gower compares the training codes; they stay out of model.json
        reference = "train_codes" if distance == "gower" else "train_encoded"
        assert "train_codes" not in json.loads(text)["params"]
        for key in ("train_targets", reference):
            loaded, trained = clone.params[key], h.params[key]
            assert isinstance(loaded, np.ndarray) and loaded.dtype == float
            assert loaded.tobytes() == trained.tobytes()
        assert canonical_json(clone.to_dict()) == text
        queries = np.array([[0.5, "a"], [10.5, "b"], [5.0, "a"], [-3.0, "b"]], dtype=object)
        assert clone.predict_batch(queries).tobytes() == h.predict_batch(queries).tobytes()
        assert_refuses_undeclared(h, clone)
        assert clone.predict_batch(d.codes).tobytes() == h.predict_batch(d.rows).tobytes()

    @pytest.mark.parametrize("distance", ["euclidean_standardized", "gower"])
    def test_model_json_holds_the_training_rows_once(self, distance):
        """model.json keeps the rows in train_matrix only; a file that also
        holds the schema copy and the Euclidean encoding still loads, and
        predicts with the same bits."""
        d = mixed_dataset()
        h = train(LearnerConfig(learner="knn", knn_k=2, distance=distance), d, MSE)
        written = h.to_dict()
        assert not {"features", "train_encoded", "train_codes"} & set(written["params"])
        old = json.loads(canonical_json(written))
        old["params"]["features"] = [f.to_dict() for f in d.features]
        if distance == "euclidean_standardized":
            old["params"]["train_encoded"] = h.params["train_encoded"].tolist()
        clone = PredictorHandle.from_dict(json.loads(canonical_json(old)))
        queries = np.array([[0.5, "a"], [10.5, "b"], [5.0, "a"], [-3.0, "b"]], dtype=object)
        assert clone.predict_batch(queries).tobytes() == h.predict_batch(queries).tobytes()
        assert_refuses_undeclared(h, clone)
        assert clone.predict_batch(d.codes).tobytes() == h.predict_batch(d.codes).tobytes()

    def test_mode_for_zero_one(self):
        d = Dataset(features=[FeatureSpec(name="x", kind="numeric")],
                    target=FeatureSpec(name="y", kind="integer"),
                    rows=[[0.0], [0.1], [0.2], [5.0]],
                    targets=[1, 1, 1, 0], provenance="observed")
        h = train(LearnerConfig(learner="knn", knn_k=3), d, ZO)
        assert h.predict([0.05]) == 1.0

    def test_k_exceeding_training_size(self):
        with pytest.raises(ValueError):
            train(LearnerConfig(learner="knn", knn_k=50), linear_dataset(k=10), MSE)

    @pytest.mark.parametrize("rows, count", [(1, 2), (2, 3), (2, 0), (2, -1)])
    def test_nearest_refuses_a_count_outside_the_reference(self, rows, count):
        from descry.models import nearest
        reference = np.arange(float(rows))[:, None]
        with pytest.raises(ValueError, match=f"1..{rows} reference rows, got {count}"):
            nearest(np.array([[0.5]]), reference, count)


class TestMlp:
    def test_training_loss_non_increasing(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 300, seed=2)
        config = LearnerConfig(learner="mlp", hidden=(16, 8), epochs=40, seed=0)
        h = train(config, d, MSE)
        history = h.metadata["loss_history"]
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_deterministic_given_seed(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 200, seed=2)
        config = LearnerConfig(learner="mlp", hidden=(8,), epochs=10, seed=7)
        h1, h2 = train(config, d, MSE), train(config, d, MSE)
        assert h1.to_dict()["params"]["weights"] == h2.to_dict()["params"]["weights"]

    def test_arrays_in_memory_lists_in_json(self):
        d = mixed_dataset()
        h = train(LearnerConfig(learner="mlp", hidden=(4, 3), epochs=5, seed=1), d, MSE)
        for key in ("weights", "biases"):
            assert all(isinstance(a, np.ndarray) for a in h.params[key])
        listed = dict(h.params, weights=[w.tolist() for w in h.params["weights"]],
                      biases=[b.tolist() for b in h.params["biases"]])
        from_lists = PredictorHandle(input_schema=h.input_schema, output_kind="scalar",
                                     kind="mlp", params=listed, metadata=h.metadata)
        assert canonical_json(h.to_dict()) == canonical_json(from_lists.to_dict())
        queries = np.array([[0.5, "a"], [10.5, "b"], [5.0, "a"]], dtype=object)
        clone = PredictorHandle.from_dict(json.loads(canonical_json(h.to_dict())))
        assert np.array_equal(clone.predict_batch(queries), h.predict_batch(queries))

    def test_each_handle_owns_its_parameters(self):
        # a stack trains from one flat buffer; a kept handle must not pin it,
        # and editing one network must not change another
        datasets = [linear_dataset(k=30, slope=s, seed=s) for s in (1, 2, 3)]
        config = LearnerConfig(learner="mlp", hidden=(4, 3), epochs=3, seed=0)
        handles = list(train_each(config, [(d, None) for d in datasets], MSE))
        arrays = [a for h in handles for key in ("weights", "biases") for a in h.params[key]]
        assert len(arrays) == 3 * 2 * 3
        assert all(a.base is None for a in arrays)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    def test_loaded_handle_holds_the_trained_arrays(self):
        d = mixed_dataset()
        h = train(LearnerConfig(learner="mlp", hidden=(4, 3), epochs=5, seed=1), d, MSE)
        text = canonical_json(h.to_dict())
        clone = PredictorHandle.from_dict(json.loads(text))
        for key in ("weights", "biases"):
            for loaded, trained in zip(clone.params[key], h.params[key]):
                assert isinstance(loaded, np.ndarray) and loaded.dtype == float
                assert np.array_equal(loaded, trained)
        assert canonical_json(clone.to_dict()) == text
        queries = np.array([[0.5, "a"], [10.5, "b"], [5.0, "a"], [-3.0, "b"]], dtype=object)
        assert clone.predict_batch(queries).tobytes() == h.predict_batch(queries).tobytes()
        assert_refuses_undeclared(h, clone)
        assert clone.predict_batch(d.codes).tobytes() == h.predict_batch(d.rows).tobytes()

    def test_diverging_epochs_are_rejected(self, benchmark_phenomenon):
        # at this rate every early epoch overflows to inf or NaN; each is
        # rejected and halves the rate, so the model stays finite
        d = sample(benchmark_phenomenon, 400, seed=3)
        config = LearnerConfig(learner="mlp", hidden=(8,), epochs=40, learning_rate=1e6)
        h = train(config, d, MSE)
        assert h.metadata["final_lr"] < config.learning_rate
        assert np.all(np.isfinite(h.metadata["loss_history"]))
        for key in ("weights", "biases"):
            assert all(np.all(np.isfinite(a)) for a in h.params[key])
        assert np.all(np.isfinite(h.predict_batch(d.rows)))

    @pytest.mark.parametrize("field, value", [
        ("hidden", (8, 0)), ("epochs", 0), ("batch_size", 0),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", 0.0), ("lr_decay", 0.0), ("lr_decay", 1.5)])
    def test_invalid_hyperparameters_are_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            LearnerConfig(learner="mlp", **{field: value})
        LearnerConfig(learner="ols", **{field: value})  # not mlp's: not checked

    def test_learns_linear_signal(self):
        d = linear_dataset(k=400, slope=2.0, seed=4)
        config = LearnerConfig(learner="mlp", hidden=(32, 16), epochs=150, seed=1)
        h = train(config, d, MSE)
        assert epe(h, d, MSE) < 0.3

    def test_beats_linear_fit_on_curvature(self):
        # a net with broken gradients cannot track a quadratic; ols cannot either
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, size=600)
        d = Dataset(features=[FeatureSpec(name="x", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=x[:, None], targets=x**2, provenance="synthetic")
        mlp = train(LearnerConfig(learner="mlp", hidden=(32, 16), epochs=200, seed=2),
                    d, MSE)
        ols = train(OLS, d, MSE)
        assert epe(mlp, d, MSE) < 0.2 * epe(ols, d, MSE)

    def test_epochs_reuse_the_fit_buffers(self):
        # a fit allocates its arrays once: 90 more epochs fault in almost no fresh
        # pages, where per-epoch (20, 200, 32) activations faulted about 460 each
        pytest.importorskip("resource")
        probe = (
            "import resource, numpy as np\n"
            "from descry import Dataset, FeatureSpec, LearnerConfig, LossFunction\n"
            "from descry.models import train_each\n"
            "def dataset(seed):\n"
            "    x = np.random.default_rng(seed).normal(size=(200, 3))\n"
            "    return Dataset(features=[FeatureSpec(name=f'x{j}', kind='numeric')\n"
            "                             for j in range(3)],\n"
            "                   target=FeatureSpec(name='y', kind='numeric'), rows=x,\n"
            "                   targets=np.sin(x[:, 0]) + x[:, 1], provenance='synthetic')\n"
            "datasets = [dataset(seed) for seed in range(20)]\n"
            "def faults(epochs):\n"
            "    config = LearnerConfig(learner='mlp', seed=1, epochs=epochs)\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    list(train_each(config, [(d, None) for d in datasets], LossFunction.MSE))\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "print(faults(10), faults(100))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(descry.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        short, long = map(int, proc.stdout.split())
        assert long - short < 1000, (short, long)


class TestPredict:
    def test_purity(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 50, seed=3)
        h = train(OLS, d, MSE)
        x = [0.5, -0.5]
        assert predict(h, x) == predict(h, x)

    def test_schema_mismatch(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 50, seed=3)
        h = train(OLS, d, MSE)
        with pytest.raises(SchemaMismatch):
            predict(h, [1.0])

    @pytest.mark.parametrize("config", [
        OLS, LearnerConfig(learner="knn", knn_k=2),
        LearnerConfig(learner="knn", knn_k=2, distance="gower"),
        LearnerConfig(learner="mlp", hidden=(4,), epochs=3, seed=1)],
        ids=["ols", "knn-euclidean", "knn-gower", "mlp"])
    def test_batch_refuses_an_undeclared_category(self, config):
        d = mixed_dataset()
        h = train(config, d, MSE)
        clone = PredictorHandle.from_dict(json.loads(canonical_json(h.to_dict())))
        assert_refuses_undeclared(h, clone)
        # declared rows still answer, given as labels or as codes
        assert clone.predict_batch(d.rows).tobytes() == h.predict_batch(d.codes).tobytes()

    def test_distribution_sums_to_one(self, discrete_phenomenon):
        m = optimal_predictor(OptimalPredictorSpec(discrete_phenomenon, KL))
        out = predict(m, [0, 1])
        assert abs(out.sum() - 1.0) < 1e-9

    def test_json_round_trip(self, benchmark_phenomenon):
        from descry.models import PredictorHandle
        d = sample(benchmark_phenomenon, 50, seed=3)
        h = train(OLS, d, MSE)
        clone = PredictorHandle.from_dict(h.to_dict())
        assert np.array_equal(clone.predict_batch(d.rows), h.predict_batch(d.rows))


# a case's float-array params, and its params that hold a list of float arrays
ROUND_TRIP_CASES = {
    "ols": ({"coef"}, set()),
    "linear_oracle": ({"coef"}, set()),
    "poly_response": (set(), set()),
    "table_argmax": ({"cond", "y_levels"}, {"x_levels"}),
    "table_conditional": ({"cond", "y_levels"}, {"x_levels"}),
    "constant": (set(), set()),
    "kl_constant": ({"value", "y_levels"}, set()),
    "knn_euclidean": ({"train_targets", "train_encoded"}, set()),
    "knn_gower": ({"train_targets", "train_codes"}, set()),
    "mlp": (set(), {"weights", "biases"}),
}


def build_handle(case, request):
    """The handle of a ROUND_TRIP_CASES case, and rows it predicts at."""
    learners = {"ols": OLS, "mlp": LearnerConfig(learner="mlp", hidden=(4, 3), epochs=5, seed=1),
                "knn_euclidean": LearnerConfig(learner="knn", knn_k=2),
                "knn_gower": LearnerConfig(learner="knn", knn_k=2, distance="gower")}
    if case in learners:
        d = mixed_dataset()
        return train(learners[case], d, MSE), d.rows
    fixture, loss = {"linear_oracle": ("benchmark_phenomenon", MSE),
                     "poly_response": ("nonlinear_phenomenon", MSE),
                     "table_argmax": ("discrete_phenomenon", ZO),
                     "table_conditional": ("discrete_phenomenon", KL),
                     "constant": ("benchmark_phenomenon", MSE),
                     "kl_constant": ("discrete_phenomenon", KL)}[case]
    p = request.getfixturevalue(fixture)
    d = sample(p, 40, seed=1)
    if case.endswith("constant"):
        return subset_model(OLS, d, loss, ()), np.zeros((3, 0))
    return optimal_predictor(OptimalPredictorSpec(p, loss)), d.rows


class TestRoundTrip:
    """Every kind of handle survives model.json: the same file, the same
    predictions bit for bit, and its arrays held as float arrays on both sides."""

    @pytest.mark.parametrize("case", ROUND_TRIP_CASES)
    def test_model_json_round_trip(self, case, request):
        h, rows = build_handle(case, request)
        text = canonical_json(h.to_dict())
        clone = PredictorHandle.from_dict(json.loads(text))
        assert canonical_json(clone.to_dict()) == text
        assert clone.predict_batch(rows).tobytes() == h.predict_batch(rows).tobytes()
        arrays, array_lists = ROUND_TRIP_CASES[case]
        for handle in (h, clone):
            held = [handle.params[key] for key in arrays]
            held += [a for key in array_lists for a in handle.params[key]]
            assert all(isinstance(a, np.ndarray) and a.dtype == float for a in held)

    def test_every_evaluator_is_covered(self, request):
        from descry.models import _EVALUATORS
        kinds = {build_handle(case, request)[0].kind for case in ROUND_TRIP_CASES}
        assert kinds == set(_EVALUATORS)


class TestEpe:
    def test_perfect_predictor(self):
        d = linear_dataset()
        h = train(OLS, d, MSE)
        assert epe(h, d, MSE) < 1e-20

    def test_constant_half_on_alternating_targets(self):
        d = Dataset(features=[FeatureSpec(name="x", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=[[0.0]] * 10, targets=[0, 1] * 5, provenance="observed")
        h = subset_model(OLS, d, MSE, ())
        assert h.predict([]) == pytest.approx(0.5)
        assert epe(h, select_features(d, []), MSE) == pytest.approx(0.25)

    def test_oracle_epe_matches_true_epe(self, benchmark_phenomenon):
        p = benchmark_phenomenon
        d = sample(p, 100000, seed=6)
        m = optimal_predictor(OptimalPredictorSpec(p, MSE))
        losses = (d.targets - m.predict_batch(d.rows)) ** 2
        se = losses.std(ddof=1) / np.sqrt(losses.size)
        assert abs(epe(m, d, MSE) - true_epe(p, MSE, {0, 1})) < 4 * se

    def test_oracle_zero_one_epe_matches_true_epe(self, discrete_phenomenon):
        p = discrete_phenomenon
        d = sample(p, 50000, seed=7)
        m = optimal_predictor(OptimalPredictorSpec(p, ZO))
        observed = epe(m, d, ZO)
        se = np.sqrt(0.1 * 0.9 / d.k)
        assert abs(observed - true_epe(p, ZO, {0, 1})) < 4 * se

    def test_kl_epe_differences_match_population(self, discrete_phenomenon):
        # log-loss EPE differences equal KL EPE differences: the conditional
        # entropy cancels
        p = discrete_phenomenon
        d = sample(p, 50000, seed=8)
        m_full = optimal_predictor(OptimalPredictorSpec(p, KL))
        m_empty = subset_model(OLS, d, KL, ())
        observed_gap = epe(m_empty, select_features(d, []), KL) - epe(m_full, d, KL)
        population_gap = true_epe(p, KL, set()) - true_epe(p, KL, {0, 1})
        assert observed_gap == pytest.approx(population_gap, abs=0.02)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n_levels=st.integers(1, 4), k=st.integers(0, 30))
    def test_kl_row_loss_matches_per_row_lookup(self, data, n_levels, k):
        # levels may repeat and targets may fall between them: ties go to
        # the first level, as in the per-row argmin this replaced
        values = st.sampled_from([0.0, 1.0, 1.5, 2.0, 2.5, 3.0])
        levels = np.array(data.draw(st.lists(values, min_size=n_levels, max_size=n_levels)))
        y_true = np.array(data.draw(st.lists(values, min_size=k, max_size=k)), dtype=float)
        preds = np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-310, 0.2, 0.5, 1.0]),
                                            min_size=k * n_levels,
                                            max_size=k * n_levels))).reshape(k, n_levels)
        idx = np.array([int(np.argmin(np.abs(levels - y))) for y in y_true], dtype=int)
        q = preds[np.arange(k), idx]
        expected = -np.log(np.clip(q, 1e-300, None))
        got = pointwise_loss(KL, y_true, preds, levels.tolist())
        assert got.tobytes() == expected.tobytes()


class TestModelDistance:
    def test_identity(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 100, seed=9)
        h = train(OLS, d, MSE)
        assert model_distance(h, h, d, MSE) == 0.0

    def test_constants_under_mse(self):
        from descry.models import PredictorHandle
        d = linear_dataset(k=10)
        c1 = PredictorHandle(input_schema=d.features, output_kind="scalar",
                             kind="constant", params={"value": 1.0})
        c2 = PredictorHandle(input_schema=d.features, output_kind="scalar",
                             kind="constant", params={"value": 3.0})
        assert model_distance(c1, c2, d, MSE) == pytest.approx(4.0)

    def test_ols_consistency(self, benchmark_phenomenon):
        p = benchmark_phenomenon
        oracle = optimal_predictor(OptimalPredictorSpec(p, MSE))
        d_ref = sample(p, 4000, seed=10)
        medians = []
        for k in (50, 500, 5000):
            distances = []
            for s in range(20):
                d_train = sample(p, k, seed=1000 + 31 * s + k)
                h = train(OLS, d_train, MSE)
                distances.append(model_distance(h, oracle, d_ref, MSE))
            medians.append(np.median(distances))
        assert medians[0] > medians[1] > medians[2]

    def test_other_category_order_is_refused(self):
        # both models give every label the same prediction, but each reads
        # a code by its own category order
        def trained(categories):
            labels = ["a", "b", "c"] * 4
            d = Dataset(features=[FeatureSpec(name="g", kind="categorical",
                                              categories=categories)],
                        target=FeatureSpec(name="y", kind="numeric"),
                        rows=[[g] for g in labels],
                        targets=[{"a": 1.0, "b": 2.0, "c": 4.0}[g] for g in labels],
                        provenance="observed")
            return train(OLS, d, MSE), d
        (h1, d), (h2, _) = trained(("a", "b", "c")), trained(("c", "b", "a"))
        assert [h1.predict([g]) for g in "abc"] == pytest.approx([h2.predict([g]) for g in "abc"])
        with pytest.raises(SchemaMismatch, match=r"\(g \[a, b, c\]\) and \(g \[c, b, a\]\)"):
            model_distance(h1, h2, d, MSE)

    def test_numeric_and_integer_features_match(self):
        d = linear_dataset(k=20)
        d_int = Dataset(features=[FeatureSpec(name="x", kind="integer")], target=d.target,
                        rows=np.round(d.rows), targets=d.targets, provenance="synthetic")
        h, h_int = train(OLS, d, MSE), train(OLS, d_int, MSE)
        gap = h.predict_batch(d_int.codes) - h_int.predict_batch(d_int.codes)
        assert model_distance(h, h_int, d_int, MSE) == pytest.approx(np.mean(gap ** 2))

    def test_symmetry(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 200, seed=11)
        h1 = train(OLS, d, MSE)
        h2 = optimal_predictor(OptimalPredictorSpec(benchmark_phenomenon, MSE))
        assert model_distance(h1, h2, d, MSE) == pytest.approx(
            model_distance(h2, h1, d, MSE))


class TestSubsetModel:
    def test_full_subset_equals_train(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 300, seed=12)
        direct = train(OLS, d, MSE)
        via_subset = subset_model(OLS, d, MSE, (0, 1))
        assert np.array_equal(direct.predict_batch(d.rows),
                              via_subset.predict_batch(d.rows))

    def test_empty_subset_is_target_mean(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 300, seed=13)
        h = subset_model(OLS, d, MSE, ())
        assert h.predict([]) == pytest.approx(float(d.targets.mean()))

    def test_population_slope_on_x2(self, benchmark_phenomenon):
        # population regression of Y on X2: slope (2*0.5 + 1)/1 = 2
        d = sample(benchmark_phenomenon, 10000, seed=14)
        h = subset_model(OLS, d, MSE, (1,))
        slope, se = h.params["coef"][0], h.metadata["coef_se"][0]
        assert abs(slope - 2.0) <= 2 * se

    def test_cache_returns_same_handle(self, benchmark_phenomenon):
        clear_caches()
        d = sample(benchmark_phenomenon, 100, seed=15)
        h1 = subset_model(OLS, d, MSE, (0,))
        h2 = subset_model(OLS, d, MSE, (0,))
        assert h1 is h2

    def test_cache_concurrent_insert_or_get(self, benchmark_phenomenon):
        from concurrent.futures import ThreadPoolExecutor
        clear_caches()
        d = sample(benchmark_phenomenon, 500, seed=16)
        with ThreadPoolExecutor(max_workers=8) as pool:
            handles = list(pool.map(lambda _: subset_model(OLS, d, MSE, (0, 1)),
                                    range(32)))
        assert all(h is handles[0] for h in handles)

    def test_cache_is_bounded(self, benchmark_phenomenon):
        from descry.models import SUBSET_CACHE_SIZE, _subset_cache
        clear_caches()
        # ten datasets times four subsets: 40 distinct refits
        for seed in range(10):
            d = sample(benchmark_phenomenon, 50, seed=seed)
            for subset in [(), (0,), (1,), (0, 1)]:
                subset_model(OLS, d, MSE, subset)
        assert len(_subset_cache) == SUBSET_CACHE_SIZE

    def test_cpfi_replicate_refits_skip_the_cache(self, benchmark_phenomenon):
        from descry import CIConfig, ResamplePlan, ci_combined
        from descry.descriptors import DescriptorSpec
        from descry.models import _risk_cache, _subset_cache
        clear_caches()
        d = sample(benchmark_phenomenon, 100, seed=17)
        plan = ResamplePlan(method="subsample", fraction=0.5, replicates=20, seed=1)
        cfg = CIConfig(ee_replicates=20, me_replicates=20, resample_plan=plan)
        ci_combined(OLS, d, DescriptorSpec(question="cpfi", feature=0), cfg)
        # the point estimate's refits are trained like the replicates' ones
        assert len(_subset_cache) == 0
        assert len(_risk_cache) == 0

    def test_exact_shapley_refits_stay_cached(self):
        from unittest import mock
        from descry import models, sage, shapley_local
        # 5 features: 32 subsets, as many as the cache keeps
        rng = np.random.default_rng(19)
        x = rng.normal(size=(150, 5))
        d = Dataset(features=[FeatureSpec(name=f"x{j}", kind="numeric") for j in range(5)],
                    target=FeatureSpec(name="y", kind="numeric"), rows=x,
                    targets=x.sum(axis=1) + rng.normal(size=150), provenance="observed")
        clear_caches()
        sage(OLS, d, d, MSE)
        with mock.patch.object(models, "train", wraps=models.train) as refit:
            shapley_local(OLS, d, d, list(np.median(x, axis=0)))
        assert refit.call_count == 0


class TestEncoding:
    def test_one_hot_round_trip(self):
        features = [FeatureSpec(name="c", kind="categorical", categories=("a", "b", "c")),
                    FeatureSpec(name="n", kind="numeric")]
        rows = np.array([["a", 1.0], ["c", 2.0]], dtype=object)
        enc = build_encoder(features, rows)
        design = encode(rows, enc, features)
        assert design.shape == (2, 4)
        assert design[0].tolist() == [1.0, 0.0, 0.0, 1.0]
        assert design[1].tolist() == [0.0, 0.0, 1.0, 2.0]
