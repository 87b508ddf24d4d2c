import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import descry
from descry.cli import build_parser, main
from descry.descriptors import QUESTIONS
from descry._util import canonical_json


def file_hashes(directory, suffixes=(".json", ".csv")):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(suffixes):
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def phenomenon_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "lg.json"
    path.write_text(json.dumps({
        "kind": "linear_gaussian", "mu": [0, 0], "sigma": [[1, 0.5], [0.5, 1]],
        "beta": [2, 1], "beta0": 0.0, "noise_sd": 1.0}))
    return str(path)


@pytest.fixture(scope="module")
def simulated(tmp_path_factory, phenomenon_spec):
    out = str(tmp_path_factory.mktemp("runs") / "sim")
    assert main(["simulate", "--spec", phenomenon_spec, "--k", "2000",
                 "--seed", "7", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, simulated):
    out = str(tmp_path_factory.mktemp("runs") / "model")
    assert main(["train", "--data", os.path.join(simulated, "dataset.json"),
                 "--learner", "ols", "--out", out]) == 0
    return out


class TestSimulate:
    def test_outputs(self, simulated):
        for name in ("dataset.json", "dataset.csv", "manifest.json"):
            assert os.path.exists(os.path.join(simulated, name))
        manifest = json.load(open(os.path.join(simulated, "manifest.json")))
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7

    def test_byte_identical_rerun(self, tmp_path, phenomenon_spec):
        out = str(tmp_path / "sim")
        argv = ["simulate", "--spec", phenomenon_spec, "--k", "500",
                "--seed", "3", "--out", out]
        assert main(argv) == 0
        first = file_hashes(out)
        assert main(argv) == 0
        assert file_hashes(out) == first


class TestTrain:
    def test_knn_on_mixed_types(self, tmp_path):
        data_path = tmp_path / "mixed.json"
        data_path.write_text(json.dumps({
            "schema": {"features": [{"name": "x", "kind": "numeric"},
                                    {"name": "c", "kind": "categorical",
                                     "categories": ["a", "b"]}],
                       "target": {"name": "y", "kind": "numeric"}},
            "provenance": "observed", "seed": None,
            "rows": [[float(i), "ab"[i % 2]] for i in range(12)],
            "targets": [float(i % 3) for i in range(12)]}))
        out = str(tmp_path / "knn")
        assert main(["train", "--data", str(data_path), "--learner", "knn",
                     "--out", out]) == 0
        training = json.load(open(os.path.join(out, "training.json")))
        assert training["train_epe"] >= 0.0

    def test_training_json_lists_every_config_field(self, trained):
        """training.json's config block holds every LearnerConfig field, and
        nothing else, with hidden as a list."""
        text = open(os.path.join(trained, "training.json")).read()
        config = {"learner": "ols", "seed": 0, "knn_k": 5,
                  "distance": "euclidean_standardized", "hidden": [32, 16, 8],
                  "learning_rate": 0.01, "lr_decay": 0.5, "epochs": 300, "batch_size": 32}
        assert text == canonical_json(dict(json.loads(text), config=config)) + "\n"


class TestMlpOptions:
    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory, phenomenon_spec):
        out = str(tmp_path_factory.mktemp("runs") / "small")
        assert main(["simulate", "--spec", phenomenon_spec, "--k", "400",
                     "--seed", "3", "--out", out]) == 0
        return os.path.join(out, "dataset.json")

    @pytest.mark.parametrize("flag, value, field", [
        ("--hidden", "0", "hidden"), ("--epochs", "-3", "epochs"),
        ("--batch-size", "0", "batch_size"), ("--learning-rate", "nan", "learning_rate"),
        ("--lr-decay", "0", "lr_decay")])
    def test_invalid_value_is_runtime_error(self, tmp_path, small, flag, value, field):
        out = str(tmp_path / "mlp")
        assert main(["train", "--data", small, "--learner", "mlp", "--epochs", "2",
                     flag, value, "--out", out]) == 1
        error = json.load(open(os.path.join(out, "error.json")))
        assert error["error"] == "ValueError"
        assert field in error["message"]

    @pytest.mark.parametrize("hidden", ["8,a", "8.5", ""])
    def test_malformed_hidden_names_its_flag(self, tmp_path, small, hidden):
        out = str(tmp_path / "mlp")
        assert main(["train", "--data", small, "--learner", "mlp", "--hidden", hidden,
                     "--out", out]) == 1
        error = json.load(open(os.path.join(out, "error.json")))
        assert error["error"] == "ValueError"
        assert error["message"] == f"--hidden takes comma-separated int values, got {hidden!r}"

    def test_diverging_training_writes_a_finite_model(self, tmp_path, small):
        out = str(tmp_path / "mlp")
        # at this rate the first epochs overflow to inf or NaN
        assert main(["train", "--data", small, "--learner", "mlp", "--epochs", "40",
                     "--learning-rate", "1e6", "--out", out]) == 0
        model = json.load(open(os.path.join(out, "model.json")))
        values = [v for key in ("weights", "biases") for a in model["params"][key]
                  for v in np.ravel(a).tolist()] + model["metadata"]["loss_history"]
        assert all(isinstance(v, float) and np.isfinite(v) for v in values)


class TestDescribe:
    def test_cpdp_outputs(self, tmp_path, simulated, trained):
        out = str(tmp_path / "cpdp")
        assert main(["describe", "--question", "cpdp",
                     "--model", os.path.join(trained, "model.json"),
                     "--data", os.path.join(simulated, "dataset.json"),
                     "--feature", "x1", "--out", out]) == 0
        for name in ("result.json", "curve.csv", "plot.svg",
                     "sparse_regions.json", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))
        svg = open(os.path.join(out, "plot.svg")).read()
        assert "<polyline" in svg and 'class="rug"' in svg

    @pytest.mark.parametrize("question", ["cpdp", "ice"])
    def test_spec_records_max_points(self, tmp_path, simulated, trained, question):
        out = str(tmp_path / question)
        assert main(["describe", "--question", question,
                     "--model", os.path.join(trained, "model.json"),
                     "--data", os.path.join(simulated, "dataset.json"),
                     "--feature", "x1", "--instance", "[0.1, -0.2]",
                     "--max-points", "7", "--out", out]) == 0
        result = json.load(open(os.path.join(out, "result.json")))
        assert result["spec"]["max_points"] == 7
        assert len(result["curve"]) + len(result["diagnostics"].get(
            "dropped_grid_points", result["diagnostics"].get("off_support_grid_points"))) == 7

    def test_sage_with_refits(self, tmp_path, simulated):
        out = str(tmp_path / "sage")
        data = os.path.join(simulated, "dataset.json")
        assert main(["describe", "--question", "sage", "--train-data", data,
                     "--data", data, "--learner", "ols", "--out", out]) == 0
        result = json.load(open(os.path.join(out, "result.json")))
        assert len(result["attribution"]) == 2

    def test_counterfactual(self, tmp_path, simulated, trained):
        out = str(tmp_path / "cf")
        assert main(["describe", "--question", "counterfactual_local",
                     "--model", os.path.join(trained, "model.json"),
                     "--data", os.path.join(simulated, "dataset.json"),
                     "--instance", "[0.1, -0.2]", "--y-rel", "2.0",
                     "--lambda", "0.5", "--out", out]) == 0
        result = json.load(open(os.path.join(out, "result.json")))
        assert "point" in result and "gower_distance" in result["point"]

    def test_determinism_including_svg(self, tmp_path, simulated, trained):
        out = str(tmp_path / "det")
        argv = ["describe", "--question", "cpdp",
                "--model", os.path.join(trained, "model.json"),
                "--data", os.path.join(simulated, "dataset.json"),
                "--feature", "x1", "--out", out]
        assert main(argv) == 0
        first = file_hashes(out, suffixes=(".json", ".csv", ".svg"))
        assert main(argv) == 0
        assert file_hashes(out, suffixes=(".json", ".csv", ".svg")) == first

    def test_csv_cells_read_back_as_the_curve(self, tmp_path):
        """Labels holding a comma, a quote or a line break are quoted cells."""
        labels = ["a,b", 'q"r', "s\nt"]
        data_path = tmp_path / "labels.json"
        data_path.write_text(json.dumps({
            "schema": {"features": [{"name": "x", "kind": "numeric"},
                                    {"name": "c", "kind": "categorical", "categories": labels}],
                       "target": {"name": "y", "kind": "numeric"}},
            "provenance": "observed", "seed": None,
            "rows": [[float(i % 7), labels[i % 3]] for i in range(60)],
            "targets": [float(i % 7) + i % 3 for i in range(60)]}))
        model = str(tmp_path / "model")
        assert main(["train", "--data", str(data_path), "--out", model]) == 0
        out = str(tmp_path / "cpdp")
        assert main(["describe", "--question", "cpdp", "--model",
                     os.path.join(model, "model.json"), "--data", str(data_path),
                     "--feature", "c", "--out", out]) == 0
        result = json.load(open(os.path.join(out, "result.json")))
        with open(os.path.join(out, "curve.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["grid", "estimate", "group_size", "stderr"]
        assert [[v, float(e), int(g)] for v, e, g, _ in rows[1:]] == result["curve"]
        assert [float(s) for *_, s in rows[1:]] == result["diagnostics"]["stderr"]
        assert [v for v, *_ in rows[1:]] == labels

    def test_svg_labels_are_escaped(self, tmp_path):
        from xml.dom import minidom
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 2))
        data_path = tmp_path / "amp.json"
        data_path.write_text(json.dumps({
            "schema": {"features": [{"name": "x&<1", "kind": "numeric"},
                                    {"name": "z", "kind": "numeric"}],
                       "target": {"name": "y", "kind": "numeric"}},
            "provenance": "observed", "seed": None,
            "rows": x.tolist(), "targets": (2 * x[:, 0] + x[:, 1]).tolist()}))
        model = str(tmp_path / "model")
        assert main(["train", "--data", str(data_path), "--out", model]) == 0
        out = str(tmp_path / "cpdp")
        assert main(["describe", "--question", "cpdp", "--model",
                     os.path.join(model, "model.json"), "--data", str(data_path),
                     "--feature", "x&<1", "--max-points", "6", "--out", out]) == 0
        doc = minidom.parse(os.path.join(out, "plot.svg"))
        texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
        assert "x&<1" in texts and "cpdp" in texts


class TestDescribeRefusals:
    """Invalid or missing describe inputs exit 1 with an error.json that
    names the field or flag."""

    @staticmethod
    def refused(out, argv, named):
        assert main(argv + ["--out", out]) == 1
        error = json.load(open(os.path.join(out, "error.json")))
        assert error["error"] == "ValueError"
        assert named in error["message"]
        assert not os.path.exists(os.path.join(out, "result.json"))

    @pytest.mark.parametrize("count", ["0", "1", "-5"])
    def test_too_few_mc_permutations(self, tmp_path, simulated, count):
        data = os.path.join(simulated, "dataset.json")
        self.refused(str(tmp_path / "sage"), [
            "describe", "--question", "sage", "--train-data", data, "--data", data,
            "--learner", "ols", "--mode", "permutation_mc", "--mc-permutations", count],
            "mc_permutations")

    @pytest.mark.parametrize("question, flag, value, named", [
        ("relevant_value_global", "--y-rel", "nan", "y_rel"),
        ("counterfactual_local", "--y-rel", "inf", "y_rel"),
        ("counterfactual_local", "--lambda", "nan", "lambda"),
        ("cpdp", "--band", "nan", "band"),
        ("cpdp", "--band", "-0.5", "band")])
    def test_non_finite_or_negative_value(self, tmp_path, simulated, trained,
                                          question, flag, value, named):
        argv = ["describe", "--question", question,
                "--model", os.path.join(trained, "model.json"),
                "--data", os.path.join(simulated, "dataset.json"), "--feature", "x1",
                "--instance", "[0.1, -0.2]", "--y-rel", "2.0", "--lambda", "0.5"]
        self.refused(str(tmp_path / question), argv + [flag, value], named)

    @pytest.mark.parametrize("question, dropped", [
        ("cpdp", "--model"), ("cpdp", "--feature"),
        ("ice", "--model"), ("ice", "--feature"), ("ice", "--instance"),
        ("cpfi", "--train-data"), ("cpfi", "--feature"),
        ("sage", "--train-data"),
        ("shapley_local", "--train-data"), ("shapley_local", "--instance"),
        ("local_conditional_contribution", "--train-data"),
        ("local_conditional_contribution", "--feature"),
        ("local_conditional_contribution", "--instance"),
        ("local_conditional_contribution", "--observed-y"),
        ("relevant_value_global", "--model"), ("relevant_value_global", "--y-rel"),
        ("counterfactual_local", "--model"), ("counterfactual_local", "--instance"),
        ("counterfactual_local", "--y-rel"), ("counterfactual_local", "--lambda")])
    def test_missing_input_names_its_flag(self, tmp_path, simulated, trained,
                                          question, dropped):
        flags = {"--model": os.path.join(trained, "model.json"),
                 "--train-data": os.path.join(simulated, "dataset.json"),
                 "--feature": "x1", "--instance": "[0.1, -0.2]", "--observed-y": "0.0",
                 "--y-rel": "2.0", "--lambda": "0.5"}
        del flags[dropped]
        argv = ["describe", "--question", question, "--learner", "ols",
                "--data", os.path.join(simulated, "dataset.json")]
        for flag, value in flags.items():
            argv += [flag, value]
        self.refused(str(tmp_path / question), argv, f"{question} needs {dropped}")

    @pytest.mark.parametrize("question, message", [
        ("cpdp", "cpdp needs --model, --feature"),
        ("ice", "ice needs --model, --feature, --instance"),
        ("cpfi", "cpfi needs --train-data, --feature"),
        ("sage", "sage needs --train-data"),
        ("shapley_local", "shapley_local needs --train-data, --instance"),
        ("local_conditional_contribution", "local_conditional_contribution needs "
                                           "--train-data, --feature, --instance, --observed-y"),
        ("relevant_value_global", "relevant_value_global needs --model, --y-rel"),
        ("counterfactual_local", "counterfactual_local needs --model, --instance, --y-rel, "
                                 "--lambda")])
    def test_every_input_missing_names_them_in_flag_order(self, tmp_path, simulated,
                                                          question, message):
        out = str(tmp_path / question)
        self.refused(out, ["describe", "--question", question,
                           "--data", os.path.join(simulated, "dataset.json")], message)
        assert json.load(open(os.path.join(out, "error.json")))["message"] == message

    @pytest.mark.parametrize("question, flag, value, named", [
        ("sage", "--band", "nan", "band must be a finite non-negative number, got nan"),
        ("ice", "--band", "-0.5", "band must be a finite non-negative number, got -0.5"),
        ("cpfi", "--y-rel", "inf", "y_rel must be a finite number, got inf"),
        ("cpdp", "--lambda", "-1", "lambda must be non-negative, got -1.0"),
        ("relevant_value_global", "--lambda", "nan", "lambda must be a finite number, got nan"),
        ("counterfactual_local", "--mc-permutations", "1",
         "mc_permutations must be at least 2, got 1")])
    def test_malformed_value_is_refused_when_the_question_does_not_read_it(
            self, tmp_path, simulated, trained, question, flag, value, named):
        data = os.path.join(simulated, "dataset.json")
        out = str(tmp_path / question)
        self.refused(out, [
            "describe", "--question", question, "--learner", "ols", "--data", data,
            "--train-data", data, "--model", os.path.join(trained, "model.json"),
            "--feature", "x1", "--instance", "[0.1, -0.2]", "--y-rel", "2.0",
            "--lambda", "0.5", flag, value], named)
        assert json.load(open(os.path.join(out, "error.json")))["message"] == named

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_observed_y(self, tmp_path, simulated, value):
        data = os.path.join(simulated, "dataset.json")
        self.refused(str(tmp_path / "lcc"), [
            "describe", "--question", "local_conditional_contribution", "--learner", "ols",
            "--train-data", data, "--data", data, "--feature", "x1",
            "--instance", "[0.1, -0.2]", "--observed-y", value], "observed_y")

    @pytest.mark.parametrize("question", ["ice", "shapley_local",
                                          "local_conditional_contribution",
                                          "counterfactual_local"])
    def test_instance_of_the_wrong_length(self, tmp_path, simulated, trained, question):
        data = os.path.join(simulated, "dataset.json")
        self.refused(str(tmp_path / question), [
            "describe", "--question", question, "--learner", "ols", "--data", data,
            "--train-data", data, "--model", os.path.join(trained, "model.json"),
            "--feature", "x1", "--instance", "[0]", "--observed-y", "0.0",
            "--y-rel", "2.0", "--lambda", "0.5"],
            "instance has 1 values, but the data has 2 features")

    @pytest.mark.parametrize("question", ["ice", "shapley_local",
                                          "local_conditional_contribution",
                                          "counterfactual_local"])
    @pytest.mark.parametrize("instance, named", [
        ("[true, -0.2]", "instance value True of feature 'x1' is not a number"),
        ('["0.1", -0.2]', "instance value '0.1' of feature 'x1' is not a number"),
        ("[null, -0.2]", "instance value None of feature 'x1' is not a number"),
        ("[0.1, [-0.2]]", "instance value [-0.2] of feature 'x2' is not a number")])
    def test_instance_cell_that_is_not_a_number(self, tmp_path, simulated, trained,
                                                question, instance, named):
        data = os.path.join(simulated, "dataset.json")
        out = str(tmp_path / question)
        self.refused(out, [
            "describe", "--question", question, "--learner", "ols", "--data", data,
            "--train-data", data, "--model", os.path.join(trained, "model.json"),
            "--feature", "x1", "--instance", instance, "--observed-y", "0.0",
            "--y-rel", "2.0", "--lambda", "0.5"], named)
        assert json.load(open(os.path.join(out, "error.json")))["message"] == named

    @pytest.mark.parametrize("command", [
        ["describe", "--question", "cpdp"],
        ["uncertainty", "--question", "cpdp", "--mode", "ee", "--ee-replicates", "20"]])
    def test_model_that_is_a_dataset(self, tmp_path, simulated, command):
        data = os.path.join(simulated, "dataset.json")
        self.refused(str(tmp_path / command[0]), command + [
            "--data", data, "--model", data, "--feature", "x1"],
            f"--model {data} is not a model file: it has no key 'input_schema'")

    @pytest.mark.parametrize("value", ['"abc"', "5", "@{data}", "null", ""])
    def test_instance_that_is_not_an_array(self, tmp_path, simulated, trained, value):
        data = os.path.join(simulated, "dataset.json")
        value = value.format(data=data)
        message = f"--instance takes a JSON array, or @file.json holding one, got {value}"
        out = str(tmp_path / "ice")
        self.refused(out, [
            "describe", "--question", "ice", "--data", data, "--feature", "x1",
            "--model", os.path.join(trained, "model.json"), "--instance", value], message)
        assert json.load(open(os.path.join(out, "error.json")))["message"] == message

    @pytest.mark.parametrize("question", ["cpfi", "cpdp"])
    @pytest.mark.parametrize("feature", ["2", "7", "-1"])
    def test_feature_index_outside_the_features(self, tmp_path, simulated, trained,
                                                question, feature):
        data = os.path.join(simulated, "dataset.json")
        self.refused(str(tmp_path / question), [
            "describe", "--question", question, "--train-data", data, "--data", data,
            "--model", os.path.join(trained, "model.json"), "--learner", "ols",
            "--feature", feature], f"feature index {feature} is outside 0..1 of 2 features")


class TestUncertaintyRefusals:
    """A missing flag or an out-of-range feature exits 1 with an error.json
    naming it, before any report is written; a question or flag uncertainty
    does not take is a usage error."""

    @pytest.mark.parametrize("question, mode, dropped, named", [
        ("cpdp", "combined", "--feature", "cpdp needs --feature"),
        ("cpfi", "combined", "--feature", "cpfi needs --feature"),
        ("cpdp", "ee", "--model", "--mode ee needs --model"),
        ("cpfi", "ee", "--model", "use --mode combined")])
    def test_missing_input_names_its_flag(self, tmp_path, simulated, trained,
                                          question, mode, dropped, named):
        flags = {"--model": os.path.join(trained, "model.json"), "--feature": "x1"}
        del flags[dropped]
        argv = ["uncertainty", "--question", question, "--mode", mode,
                "--data", os.path.join(simulated, "dataset.json"),
                "--ee-replicates", "20", "--me-replicates", "20"]
        for flag, value in flags.items():
            argv += [flag, value]
        TestDescribeRefusals.refused(str(tmp_path / question), argv, named)
        assert not os.path.exists(os.path.join(str(tmp_path / question), "report.json"))

    @pytest.mark.parametrize("extra, named", [
        (["--question", "relevant_value_global"],
         "argument --question: invalid choice: 'relevant_value_global' "
         "(choose from 'cpdp', 'cpfi')"),
        (["--y-rel", "1"], "unrecognized arguments: --y-rel 1")], ids=["question", "y-rel"])
    def test_relevant_value_intervals_are_usage_errors(self, tmp_path, simulated, trained,
                                                       capsys, extra, named):
        """relevant_value_global has no intervals, and no interval reads --y-rel."""
        out = str(tmp_path / "rvg")
        with pytest.raises(SystemExit) as err:
            main(["uncertainty", "--mode", "ee", "--model", os.path.join(trained, "model.json"),
                  "--data", os.path.join(simulated, "dataset.json"), "--feature", "x1",
                  "--ee-replicates", "20", *extra, "--out", out])
        assert err.value.code == 2
        assert named in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("y_rel", [None, 2.0], ids=["null", "number"])
    def test_a_manifest_that_holds_y_rel_still_replays(self, tmp_path, simulated, trained,
                                                       y_rel):
        """An uncertainty manifest written while uncertainty took --y-rel holds
        "y_rel"; its replay drops the flag and writes the same report."""
        out, again = str(tmp_path / "first"), str(tmp_path / "again")
        assert main(["uncertainty", "--question", "cpdp", "--mode", "ee",
                     "--model", os.path.join(trained, "model.json"),
                     "--data", os.path.join(simulated, "dataset.json"), "--feature", "x1",
                     "--ee-replicates", "20", "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert "y_rel" not in manifest["config"]
        manifest["config"].update(y_rel=y_rel, out=again)
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert main(["--config", str(old)]) == 0
        written = file_hashes(out)
        del written["manifest.json"]
        assert {name: file_hashes(again)[name] for name in written} == written
        assert "report.json" in written
        assert "y_rel" not in json.load(open(os.path.join(again, "manifest.json")))["config"]

    @pytest.mark.parametrize("mode, flag, named", [
        ("combined", "--me-replicates", "array is too big"),
        ("combined", "--ee-replicates", "array is too big"),
        ("ee", "--ee-replicates", "Unable to allocate")])
    def test_absurd_replicate_count_fails_fast(self, tmp_path, simulated, trained,
                                               mode, flag, named):
        """The replicates' arrays are allocated before their seeds are
        derived, so a count no machine holds fails at once."""
        out = str(tmp_path / "absurd")
        argv = ["uncertainty", "--question", "cpdp", "--mode", mode, "--feature", "x1",
                "--data", os.path.join(simulated, "dataset.json"),
                "--model", os.path.join(trained, "model.json"),
                flag, "100000000000000000", "--out", out]
        src = os.path.dirname(os.path.dirname(os.path.abspath(descry.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-m", "descry", *argv], env=env,
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 1
        assert named in json.load(open(os.path.join(out, "error.json")))["message"]

    def test_feature_index_outside_the_features(self, tmp_path, simulated):
        TestDescribeRefusals.refused(str(tmp_path / "cpfi"), [
            "uncertainty", "--question", "cpfi", "--mode", "combined",
            "--data", os.path.join(simulated, "dataset.json"), "--feature", "7"],
            "feature index 7 is outside 0..1 of 2 features")


class TestUncertainty:
    def test_ee_mode(self, tmp_path, simulated, trained):
        out = str(tmp_path / "unc_ee")
        assert main(["uncertainty", "--question", "cpdp", "--mode", "ee",
                     "--model", os.path.join(trained, "model.json"),
                     "--data", os.path.join(simulated, "dataset.json"),
                     "--feature", "x1", "--ee-replicates", "25",
                     "--max-points", "8", "--out", out]) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["assumptions"]["unbiased_learner_assumed"] is False
        assert "ci_me_ee" not in report
        csv_head = open(os.path.join(out, "report.csv")).readline().strip()
        assert csv_head == "grid,estimate,ci_ee_lo,ci_ee_hi"

    def test_combined_mode_svg_has_two_dashed_bands(self, tmp_path, simulated):
        out = str(tmp_path / "unc_comb")
        assert main(["uncertainty", "--question", "cpdp", "--mode", "combined",
                     "--data", os.path.join(simulated, "dataset.json"),
                     "--learner", "ols", "--feature", "x1",
                     "--ee-replicates", "20", "--me-replicates", "20",
                     "--resample", "subsample", "--max-points", "8",
                     "--out", out]) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["assumptions"]["unbiased_learner_assumed"] is True
        assert report["assumptions"]["resampling_overlap_warning"] is True
        svg = open(os.path.join(out, "plot.svg")).read()
        assert svg.count("stroke-dasharray") == 2   # nested dashed bands

    @pytest.mark.parametrize("question", ["cpdp", "cpfi"])
    def test_an_in_process_run_leaves_every_cache_empty(self, tmp_path, simulated, question):
        """The interval's draws and refits are not kept once its report is written."""
        from descry import _util
        assert main(["uncertainty", "--question", question, "--mode", "combined",
                     "--data", os.path.join(simulated, "dataset.json"),
                     "--learner", "ols", "--feature", "x1",
                     "--ee-replicates", "20", "--me-replicates", "20",
                     "--out", str(tmp_path / question)]) == 0
        assert _util._caches and not any(_util._caches)

    @pytest.mark.parametrize("mode", ["ee", "combined"])
    def test_categorical_feature(self, tmp_path, mode):
        data_path = tmp_path / "mixed.json"
        data_path.write_text(json.dumps({
            "schema": {"features": [{"name": "x", "kind": "numeric"},
                                    {"name": "c", "kind": "categorical",
                                     "categories": ["a", "b"]}],
                       "target": {"name": "y", "kind": "numeric"}},
            "provenance": "observed", "seed": None,
            "rows": [[float(i % 7), "ab"[i % 2]] for i in range(80)],
            "targets": [float(i % 7) + 2.0 * (i % 2) for i in range(80)]}))
        model = str(tmp_path / "model")
        assert main(["train", "--data", str(data_path), "--out", model]) == 0
        out = str(tmp_path / mode)
        assert main(["uncertainty", "--question", "cpdp", "--mode", mode,
                     "--model", os.path.join(model, "model.json"), "--data", str(data_path),
                     "--feature", "c", "--ee-replicates", "20", "--me-replicates", "20",
                     "--out", out]) == 0
        lines = open(os.path.join(out, "report.csv")).read().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["a", "b"]
        assert not os.path.exists(os.path.join(out, "plot.svg"))
        assert json.load(open(os.path.join(out, "report.json")))["grid"] == ["a", "b"]

    def test_subsample_of_everything_is_runtime_error(self, tmp_path, simulated):
        out = str(tmp_path / "unc")
        assert main(["uncertainty", "--question", "cpdp", "--mode", "combined",
                     "--data", os.path.join(simulated, "dataset.json"), "--feature", "x1",
                     "--resample", "subsample", "--fraction", "1.0",
                     "--out", out]) == 1
        error = json.load(open(os.path.join(out, "error.json")))
        assert error == {"error": "ValueError", "module": "data", "operation": "uncertainty",
                         "message": "subsample fraction must be below 1"}

    def test_insufficient_replicates_is_runtime_error(self, tmp_path, simulated, trained):
        out = str(tmp_path / "unc_bad")
        code = main(["uncertainty", "--question", "cpdp", "--mode", "ee",
                     "--model", os.path.join(trained, "model.json"),
                     "--data", os.path.join(simulated, "dataset.json"),
                     "--feature", "x1", "--ee-replicates", "5", "--out", out])
        assert code == 1
        error = json.load(open(os.path.join(out, "error.json")))
        assert error["error"] == "InsufficientReplicates"
        assert error["module"] == "uncertainty"


class TestReport:
    def test_summary_document(self, tmp_path, simulated, trained):
        cpdp_dir = str(tmp_path / "cpdp")
        main(["describe", "--question", "cpdp",
              "--model", os.path.join(trained, "model.json"),
              "--data", os.path.join(simulated, "dataset.json"),
              "--feature", "x1", "--out", cpdp_dir])
        out = str(tmp_path / "summary")
        assert main(["report", cpdp_dir, simulated, "--out", out]) == 0
        text = open(os.path.join(out, "report.md")).read()
        assert "## cpdp" in text
        assert "| grid | estimate |" in text

    def test_plot_of_an_earlier_run_is_not_drawn(self, tmp_path, simulated, trained):
        # a sage run leaves the plot.svg of the cpdp run before it in the same directory
        run_dir = str(tmp_path / "run")
        data = os.path.join(simulated, "dataset.json")
        assert main(["describe", "--question", "cpdp", "--model",
                     os.path.join(trained, "model.json"), "--data", data,
                     "--feature", "x1", "--out", run_dir]) == 0
        assert main(["describe", "--question", "sage", "--train-data", data,
                     "--data", data, "--learner", "ols", "--out", run_dir]) == 0
        assert os.path.exists(os.path.join(run_dir, "plot.svg"))
        out = str(tmp_path / "summary")
        assert main(["report", run_dir, "--out", out]) == 0
        text = open(os.path.join(out, "report.md")).read()
        assert "## sage" in text
        assert "plot.svg" not in text

    def test_sparsity_warning_section(self, tmp_path, trained):
        # dataset with one value too rare to form a group
        rows = [[1.0, 0.0]] * 30 + [[2.0, 0.0]] * 30 + [[3.0, 0.0]] * 3
        data_path = tmp_path / "sparse.json"
        data_path.write_text(json.dumps({
            "schema": {"features": [{"name": "x1", "kind": "integer"},
                                    {"name": "x2", "kind": "numeric"}],
                       "target": {"name": "y", "kind": "numeric"}},
            "provenance": "observed", "seed": None,
            "rows": rows, "targets": [0.0] * 63}))
        run_dir = str(tmp_path / "run")
        assert main(["describe", "--question", "cpdp",
                     "--model", os.path.join(trained, "model.json"),
                     "--data", str(data_path), "--feature", "x1",
                     "--out", run_dir]) == 0
        sparse = json.load(open(os.path.join(run_dir, "sparse_regions.json")))
        assert sparse["dropped_grid_points"] == [{"grid_point": 3.0, "members": 3}]
        out = str(tmp_path / "summary")
        assert main(["report", run_dir, "--out", out]) == 0
        text = open(os.path.join(out, "report.md")).read()
        assert "## Sparsity warnings" in text
        assert "grid point(s) dropped" in text

    def test_missing_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = str(tmp_path / "summary")
        assert main(["report", str(empty), "--out", out]) == 1

    @pytest.mark.parametrize("name", ["manifest.json", "result.json", "report.json"])
    def test_run_file_that_does_not_parse_is_refused_by_its_path(self, tmp_path, name):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(
            json.dumps({"command": "describe", "config": {"question": "cpdp"}}))
        (run_dir / name).write_text('{"schema": [0.1,')
        out = str(tmp_path / "summary")
        assert main(["report", str(run_dir), "--out", out]) == 1
        assert json.load(open(os.path.join(out, "error.json"))) == {
            "error": "ValueError", "module": "cli", "operation": "report",
            "message": f"run file {run_dir / name} is not valid JSON: "
                       "Expecting value: line 1 column 17 (char 16)"}


    @pytest.mark.parametrize("manifest, found", [
        ({"command": "describe"}, "it has no key 'config'"),
        ({"config": {"question": "cpdp"}}, "it has no key 'command'"),
        ({"command": "describe", "config": ["cpdp"]}, "'list' object is not a mapping")])
    def test_manifest_without_its_keys_is_refused_by_its_path(self, tmp_path, manifest, found):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        out = str(tmp_path / "summary")
        assert main(["report", str(run_dir), "--out", out]) == 1
        assert json.load(open(os.path.join(out, "error.json"))) == {
            "error": "ValueError", "module": "cli", "operation": "report",
            "message": f"run file {run_dir / 'manifest.json'} is not a manifest file: {found}"}

    @pytest.mark.parametrize("name, content, found", [
        ("result.json", {"curve": [[1, 2]]}, "'curve' is not a list of rows of 3 values"),
        ("result.json", ["curve"], "'list' object is not a mapping"),
        ("report.json", {"grid": [1.0], "point_estimates": [2.0], "ci_ee": [5]},
         "'ci_ee' is not a list of rows of 2 values"),
        ("report.json", {"grid": [1.0, 2.0], "point_estimates": [2.0], "ci_ee": [[1, 3]]},
         "'point_estimates' is not a list of one entry per grid point"),
        ("report.json", {"grid": None, "point_estimates": ["2"], "ci_ee": [[1, 3]]},
         "'2' is not a number")],
        ids=["short_curve_row", "result_list", "scalar_ci_ee", "short_estimates", "text_estimate"])
    def test_run_file_of_the_wrong_shape_is_refused_by_its_path(self, tmp_path, name, content,
                                                                found):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(
            json.dumps({"command": "describe", "config": {"question": "cpdp"}}))
        (run_dir / name).write_text(json.dumps(content))
        out = str(tmp_path / "summary")
        assert main(["report", str(run_dir), "--out", out]) == 1
        what = name.split(".")[0]
        assert json.load(open(os.path.join(out, "error.json"))) == {
            "error": "ValueError", "module": "cli", "operation": "report",
            "message": f"run file {run_dir / name} is not a {what} file: {found}"}

    def test_grid_labels_are_escaped_in_the_tables(self, tmp_path):
        data_path = tmp_path / "mixed.json"
        data_path.write_text(json.dumps({
            "schema": {"features": [{"name": "x", "kind": "numeric"},
                                    {"name": "c", "kind": "categorical",
                                     "categories": ["a|b", "c"]}],
                       "target": {"name": "y", "kind": "numeric"}},
            "provenance": "observed", "seed": None,
            "rows": [[float(i % 7), ["a|b", "c"][i % 2]] for i in range(80)],
            "targets": [float(i % 7) + 2.0 * (i % 2) for i in range(80)]}))
        model = str(tmp_path / "model")
        assert main(["train", "--data", str(data_path), "--out", model]) == 0
        common = ["--question", "cpdp", "--model", os.path.join(model, "model.json"),
                  "--data", str(data_path), "--feature", "c"]
        runs = [str(tmp_path / "cpdp"), str(tmp_path / "unc")]
        assert main(["describe", *common, "--out", runs[0]]) == 0
        assert main(["uncertainty", *common, "--mode", "ee", "--ee-replicates", "20",
                     "--out", runs[1]]) == 0
        out = str(tmp_path / "summary")
        assert main(["report", *runs, "--out", out]) == 0
        text = open(os.path.join(out, "report.md")).read()
        tables = [block.splitlines() for block in text.split("\n\n") if block.startswith("|")]
        assert len(tables) == 2
        for table in tables:
            assert len({len(re.split(r"(?<!\\)\|", row)) for row in table}) == 1
            assert [row.split(" | ")[0] for row in table[2:]] == ["| a\\|b", "| c"]


class TestRunOutcome:
    """A run directory holds the outcome of its last run: manifest.json after
    a success, error.json after a failure, never both."""

    @pytest.fixture
    def paths(self, tmp_path, phenomenon_spec, simulated, trained):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("g,y\n" + "\n".join(f"{i % 5},{i % 7}" for i in range(20)) + "\n")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps({"columns": [
            {"name": "g", "kind": "integer"}, {"name": "y", "kind": "integer"}]}))
        (tmp_path / "empty").mkdir()
        return {"SPEC": phenomenon_spec, "DATA": os.path.join(simulated, "dataset.json"),
                "MODEL": os.path.join(trained, "model.json"), "SIM": simulated,
                "CSV": str(csv_path), "SCHEMA": str(schema_path),
                "EMPTY": str(tmp_path / "empty")}

    @staticmethod
    def outcome(out):
        return {name for name in ("manifest.json", "error.json")
                if os.path.exists(os.path.join(out, name))}

    @pytest.mark.parametrize("success, failure", [
        (["simulate", "--spec", "SPEC", "--k", "50"], ["simulate", "--spec", "SPEC", "--k", "0"]),
        (["ingest", "--csv", "CSV", "--schema", "SCHEMA", "--target", "y"],
         ["ingest", "--csv", "CSV", "--schema", "SCHEMA", "--target", "y", "--drop", "g"]),
        (["train", "--data", "DATA"], ["train", "--data", "DATA", "--hidden", "a"]),
        (["describe", "--question", "cpdp", "--model", "MODEL", "--data", "DATA",
          "--feature", "x1"],
         ["describe", "--question", "cpdp", "--model", "MODEL", "--data", "DATA",
          "--feature", "9"]),
        (["uncertainty", "--mode", "ee", "--model", "MODEL", "--data", "DATA",
          "--feature", "x1", "--ee-replicates", "20"],
         ["uncertainty", "--mode", "ee", "--model", "MODEL", "--data", "DATA",
          "--feature", "x1", "--alpha", "2"]),
        (["report", "SIM"], ["report", "EMPTY"])],
        ids=["simulate", "ingest", "train", "describe", "uncertainty", "report"])
    def test_last_outcome_replaces_the_previous_one(self, tmp_path, paths, success, failure):
        out = str(tmp_path / "run")
        for argv, code, left in [(success, 0, {"manifest.json"}), (failure, 1, {"error.json"}),
                                 (success, 0, {"manifest.json"})]:
            assert main([paths.get(a, a) for a in argv] + ["--out", out]) == code
            assert self.outcome(out) == left

    def test_report_refuses_a_failed_rerun(self, tmp_path, paths):
        out = str(tmp_path / "run")
        argv = ["describe", "--question", "cpdp", "--model", paths["MODEL"],
                "--data", paths["DATA"], "--out", out]
        assert main(argv + ["--feature", "0"]) == 0
        assert main(argv + ["--feature", "9"]) == 1
        summary = str(tmp_path / "summary")
        assert main(["report", out, "--out", summary]) == 1
        error = json.load(open(os.path.join(summary, "error.json")))
        assert (error["error"], error["message"]) == (
            "MissingManifest", f"{out} has no manifest.json; its error.json records a failed run")
        assert not os.path.exists(os.path.join(summary, "report.md"))


class TestConfigFile:
    def test_flat_config_replaces_flags(self, tmp_path, phenomenon_spec):
        out = str(tmp_path / "sim")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "simulate", "spec": phenomenon_spec,
                                   "k": 111, "seed": 4, "out": out}))
        assert main(["--config", str(cfg)]) == 0
        data = json.load(open(os.path.join(out, "dataset.json")))
        assert len(data["rows"]) == 111

    def test_manifest_reruns_byte_identical(self, tmp_path, phenomenon_spec):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--spec", phenomenon_spec, "--k", "80",
                     "--seed", "2", "--out", out]) == 0
        first = file_hashes(out)
        assert main(["--config", os.path.join(out, "manifest.json")]) == 0
        assert file_hashes(out) == first

    def test_explicit_flag_overrides_config(self, tmp_path, phenomenon_spec):
        out = str(tmp_path / "sim")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "simulate", "spec": phenomenon_spec,
                                   "k": 50, "seed": 4, "out": out}))
        assert main(["--config", str(cfg), "--k", "60"]) == 0
        data = json.load(open(os.path.join(out, "dataset.json")))
        assert len(data["rows"]) == 60

    def test_config_after_its_own_command(self, tmp_path, phenomenon_spec):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--spec", phenomenon_spec, "--k", "80",
                     "--seed", "2", "--out", out]) == 0
        first = file_hashes(out)
        assert main(["simulate", "--config", os.path.join(out, "manifest.json")]) == 0
        assert file_hashes(out) == first

    def test_config_after_another_command_is_runtime_error(self, tmp_path, phenomenon_spec,
                                                           capsys):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--spec", phenomenon_spec, "--k", "80",
                     "--seed", "2", "--out", out]) == 0
        capsys.readouterr()
        assert main(["train", "--config", os.path.join(out, "manifest.json")]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["operation"] == "config" and error["error"] == "ValueError"
        assert "'simulate'" in error["message"] and "'train'" in error["message"]

    def test_config_before_its_own_command(self, tmp_path, phenomenon_spec):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--spec", phenomenon_spec, "--k", "80",
                     "--seed", "2", "--out", out]) == 0
        first = file_hashes(out)
        assert main(["--config", os.path.join(out, "manifest.json"), "simulate"]) == 0
        assert file_hashes(out) == first

    def test_config_before_another_command_is_runtime_error(self, tmp_path, phenomenon_spec,
                                                            capsys):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--spec", phenomenon_spec, "--k", "80",
                     "--seed", "2", "--out", out]) == 0
        capsys.readouterr()
        assert main(["--config", os.path.join(out, "manifest.json"), "train"]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "ValueError", "module": "cli", "operation": "config",
                         "message": "--config holds a 'simulate' run, but the command "
                                    "line asks for 'train'"}

    @pytest.mark.parametrize("content", [{"spec": "x", "k": 10}, ["command"], 5])
    def test_flat_config_without_command_is_runtime_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(content))
        assert main(["--config", str(cfg)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "ValueError", "module": "cli", "operation": "config",
                         "message": f'--config file {cfg} has no "command" key'}

    @pytest.mark.parametrize("content, key, kind", [
        ({"command": "train", "config": [1, 2]}, "config", "an object"),
        ({"command": "train", "config": None}, "config", "an object"),
        ({"command": 5}, "command", "a string"),
        ({"command": "report", "run_dirs": 5}, "run_dirs", "a list"),
        ({"command": "report", "run_dirs": "abc"}, "run_dirs", "a list")],
        ids=["config list", "config null", "command number", "run_dirs number",
             "run_dirs string"])
    def test_config_with_a_key_of_the_wrong_type_is_refused(self, tmp_path, capsys, content,
                                                            key, kind):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(content))
        assert main(["--config", str(cfg)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "ValueError", "module": "cli", "operation": "config",
                         "message": f'--config file {cfg}: "{key}" is not {kind}'}

    def test_config_without_path_is_runtime_error(self, capsys):
        assert main(["--config"]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["operation"] == "config"
        assert error["error"] == "ValueError"


class TestIngestRefusals:
    """A malformed ingest option exits 1 with an error.json that names it,
    and with the subcommand as its operation."""

    @pytest.fixture
    def tiny(self, tmp_path):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("g,h,y\n" + "\n".join(f"{i % 21},{i % 5},{i % 7}"
                                                   for i in range(40)) + "\n")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps({"columns": [
            {"name": "g", "kind": "integer"}, {"name": "h", "kind": "numeric"},
            {"name": "y", "kind": "integer"}]}))
        return ["ingest", "--csv", str(csv_path), "--schema", str(schema_path),
                "--target", "y"]

    @staticmethod
    def refused(out, argv, error, named, capsys):
        assert main(argv + ["--out", out]) == 1
        written = json.load(open(os.path.join(out, "error.json")))
        assert written["error"] == error and named in written["message"]
        assert written["operation"] == "ingest"
        assert json.loads(capsys.readouterr().err) == written
        assert not os.path.exists(os.path.join(out, "dataset.json"))
        return written

    def test_drop_keeps_the_other_columns(self, tmp_path, tiny):
        out = str(tmp_path / "dropped")
        assert main(tiny + ["--drop", "g", "--out", out]) == 0
        data = json.load(open(os.path.join(out, "dataset.json")))
        assert [f["name"] for f in data["schema"]["features"]] == ["h"]

    @pytest.mark.parametrize("drop", ["x9", "g,x9", "h,"])
    def test_drop_of_an_unknown_name(self, tmp_path, tiny, drop, capsys):
        name = drop.split(",")[-1]
        written = self.refused(str(tmp_path / "drop"), tiny + ["--drop", drop],
                               "UnknownFeature", f"no feature named {name!r}", capsys)
        assert written["module"] == "data"

    @pytest.mark.parametrize("clamp", ["5,-5", "0", "0,1,2", "nan,1", "0,inf"])
    def test_malformed_clamp(self, tmp_path, tiny, clamp, capsys):
        self.refused(str(tmp_path / "clamp"), tiny + ["--jitter", "g", "--clamp", clamp],
                     "ValueError", "clamp must be two finite numbers lo <= hi", capsys)

    @pytest.mark.parametrize("drop", ["g,h", "h,g,h"])
    def test_drop_of_every_feature(self, tmp_path, tiny, drop, capsys):
        self.refused(str(tmp_path / "drop"), tiny + ["--drop", drop], "ValueError",
                     f"--drop {drop!r} names every feature", capsys)

    @pytest.mark.parametrize("flag, value", [("--offsets", "1,x"), ("--offsets", "1,,2"),
                                             ("--clamp", "a,1")])
    def test_malformed_number_names_its_flag(self, tmp_path, tiny, flag, value, capsys):
        self.refused(str(tmp_path / "number"), tiny + ["--jitter", "g", flag, value],
                     "ValueError", f"{flag} takes comma-separated float values, got {value!r}",
                     capsys)

    @pytest.mark.parametrize("offsets", ["1,0", "1,1", "-0.0", "2,inf"])
    def test_jitter_offsets_follow_the_schema_rule(self, tmp_path, tiny, offsets, capsys):
        self.refused(str(tmp_path / "offsets"), tiny + ["--jitter", "h", "--offsets", offsets],
                     "ValueError", "feature 'h': jitter offsets must be non-empty, finite, "
                     "nonzero and distinct", capsys)

    @pytest.mark.parametrize("flags", [["--offsets", "1,x"], ["--clamp", "5,-5"],
                                       ["--offsets", "1", "--clamp", "0,1"]])
    def test_jitter_flags_without_jitter(self, tmp_path, tiny, flags, capsys):
        named = " and ".join(f for f in flags if f.startswith("--"))
        self.refused(str(tmp_path / "stray"), tiny + flags, "ValueError",
                     f"{named} given without --jitter", capsys)

    def test_unknown_center_names_the_subcommand(self, tmp_path, tiny, capsys):
        written = self.refused(str(tmp_path / "center"), tiny + ["--center", "x9"],
                               "UnknownFeature", "no feature named 'x9'", capsys)
        assert written["module"] == "data"

    def test_seed_is_no_ingest_flag(self, tmp_path, tiny, capsys):
        """ingest draws nothing, so it takes no --seed and records none."""
        out = str(tmp_path / "seeded")
        with pytest.raises(SystemExit) as err:
            main(tiny + ["--seed", "1", "--out", out])
        assert err.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not os.path.exists(out)
        assert main(tiny + ["--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["seed"] is None and "seed" not in manifest["config"]

    def test_a_manifest_that_holds_a_seed_still_replays(self, tmp_path, tiny):
        """An ingest manifest written while ingest took --seed holds "seed": 0;
        its replay drops the flag and writes the same dataset."""
        out, again = str(tmp_path / "first"), str(tmp_path / "again")
        assert main(tiny + ["--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        manifest["seed"] = manifest["config"]["seed"] = 0
        manifest["config"]["out"] = again
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert main(["--config", str(old)]) == 0
        assert file_hashes(out)["dataset.json"] == file_hashes(again)["dataset.json"]
        replayed = json.load(open(os.path.join(again, "manifest.json")))
        assert replayed["seed"] is None and "seed" not in replayed["config"]


def test_one_parser_serves_every_run(tmp_path, phenomenon_spec, monkeypatch, capsys):
    """main builds the parser once per process, and a parser that has run
    commands prints the help text a fresh one prints."""
    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    for seed in ("1", "2"):
        assert main(["simulate", "--spec", phenomenon_spec, "--k", "20", "--seed", seed,
                     "--out", str(tmp_path / seed)]) == 0
    assert built.count("descry") == 1
    monkeypatch.undo()
    build_parser.cache_clear()
    fresh = build_parser.__wrapped__()
    for command in ((), *((name,) for name in fresh.commands)):
        with pytest.raises(SystemExit):
            main([*command, "--help"])
        with pytest.raises(SystemExit):
            fresh.parse_args([*command, "--help"])
        cached, expected = capsys.readouterr().out.split("usage: descry")[1:]
        assert cached == expected


def test_question_lists_come_from_one_table():
    subs = build_parser()._subparsers._group_actions[0].choices
    choices = {command: next(a.choices for a in subs[command]._actions if a.dest == "question")
               for command in ("describe", "uncertainty")}
    assert choices["describe"] == list(QUESTIONS)
    assert choices["uncertainty"] == [q for q in QUESTIONS if QUESTIONS[q].intervals]
    assert choices["uncertainty"] == ["cpdp", "cpfi"]


class TestErrorHandling:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["describe", "--question", "not_a_question", "--data", "x.json",
                  "--out", "/tmp/nope"])
        assert err.value.code == 2

    def test_runtime_error_names_module_and_operation(self, tmp_path, simulated):
        out = str(tmp_path / "err")
        code = main(["describe", "--question", "cpdp",
                     "--model", os.path.join(simulated, "dataset.json"),  # wrong file
                     "--data", os.path.join(simulated, "dataset.json"),
                     "--feature", "zzz", "--out", out])
        assert code == 1
        error = json.load(open(os.path.join(out, "error.json")))
        assert set(error) >= {"error", "module", "operation", "message"}

    @pytest.mark.parametrize("module, argv, operation, message", [
        ("data", ["describe", "--question", "cpdp", "--model", "MODEL", "--data", "DATA",
                  "--feature", "7"], "describe", "feature index 7 is outside 0..1 of 2 features"),
        ("phenomenon", ["simulate", "--spec", "SPEC", "--k", "0"], "simulate",
         "k must be at least 1"),
        ("models", ["train", "--data", "DATA", "--learner", "mlp", "--epochs", "0"], "train",
         "epochs must be at least 1, got 0"),
        ("samplers", ["describe", "--question", "cpdp", "--model", "MODEL", "--data", "DATA",
                      "--feature", "x1", "--band", "nan"], "describe",
         "band must be a finite non-negative number, got nan"),
        ("descriptors", ["describe", "--question", "sage", "--train-data", "DATA",
                         "--data", "DATA", "--mode", "permutation_mc",
                         "--mc-permutations", "1"], "describe",
         "mc_permutations must be at least 2, got 1"),
        ("uncertainty", ["uncertainty", "--mode", "ee", "--model", "MODEL", "--data", "DATA",
                         "--feature", "x1", "--alpha", "2"], "uncertainty",
         "alpha must be in (0, 1)"),
        ("cli", ["train", "--data", "DATA", "--hidden", "a"], "train",
         "--hidden takes comma-separated int values, got 'a'")])
    def test_error_json_names_the_module_that_raised(self, tmp_path, phenomenon_spec, simulated,
                                                     trained, module, argv, operation, message):
        paths = {"SPEC": phenomenon_spec, "DATA": os.path.join(simulated, "dataset.json"),
                 "MODEL": os.path.join(trained, "model.json")}
        out = str(tmp_path / "err")
        assert main([paths.get(a, a) for a in argv] + ["--out", out]) == 1
        assert json.load(open(os.path.join(out, "error.json"))) == {
            "error": "ValueError", "module": module, "operation": operation,
            "message": message}

    @pytest.mark.parametrize("argv, flag, path, found", [
        (["describe", "--question", "cpdp", "--model", "MODEL", "--data", "MODEL",
          "--feature", "x1"], "--data", "MODEL", "dataset file: it has no key 'schema'"),
        (["describe", "--question", "cpfi", "--train-data", "MODEL", "--data", "DATA",
          "--feature", "x1"], "--train-data", "MODEL", "dataset file: it has no key 'schema'"),
        (["train", "--data", "CSV", "--schema", "DATA", "--target", "y"], "--schema", "DATA",
         "schema file: it has no key 'columns'"),
        (["simulate", "--spec", "DATA", "--k", "10"], "--spec", "DATA",
         "phenomenon file: Phenomenon.__init__() got an unexpected keyword argument "
         "'provenance'")])
    def test_file_of_the_wrong_kind_is_refused_by_its_flag(self, tmp_path, simulated, trained,
                                                           argv, flag, path, found):
        paths = {"DATA": os.path.join(simulated, "dataset.json"),
                 "CSV": os.path.join(simulated, "dataset.csv"),
                 "MODEL": os.path.join(trained, "model.json")}
        out = str(tmp_path / "err")
        assert main([paths.get(a, a) for a in argv] + ["--out", out]) == 1
        error = json.load(open(os.path.join(out, "error.json")))
        assert (error["error"], error["message"]) == \
            ("ValueError", f"{flag} {paths[path]} is not a {found}")

    @pytest.mark.parametrize("argv, flag", [
        (["describe", "--question", "cpdp", "--model", "MODEL", "--data", "BAD",
          "--feature", "x1"], "--data"),
        (["describe", "--question", "cpfi", "--train-data", "BAD", "--data", "DATA",
          "--feature", "x1"], "--train-data"),
        (["describe", "--question", "cpdp", "--model", "BAD", "--data", "DATA",
          "--feature", "x1"], "--model"),
        (["train", "--data", "CSV", "--schema", "BAD", "--target", "y"], "--schema"),
        (["simulate", "--spec", "BAD", "--k", "10"], "--spec"),
        (["describe", "--question", "ice", "--model", "MODEL", "--data", "DATA",
          "--feature", "x1", "--instance", "@BAD"], "--instance")])
    def test_json_that_does_not_parse_is_refused_by_its_flag(self, tmp_path, simulated,
                                                             trained, argv, flag):
        bad = tmp_path / "truncated.json"
        bad.write_text('{"schema": [0.1,')
        paths = {"BAD": str(bad), "@BAD": f"@{bad}",
                 "DATA": os.path.join(simulated, "dataset.json"),
                 "CSV": os.path.join(simulated, "dataset.csv"),
                 "MODEL": os.path.join(trained, "model.json")}
        out = str(tmp_path / "err")
        assert main([paths.get(a, a) for a in argv] + ["--out", out]) == 1
        assert json.load(open(os.path.join(out, "error.json"))) == {
            "error": "ValueError", "module": "cli", "operation": argv[0],
            "message": f"{flag} {bad} is not valid JSON: "
                       "Expecting value: line 1 column 17 (char 16)"}

    def test_inline_instance_that_does_not_parse_is_refused_by_its_flag(
            self, tmp_path, simulated, trained):
        out = str(tmp_path / "err")
        assert main(["describe", "--question", "ice", "--feature", "x1",
                     "--model", os.path.join(trained, "model.json"),
                     "--data", os.path.join(simulated, "dataset.json"),
                     "--instance", "[0.1,", "--out", out]) == 1
        error = json.load(open(os.path.join(out, "error.json")))
        assert (error["error"], error["message"]) == ("ValueError", (
            "--instance [0.1, is not valid JSON: Expecting value: line 1 column 6 (char 5)"))

    def test_config_that_does_not_parse_is_refused_by_its_flag(self, tmp_path, capsys):
        bad = tmp_path / "run.json"
        bad.write_text('{"command": "simulate",')
        assert main(["--config", str(bad)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "module": "cli", "operation": "config",
            "message": f"--config {bad} is not valid JSON: Expecting property name "
                       "enclosed in double quotes: line 1 column 24 (char 23)"}

    def test_non_finite_json_dataset_is_runtime_error(self, tmp_path, simulated, capsys):
        raw = json.load(open(os.path.join(simulated, "dataset.json")))
        raw["rows"][5][1] = float("inf")
        data_path = tmp_path / "inf.json"
        data_path.write_text(json.dumps(raw))  # writes the JSON extension `Infinity`
        assert "Infinity" in data_path.read_text()
        out = str(tmp_path / "err")
        assert main(["train", "--data", str(data_path), "--learner", "ols",
                     "--out", out]) == 1
        error = json.load(open(os.path.join(out, "error.json")))
        assert error["error"] == "ValueError"
        assert "non-finite value inf in row 5" in error["message"]
        assert "Traceback" not in capsys.readouterr().err


class TestStudentSchemaIngest:
    def test_ingest_with_jitter(self, tmp_path):
        # miniature two-column file: exercises delimiter, centering, jitter
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("g;y\n" + "\n".join(f"{i % 21};{i % 7}" for i in range(40)) + "\n")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps({"columns": [
            {"name": "g", "kind": "integer", "jitter_offsets": [1, -1]},
            {"name": "y", "kind": "integer"}]}))
        out = str(tmp_path / "ingested")
        assert main(["ingest", "--csv", str(csv_path), "--schema", str(schema_path),
                     "--target", "y", "--delimiter", ";", "--jitter", "g",
                     "--offsets", "1,-1", "--clamp", "0,20", "--out", out]) == 0
        data = json.load(open(os.path.join(out, "dataset.json")))
        assert len(data["rows"]) == 120
        assert data["provenance"] == "augmented"

    @pytest.mark.parametrize("schema_offsets, rows, offsets", [
        ([1, -1], 120, [1.0, -1.0]),
        (None, 280, [1.0, -1.0, 2.0, -2.0, 3.0, -3.0]),
    ])
    def test_offsets_default_to_the_schema(self, tmp_path, schema_offsets, rows, offsets):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("g,y\n" + "\n".join(f"{i % 21},{i % 7}" for i in range(40)) + "\n")
        g = {"name": "g", "kind": "integer"}
        if schema_offsets:
            g["jitter_offsets"] = schema_offsets
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps({"columns": [g, {"name": "y", "kind": "integer"}]}))
        out = str(tmp_path / "ingested")
        assert main(["ingest", "--csv", str(csv_path), "--schema", str(schema_path),
                     "--target", "y", "--jitter", "g", "--out", out]) == 0
        assert len(json.load(open(os.path.join(out, "dataset.json")))["rows"]) == rows
        report = json.load(open(os.path.join(out, "ingest_report.json")))
        assert report["jitter"]["offsets"] == offsets
        assert json.load(open(os.path.join(out, "manifest.json")))["config"]["offsets"] is None


class TestModelDataRefusal:
    """A --model is read against --data by each feature's name and categories,
    in order; numeric and integer features encode alike."""

    @pytest.fixture(scope="class")
    def reversed_data(self, tmp_path_factory, simulated):
        raw = json.load(open(os.path.join(simulated, "dataset.json")))
        raw["schema"]["features"].reverse()
        raw["rows"] = [row[::-1] for row in raw["rows"]]
        path = tmp_path_factory.mktemp("reversed") / "dataset.json"
        path.write_text(json.dumps(raw))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["describe", "--question", "cpdp", "--feature", "x1"],
        ["describe", "--question", "counterfactual_local", "--instance", "[0.1, -0.2]",
         "--y-rel", "2", "--lambda", "0.5"],
        ["uncertainty", "--mode", "ee", "--question", "cpdp", "--feature", "x1",
         "--ee-replicates", "20"]], ids=["cpdp", "counterfactual_local", "uncertainty"])
    def test_reordered_columns_are_refused(self, tmp_path, trained, reversed_data, argv):
        model = os.path.join(trained, "model.json")
        out = str(tmp_path / "run")
        assert main(argv + ["--model", model, "--data", reversed_data, "--out", out]) == 1
        assert json.load(open(os.path.join(out, "error.json"))) == {
            "error": "SchemaMismatch", "module": "cli", "operation": argv[0],
            "message": f"--model {model} reads features (x1, x2), but --data "
                       f"{reversed_data} has (x2, x1)"}
        assert sorted(os.listdir(out)) == ["error.json"]

    def test_other_categories_are_refused(self, tmp_path):
        def dataset(categories, path):
            path.write_text(json.dumps({
                "schema": {"features": [{"name": "g", "kind": "categorical",
                                         "categories": categories},
                                        {"name": "x", "kind": "numeric"}],
                           "target": {"name": "y", "kind": "numeric"}},
                "provenance": "observed", "seed": None,
                "rows": [[categories[i % 2], float(i)] for i in range(20)],
                "targets": [float(i % 3) for i in range(20)]}))
            return str(path)

        trained_on = dataset(["a", "b", "c"], tmp_path / "train.json")
        other = dataset(["a", "c", "b"], tmp_path / "other.json")
        model = str(tmp_path / "model")
        assert main(["train", "--data", trained_on, "--out", model]) == 0
        out = str(tmp_path / "run")
        model = os.path.join(model, "model.json")
        assert main(["describe", "--question", "cpdp", "--feature", "x", "--model", model,
                     "--data", other, "--out", out]) == 1
        error = json.load(open(os.path.join(out, "error.json")))
        assert (error["error"], error["message"]) == (
            "SchemaMismatch", f"--model {model} reads features (g [a, b, c], x), "
                              f"but --data {other} has (g [a, c, b], x)")

    @pytest.mark.parametrize("argv", [
        ["--question", "cpfi", "--feature", "x1"],
        ["--question", "sage"],
        ["--question", "shapley_local", "--instance", "[0.1, -0.2]"],
        ["--question", "local_conditional_contribution", "--feature", "x1",
         "--instance", "[0.1, -0.2]", "--observed-y", "0.5"]],
        ids=["cpfi", "sage", "shapley_local", "local_conditional_contribution"])
    def test_train_data_of_other_features_is_refused(self, tmp_path, simulated, reversed_data,
                                                     argv):
        # refits on --train-data are evaluated on --data's rows, read by position
        train_data = os.path.join(simulated, "dataset.json")
        out = str(tmp_path / "run")
        assert main(["describe", *argv, "--train-data", train_data, "--data", reversed_data,
                     "--out", out]) == 1
        assert json.load(open(os.path.join(out, "error.json"))) == {
            "error": "SchemaMismatch", "module": "cli", "operation": "describe",
            "message": f"--train-data {train_data} has features (x1, x2), but --data "
                       f"{reversed_data} has (x2, x1)"}
        assert sorted(os.listdir(out)) == ["error.json"]

    def test_a_refit_question_does_not_read_the_model(self, tmp_path, trained, reversed_data):
        out = str(tmp_path / "run")
        assert main(["describe", "--question", "sage", "--train-data", reversed_data,
                     "--data", reversed_data, "--model", os.path.join(trained, "model.json"),
                     "--out", out]) == 0


class TestReportPayloads:
    """report renders scalar and point results, and its manifest replays it."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory, simulated, trained):
        data = os.path.join(simulated, "dataset.json")
        model = os.path.join(trained, "model.json")
        argvs = {
            "cpfi": ["--train-data", data, "--feature", "x1"],
            "local_conditional_contribution": [
                "--train-data", data, "--feature", "x1", "--instance", "[0.1, -0.2]",
                "--observed-y", "0.5"],
            "relevant_value_global": ["--model", model, "--y-rel", "2.0"],
            "counterfactual_local": ["--model", model, "--instance", "[0.1, -0.2]",
                                     "--y-rel", "2.0", "--lambda", "0.5"]}
        root = tmp_path_factory.mktemp("payloads")
        dirs = {}
        for question, argv in argvs.items():
            dirs[question] = str(root / question)
            assert main(["describe", "--question", question, "--data", data, *argv,
                         "--out", dirs[question]]) == 0
        return dirs

    def test_scalar_and_point_lines(self, tmp_path, runs):
        out = str(tmp_path / "summary")
        assert main(["report", *runs.values(), "--out", out]) == 0
        text = open(os.path.join(out, "report.md")).read()
        for question, run_dir in runs.items():
            result = json.load(open(os.path.join(run_dir, "result.json")))
            line = (f"Scalar value: **{result['scalar']}**" if "scalar" in result
                    else f"Point: `{json.dumps(result['point'])}`")
            assert f"## {question}\n\n### `{run_dir}`\n\n{line}\n\n" in text
        assert "Scalar value: **" in text and "Point: `{" in text

    def test_manifest_replays_the_report_byte_identical(self, tmp_path, runs):
        out = str(tmp_path / "summary")
        assert main(["report", *runs.values(), "--out", out]) == 0
        manifest = os.path.join(out, "manifest.json")
        assert json.load(open(manifest))["config"]["run_dirs"] == list(runs.values())
        report = os.path.join(out, "report.md")
        first = open(report, "rb").read()
        os.remove(report)
        assert main(["--config", manifest]) == 0
        assert open(report, "rb").read() == first


@pytest.mark.parametrize("marginal", [
    {"family": "beta"}, {"family": "normal", "mu": 0, "sd": -1}], ids=["family", "sd"])
def test_spec_with_a_malformed_marginal_is_refused(tmp_path, marginal):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kind": "nonlinear_independent", "terms": [{"coef": 1.0, "powers": {"1": 2}}],
        "marginals": [{"family": "uniform", "low": 0, "high": 1}, marginal]}))
    out = str(tmp_path / "sim")
    assert main(["simulate", "--spec", str(spec), "--k", "10", "--out", out]) == 1
    assert json.load(open(os.path.join(out, "error.json"))) == {
        "error": "ValueError", "module": "phenomenon", "operation": "simulate",
        "message": "marginal 1 must be {family: normal, mu, sd >= 0} or {family: uniform, "
                   "low <= high} with finite numbers, got " + repr(marginal)}
    assert sorted(os.listdir(out)) == ["error.json"]
