import hashlib
import json
import os

import pytest

from descry.cli import main


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

    def test_config_without_path_is_runtime_error(self, capsys):
        assert main(["--config"]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["operation"] == "config"
        assert error["error"] == "ValueError"


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
