import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from descry import (
    Dataset, FeatureSpec, LearnerConfig, LossFunction, ResamplePlan, center_feature,
    jitter_augment, load_csv, merge_students, resample, select_features, split,
    student_schema, subset_model, train,
)
from descry.errors import (
    DegenerateSplit, EmptyFile, IndexOutOfRange, MissingColumn, NonNumericFeature,
    TypeMismatch, UnknownFeature,
)

SCHEMA = [FeatureSpec(name="grade", kind="integer"),
          FeatureSpec(name="score", kind="numeric"),
          FeatureSpec(name="sex", kind="categorical", categories=("F", "M")),
          FeatureSpec(name="y", kind="numeric")]


def write_csv(path, lines, header="grade,score,sex,y"):
    path.write_text("\n".join([header] + lines) + "\n")
    return str(path)


def _small_dataset():
    return Dataset(features=[FeatureSpec(name="a", kind="integer"),
                             FeatureSpec(name="b", kind="numeric")],
                   target=FeatureSpec(name="y", kind="numeric"),
                   rows=[[i, i / 2.0] for i in range(20)],
                   targets=[3.0 * i for i in range(20)], provenance="observed")


class TestFeatureSpec:
    def test_categories_required_iff_categorical(self):
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="categorical")
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="numeric", categories=("a",))

    def test_jitter_offsets_validated(self):
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="integer", jitter_offsets=(1.0, 0.0))
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="integer", jitter_offsets=(1.0, 1.0))

    def test_student_schema_loads(self):
        schema = student_schema()
        assert len(schema) == 33
        assert any(f.name == "G3" and f.jitter_offsets for f in schema)


class TestLoadCsv:
    def test_row_counts_preserved(self, tmp_path):
        lines = [f"{i % 21},{i / 10.0},F,{i}" for i in range(395)]
        d = load_csv(write_csv(tmp_path / "d.csv", lines), SCHEMA, "y")
        assert d.k == 395
        assert d.provenance == "observed"
        assert d.numeric_column(0)[3] == 3

    def test_header_only_is_empty(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_csv(write_csv(tmp_path / "d.csv", []), SCHEMA, "y")

    def test_type_mismatch_names_row_and_column(self, tmp_path):
        lines = ["1,0.5,F,2", "abc,0.5,M,3"]
        with pytest.raises(TypeMismatch) as err:
            load_csv(write_csv(tmp_path / "d.csv", lines), SCHEMA, "y")
        assert "row 1" in str(err.value)
        assert "grade" in str(err.value)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("grade,score,y\n1,0.5,2\n")
        with pytest.raises(MissingColumn):
            load_csv(str(path), SCHEMA, "y")

    def test_semicolon_delimiter(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"grade";"score";"sex";"y"\n1;0.5;"F";2\n' * 1)
        d = load_csv(str(path), SCHEMA, "y", delimiter=";")
        assert d.k == 1
        assert d.rows[0][2] == "F"

    def test_category_outside_schema(self, tmp_path):
        lines = ["1,0.5,X,2"]
        with pytest.raises(TypeMismatch):
            load_csv(write_csv(tmp_path / "d.csv", lines), SCHEMA, "y")

    @pytest.mark.parametrize("line", ["1,inf,F,2", "1,0.5,F,nan", "-Infinity,0.5,M,3"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, line):
        with pytest.raises(TypeMismatch) as err:
            load_csv(write_csv(tmp_path / "d.csv", ["1,0.5,F,2", line]), SCHEMA, "y")
        assert "row 1" in str(err.value)
        assert "not finite" in str(err.value)


class TestCenter:
    def test_basic(self, toy_dataset):
        d = Dataset(features=[FeatureSpec(name="g", kind="integer")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=[[12], [13], [14]], targets=[1, 2, 3], provenance="observed")
        centered, mean = center_feature(d, "g")
        assert mean == 13
        assert np.allclose(centered.numeric_column(0), [-1, 0, 1])

    def test_centering_twice_gives_zero_mean(self, toy_dataset):
        once, _ = center_feature(toy_dataset, "b")
        _, mean2 = center_feature(once, "b")
        assert abs(mean2) < 1e-12

    def test_unknown_and_non_numeric(self, toy_dataset):
        with pytest.raises(UnknownFeature):
            center_feature(toy_dataset, "zzz")
        d = Dataset(features=[FeatureSpec(name="c", kind="categorical", categories=("a", "b"))],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=[["a"], ["b"]], targets=[0, 1], provenance="observed")
        with pytest.raises(NonNumericFeature):
            center_feature(d, "c")


class TestJitter:
    def test_row_count_law_395(self):
        rows = [[i % 21, 0.0] for i in range(395)]
        d = Dataset(features=[FeatureSpec(name="g", kind="integer"),
                              FeatureSpec(name="o", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=rows, targets=[0.0] * 395, provenance="observed")
        out = jitter_augment(d, "g", [1, -1, 2, -2, 3, -3], clamp=(0, 20))
        assert out.k == 2765
        assert out.provenance == "augmented"

    def test_clamp(self):
        d = Dataset(features=[FeatureSpec(name="g", kind="integer")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=[[19]], targets=[0.0], provenance="observed")
        out = jitter_augment(d, "g", [3], clamp=(0, 20))
        assert out.numeric_column(0)[1] == 20

    def test_empty_offsets_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            jitter_augment(toy_dataset, "a", [])

    def test_untouched_columns_bit_identical(self, toy_dataset):
        out = jitter_augment(toy_dataset, "a", [1, -1])
        original = toy_dataset.column(1)
        for block in range(3):
            segment = out.column(1)[block * 20:(block + 1) * 20]
            assert np.array_equal(segment, original)
        assert np.array_equal(out.targets, np.tile(toy_dataset.targets, 3))

    @given(offsets=st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                            max_size=6, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_row_count_law_property(self, offsets):
        d = _small_dataset()
        out = jitter_augment(d, "a", offsets)
        assert out.k == d.k * (1 + len(offsets))


class TestSplit:
    def test_395_gives_316_79(self):
        rows = [[i] for i in range(395)]
        d = Dataset(features=[FeatureSpec(name="x", kind="integer")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=rows, targets=list(range(395)), provenance="observed")
        train, test = split(d, 0.8, seed=3)
        assert (train.k, test.k) == (316, 79)

    def test_deterministic(self, toy_dataset):
        a1, b1 = split(toy_dataset, 0.7, seed=11)
        a2, b2 = split(toy_dataset, 0.7, seed=11)
        assert np.array_equal(a1.rows, a2.rows)
        assert np.array_equal(b1.targets, b2.targets)

    def test_degenerate(self, toy_dataset):
        with pytest.raises(DegenerateSplit):
            split(toy_dataset, 1.0, seed=0)
        with pytest.raises(DegenerateSplit):
            split(toy_dataset, 0.01, seed=0)

    @given(fraction=st.floats(min_value=0.2, max_value=0.8), seed=st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_partition_is_permutation(self, fraction, seed):
        d = _small_dataset()
        train, test = split(d, fraction, seed=seed)
        combined = sorted(np.concatenate([train.numeric_column(0), test.numeric_column(0)]))
        assert combined == sorted(d.numeric_column(0))
        assert train.k + test.k == d.k


class TestResample:
    def test_bootstrap_size_and_determinism(self, toy_dataset):
        plan = ResamplePlan(method="bootstrap", replicates=3, seed=5)
        r1 = resample(toy_dataset, plan, 0)
        r2 = resample(toy_dataset, plan, 0)
        assert r1.k == toy_dataset.k
        assert np.array_equal(r1.rows, r2.rows)

    def test_subsample_distinct_rows(self):
        rows = [[i] for i in range(1000)]
        d = Dataset(features=[FeatureSpec(name="x", kind="integer")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=rows, targets=list(range(1000)), provenance="observed")
        plan = ResamplePlan(method="subsample", fraction=0.632, replicates=2, seed=1)
        out = resample(d, plan, 0)
        assert out.k == 632
        assert len(set(out.numeric_column(0))) == 632

    def test_replicates_differ(self):
        rows = [[i] for i in range(1000)]
        d = Dataset(features=[FeatureSpec(name="x", kind="integer")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=rows, targets=list(range(1000)), provenance="observed")
        plan = ResamplePlan(method="bootstrap", replicates=2, seed=1)
        multiset0 = sorted(resample(d, plan, 0).numeric_column(0))
        multiset1 = sorted(resample(d, plan, 1).numeric_column(0))
        assert multiset0 != multiset1

    def test_index_out_of_range(self, toy_dataset):
        plan = ResamplePlan(method="bootstrap", replicates=2, seed=1)
        with pytest.raises(IndexOutOfRange):
            resample(toy_dataset, plan, 2)


class TestMergeStudents:
    def _student_pair(self):
        schema = student_schema()
        names = [f.name for f in schema]
        base = {"school": "GP", "sex": "F", "age": 16, "address": "U",
                "famsize": "GT3", "Pstatus": "T", "Medu": 2, "Fedu": 2,
                "Mjob": "other", "Fjob": "other", "reason": "home",
                "guardian": "mother", "traveltime": 1, "studytime": 2,
                "failures": 0, "schoolsup": "no", "famsup": "no", "paid": "no",
                "activities": "no", "nursery": "yes", "higher": "yes",
                "internet": "yes", "romantic": "no", "famrel": 4, "freetime": 3,
                "goout": 3, "Dalc": 1, "Walc": 1, "health": 5, "absences": 0,
                "G1": 10, "G2": 11, "G3": 12}

        def row(age, grade):
            values = dict(base, age=age, G3=grade)
            return [values[n] for n in names if n != "G3"], values["G3"]

        features = [f for f in schema if f.name != "G3"]
        target = next(f for f in schema if f.name == "G3")
        mat_rows, mat_targets = zip(*[row(15, 10), row(16, 12), row(17, 14)])
        por_rows, por_targets = zip(*[row(15, 13), row(16, 15), row(18, 9)])
        mat = Dataset(features=features, target=target, rows=list(mat_rows),
                      targets=list(mat_targets), provenance="observed")
        por = Dataset(features=features, target=target, rows=list(por_rows),
                      targets=list(por_targets), provenance="observed")
        return mat, por

    def test_join_on_identity_attributes(self):
        mat, por = self._student_pair()
        merged, report = merge_students(mat, por)
        assert report["matched"] == 2
        assert report["dropped_math"] == 1
        assert report["dropped_por"] == 1
        assert merged.features[-1].name == "G3_por"
        grades = merged.numeric_column(merged.feature_index("G3_por"))
        assert sorted(grades) == [13, 15]


class TestSerialization:
    def test_json_round_trip(self, toy_dataset):
        clone = Dataset.from_dict(toy_dataset.to_dict())
        assert np.array_equal(clone.rows, toy_dataset.rows)
        assert np.array_equal(clone.targets, toy_dataset.targets)
        assert clone.fingerprint == toy_dataset.fingerprint

    def test_csv_round_trip(self, tmp_path, toy_dataset):
        path = tmp_path / "out.csv"
        toy_dataset.write_csv(str(path))
        schema = toy_dataset.features + [toy_dataset.target]
        clone = load_csv(str(path), schema, "y")
        assert np.allclose(np.asarray(clone.rows, dtype=float),
                           np.asarray(toy_dataset.rows, dtype=float))

    def test_select_features(self, toy_dataset):
        sub = select_features(toy_dataset, [1])
        assert sub.feature_names == ["b"]
        assert np.array_equal(sub.column(0), toy_dataset.column(1))

    @pytest.mark.parametrize("row, target", [([1, float("inf")], 0.0),
                                             ([1, float("nan")], 0.0),
                                             ([1, 0.5], float("-inf"))])
    def test_from_dict_rejects_non_finite(self, row, target):
        d = _small_dataset().to_dict()
        d["rows"][3], d["targets"][3] = row, target
        with pytest.raises(ValueError, match="non-finite value .* in row 3"):
            Dataset.from_dict(d)

    def test_categorical_rows_reject_non_finite(self):
        with pytest.raises(ValueError, match="column 'score'"):
            Dataset(features=SCHEMA[1:3], target=SCHEMA[3], rows=[[0.5, "F"], [np.inf, "M"]],
                    targets=[0.0, 1.0], provenance="observed")

    def test_rows_immutable(self, toy_dataset):
        with pytest.raises(ValueError):
            toy_dataset.rows[0, 0] = 99.0

    def test_caller_arrays_are_not_aliased(self):
        x = np.random.default_rng(0).normal(size=(50, 1))
        view = x[:]
        d = Dataset(features=[FeatureSpec(name="x", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=x, targets=x[:, 0].copy(), provenance="observed")
        before = x.copy()
        config, mse = LearnerConfig(learner="ols"), LossFunction.MSE
        assert subset_model(config, d, mse, (0,)).params["coef"] == pytest.approx([1.0])
        x[0, 0] = 99.0              # the caller's array stays writable
        view[:, 0] *= 10            # and a view of it reaches no Dataset cell
        assert np.array_equal(d.rows, before)
        # so the refit cached under d's fingerprint still describes d
        assert subset_model(config, d, mse, (0,)).params["coef"] == \
            train(config, d, mse).params["coef"]

    def test_object_rows_of_the_caller_stay_unconverted(self):
        rows = np.array([[1, "F"], [2, "M"]], dtype=object)
        Dataset(features=SCHEMA[:1] + SCHEMA[2:3], target=SCHEMA[3], rows=rows,
                targets=[0.0, 1.0], provenance="observed")
        assert type(rows[0, 0]) is int and rows.flags.writeable
