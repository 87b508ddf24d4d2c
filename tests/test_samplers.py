import numpy as np
import pytest

from descry import (
    Dataset, FeatureSpec, build_grid, conditional_groups, sample, support_check,
)
from descry.samplers import MIN_GROUP_SIZE, default_band


def integer_grade_dataset(k=400, seed=0):
    rng = np.random.default_rng(seed)
    grades = rng.integers(0, 21, size=k)
    other = rng.normal(0, 1, size=k)
    return Dataset(features=[FeatureSpec(name="grade", kind="integer"),
                             FeatureSpec(name="other", kind="numeric")],
                   target=FeatureSpec(name="y", kind="numeric"),
                   rows=np.column_stack([grades, other]),
                   targets=grades + other, provenance="observed")


class TestBuildGrid:
    def test_unique_values_branch(self):
        d = integer_grade_dataset(k=2000)
        grid = build_grid(d, "grade", max_points=25)
        assert grid.points == tuple(np.unique(d.numeric_column(0)))
        assert len(grid.points) == 21

    def test_quantile_branch(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, size=10**4)
        d = Dataset(features=[FeatureSpec(name="x", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=values[:, None], targets=values, provenance="observed")
        grid = build_grid(d, "x", max_points=20)
        levels = (np.arange(20) + 0.5) / 20    # midpoint quantiles, not the distinct values
        assert grid.points == tuple(np.quantile(values, levels))
        assert len(grid.points) == 20
        assert list(grid.points) == sorted(grid.points)

    def test_constant_column(self):
        d = Dataset(features=[FeatureSpec(name="x", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=[[5.0]] * 10, targets=[0.0] * 10, provenance="observed")
        grid = build_grid(d, "x", max_points=20)
        assert grid.points == (5.0,)


class TestConditionalGroups:
    def test_exact_match_membership(self):
        d = integer_grade_dataset()
        grid = build_grid(d, "grade", max_points=25)
        members, dropped = conditional_groups(d, grid, band=0)
        col = d.numeric_column(0)
        assert members.shape == (d.k, len(grid.points))
        for point, matches in zip(grid.points, members.T):
            assert np.array_equal(matches, col == point)
        sizes = dict(zip(grid.points, members.sum(axis=0)))
        for rep in dropped:
            assert rep["members"] == sizes.pop(rep["grid_point"]) < MIN_GROUP_SIZE
        assert all(size >= MIN_GROUP_SIZE for size in sizes.values())
        covered = sum(sizes.values()) + sum(rep["members"] for rep in dropped)
        assert covered == d.k

    def test_degenerate_band_catches_everything(self):
        d = integer_grade_dataset()
        grid = build_grid(d, "grade", max_points=25)
        members, dropped = conditional_groups(d, grid, band=100)
        assert members.all() and dropped == []

    def test_small_groups_dropped_and_reported(self):
        rows = [[1, 0.0]] * 10 + [[2, 0.0]] * 3   # group at 2 is below minimum
        d = Dataset(features=[FeatureSpec(name="g", kind="integer"),
                              FeatureSpec(name="o", kind="numeric")],
                    target=FeatureSpec(name="y", kind="numeric"),
                    rows=rows, targets=[0.0] * 13, provenance="observed")
        grid = build_grid(d, "g", max_points=10)
        members, dropped = conditional_groups(d, grid)
        assert members.sum(axis=0).tolist() == [10, 3]
        assert dropped == [{"grid_point": 2.0, "members": 3}]
        assert 3 < MIN_GROUP_SIZE

    def test_default_band_is_half_median_gap(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 5000, seed=2)
        grid = build_grid(d, "x1", max_points=10)
        gaps = np.diff(np.asarray(grid.points))
        assert default_band(d, grid) == pytest.approx(np.median(gaps) / 2)


class TestSupportCheck:
    def test_training_rows_pass(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 500, seed=6)
        inside = [support_check(d, list(row)) for row in d.rows[:50]]
        # rows in the extreme marginal tails legitimately fail the band test
        assert np.mean(inside) > 0.9
        median_row = [float(np.median(d.numeric_column(0))),
                      float(np.median(d.numeric_column(1)))]
        assert support_check(d, median_row)

    def test_far_point_fails(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 500, seed=6)
        extreme = [10 * d.numeric_column(0).max(), 10 * d.numeric_column(1).max()]
        assert not support_check(d, extreme)

    def test_fresh_sample_acceptance_rate(self, benchmark_phenomenon):
        d = sample(benchmark_phenomenon, 4000, seed=7)
        fresh = sample(benchmark_phenomenon, 1000, seed=8)
        accepted = sum(support_check(d, list(row)) for row in fresh.rows)
        assert accepted >= 950

    def test_categorical_membership(self):
        features = [FeatureSpec(name="c", kind="categorical", categories=("a", "b", "z"))]
        rows = [["a"]] * 10 + [["b"]] * 10
        d = Dataset(features=features, target=FeatureSpec(name="y", kind="numeric"),
                    rows=rows, targets=[0.0] * 20, provenance="observed")
        assert support_check(d, ["a"])
        assert not support_check(d, ["z"])  # declared but never observed

    def test_checker_cache_is_bounded(self, benchmark_phenomenon):
        from descry.samplers import CHECKER_CACHE_SIZE, _checker_cache
        d = sample(benchmark_phenomenon, 300, seed=21)
        # one checker per copy, each of other rows
        copies = [d.take(np.arange(i, d.k)) for i in range(CHECKER_CACHE_SIZE + 2)]
        assert len({copy.fingerprint for copy in copies}) == len(copies)
        for copy in copies:
            assert support_check(copy, list(copy.rows[0]))
        assert len(_checker_cache) == CHECKER_CACHE_SIZE
