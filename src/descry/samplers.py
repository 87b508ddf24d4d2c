"""Operational stand-ins for the conditional feature distribution.

Everything a descriptor knows about P(X_rest | X_p) comes from here: grid
construction over a feature, grouping of evaluation rows by grid point,
conditional sampling from matching rows, and a support check that keeps
every query on-distribution. Samplers never fabricate feature combinations:
sampled X_rest vectors are always taken from observed rows.
"""

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import AllGroupsEmpty, EmptyNeighborhood, UnknownFeature
from .models import feature_ranges, gower_encode, nearest
from ._util import derive_seed, lru_get_or_build

MIN_GROUP_SIZE = 5
SELF_DISTANCE_SAMPLE = 1000
# support checkers kept for reuse, each holding an encoded copy of its data
CHECKER_CACHE_SIZE = 8


@dataclass(frozen=True)
class Grid:
    """Evaluation points along one feature."""

    feature_index: int
    points: tuple
    strategy: str

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("grid needs at least one point")
        if all(isinstance(p, (int, float)) for p in pts):
            pts = tuple(float(p) for p in pts)
            if any(b <= a for a, b in zip(pts, pts[1:])):
                raise ValueError("numeric grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        if self.strategy not in ("unique_values", "quantile"):
            raise ValueError(f"unknown grid strategy {self.strategy!r}")


def build_grid(d, feature, max_points=20):
    """Unique values when few enough, otherwise quantiles at equispaced
    probability levels (midpoint rule, so extreme tails are avoided)."""
    if max_points < 2:
        raise ValueError("max_points must be at least 2")
    j = d.feature_index(feature) if isinstance(feature, str) else int(feature)
    if not (0 <= j < d.n):
        raise UnknownFeature(f"feature index {j} out of range", operation="build_grid")
    spec = d.features[j]
    if spec.kind == "categorical":
        seen = set(d.column(j))
        points = tuple(c for c in spec.categories if c in seen)
        return Grid(feature_index=j, points=points, strategy="unique_values")
    col = d.numeric_column(j)
    distinct = np.unique(col)
    if distinct.size <= max_points:
        return Grid(feature_index=j, points=tuple(distinct), strategy="unique_values")
    levels = (np.arange(max_points) + 0.5) / max_points
    points = np.unique(np.quantile(col, levels))
    return Grid(feature_index=j, points=tuple(points), strategy="quantile")


def default_band(d, grid):
    """0 for integer/categorical features; half the median gap between
    adjacent grid points for continuous ones."""
    spec = d.features[grid.feature_index]
    if spec.kind in ("integer", "categorical") or len(grid.points) < 2:
        return 0.0
    gaps = np.diff(np.asarray(grid.points, dtype=float))
    return float(np.median(gaps) / 2.0)


def grid_membership(d, grid, band=None):
    """Row-by-grid-point match matrix (k x G bool): row i belongs to point g.

    Numeric membership is |x_p - g| <= band (default_band when None);
    categorical and integer grids match exactly when band is 0.
    """
    if band is None:
        band = default_band(d, grid)
    if band < 0:
        raise ValueError("band must be non-negative")
    j = grid.feature_index
    if d.features[j].kind == "categorical":
        col = d.column(j)
        return np.column_stack([col == point for point in grid.points])
    col = d.numeric_column(j)[:, None]
    points = np.asarray(grid.points, dtype=float)
    return col == points if band == 0 else np.abs(col - points) <= band


def conditional_groups(d, grid, band=None):
    """Group evaluation rows by grid point (see grid_membership). Returns the
    k x G membership matrix and, so that sparsity is never silent, the points
    whose groups are too small to estimate as {"grid_point", "members"}."""
    members = grid_membership(d, grid, band)
    sizes = members.sum(axis=0)
    dropped = [{"grid_point": point, "members": int(size)}
               for point, size, kept in zip(grid.points, sizes, _retained(sizes)) if not kept]
    return members, dropped


def _retained(sizes):
    return sizes >= MIN_GROUP_SIZE


def group_means(values, members, weights):
    """Per group (a column of the k x G membership matrix), the mean of the
    values with row i counted weights[i] times; NaN, and not kept, where the
    weighted group size is below MIN_GROUP_SIZE. Returns (means, sizes, kept)."""
    sizes = weights @ members
    kept = _retained(sizes)
    if not kept.any():
        raise AllGroupsEmpty("every grid point fell below the minimum group size",
                             operation="cpdp")
    means = np.where(kept, (weights * values) @ members / np.where(kept, sizes, 1), np.nan)
    return means, sizes, kept


@dataclass(frozen=True)
class ConditionalSampler:
    """Finite-data surrogate for P(X_rest | X_p)."""

    source: object


def conditional_sample(s, fixed, count, seed):
    """Draw `count` full feature vectors with the fixed coordinate pinned,
    resampling X_rest from source rows whose conditioned feature matches
    within the default band of the grid of all its distinct values.
    Queries outside the observed support raise EmptyNeighborhood.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    j, value = fixed
    d = s.source
    if d.features[j].kind != "categorical":
        value = float(value)
    grid = Grid(feature_index=j, points=(value,), strategy="unique_values")
    band = default_band(d, build_grid(d, j, max(d.k, 2))) if d.k else 0.0
    pool = np.flatnonzero(grid_membership(d, grid, band)[:, 0])
    if pool.size == 0:
        raise EmptyNeighborhood(
            f"no source rows support {d.features[j].name} = {value!r}",
            operation="conditional_sample")
    rng = np.random.default_rng(derive_seed(seed, "conditional-sample", j, repr(value)))
    picks = pool[rng.integers(0, pool.size, size=count)]
    rows = np.array(d.rows[picks], dtype=d.rows.dtype, copy=True)
    rows[:, j] = value
    return rows


# -- support checking ---------------------------------------------------------


class SupportChecker:
    """Operational proxy for P(X = x) > 0: the point must sit inside every
    per-feature empirical [q, 1-q] band AND within the dataset's typical
    nearest-neighbor (Gower) distance. Positive density is unobservable;
    this conjunction is the weakest testable stand-in."""

    def __init__(self, d, quantile_band=0.005):
        self.d = d
        self.quantile_band = float(quantile_band)
        self.ranges = feature_ranges(d.rows, d.features)
        self.encoded = gower_encode(d.rows, d.features)
        # the [q, 1-q] quantile band of a numeric feature; None for a
        # categorical one, whose observed values are its support
        levels = [self.quantile_band, 1.0 - self.quantile_band]
        self.bounds = [None if f.kind == "categorical" else np.quantile(self.encoded[:, j], levels)
                       for j, f in enumerate(d.features)]
        self.nn_threshold = self._self_distance_percentile()

    def _self_distance_percentile(self):
        k = self.d.k
        if k < 2:
            return 0.0
        rng = np.random.default_rng(derive_seed(0, "support-self", self.d.fingerprint))
        queries = np.arange(k) if k <= SELF_DISTANCE_SAMPLE \
            else np.sort(rng.choice(k, size=SELF_DISTANCE_SAMPLE, replace=False))
        # the nearest row other than the query itself is one of the two nearest
        index, dist = nearest(self.encoded[queries], self.encoded, 2, self.ranges)
        others = np.where(index[:, 0] == queries, dist[:, 1], dist[:, 0])
        return float(np.quantile(others, 0.99))

    def check_rows(self, rows):
        """The support check of each row, as a bool array."""
        x = gower_encode(rows, self.d.features)
        ok = np.ones(len(x), dtype=bool)
        for j, bound in enumerate(self.bounds):
            ok &= np.isin(x[:, j], self.encoded[:, j]) if bound is None \
                else (bound[0] <= x[:, j]) & (x[:, j] <= bound[1])
        _, dist = nearest(x[ok], self.encoded, 1, self.ranges)
        ok[ok] = dist[:, 0] <= self.nn_threshold
        return ok

    def check(self, x):
        return bool(self.check_rows([x])[0])


_checker_cache = OrderedDict()


def get_support_checker(d, quantile_band=0.005):
    return lru_get_or_build(_checker_cache, CHECKER_CACHE_SIZE,
                            (d.fingerprint, float(quantile_band)),
                            lambda: SupportChecker(d, quantile_band))


def support_check(d, x, quantile_band=0.005):
    """True iff x passes the quantile-band and nearest-neighbor tests."""
    return get_support_checker(d, quantile_band).check(list(x))
