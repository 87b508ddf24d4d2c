"""Operational stand-ins for the conditional feature distribution.

Everything a descriptor knows about P(X_rest | X_p) comes from here: grid
construction over a feature, grouping of evaluation rows by grid point, and
a support check that keeps every query on-distribution. Conditioning never
fabricates feature combinations: a group holds observed rows only.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AllGroupsEmpty
from .data import gower_encode
from .models import DISTANCE_BLOCK_CELLS, candidate_distances, feature_ranges, nearest
from ._util import derive_seed, lru_get_or_build, new_cache

MIN_GROUP_SIZE = 5
# the support check's per-feature band: a point must lie in [q, 1 - q] of each numeric feature
SUPPORT_QUANTILE_BAND = 0.005
SELF_DISTANCE_SAMPLE = 1000
# a row's nearest-other distance is at most its smallest distance to the
# 2W + 1 reference rows nearest its key in Z order (W this window's
# half-width); the bound settles a checked row within the threshold
SELF_DISTANCE_WINDOW = 8
# the threshold's build: a scan gives this many rows their exact distance
SELF_DISTANCE_BATCH = 32
# most bits a column's quantized value takes in a Z-order key, so that each
# level is exact in a float64
Z_ORDER_BITS = 16
# support checkers kept for reuse, each holding its dataset and threshold
CHECKER_CACHE_SIZE = 8


@dataclass(frozen=True)
class Grid:
    """Evaluation points along one feature."""

    feature_index: int
    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("grid needs at least one point")
        if all(isinstance(p, (int, float)) for p in pts):
            pts = tuple(float(p) for p in pts)
            if any(b <= a for a, b in zip(pts, pts[1:])):
                raise ValueError("numeric grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def codes(self, d):
        """The points' codes along their feature of d."""
        return gower_encode([[p] for p in self.points], [d.features[self.feature_index]])[:, 0]


def build_grid(d, feature, max_points=20):
    """Unique values when few enough, otherwise quantiles at equispaced
    probability levels (midpoint rule, so extreme tails are avoided), taken
    as observed values (inverted CDF) for an integer feature."""
    if max_points < 2:
        raise ValueError("max_points must be at least 2")
    j = d.feature_index(feature)
    spec = d.features[j]
    col = d.codes[:, j]
    distinct = np.unique(col)
    if spec.kind == "categorical":
        points = tuple(spec.categories[int(c)] for c in distinct)
        return Grid(feature_index=j, points=points)
    if distinct.size <= max_points:
        return Grid(feature_index=j, points=tuple(distinct))
    levels = (np.arange(max_points) + 0.5) / max_points
    method = "inverted_cdf" if spec.kind == "integer" else "linear"
    points = np.unique(np.quantile(col, levels, method=method))
    return Grid(feature_index=j, points=tuple(points))


def default_band(d, grid):
    """0 for integer/categorical features; half the median gap between
    adjacent grid points for continuous ones."""
    spec = d.features[grid.feature_index]
    if spec.kind in ("integer", "categorical") or len(grid.points) < 2:
        return 0.0
    gaps = np.diff(np.asarray(grid.points, dtype=float))
    return float(np.median(gaps) / 2.0)


def check_band(band):
    """Refuse a band that is neither None (default_band) nor finite and >= 0."""
    if band is not None and not (np.isfinite(band) and band >= 0):
        raise ValueError(f"band must be a finite non-negative number, got {band!r}")


def grid_membership(d, grid, band=None):
    """Row-by-grid-point match matrix (k x G bool): row i belongs to point g.

    Numeric membership is |x_p - g| <= band (default_band when None);
    categorical and integer grids match exactly when band is 0.
    """
    check_band(band)
    if band is None:
        band = default_band(d, grid)
    j = grid.feature_index
    col, points = d.codes[:, j, None], grid.codes(d)
    if band == 0 or d.features[j].kind == "categorical":
        return col == points
    return np.abs(col - points) <= band


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


def group_means(values, members, weights, operation="cpdp", groups="every grid point"):
    """Per row r of the (R, k) weight matrix and per group (a column of the
    k x G membership matrix), the mean of the values with row i counted
    weights[r, i] times; NaN, and not kept, where the weighted group size is
    below MIN_GROUP_SIZE. Returns (R, G) means, sizes and kept. Each weight
    row is its own vector-matrix product, so a row's bits are those of a
    one-row call (a plain (R, k) @ (k, G) product moves them). When any row
    keeps no group, the error names the operation and its groups."""
    sizes = np.matmul(weights[:, None, :], members)[:, 0]
    kept = _retained(sizes)
    if not kept.any(axis=1).all():
        raise AllGroupsEmpty(f"{groups} fell below the minimum group size",
                             operation=operation)
    means = np.matmul((weights * values)[:, None, :], members)[:, 0] / np.maximum(sizes, 1)
    means[~kept] = np.nan
    return means, sizes, kept


# -- support checking ---------------------------------------------------------


class SupportChecker:
    """Operational proxy for P(X = x) > 0: the point must sit inside every
    per-feature empirical [q, 1-q] band AND within the dataset's typical
    nearest-neighbor (Gower) distance. Positive density is unobservable;
    this conjunction is the weakest testable stand-in. The distance
    threshold `nn_threshold` and the Z-order index of the reference rows
    are built on their first read, when a checked row first reaches the
    distance test, so a check of observed rows builds neither."""

    def __init__(self, d):
        self.d = d
        self.ranges = feature_ranges(d.codes, d.features)
        self.encoded = d.codes
        # the [q, 1-q] quantile band of a numeric feature; None for a
        # categorical one, whose observed values are its support
        levels = [SUPPORT_QUANTILE_BAND, 1.0 - SUPPORT_QUANTILE_BAND]
        self.bounds = [None if f.kind == "categorical" else np.quantile(self.encoded[:, j], levels)
                       for j, f in enumerate(d.features)]
        # each reference row's hash with its index in the low bits, sorted:
        # the exact-copy lookup of check_rows
        self.index_mask = _index_mask(d.k)
        self.keys = np.sort(_row_hashes(self.encoded) & ~self.index_mask
                            | np.arange(d.k, dtype=np.uint64))

    def _self_distance_percentile(self):
        """The 0.99 quantile of the sampled rows' distances to their nearest
        other row. np.quantile reads only the `need` largest of them, so each
        starts at an upper bound, its window bound (`_window_bounds`), exact
        when the window holds every other row, and the largest bounds are
        scanned exactly, a batch at a time, until the need-th largest exact
        distance is at least every bound left: the need largest values are
        then exact, and the others no larger."""
        k = self.d.k
        if k < 2:
            return 0.0
        # seeded by k and the band, not the content: a new hash moves no threshold
        rng = np.random.default_rng(derive_seed(0, "support-self", k, SUPPORT_QUANTILE_BAND))
        queries = np.arange(k) if k <= SELF_DISTANCE_SAMPLE \
            else np.sort(rng.choice(k, size=SELF_DISTANCE_SAMPLE, replace=False))
        # the quantile interpolates sorted positions floor(0.99 (q - 1)) and the next
        need = len(queries) - int(0.99 * (len(queries) - 1))
        positions = np.empty(k, dtype=np.intp)
        positions[(self._z_keys & _index_mask(k)).astype(np.intp)] = np.arange(k)
        values = self._window_bounds(self.encoded[queries], positions[queries], queries)
        exact = np.full(len(queries), 2 * SELF_DISTANCE_WINDOW + 1 >= k)
        while not exact.all():
            pending = np.flatnonzero(~exact)
            if np.count_nonzero(exact) >= need and \
                    np.partition(values[exact], -need)[-need] >= values[pending].max():
                break
            if len(pending) > SELF_DISTANCE_BATCH:
                pending = pending[np.argpartition(values[pending], -SELF_DISTANCE_BATCH)
                                [-SELF_DISTANCE_BATCH:]]
            values[pending] = self._nearest_other(queries[pending])
            exact[pending] = True
        return float(np.quantile(values, 0.99))

    nn_threshold = cached_property(_self_distance_percentile)

    def _nearest_other(self, queries):
        """The distance from each query row to its nearest other row."""
        # the nearest row other than the query itself is one of the two nearest
        index, dist = nearest(self.encoded[queries], self.encoded, 2, self.ranges)
        return np.where(index[:, 0] == queries, dist[:, 1], dist[:, 0])

    @cached_property
    def _z_frame(self):
        """How `_z_key` reads a code row: the low value and the levels per
        unit of its first `width` columns, and the key bit that each of the
        `bits` bits of a level goes to, as a (width, bits) array."""
        free = 64 - int(_index_mask(self.d.k)).bit_length()
        width = min(self.d.n, free)
        bits = min(Z_ORDER_BITS, free // max(width, 1))
        columns = self.encoded[:, :width]
        span = np.ptp(columns, axis=0)
        # bit b of column j goes to key bit b width + width - 1 - j above the
        # 64 - bits width low ones, which hold the row index
        position = np.arange(bits, dtype=np.uint64) * np.uint64(width) \
            + np.arange(width, 0, -1, dtype=np.uint64)[:, None] + np.uint64(63 - bits * width)
        return columns.min(axis=0), ((1 << bits) - 1) / np.where(span > 0, span, np.inf), position

    def _z_key(self, codes):
        """Each code row's Z-order key, above the index bits: its columns
        scaled by their reference ranges and quantized, bits interleaved.
        The order sets only how tight the window bounds are, never a
        decision."""
        low, scale, position = self._z_frame
        width, bits = position.shape
        cells = np.clip(np.rint((codes[:, :width] - low) * scale), 0, (1 << bits) - 1)
        cells = cells.astype(np.uint64)[:, :, None]
        shifts = np.arange(bits, dtype=np.uint64)
        keys = np.empty(len(codes), dtype=np.uint64)
        step = max(1, DISTANCE_BLOCK_CELLS // position.size)
        for start in range(0, len(codes), step):
            spread = cells[start:start + step] >> shifts
            spread &= np.uint64(1)
            spread <<= position
            # the bits are disjoint, so their sum is their union
            spread.sum(axis=(1, 2), dtype=np.uint64, out=keys[start:start + step])
        return keys

    @cached_property
    def _z_keys(self):
        """The reference rows' Z-order keys, each with its row index in the
        low bits, sorted: the rows in Z order."""
        return np.sort(self._z_key(self.encoded) | np.arange(self.d.k, dtype=np.uint64))

    def _window_bounds(self, x, positions, own=None):
        """Each code row's smallest Gower distance to the reference rows of
        its window, the 2W + 1 (W = SELF_DISTANCE_WINDOW; all k when fewer)
        around its position in Z order, shifted to lie inside the order, and
        without the row's own reference row `own` when given (inf when no
        other is left). Each distance is a cell `nearest` computes, bit for
        bit, so the bound is never below the row's nearest (other) distance."""
        k = self.d.k
        width = min(2 * SELF_DISTANCE_WINDOW + 1, k)
        starts = np.clip(positions - SELF_DISTANCE_WINDOW, 0, k - width)
        candidates = self._z_keys[starts[:, None] + np.arange(width)]
        candidates &= _index_mask(k)
        candidates = candidates.view(np.int64)
        dist = candidate_distances(x, self.encoded, candidates, self.ranges)
        if own is not None:
            dist[candidates == own[:, None]] = np.inf
        return dist.min(axis=1, initial=np.inf)

    def _copies(self, x):
        """Which code rows equal a reference row. The first reference row of
        a row's hash decides; a hash miss or a collision answers False."""
        high = _row_hashes(x) & ~self.index_mask
        key = self.keys[np.minimum(np.searchsorted(self.keys, high), len(self.keys) - 1)]
        match = (key & self.index_mask).astype(np.intp)
        return ((key & ~self.index_mask) == high) & (self.encoded[match] == x).all(axis=1)

    def check_rows(self, rows):
        """The support check of each row (or code row), as a bool array.
        A row that passes the band test and equals a reference row sits at
        Gower distance 0 from it, within the threshold, with no scan; so does
        one whose window bound is within the threshold, since its nearest row
        is no farther. Only the rows left take the full scan. Rows whose
        width is not the feature count are refused."""
        n = self.d.n
        widths = {rows.shape[-1]} if isinstance(rows, np.ndarray) else set(map(len, rows))
        if widths - {n}:
            raise ValueError(f"a row has width {min(widths - {n})}, but the data has "
                             f"{n} features")
        x = gower_encode(rows, self.d.features)
        ok = np.ones(len(x), dtype=bool)
        for j, bound in enumerate(self.bounds):
            ok &= np.isin(x[:, j], self.encoded[:, j]) if bound is None \
                else (bound[0] <= x[:, j]) & (x[:, j] <= bound[1])
        scan = np.flatnonzero(ok)
        scan = scan[~self._copies(x[scan])]
        if len(scan):
            at = np.searchsorted(self._z_keys, self._z_key(x[scan]))
            bounds = self._window_bounds(x[scan], at)
            # a row within the threshold of a row of its window is within it of its nearest
            scan = scan[~(bounds <= self.nn_threshold)]
        if len(scan):
            _, dist = nearest(x[scan], self.encoded, 1, self.ranges)
            ok[scan] = dist[:, 0] <= self.nn_threshold
        return ok

    def check(self, x):
        return bool(self.check_rows([x])[0])


def _index_mask(k):
    """The low bits that hold a row index of k rows in a sorted key."""
    return np.uint64((1 << max(k - 1, 1).bit_length()) - 1)


def _row_hashes(codes):
    """A uint64 hash of each code row (FNV-1a over its 64-bit cells), equal
    for rows of equal values: adding 0.0 maps -0.0 to 0.0."""
    bits = (codes + 0.0).view(np.uint64)
    h = np.full(len(codes), 0xcbf29ce484222325, dtype=np.uint64)
    for column in bits.T:
        h ^= column
        h *= np.uint64(0x100000001b3)
    return h


_checker_cache = new_cache()


def get_support_checker(d):
    return lru_get_or_build(_checker_cache, CHECKER_CACHE_SIZE, d.fingerprint,
                            lambda: SupportChecker(d))


def support_check(d, x):
    """True iff x passes the quantile-band and nearest-neighbor tests."""
    return get_support_checker(d).check(list(x))
