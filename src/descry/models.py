"""Trainable learners behind one predictor interface.

A PredictorHandle is a deterministic, serializable mapping from feature
vectors to predictions. Learners (ols, knn, mlp) produce handles; the
analytic simulator produces oracle handles of the same shape. Subset refits
and their risks are cached because fair-contribution scores enumerate up to
2^n of them. `subset_predictions` is the one place a subset refit is
evaluated; a subset risk is the mean loss of its predictions at the
evaluation rows (`subset_risks`). knn subsets share one walk of their
prefix tree per query block, each encoded column's distance term computed
once, with the same bits as each subset's own refit.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import (FeatureSpec, feature_mismatch, feature_subset, gower_encode,
                   select_features)
from .errors import IncompatibleLoss, SchemaMismatch, SingularDesign
from ._util import derive_seed, lru_get, lru_get_or_build, new_cache

# Cap on queries x reference rows per distance block; bounds its (q, k) temporaries.
DISTANCE_BLOCK_CELLS = 1 << 15
# Cap on replicates x rows x widest array in one stacked fit (an ols design,
# an mlp's activations); bounds its arrays.
STACK_CELLS = 1 << 18
# Most nearest rows `_smallest` picks by one argmin scan each; more take the
# full stable argsort. Each pick costs one more scan: on blocks of 8 to 32
# rows of 300 to 10 000 columns 64 scans still beat the sort, and on 30 x 60
# blocks the two tie at about 16.
SCAN_PICKS = 16


class LossFunction(str, Enum):
    MSE = "mse"
    MAE = "mae"
    ZERO_ONE = "zero_one"
    KL = "kl"


REGRESSION_LOSSES = (LossFunction.MSE, LossFunction.MAE)
CLASSIFICATION_LOSSES = (LossFunction.ZERO_ONE, LossFunction.KL)


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters of one learner; fixed a priori, never searched."""

    learner: str
    seed: int = 0
    # knn
    knn_k: int = 5
    distance: str = "euclidean_standardized"
    # mlp
    hidden: tuple = (32, 16, 8)
    learning_rate: float = 0.01
    lr_decay: float = 0.5
    epochs: int = 300
    batch_size: int = 32

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        if self.learner not in ("ols", "knn", "mlp"):
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.learner == "mlp":
            self._check_mlp()
        if self.learner == "knn" and self.knn_k < 1:
            raise ValueError("knn_k must be positive")
        if self.distance not in ("euclidean_standardized", "gower"):
            raise ValueError(f"unknown distance {self.distance!r}")

    def _check_mlp(self):
        if len(self.hidden) < 1:
            raise ValueError("mlp needs at least one hidden layer")
        if min(self.hidden) < 1:
            raise ValueError(f"hidden widths must be at least 1, got {list(self.hidden)}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (0 < self.lr_decay <= 1):
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")

    def to_dict(self):
        return dict(vars(self), hidden=list(self.hidden))


# -- feature encoding --------------------------------------------------------


def build_encoder(features, codes, standardize=False):
    """Per-feature encoding plan: numeric passthrough (optionally z-scored),
    categorical one-hot. Serializable alongside the model parameters. The
    codes are read only to standardize; otherwise the plan is the schema's."""
    encoder = []
    for j, spec in enumerate(features):
        if spec.kind == "categorical":
            encoder.append({"type": "onehot", "categories": list(spec.categories)})
        else:
            col = codes[:, j] if standardize else None
            mean = float(np.mean(col)) if standardize else 0.0
            scale = float(np.std(col)) if standardize else 1.0
            encoder.append({"type": "numeric", "mean": mean, "scale": scale if scale > 0 else 1.0})
    return encoder


def encode(rows, encoder, features):
    """Apply an encoding plan to a (k, n) row or code matrix (see
    gower_encode); returns float64."""
    codes = gower_encode(rows, features)
    cols = []
    for j, (enc, spec) in enumerate(zip(encoder, features)):
        col = codes[:, j]
        if enc["type"] == "numeric":
            cols.append(((col - enc["mean"]) / enc["scale"])[:, None])
        else:
            levels = [spec.categories.index(c) for c in enc["categories"]]
            cols.append((col[:, None] == levels).astype(float))
    return np.concatenate(cols, axis=1) if cols else np.zeros((len(codes), 0))


def feature_ranges(codes, features):
    """Per-feature value ranges of codes used by the Gower metric; 0 for categorical."""
    spans = np.ptp(codes, axis=0)
    return [0.0 if f.kind == "categorical" else float(r) for f, r in zip(features, spans)]


def _workspace(rows, reference, ranges=None):
    """Scratch for `_distances` over up to `rows` queries: one array for each
    column's term, then the slots `_column_sum` sums in (distances in the
    first): four for numpy's pairwise order over 8 or more Euclidean
    columns, one otherwise."""
    slots = 4 if ranges is None and reference.shape[1] >= 8 else 1
    return np.empty((1 + slots, rows, len(reference)))


def _distances(queries, reference, ranges=None, work=None):
    """(q, k) distances from each encoded query to every encoded reference
    row: Gower (range-normalized absolute difference, averaged over
    features) when `ranges` is given, otherwise Euclidean.

    Both sum one (q, k) term per column. The Euclidean sum takes numpy's
    pairwise order, so it equals `np.sqrt(((reference - queries[:, None]) **
    2).sum(axis=2))` bit for bit without building that (q, k, n) cube.
    Every term (`_column_term`) and partial sum is written into `work` (from
    `_workspace`). `nearest` passes one per call, reused by all its blocks,
    because freeing (q, k) arrays per column or per block lets the allocator
    return their pages to the system and fault them in again."""
    q = len(queries)
    columns = np.ascontiguousarray(reference.T)
    if work is None:
        work = _workspace(q, reference, ranges)
    diff, slots = work[0, :q], work[1:, :q]
    if ranges is None:
        def term(j):
            return _column_term(columns[j], queries[:, j], None, diff)
        total = _column_sum(term, 0, len(columns), slots)
        return np.sqrt(total, out=total)

    def term(j):
        return _column_term(columns[j], queries[:, j], ranges[j], diff)
    total = _column_sum(term, 0, len(ranges), slots, pairwise=False)
    total /= max(len(ranges), 1)
    return total


def _column_term(column, queries, span, out):
    """One column's (q, k) distance term, written into `out`: the squared
    difference of each query value and each reference value, or under Gower
    (`span` given) their absolute difference over the column's range, or
    their 0/1 mismatch where the range is 0."""
    np.subtract(column, queries[:, None], out=out)
    if span is None:
        return np.square(out, out=out)
    np.abs(out, out=out)
    if span > 0:
        return np.divide(out, span, out=out)
    return np.greater(out, 0, out=out)


def _column_sum(term, start, stop, slots, pairwise=True):
    """Sum of the (q, k) arrays term(j) over columns start..stop-1: left to
    right, or in the order numpy's pairwise `sum` takes over a contiguous
    axis. That order, below 8 columns, is left to right; up to 128, eight
    partial sums of every 8th column, added as a tree in slots[0..3], then
    the columns left over; above 128, the sums of two halves split at a
    multiple of 8, the first copied out of the slots. The sum is slots[0]
    up to 128 columns. term(j) may return the same scratch array each time."""
    n = stop - start
    if pairwise and n > 128:
        half = n // 2 - n // 2 % 8
        acc = _column_sum(term, start, start + half, slots).copy()
        acc += _column_sum(term, start + half, stop, slots)
        return acc
    acc = slots[0]
    if not pairwise or n < 8:
        acc.fill(0.0)
        full = start
    else:
        full = stop - n % 8

        def partial(m, slot):
            np.copyto(slot, term(start + m))
            for j in range(start + m + 8, full, 8):
                slot += term(j)
            return slot
        # ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7)), four sums alive at most
        a, b, c, d = slots[:4]
        partial(0, a)
        a += partial(1, b)
        partial(2, b)
        b += partial(3, c)
        a += b
        partial(4, b)
        b += partial(5, c)
        partial(6, c)
        c += partial(7, d)
        b += c
        a += b
    for j in range(full, stop):
        acc += term(j)
    return acc


def _smallest(block, count, root=None):
    """The first `count` columns of each row's stable argsort (smallest first,
    lowest column on ties, NaN last) and the values there, as `(order,
    values)`, each (rows, count). With `root`, a monotone non-decreasing
    unary ufunc such as `np.sqrt`, `block` holds values before the root, and
    the result is that of `_smallest(root(block), count)`, bit for bit.

    Up to SCAN_PICKS columns are picked one at a time, in place and without
    sorting whole rows: `ndarray.argmin` returns each row's first smallest
    cell, its value is recorded, and each pick but the last then reads +inf
    in `block`, which must be C-contiguous. A row whose first pick is not
    finite (argmin returns a row's first NaN, and -inf sorts first) or whose
    last pick reads +inf (a cell picked before may be picked again) is not
    settled. With `root`, count + 1 cells are picked and only they are
    rooted. The row is settled when, beyond that, no two adjacent picks of
    different values share a root (the stable order of the roots may then
    differ), and the last two picks differ in root, or tie at a value s with
    no unpicked cell above s of the same root: only when the next value
    above s roots as s does is the row scanned for one. Unsettled rows get
    their recorded values back, last pick first, so that a cell picked twice
    ends as it was. With `root` they are then rooted whole and picked again;
    without it they take the full stable argsort, as every row does,
    untouched, for larger counts. Settled rows keep their +inf cells. With
    `root`, a block where count + 1 exceeds SCAN_PICKS or reaches its width
    is rooted whole first."""
    width = block.shape[1]
    if root is not None and (count + 1 >= width or count + 1 > SCAN_PICKS):
        block, root = root(block, out=block), None
    if count >= width or count > SCAN_PICKS:
        order = np.argsort(block, axis=1, kind="stable")[:, :count]
        return order, np.take_along_axis(block, order, axis=1)
    rows = None   # the rows of the caller's block that `block` holds, once not all
    while True:
        scans = count + (root is not None)
        starts, cells = np.arange(0, block.size, width), block.reshape(-1)
        picks, raw = np.empty((scans, len(block)), dtype=np.intp), np.empty((scans, len(block)))
        for i in range(scans):
            block.argmin(axis=1, out=picks[i])
            picked = starts + picks[i]
            cells.take(picked, out=raw[i])
            if i + 1 < scans:
                cells[picked] = np.inf
        got = raw if root is None else root(raw)
        settled = np.isfinite(got[0]) & np.isfinite(got[-1])
        if root is not None and (same := got[1:] == got[:-1]).any():
            # adjacent picks of one root must be of one value, which argmin takes by column
            settled &= (same == (raw[1:] == raw[:-1])).all(axis=0)
            # a tie at s settles if no unpicked cell (all are above s) roots as s does;
            # only when the next value above s does is the row scanned
            tie = np.flatnonzero(settled & same[-1] & (root(np.nextafter(raw[-1], np.inf)) == got[-1]))
            near, s, r = block[tie], raw[-1, tie, None], got[-1, tie, None]
            settled[tie] = ~((near != s) & (root(near) == r)).any(axis=1)
        if rows is None:   # C order: a neighbour mean sums pairwise
            order, values = picks[:count].T.copy(), got[:count].T
        else:
            order[rows], values[rows] = picks[:count].T, got[:count].T
        redo = ~settled
        if not redo.any():
            return order, values
        for i in reversed(range(scans)):
            cells[starts[redo] + picks[i, redo]] = raw[i, redo]
        block, rows = block[redo], np.flatnonzero(redo) if rows is None else rows[redo]
        if root is None:
            break
        block, root = root(block, out=block), None
    order[rows] = np.argsort(block, axis=1, kind="stable")[:, :count]
    values[rows] = np.take_along_axis(block, order[rows], axis=1)
    return order, values


def nearest(queries, reference, count, ranges=None):
    """Row indices and distances of the `count` reference rows nearest to
    each query, nearest first; ties go to the lowest row index. Each block
    of distances is selected from in place (`_smallest`)."""
    if not 1 <= count <= len(reference):
        raise ValueError(f"count must be in 1..{len(reference)} reference rows, got {count}")
    index = np.empty((len(queries), count), dtype=np.intp)
    dist = np.empty((len(queries), count))
    step = max(1, DISTANCE_BLOCK_CELLS // len(reference))
    work = _workspace(min(step, len(queries)), reference, ranges)
    for start in range(0, len(queries), step):
        block = _distances(queries[start:start + step], reference, ranges, work)
        index[start:start + step], dist[start:start + step] = _smallest(block, count)
    return index, dist


def gower_distances(rows, x, features, ranges):
    """Gower distance of every row to x: range-normalized absolute difference
    for numeric features, 0/1 mismatch for categorical; averaged."""
    return _distances(gower_encode([x], features), gower_encode(rows, features), ranges)[0]


# -- predictor handle --------------------------------------------------------


@dataclass
class PredictorHandle:
    """Pure view of a trained or oracle model.

    `kind` names the evaluator in _EVALUATORS; `params` is its serializable
    parameter block. Evaluation of identical inputs is bit-identical.
    """

    input_schema: list
    output_kind: str
    kind: str
    params: dict
    metadata: dict = field(default_factory=dict)

    def predict_batch(self, rows):
        """Predictions at a (q, n) row matrix, or at its codes (a float matrix).
        A category the schema does not declare (code -1) is refused."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.input_schema):
            raise SchemaMismatch(
                f"expected {len(self.input_schema)} features, got shape {rows.shape}",
                operation="predict")
        codes = gower_encode(rows, self.input_schema)
        for j, spec in enumerate(self.input_schema):
            if spec.kind == "categorical" and (codes[:, j] < 0).any():
                value = rows[np.argmax(codes[:, j] < 0), j]
                raise SchemaMismatch(f"feature {spec.name!r}: {value!r} not in categories",
                                     operation="predict")
        return _EVALUATORS[self.kind](self.params, codes, self.input_schema)

    def predict(self, x):
        out = self.predict_batch(np.array([list(x)], dtype=object))
        return np.array(out[0]) if self.output_kind == "distribution" else float(out[0])

    def to_dict(self):
        params = {}
        for key, value in self.params.items():
            if key in _DERIVED_PARAMS:
                continue
            if isinstance(value, list):
                value = [_listed(v) for v in value]
            params[key] = _listed(value)
        return {"input_schema": [f.to_dict() for f in self.input_schema],
                "output_kind": self.output_kind, "kind": self.kind,
                "params": params, "metadata": self.metadata}

    @classmethod
    def from_dict(cls, d):
        schema = [FeatureSpec.from_dict(f) for f in d["input_schema"]]
        params = dict(d["params"])
        for key, per_item in _ARRAY_PARAMS.items():
            if isinstance(params.get(key), list):
                params[key] = ([np.asarray(v, dtype=float) for v in params[key]] if per_item
                               else np.asarray(params[key], dtype=float))
        if d["kind"] == "knn":
            _knn_index(params, gower_encode(params["train_matrix"], schema), schema)
        return cls(input_schema=schema, output_kind=d["output_kind"], kind=d["kind"],
                   params=params, metadata=d.get("metadata", {}))


# params kept in memory only: to_dict leaves them out, from_dict rebuilds them
_DERIVED_PARAMS = ("train_codes", "train_encoded")
# params held as float arrays, True for a list of them (one per layer or
# feature): to_dict lists them, from_dict rebuilds them
_ARRAY_PARAMS = {"coef": False, "value": False, "cond": False, "y_levels": False,
                 "train_targets": False, "x_levels": True, "weights": True, "biases": True}


def _listed(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def _eval_constant(params, codes, features):
    value = params["value"]  # a number, or a distribution over y_levels
    return np.full((codes.shape[0],) + np.shape(value), value, dtype=float)


def _eval_linear(params, codes, features):
    design = encode(codes, params["encoder"], features)
    return design @ params["coef"] + float(params["intercept"])


def _eval_mlp(params, codes, features):
    a = encode(codes, params["encoder"], features)
    weights, biases = params["weights"], params["biases"]
    for w, b in zip(weights[:-1], biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    return (a @ weights[-1] + biases[-1])[:, 0]


def _eval_knn(params, codes, features):
    if params["distance"] == "gower":
        index, _ = nearest(codes, params["train_codes"], params["k"], params["ranges"])
    else:
        index, _ = nearest(encode(codes, params["encoder"], features),
                           params["train_encoded"], params["k"])
    return _knn_aggregate(params["train_targets"][index], params["agg"])


def _knn_index(params, codes, features):
    """Set the matrix a knn handle searches, from its training codes: the
    codes themselves under Gower, their encoding under Euclidean."""
    if params["distance"] == "gower":
        params["train_codes"] = codes
    else:
        params["train_encoded"] = encode(codes, params["encoder"], features)


def _knn_aggregate(values, agg):
    """Per row of neighbour targets: the mean, or the most frequent value
    with ties to the smallest."""
    if agg != "mode":
        return values.mean(axis=1)
    values = np.sort(values, axis=1)
    counts = sum((values == values[:, [i]]).astype(int) for i in range(values.shape[1]))
    return values[np.arange(len(values)), np.argmax(counts, axis=1)]


def _eval_poly_response(params, x, features):
    out = np.full(x.shape[0], float(params["intercept"]))
    for term in params["terms"]:
        contrib = np.full(x.shape[0], float(term["coef"]))
        for idx, power in term["powers"].items():
            contrib = contrib * x[:, int(idx)] ** int(power)
        out += contrib
    return out


def _table_lookup(params, x, features):
    """Each row's conditional distribution: its row of `cond` (#configs, #y_levels)."""
    flat = np.zeros(x.shape[0], dtype=int)
    for j, levels in enumerate(params["x_levels"]):
        codes = np.searchsorted(levels, x[:, j])
        codes = np.clip(codes, 0, len(levels) - 1)
        if not np.allclose(levels[codes], x[:, j]):
            raise SchemaMismatch(f"value outside the discrete grid in column {j}",
                                 operation="predict")
        flat = flat * len(levels) + codes
    return params["cond"][flat]


def _eval_table_argmax(params, x, features):
    return params["y_levels"][np.argmax(_table_lookup(params, x, features), axis=1)]


_EVALUATORS = {
    "constant": _eval_constant,
    "linear": _eval_linear,
    "mlp": _eval_mlp,
    "knn": _eval_knn,
    "poly_response": _eval_poly_response,
    "table_argmax": _eval_table_argmax,
    "table_conditional": _table_lookup,
}


# -- losses ------------------------------------------------------------------


def pointwise_loss(loss, y_true, preds, y_levels=None):
    """Per-row loss values. For KL the empirical per-row loss is the log
    score -log q(y); EPE differences under it coincide with differences of
    the population KL risk, which is what the contribution scores use."""
    y_true = np.asarray(y_true, dtype=float)
    if loss == LossFunction.MSE:
        return (y_true - preds) ** 2
    if loss == LossFunction.MAE:
        return np.abs(y_true - preds)
    if loss == LossFunction.ZERO_ONE:
        return (y_true != np.asarray(preds, dtype=float)).astype(float)
    if loss == LossFunction.KL:
        levels = np.asarray(y_levels, dtype=float)
        idx = np.argmin(np.abs(levels - y_true[:, None]), axis=1)
        q = np.take_along_axis(np.asarray(preds, dtype=float), idx[:, None], axis=1)[:, 0]
        return -np.log(np.clip(q, 1e-300, None))
    raise IncompatibleLoss(f"unknown loss {loss}", operation="pointwise_loss")


def _check_output_compat(handle, loss, operation):
    needs_dist = loss == LossFunction.KL
    if needs_dist != (handle.output_kind == "distribution"):
        raise IncompatibleLoss(
            f"loss {loss.value} incompatible with {handle.output_kind} output",
            operation=operation)


def predict(handle, x):
    """Evaluate a handle on one feature vector (pure)."""
    return handle.predict(x)


def row_losses(handle, d, loss):
    """The loss of the handle's prediction at each row of d."""
    if d.k == 0:
        raise ValueError("dataset is empty")
    _check_output_compat(handle, loss, "epe")
    preds = handle.predict_batch(d.codes)
    return pointwise_loss(loss, d.targets, preds, y_levels=handle.params.get("y_levels"))


def epe(handle, d, loss):
    """Empirical expected prediction error: mean loss over the rows of d."""
    return float(np.mean(row_losses(handle, d, loss)))


def model_distance(h1, h2, d, loss):
    """Monte Carlo distance between two models over the empirical feature
    distribution of d: mean of L(m1(x), m2(x))."""
    mismatch = feature_mismatch(h1.input_schema, h2.input_schema)
    if mismatch:
        raise SchemaMismatch(f"handles read different features: {mismatch[0]} and "
                             f"{mismatch[1]}", operation="model_distance")
    p1 = h1.predict_batch(d.codes)
    p2 = h2.predict_batch(d.codes)
    if loss == LossFunction.KL:
        p = np.clip(np.asarray(p1, dtype=float), 1e-300, None)
        q = np.clip(np.asarray(p2, dtype=float), 1e-300, None)
        per_row = np.sum(np.asarray(p1) * np.log(p / q), axis=1)
    else:
        per_row = pointwise_loss(loss, p1, p2)
    return float(np.mean(per_row))


# -- training ----------------------------------------------------------------


def _check_learner_loss(config, loss):
    ok = {"ols": (LossFunction.MSE,), "mlp": (LossFunction.MSE,),
          "knn": (LossFunction.MSE, LossFunction.ZERO_ONE)}[config.learner]
    if loss not in ok:
        raise IncompatibleLoss(f"{config.learner} does not train under {loss.value}",
                               operation="train")


def _solve_normal_equations(gram, rhs):
    """Exact least squares per slice of (R, p, p) Gram matrices X'X and
    (R, p) right-hand sides X'y; a slice adds a 1e-8 ridge only on
    singularity. Returns the (R, p) coefficients, which slices took the
    ridge, and per slice the SingularDesign message of a slice even the
    ridge cannot solve, or None."""
    def solve(a, b):
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]

    eigvals = np.linalg.eigvalsh(gram)
    ridged = eigvals[:, 0] <= 1e-10 * np.maximum(eigvals[:, -1], 1.0)
    coef = np.full(rhs.shape, np.nan)
    regular = np.flatnonzero(~ridged)
    try:
        coef[regular] = solve(gram[regular], rhs[regular])
    except np.linalg.LinAlgError:   # an exactly singular slice: solve each alone
        for r in regular:
            try:
                coef[r] = solve(gram[r:r + 1], rhs[r:r + 1])[0]
            except np.linalg.LinAlgError:
                pass
    ridged |= ~np.isfinite(coef).all(axis=1)
    refusals = [None] * len(gram)
    for r in np.flatnonzero(ridged):
        try:
            coef[r] = solve(gram[r:r + 1] + 1e-8 * np.eye(gram.shape[1]), rhs[r:r + 1])[0]
        except np.linalg.LinAlgError as exc:
            refusals[r] = f"normal equations unsolvable even with ridge: {exc}"
        else:
            if not np.all(np.isfinite(coef[r])):
                refusals[r] = "ridge fallback produced non-finite coefficients"
    return coef, ridged, refusals


def _ols_encoder(features):
    """The schema's encoding plan, each categorical's first level dropped (the
    intercept absorbs it); it reads no rows, so a fit on any rows of a
    dataset takes the matching rows of the dataset's design."""
    return [dict(e, categories=e["categories"][1:]) if e["type"] == "onehot" else e
            for e in build_encoder(features, None)]


def _train_ols(config, fits):
    """One least-squares handle per (dataset, rows) fit of a stack of one row
    count and feature list (see train_each), yielded in order. Each fit's
    design is its rows of its dataset's design (an intercept column, then
    the encoding), built once per dataset, so the stack is one (R, m, p)
    array. X'X, X'y, the eigenvalues, the solves, the residual sums of
    squares and the inverses are batched calls that make each slice's own
    BLAS and LAPACK call, so every handle equals the slice's fit alone, bit
    for bit. A singular slice takes its own ridge fallback; a slice even the
    ridge cannot solve raises SingularDesign when it is reached."""
    features = fits[0][0].features
    designs = {}
    for d, _ in fits:
        if id(d) not in designs:
            encoded = encode(d.codes, _ols_encoder(features), features)
            designs[id(d)] = np.concatenate([np.ones((d.k, 1)), encoded], axis=1)
    X = np.stack([designs[id(d)] if rows is None else designs[id(d)][rows] for d, rows in fits])
    y = np.stack([d.targets if rows is None else d.targets[rows] for d, rows in fits])
    _, k, p = X.shape
    X_t = X.transpose(0, 2, 1)
    gram = X_t @ X
    coef, ridged, refusals = _solve_normal_equations(gram, (X_t @ y[:, :, None])[:, :, 0])

    residuals = y - (X @ coef[:, :, None])[:, :, 0]
    # a batched matmul keeps each slice's dot product; einsum changes bits
    sigma2 = (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0] / max(k - p, 1)
    # inverts the very matrices _solve_normal_equations has just solved
    gram[ridged] += 1e-8 * np.eye(p)
    gram[[r for r, refusal in enumerate(refusals) if refusal]] = np.eye(p)
    se = np.sqrt(np.clip(np.diagonal(sigma2[:, None, None] * np.linalg.inv(gram),
                                     axis1=1, axis2=2), 0.0, None))

    for r, refusal in enumerate(refusals):
        if refusal:
            raise SingularDesign(refusal, operation="train")
        params = {"intercept": float(coef[r, 0]), "coef": coef[r, 1:].copy(),
                  "encoder": _ols_encoder(features)}
        meta = {"learner": "ols", "seed": config.seed, "ridge_fallback": bool(ridged[r]),
                "intercept_se": float(se[r, 0]), "coef_se": se[r, 1:].tolist(),
                "residual_variance": float(sigma2[r])}
        yield PredictorHandle(input_schema=list(features), output_kind="scalar",
                              kind="linear", params=params, metadata=meta)


def _train_knn(config, d, loss):
    if config.knn_k > d.k:
        raise ValueError(f"knn_k={config.knn_k} exceeds training size {d.k}")
    agg = "mode" if loss == LossFunction.ZERO_ONE else "mean"
    params = {"k": config.knn_k, "distance": config.distance, "agg": agg,
              "train_matrix": d.rows, "train_targets": d.targets}
    if config.distance == "gower":
        params["ranges"] = feature_ranges(d.codes, d.features)
    else:
        params["encoder"] = build_encoder(d.features, d.codes, standardize=True)
    _knn_index(params, d.codes, d.features)
    meta = {"learner": "knn", "seed": config.seed, "k": config.knn_k,
            "distance": config.distance}
    return PredictorHandle(input_schema=list(d.features), output_kind="scalar",
                           kind="knn", params=params, metadata=meta)


def _train_mlp(config, fits):
    """One network per (dataset, rows) fit of a stack of one row count and
    feature list (see train_each), trained together as (R, ., .) weight
    stacks under np.matmul. The fits share the seed's initial weights and
    every epoch's shuffle order, so each slice takes the steps a network
    trained alone on its rows would take, bit for bit; only its
    standardization, the epochs it rejects and its learning rate are its
    own. Each replicate's weights and biases are views of its row of one
    (R, P) parameter matrix, so a step updates them all at once and a
    rejected epoch restores only its own rows; activations, deltas,
    gradients and saved parameters are allocated once per call and
    overwritten in every epoch."""
    features = fits[0][0].features
    codes = [d.codes if rows is None else d.codes[rows] for d, rows in fits]
    encoders = [build_encoder(features, c, standardize=True) for c in codes]
    X = np.stack([encode(c, enc, features) for c, enc in zip(codes, encoders)])
    y = np.stack([d.targets if rows is None else d.targets[rows] for d, rows in fits])
    replicates, k = y.shape
    rng = np.random.default_rng(derive_seed(config.seed, "mlp-init"))

    widths = [X.shape[2]] + list(config.hidden) + [1]
    layers = len(widths) - 1
    # one row per replicate: each layer's (a, b) weights, then each layer's (1, b) biases
    shapes = [(a, b) for a, b in zip(widths, widths[1:])] + [(1, b) for b in widths[1:]]
    bounds = np.cumsum([0] + [a * b for a, b in shapes])
    params, grads, saved, rate = (np.zeros((replicates, bounds[-1])) for _ in range(4))
    param_views, grad_views = ([m[:, lo:hi].reshape(replicates, *s)
                                for lo, hi, s in zip(bounds, bounds[1:], shapes)]
                               for m in (params, grads))
    weights, biases = param_views[:layers], param_views[layers:]
    grad_w, grad_b = grad_views[:layers], grad_views[layers:]
    for i, w in enumerate(weights):
        w[...] = rng.normal(0.0, np.sqrt(2.0 / widths[i]), size=(1, widths[i], widths[i + 1]))
    weights_t = [w.transpose(0, 2, 1) for w in weights]

    lr = np.full(replicates, config.learning_rate, dtype=float)
    rate[...] = lr[:, None]
    batch = min(config.batch_size, k)
    # minibatch buffers are flat: a short last batch takes buf[:R*m*w].reshape(R, m, w),
    # which is C-contiguous and so keeps np.matmul on its BLAS path
    batch_acts = [np.empty(replicates * batch * w) for w in widths]
    deltas = [np.empty(replicates * batch * w) for w in widths[1:]]
    masks = [np.empty(replicates * batch * w, dtype=bool) for w in widths[1:-1]]
    batch_y = np.empty(replicates * batch)
    full_acts = [X] + [np.empty((replicates, k, w)) for w in widths[1:]]
    full_out = full_acts[-1][:, :, 0]
    residual = np.empty((replicates, k))

    def forward(acts):
        for a, w, b, out in zip(acts, weights, biases, acts[1:]):
            np.matmul(a, w, out=out)
            np.add(out, b, out=out)
            if out is not acts[-1]:
                np.maximum(out, 0.0, out=out)

    def full_loss():
        forward(full_acts)
        np.subtract(full_out, y, out=residual)
        return np.mean(np.square(residual, out=residual), axis=1)

    def batch_views(m):
        """(R, m, .) views of the minibatch buffers: activations from the input
        on and their transposes, targets, the output column, deltas, the output
        delta column and relu masks."""
        def view(buf, w):
            return buf[:replicates * m * w].reshape(replicates, m, w)
        acts = [view(buf, w) for buf, w in zip(batch_acts, widths)]
        batch_deltas = [view(buf, w) for buf, w in zip(deltas, widths[1:])]
        return (acts, [a.transpose(0, 2, 1) for a in acts[:-1]],
                batch_y[:replicates * m].reshape(replicates, m), acts[-1][:, :, 0],
                batch_deltas, batch_deltas[-1][:, :, 0],
                [view(buf, w) for buf, w in zip(masks, widths[1:-1])])

    views = {m: batch_views(m) for m in {batch, k % batch or batch}}

    shuffle_rng = np.random.default_rng(derive_seed(config.seed, "mlp-shuffle"))
    prev_loss = full_loss()
    history = [prev_loss]
    # a diverging epoch overflows to inf or NaN; the loss test below rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        for _epoch in range(config.epochs):
            np.copyto(saved, params)
            order = shuffle_rng.permutation(k)
            for start in range(0, k, batch):
                idx = order[start:start + batch]
                acts, acts_t, target, output, batch_deltas, error, batch_masks = \
                    views[len(idx)]
                # indices from a permutation are in range; mode="raise" would copy via a temporary
                X.take(idx, axis=1, out=acts[0], mode="clip")
                forward(acts)
                y.take(idx, axis=1, out=target, mode="clip")
                np.subtract(output, target, out=error)
                delta = batch_deltas[-1]
                np.multiply(2.0, delta, out=delta)
                np.divide(delta, len(idx), out=delta)
                # every gradient reads the weights before this step, so all
                # layers are updated together once the backward pass is done
                for layer in range(layers - 1, -1, -1):
                    np.matmul(acts_t[layer], delta, out=grad_w[layer])
                    # the reduction np.sum makes, without its Python wrapper
                    np.add.reduce(delta, axis=1, keepdims=True, out=grad_b[layer])
                    if layer > 0:
                        below, mask = batch_deltas[layer - 1], batch_masks[layer - 1]
                        np.matmul(delta, weights_t[layer], out=below)
                        np.multiply(below, np.greater(acts[layer], 0, out=mask), out=below)
                        delta = below
                np.multiply(rate, grads, out=grads)
                np.subtract(params, grads, out=params)
            new_loss = full_loss()
            accept = new_loss <= prev_loss  # False for a non-finite loss
            if not accept.all():
                # reject the epoch and halve the rate, per replicate
                np.copyto(params, saved, where=~accept[:, None])
                lr = np.where(accept, lr, lr * config.lr_decay)
                rate[...] = lr[:, None]
            prev_loss = np.where(accept, new_loss, prev_loss)
            history.append(prev_loss)

    history = np.stack(history, axis=1)
    handles = []
    for r in range(replicates):
        params = {"weights": [w[r].copy() for w in weights],
                  "biases": [b[r, 0].copy() for b in biases], "encoder": encoders[r]}
        meta = {"learner": "mlp", "seed": config.seed, "hidden": list(config.hidden),
                "epochs": config.epochs, "final_lr": float(lr[r]),
                "loss_history": history[r].tolist()}
        handles.append(PredictorHandle(input_schema=list(features), output_kind="scalar",
                                       kind="mlp", params=params, metadata=meta))
    return handles


def _check_training(config, k, loss):
    if k == 0:
        raise ValueError("training dataset is empty")
    _check_learner_loss(config, loss)


def train(config, d, loss):
    """Fit a learner on d; deterministic given config.seed. ols and mlp fit
    it as a stack of one (train_each)."""
    if config.learner != "knn":
        return next(train_each(config, [(d, None)], loss))
    _check_training(config, d.k, loss)
    return _train_knn(config, d, loss)


def _stack_width(config, features):
    """The widest array per row of a stacked fit: an ols design's columns,
    or an mlp's widest layer."""
    inputs = sum(_encoded_widths(features))
    return 1 + inputs if config.learner == "ols" else max(inputs, *config.hidden)


def train_each(config, fits, loss):
    """Fit the learner on each (dataset, rows) pair of an iterable, rows a
    vector of the dataset's row indices (a repeated row counted each time),
    or None for all of its rows; yields handles equal to `train(config,
    d.take(rows), loss)`'s, in order, and takes no Dataset copy but knn's.

    The one stacking rule: consecutive ols or mlp fits of one row count and
    feature list train as one stack of at most STACK_CELLS replicate x row x
    width (`_stack_width`) cells, each stack when its first handle is asked
    for; knn fits one at a time. A fit's refusal is raised after the
    handles of the fits before it."""
    if config.learner == "knn":
        for d, rows in fits:
            yield train(config, d if rows is None else d.take(rows), loss)
        return
    trainer = _train_ols if config.learner == "ols" else _train_mlp
    stack, shape = [], None
    for d, rows in fits:
        k = d.k if rows is None else len(rows)
        cells = k * _stack_width(config, d.features)
        if stack and ((k, d.features) != shape or (len(stack) + 1) * cells > STACK_CELLS):
            yield from trainer(config, stack)
            stack = []
        # an empty fit starts its own stack, so the fits before it have been yielded
        _check_training(config, k, loss)
        stack.append((d, rows))
        shape = (k, d.features)
    if stack:
        yield from trainer(config, stack)


# -- subset refits -----------------------------------------------------------

# refits kept for reuse: all subsets of 5 features, so two exact Shapley calls can share them;
# the risks of refits on evaluation data are kept to the same bound
SUBSET_CACHE_SIZE = 32
_subset_cache, _risk_cache = new_cache(), new_cache()
# Cap on subsets x evaluation rows of predictions one `subset_risks` pass keeps.
LATTICE_LOSS_CELLS = 1 << 18
# Cap on the cells of the lattice's workspace: its (queries, reference rows) arrays together.
LATTICE_WORK_CELLS = 1 << 18


def best_constant(d, loss):
    """The optimal featureless predictor: mean (MSE), median (MAE), modal
    class (0-1), or the marginal label distribution (KL)."""
    if loss == LossFunction.MSE:
        return float(np.mean(d.targets))
    if loss == LossFunction.MAE:
        return float(np.median(d.targets))
    levels, counts = np.unique(d.targets, return_counts=True)
    if loss == LossFunction.ZERO_ONE:
        return float(levels[np.argmax(counts)])
    return levels, counts / counts.sum()


def subset_model(config, d, loss, subset):
    """Refit the learner on the feature subset only (cached).

    The empty subset returns the best constant for the loss; its input
    schema is empty, so it evaluates on zero-column row matrices.
    """
    subset = feature_subset(subset, d.n)
    return lru_get_or_build(_subset_cache, SUBSET_CACHE_SIZE,
                            (config, d.fingerprint, loss, subset),
                            lambda: _fit_subset(config, d, loss, subset))


def require_same_features(d_train, d_eval, operation):
    """Refuse evaluation data whose features are not the training data's, by
    `feature_mismatch`'s rule: a refit reads d_eval's columns as d_train's."""
    mismatch = feature_mismatch(d_train.features, d_eval.features)
    if mismatch:
        raise SchemaMismatch(f"the training data has features {mismatch[0]}, but the "
                             f"evaluation data has {mismatch[1]}", operation=operation)


def subset_epe(config, d_train, d_eval, loss, subset):
    """EPE on d_eval's `subset` columns of the refit on d_train's (cached):
    the one-subset case of `subset_risks`."""
    require_same_features(d_train, d_eval, "subset_epe")
    return subset_risks(config, d_train, d_eval, loss, [subset])[0]


def subset_risks(config, d_train, d_eval, loss, subsets):
    """For each subset S, the EPE on d_eval's S columns of the refit on
    d_train's: sage and cpfi are differences of these risks. Each risk is
    cached under its subset, and the values returned are the ones computed,
    so a list longer than the cache loses none. A missing risk is the mean
    loss of the refit's `subset_predictions` at d_eval's rows, kept for at
    most LATTICE_LOSS_CELLS // d_eval.k subsets (2 MiB) at a time."""
    subsets = [feature_subset(subset, d_train.n) for subset in subsets]
    key = (config, d_train.fingerprint, d_eval.fingerprint, loss)
    risks = {subset: lru_get(_risk_cache, key + (subset,)) for subset in dict.fromkeys(subsets)}
    misses = [subset for subset, risk in risks.items() if risk is None]
    if misses and d_eval.k == 0:
        subset_model(config, d_train, loss, misses[0])   # a refit trains before it evaluates
        raise ValueError("dataset is empty")
    levels = best_constant(d_train, loss)[0] if loss == LossFunction.KL else None
    per_pass = max(1, LATTICE_LOSS_CELLS // max(d_eval.k, 1))
    for first in range(0, len(misses), per_pass):
        chunk = misses[first:first + per_pass]
        for subset, preds in zip(chunk, subset_predictions(config, d_train, loss, chunk,
                                                           d_eval.codes)):
            risk = float(np.mean(pointwise_loss(loss, d_eval.targets, preds, levels)))
            risks[subset] = lru_get_or_build(_risk_cache, SUBSET_CACHE_SIZE, key + (subset,),
                                             lambda risk=risk: risk)
    return [risks[subset] for subset in subsets]


def _encoded_widths(features):
    """Columns each feature encodes to: one per category, one if numeric."""
    return [len(f.categories) if f.kind == "categorical" else 1 for f in features]


def _on_lattice(config, d_train, subset):
    """Whether the lattice predicts this subset's refit: a non-empty knn
    subset, below 8 encoded columns under Euclidean, where `_column_sum`
    adds the columns left to right."""
    if config.learner != "knn" or not subset:
        return False
    widths = _encoded_widths(d_train.features)
    return config.distance == "gower" or sum(widths[j] for j in subset) < 8


def subset_predictions(config, d_train, loss, subsets, rows):
    """Each subset refit's predictions at rows, a (q, n) row or code matrix
    of d_train's features, as `subset_model(config, d_train, loss,
    S).predict_batch(rows[:, S])` gives them, in the order given. knn
    subsets that `_on_lattice` admits come from one walk of the lattice;
    the others are refit and predicted one at a time, first, as is every
    subset when rows hold a category d_train does not declare, which a
    refit that reads it refuses."""
    subsets = [feature_subset(subset, d_train.n) for subset in subsets]
    rows = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    if rows.ndim != 2 or rows.shape[1] != d_train.n:
        raise SchemaMismatch(f"expected {d_train.n} features, got shape {rows.shape}",
                             operation="predict")
    codes = gower_encode(rows, d_train.features)
    undeclared = any(f.kind == "categorical" and (codes[:, j] < 0).any()
                     for j, f in enumerate(d_train.features))
    lattice = set() if undeclared else {
        subset for subset in subsets if _on_lattice(config, d_train, subset)}
    values = {}
    for subset in subsets:
        if subset not in values and subset not in lattice:
            values[subset] = subset_model(config, d_train, loss, subset).predict_batch(
                rows[:, list(subset)])
    if lattice:
        lattice = sorted(lattice)
        values.update(zip(lattice, _knn_lattice(config, d_train, loss, codes, lattice)))
    return [values[subset] for subset in subsets]


def _knn_lattice(config, d_train, loss, codes, subsets):
    """Predictions of knn subset refits at query codes (rows of d_train's
    features), each equal bit for bit to the subset refit's `predict_batch`
    at the queries' subset columns: a (subsets, queries) array, row g for
    subsets[g]. `subsets`, non-empty, are given sorted.

    A subset refit's encoding, targets and count are the matching column
    blocks of the full-feature refit's, so that refit is trained once and
    its columns shared. Per block of queries each encoded column's term is
    computed once; then the subsets, in order, are walked as a prefix
    tree: a subset's partial sum is its parent's plus its last feature's
    columns, left to right, as `_column_sum` adds them below 8 columns and
    Gower at any width. The subsets go in groups of G: each one's sum is
    written into its own slot of a (G, m, d_train.k) array, and a stack row
    is kept only for each prefix the group does not list. Under Gower one
    divide by each subset's feature count maps the group to distances; then
    one `_smallest` call selects the neighbours of all G x m rows in place
    (under Euclidean on the squared sums, rooting only each row's picks),
    and one `_knn_aggregate` call predicts them. The path then drops the
    levels that were held in the group's slots.

    The workspace is allocated once per call. Per query it holds a row of
    d_train.k cells for each encoded column the subsets read, the stack's
    zero row and one row for each level above it but the deepest (A = used
    + depth), and G slot rows. G is the most subsets, at most A, such
    that one query's A + G rows fit in LATTICE_WORK_CELLS, and 1 when
    none fit; queries are then taken LATTICE_WORK_CELLS // ((A + G) x
    d_train.k) at a time, at least one. So the workspace holds at most
    LATTICE_WORK_CELLS cells (2 MiB), or one query's A + 1 rows when that
    is more. As depth is at most the feature count, that is at most twice
    the encoded training matrix and a row: a 500-feature Gower sage on 1 000
    training rows takes one query at a time in 8 MB, beside the (used,
    d_train.k) copy of the columns read and the result. With G at most A, a
    block holds at least half the queries it would hold with one slot.
    """
    fit = train(config, d_train, loss).params
    if config.distance == "gower":
        reference, queries, spans = fit["train_codes"], codes, fit["ranges"]
        widths = [1] * d_train.n
    else:
        reference = fit["train_encoded"]
        queries = encode(codes, fit["encoder"], d_train.features)
        spans, widths = [None] * reference.shape[1], _encoded_widths(d_train.features)
    # only the columns of features some subset reads, each feature's as one block
    features, starts = sorted(set().union(*subsets)), np.cumsum([0] + widths)
    used = [j for f in features for j in range(starts[f], starts[f + 1])]
    ends = dict(zip(features, np.cumsum([widths[f] for f in features])))
    columns = np.ascontiguousarray(reference[:, used].T)
    k = len(reference)
    fixed = len(used) + max(map(len, subsets))
    size = max(1, min(len(subsets), fixed, LATTICE_WORK_CELLS // k - fixed))
    step = max(1, LATTICE_WORK_CELLS // ((fixed + size) * k))
    work = np.zeros((fixed, min(step, len(queries)), k))
    terms, sums = work[:len(used)], work[len(used):]   # sums[0] stays 0
    slots = np.empty(size * work.shape[1] * k)
    out = np.empty((len(subsets), len(queries)))

    for start in range(0, len(queries), step):
        block, m = queries[start:start + step], min(step, len(queries) - start)
        for t, j in enumerate(used):
            _column_term(columns[t], block[:, j], spans[j], terms[t, :m])
        path = []   # per level: its feature, its partial sum, whether a group slot holds it
        for first in range(0, len(subsets), size):
            group = subsets[first:first + size]
            dist = slots[:len(group) * m * k].reshape(len(group), m, k)
            for g, subset in enumerate(group):
                shared, top = 0, min(len(path), len(subset))
                while shared < top and path[shared][0] == subset[shared]:
                    shared += 1
                del path[shared:]
                for f in subset[shared:]:
                    own = len(path) + 1 == len(subset)
                    acc = dist[g] if own else sums[len(path) + 1, :m]
                    lo = ends[f] - widths[f]
                    np.add(path[-1][1] if path else sums[0, :m], terms[lo, :m], out=acc)
                    for t in range(lo + 1, ends[f]):
                        acc += terms[t, :m]
                    path.append((f, acc, own))
            root = np.sqrt
            if config.distance == "gower":
                counts = np.array([len(subset) for subset in group], dtype=float)
                np.divide(dist, counts[:, None, None], out=dist)
                root = None
            order, _ = _smallest(dist.reshape(-1, k), fit["k"], root)
            preds = _knn_aggregate(fit["train_targets"][order], fit["agg"])
            out[first:first + len(group), start:start + m] = preds.reshape(len(group), m)
            # the next group reuses the slots: the path ends below its first level held there
            del path[next((i for i, level in enumerate(path) if level[2]), len(path)):]
    return out


def _fit_subset(config, d, loss, subset):
    if subset:
        return train(config, select_features(d, subset), loss)
    const = best_constant(d, loss)
    if loss == LossFunction.KL:
        levels, dist = const
        return PredictorHandle(
            input_schema=[], output_kind="distribution", kind="constant",
            params={"value": dist, "y_levels": levels},
            metadata={"learner": "constant"})
    return PredictorHandle(
        input_schema=[], output_kind="scalar", kind="constant",
        params={"value": const}, metadata={"learner": "constant"})
