"""Answers to formalized questions about a prediction model.

Each operation maps (model, evaluation data) to a DescriptorResult: a curve
(conditional effect), a scalar (conditional contribution), an attribution
vector (fair contribution), or a point (relevant value / counterfactual).
Contribution scores use the refit formulation: the reduced-information
predictor is an actual retrain on the feature subset, not a permutation
approximation, so every score is a difference of real model risks.

Sign conventions: contribution scores are reported as reduced-minus-full, so
features that help prediction score positive. Argmin searches break ties at
the lowest row index, which keeps golden outputs stable.
"""

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .data import select_features
from .errors import (
    AllGroupsEmpty,
    NoSupportedCandidate,
    OffSupportInstance,
    TooManyFeaturesForExact,
)
from .models import (
    LossFunction,
    epe,
    gower_distances,
    pointwise_loss,
    subset_model,
)
from .samplers import build_grid, conditional_groups, get_support_checker, group_means
from ._util import derive_seed

QUESTIONS = (
    "cpdp", "ice", "cpfi", "sage", "shapley_local",
    "local_conditional_contribution", "relevant_value_global", "counterfactual_local",
)
LOCAL_QUESTIONS = ("ice", "shapley_local", "local_conditional_contribution",
                   "counterfactual_local")
EXACT_MODE_LIMIT = 12
SUPPORT_QUANTILE_BAND = 0.005


@dataclass
class DescriptorSpec:
    """A formalized question plus everything needed to answer it."""

    question: str
    feature: int = None
    instance: list = None
    loss: LossFunction = LossFunction.MSE
    y_rel: float = None
    lam: float = None
    seed: int = 0
    grid: object = None
    max_points: int = 20
    band: float = None
    mode: str = "exact"
    mc_permutations: int = 2000

    def __post_init__(self):
        if self.question not in QUESTIONS:
            raise ValueError(f"unknown question {self.question!r}")
        if isinstance(self.loss, str):
            self.loss = LossFunction(self.loss)
        if self.question in LOCAL_QUESTIONS and self.instance is None:
            raise ValueError(f"{self.question} requires an instance")
        if self.question in ("relevant_value_global", "counterfactual_local") \
                and self.y_rel is None:
            raise ValueError(f"{self.question} requires y_rel")
        if self.question == "counterfactual_local":
            if self.lam is None or self.lam < 0:
                raise ValueError("counterfactual_local requires lambda >= 0")
        if self.mode not in ("exact", "permutation_mc"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def to_dict(self):
        d = {"question": self.question, "loss": self.loss.value, "seed": self.seed,
             "max_points": self.max_points, "mode": self.mode,
             "mc_permutations": self.mc_permutations}
        for key in ("feature", "instance", "y_rel", "lam", "band"):
            value = getattr(self, key)
            if value is not None:
                d[key] = list(value) if key == "instance" else value
        return d


@dataclass
class DescriptorResult:
    """The answer: exactly one payload field is populated."""

    spec: DescriptorSpec
    curve: list = None            # rows of (grid value, estimate, group size)
    scalar: float = None
    attribution: np.ndarray = None
    point: dict = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        payload = {}
        if self.curve is not None:
            payload["curve"] = [[v, e, g] for v, e, g in self.curve]
        if self.scalar is not None:
            payload["scalar"] = self.scalar
        if self.attribution is not None:
            payload["attribution"] = list(np.asarray(self.attribution, dtype=float))
        if self.point is not None:
            payload["point"] = self.point
        return {"spec": self.spec.to_dict(), **payload, "diagnostics": self.diagnostics}


def _require_on_support(d_eval, instance, operation):
    checker = get_support_checker(d_eval, SUPPORT_QUANTILE_BAND)
    if not checker.check(list(instance)):
        raise OffSupportInstance("instance fails the support check", operation=operation)
    return checker


# -- conditional effect curves ----------------------------------------------


def _feature_grid(d, feature, grid, max_points):
    """The grid along `feature`, a name or an index: built when None, refused
    when it runs along another feature."""
    if grid is None:
        return build_grid(d, feature, max_points)
    j = d.feature_index(feature) if isinstance(feature, str) else int(feature)
    if j != grid.feature_index:
        raise ValueError(f"feature {feature!r} does not match the grid along {grid.feature_index}")
    return grid


def cpdp(h, d_eval, feature, grid=None, band=None, max_points=20):
    """Conditional partial dependence: per grid point, the mean prediction
    over evaluation rows whose conditioned feature matches that point."""
    if d_eval.k == 0:
        raise ValueError("evaluation dataset is empty")
    grid = _feature_grid(d_eval, feature, grid, max_points)
    members, dropped = conditional_groups(d_eval, grid, band=band)
    preds = h.predict_batch(d_eval.rows)
    means, sizes, kept = group_means(preds, members, np.ones(d_eval.k))
    kept = np.flatnonzero(kept)
    sq_dev = (preds[:, None] - means[kept]) ** 2 * members[:, kept]
    stderr = np.sqrt(sq_dev.sum(axis=0) / (sizes[kept] - 1)) / np.sqrt(sizes[kept])
    curve = [(grid.points[g], float(means[g]), int(sizes[g])) for g in kept]
    spec = DescriptorSpec(question="cpdp", feature=grid.feature_index, band=band,
                          max_points=max_points)
    return DescriptorResult(spec=spec, curve=curve, diagnostics={
        "dropped_grid_points": dropped, "stderr": stderr.tolist(),
        "evaluation_size": d_eval.k, "sampler": "grouping"})


def ice(h, instance, feature, grid, d_eval, quantile_band=SUPPORT_QUANTILE_BAND,
        max_points=20):
    """Individual conditional expectation: the model's own slice through one
    instance, plotted only where the spliced point stays on support. With
    grid None, the grid is built from d_eval."""
    grid = _feature_grid(d_eval, feature, grid, max_points)
    checker = _require_on_support(d_eval, instance, "ice")
    j = grid.feature_index
    spliced = np.array([list(instance)] * len(grid.points), dtype=d_eval.rows.dtype)
    spliced[:, j] = grid.points
    on_support = checker.check_rows(spliced)
    kept = [point for point, ok in zip(grid.points, on_support) if ok]
    off_support = [point for point, ok in zip(grid.points, on_support) if not ok]
    if not kept:
        raise AllGroupsEmpty("no grid point is on support for this instance",
                             operation="ice")
    preds = h.predict_batch(spliced[on_support])
    curve = [(point, float(pred), 1) for point, pred in zip(kept, preds)]
    spec = DescriptorSpec(question="ice", feature=j, instance=list(instance),
                          max_points=max_points)
    return DescriptorResult(spec=spec, curve=curve, diagnostics={
        "off_support_grid_points": off_support, "evaluation_size": d_eval.k})


# -- conditional contributions ------------------------------------------------


def cpfi(config, d_train, d_eval, feature, loss):
    """Conditional feature importance, refit form: how much worse the
    optimally reduced model predicts without the feature."""
    if d_train.n < 2:
        raise ValueError("cpfi needs at least two features")
    full_set = tuple(range(d_train.n))
    reduced_set = tuple(j for j in full_set if j != feature)
    full_epe = epe(subset_model(config, d_train, loss, full_set), d_eval, loss)
    reduced_epe = epe(subset_model(config, d_train, loss, reduced_set),
                      select_features(d_eval, reduced_set), loss)
    spec = DescriptorSpec(question="cpfi", feature=feature, loss=loss)
    return DescriptorResult(spec=spec, scalar=reduced_epe - full_epe, diagnostics={
        "epe_full": full_epe, "epe_reduced": reduced_epe,
        "evaluation_size": d_eval.k})


def local_conditional_contribution(config, d_train, d_eval, instance, observed_y,
                                   feature, loss):
    """Instance-level analogue of cpfi: the loss paid at this instance by
    not knowing the feature (reduced minus full, helpful features positive)."""
    _require_on_support(d_eval, instance, "local_conditional_contribution")
    full_set = tuple(range(d_train.n))
    reduced_set = tuple(j for j in full_set if j != feature)
    full = subset_model(config, d_train, loss, full_set)
    reduced = subset_model(config, d_train, loss, reduced_set)
    y = np.array([observed_y], dtype=float)
    loss_full = float(pointwise_loss(
        loss, y, np.array([full.predict(instance)]),
        y_levels=full.params.get("y_levels"))[0])
    reduced_instance = [instance[j] for j in reduced_set]
    loss_reduced = float(pointwise_loss(
        loss, y, np.array([reduced.predict(reduced_instance)]),
        y_levels=reduced.params.get("y_levels"))[0])
    spec = DescriptorSpec(question="local_conditional_contribution", feature=feature,
                          instance=list(instance), loss=loss)
    return DescriptorResult(spec=spec, scalar=loss_reduced - loss_full, diagnostics={
        "loss_full": loss_full, "loss_reduced": loss_reduced})


# -- fair contributions (Shapley) ----------------------------------------------


def _shapley_exact(n, value_of):
    """phi_j = (1/n) sum_S C(n-1,|S|)^-1 [v(S u j) - v(S)], all subsets."""
    values = {}
    for size in range(n + 1):
        for s in itertools.combinations(range(n), size):
            values[s] = value_of(s)
    phi = np.zeros(n)
    for j in range(n):
        others = [i for i in range(n) if i != j]
        for size in range(n):
            weight = 1.0 / (n * comb(n - 1, size))
            for s in itertools.combinations(others, size):
                with_j = tuple(sorted(s + (j,)))
                phi[j] += weight * (values[with_j] - values[s])
    return phi, values


def _shapley_permutation_mc(n, value_of, permutations, seed):
    """Average marginal gains over random feature orderings."""
    rng = np.random.default_rng(derive_seed(seed, "shapley-permutations"))
    gains = np.zeros((permutations, n))
    cache = {(): value_of(())}
    for p in range(permutations):
        order = rng.permutation(n)
        acquired = []
        prev = cache[()]
        for j in order:
            acquired.append(int(j))
            key = tuple(sorted(acquired))
            if key not in cache:
                cache[key] = value_of(key)
            gains[p, j] = cache[key] - prev
            prev = cache[key]
    phi = gains.mean(axis=0)
    stderr = gains.std(axis=0, ddof=1) / np.sqrt(permutations)
    return phi, stderr


def _fair_contribution(n, value_of, mode, mc_permutations, seed, spec, extra=None):
    if mode == "exact":
        if n > EXACT_MODE_LIMIT:
            raise TooManyFeaturesForExact(
                f"{n} features exceeds the exact-mode limit {EXACT_MODE_LIMIT}",
                operation=spec.question)
        phi, values = _shapley_exact(n, value_of)
        diagnostics = {"value_empty": values[()], "value_full": values[tuple(range(n))]}
    else:
        phi, stderr = _shapley_permutation_mc(n, value_of, mc_permutations, seed)
        diagnostics = {"mc_stderr": stderr.tolist(),
                       "value_empty": value_of(()),
                       "value_full": value_of(tuple(range(n)))}
    if extra:
        diagnostics.update(extra)
    return DescriptorResult(spec=spec, attribution=phi, diagnostics=diagnostics)


def sage(config, d_train, d_eval, loss, mode="exact", mc_permutations=2000, seed=0):
    """Global fair contribution: Shapley attribution of risk reductions.

    The coalition value of S is -EPE of the subset refit on S, so a feature's
    score is its Shapley-weighted average EPE reduction; the scores sum to
    EPE(empty) - EPE(full)."""
    n = d_train.n
    eval_cache = {}

    def value_of(subset):
        if subset not in eval_cache:
            handle = subset_model(config, d_train, loss, subset)
            eval_cache[subset] = -epe(handle, select_features(d_eval, subset), loss)
        return eval_cache[subset]

    spec = DescriptorSpec(question="sage", loss=loss, mode=mode,
                          mc_permutations=mc_permutations, seed=seed)
    return _fair_contribution(n, value_of, mode, mc_permutations, seed, spec,
                              extra={"evaluation_size": d_eval.k})


def shapley_local(config, d_train, d_eval, instance, mode="exact",
                  mc_permutations=2000, seed=0, loss=LossFunction.MSE):
    """Local fair contribution: Shapley attribution of the prediction itself,
    with subset predictions realized as refits evaluated at the instance's
    restriction. In exact mode the scores sum to m(x) minus the best
    constant."""
    _require_on_support(d_eval, instance, "shapley_local")
    n = d_train.n
    eval_cache = {}

    def value_of(subset):
        if subset not in eval_cache:
            handle = subset_model(config, d_train, loss, subset)
            restricted = [instance[j] for j in subset]
            eval_cache[subset] = handle.predict(restricted)
        return eval_cache[subset]

    spec = DescriptorSpec(question="shapley_local", instance=list(instance), loss=loss,
                          mode=mode, mc_permutations=mc_permutations, seed=seed)
    return _fair_contribution(n, value_of, mode, mc_permutations, seed, spec)


# -- relevant values and counterfactuals ---------------------------------------


PERTURB_STEPS = (-0.5, -0.25, 0.25, 0.5)   # in units of per-feature std
PERTURB_TOP_ROWS = 5


def _perturbations(d_eval, base_rows):
    """Deterministic coordinate-wise perturbations of promising rows."""
    stds = []
    for j, spec in enumerate(d_eval.features):
        stds.append(0.0 if spec.kind == "categorical"
                    else float(np.std(d_eval.numeric_column(j))))
    out = []
    for row in base_rows:
        for j, spec in enumerate(d_eval.features):
            if spec.kind == "categorical" or stds[j] == 0.0:
                continue
            for step in PERTURB_STEPS:
                candidate = list(row)
                candidate[j] = float(candidate[j]) + step * stds[j]
                out.append(candidate)
    return out


def relevant_value_global(h, d_eval, y_rel):
    """Realistic conditions under which the model output comes closest to a
    relevant target value: exhaustive scan over evaluation rows, then local
    perturbations of the best rows that still pass the support check."""
    if d_eval.k == 0:
        raise ValueError("evaluation dataset is empty")
    preds = h.predict_batch(d_eval.rows)
    objective = np.abs(preds - float(y_rel))
    best_idx = int(np.argmin(objective))
    best_obj = float(objective[best_idx])
    best_x = list(d_eval.rows[best_idx])

    checker = get_support_checker(d_eval, SUPPORT_QUANTILE_BAND)
    top = np.argsort(objective, kind="stable")[:PERTURB_TOP_ROWS]
    perturbed = _perturbations(d_eval, [d_eval.rows[i] for i in top])
    candidates = [c for c, ok in zip(perturbed, checker.check_rows(perturbed)) if ok]
    perturbed_used = False
    if candidates:
        cand_preds = h.predict_batch(np.array(candidates, dtype=d_eval.rows.dtype))
        cand_obj = np.abs(cand_preds - float(y_rel))
        ci = int(np.argmin(cand_obj))
        if float(cand_obj[ci]) < best_obj:
            best_obj, best_x = float(cand_obj[ci]), list(candidates[ci])
            best_idx, perturbed_used = None, True

    spec = DescriptorSpec(question="relevant_value_global", y_rel=float(y_rel))
    return DescriptorResult(spec=spec, point={
        "x": best_x, "objective": best_obj, "row_index": best_idx,
        "from_perturbation": perturbed_used,
    }, diagnostics={"candidates_scanned": d_eval.k + len(candidates)})


def counterfactual_local(h, d_eval, instance, y_rel, lam,
                         quantile_band=SUPPORT_QUANTILE_BAND):
    """Realistic conditions similar to the instance under which the model
    output comes closest to the target: minimize |m(x') - y_rel| plus a
    Gower-distance penalty over supported candidates."""
    checker = _require_on_support(d_eval, instance, "counterfactual_local")
    if lam < 0:
        raise ValueError("lambda must be non-negative")

    candidates = [list(instance)]
    candidates.extend(list(r) for r in d_eval.rows)
    preds = h.predict_batch(np.array(candidates, dtype=d_eval.rows.dtype))
    gap = np.abs(preds - float(y_rel))
    top = np.argsort(gap, kind="stable")[:PERTURB_TOP_ROWS]
    candidates.extend(_perturbations(d_eval, [candidates[i] for i in top]))

    matrix = np.array(candidates, dtype=d_eval.rows.dtype)
    on_support = np.flatnonzero(checker.check_rows(matrix))
    if not on_support.size:
        raise NoSupportedCandidate("no candidate passes the support check",
                                   operation="counterfactual_local")
    supported = matrix[on_support]
    preds = h.predict_batch(supported)
    gaps = np.abs(preds - float(y_rel))
    dists = gower_distances(supported, list(instance), d_eval.features, checker.ranges)
    objectives = gaps + lam * dists
    best = int(np.argmin(objectives))

    spec = DescriptorSpec(question="counterfactual_local", instance=list(instance),
                          y_rel=float(y_rel), lam=float(lam))
    return DescriptorResult(spec=spec, point={
        "x": list(candidates[on_support[best]]),
        "objective": float(objectives[best]),
        "prediction_gap": float(gaps[best]),
        "gower_distance": float(dists[best]),
    }, diagnostics={"candidates_scanned": len(on_support)})
