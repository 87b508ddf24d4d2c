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
from math import comb, isfinite

import numpy as np

from .data import gower_decode, gower_encode
from .errors import AllGroupsEmpty, OffSupportInstance, TooManyFeaturesForExact
from .models import (
    LossFunction,
    gower_distances,
    pointwise_loss,
    require_same_features,
    row_losses,
    subset_predictions,
    subset_risks,
)
from .samplers import (
    build_grid, check_band, conditional_groups, get_support_checker, grid_membership, group_means,
)
from ._util import derive_seed

EXACT_MODE_LIMIT = 12


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
        for need in QUESTIONS[self.question].needs:   # observed_y is no spec field
            if need != "observed_y" and getattr(self, "lam" if need == "lambda" else need) is None:
                raise ValueError(f"{self.question} requires {need}")
        if self.y_rel is not None:
            self.y_rel = _finite("y_rel", self.y_rel)
        if self.lam is not None:
            self.lam = _finite("lambda", self.lam)
            if self.lam < 0:
                raise ValueError(f"lambda must be non-negative, got {self.lam!r}")
        check_band(self.band)
        if self.mode not in ("exact", "permutation_mc"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mc_permutations < 2:  # one permutation has no standard error
            raise ValueError(f"mc_permutations must be at least 2, got {self.mc_permutations}")

    def to_dict(self):
        d = {"question": self.question, "loss": self.loss.value, "seed": self.seed,
             "max_points": self.max_points, "mode": self.mode,
             "mc_permutations": self.mc_permutations}
        for key in ("feature", "instance", "y_rel", "lam", "band"):
            value = getattr(self, key)
            if value is not None:
                d[key] = list(value) if key == "instance" else value
        return d


def _finite(name, value):
    if value is None or not isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


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


def _require_on_support(d_eval, spec):
    if len(spec.instance) != d_eval.n:
        raise ValueError(f"instance has {len(spec.instance)} values, but the data has "
                         f"{d_eval.n} features")
    checker = get_support_checker(d_eval)
    if not checker.check(spec.instance):
        raise OffSupportInstance("instance fails the support check", operation=spec.question)
    return checker


# -- conditional effect curves ----------------------------------------------


def feature_grid(d, feature, grid, max_points):
    """The grid along `feature`, a name or an index: built when None, refused
    when it runs along another feature."""
    if grid is None:
        return build_grid(d, feature, max_points)
    if d.feature_index(feature) != grid.feature_index:
        raise ValueError(f"feature {feature!r} does not match the grid along {grid.feature_index}")
    return grid


def cpdp(h, d_eval, feature, grid=None, band=None, max_points=DescriptorSpec.max_points):
    """Conditional partial dependence: per grid point, the mean prediction
    over evaluation rows whose conditioned feature matches that point."""
    if d_eval.k == 0:
        raise ValueError("evaluation dataset is empty")
    grid = feature_grid(d_eval, feature, grid, max_points)
    spec = DescriptorSpec(question="cpdp", feature=grid.feature_index, band=band,
                          max_points=max_points)
    members, dropped = conditional_groups(d_eval, grid, band=band)
    preds = h.predict_batch(d_eval.codes)
    means, sizes, kept = (a[0] for a in group_means(preds, members, np.ones((1, d_eval.k))))
    kept = np.flatnonzero(kept)
    sq_dev = (preds[:, None] - means[kept]) ** 2 * members[:, kept]
    stderr = np.sqrt(sq_dev.sum(axis=0) / (sizes[kept] - 1)) / np.sqrt(sizes[kept])
    curve = [(grid.points[g], float(means[g]), int(sizes[g])) for g in kept]
    return DescriptorResult(spec=spec, curve=curve, diagnostics={
        "dropped_grid_points": dropped, "stderr": stderr.tolist(),
        "evaluation_size": d_eval.k, "sampler": "grouping"})


def ice(h, instance, feature, grid, d_eval, max_points=DescriptorSpec.max_points):
    """Individual conditional expectation: the model's own slice through one
    instance, plotted only where the spliced point stays on support. With
    grid None, the grid is built from d_eval."""
    grid = feature_grid(d_eval, feature, grid, max_points)
    j = grid.feature_index
    spec = DescriptorSpec(question="ice", feature=j, instance=list(instance),
                          max_points=max_points)
    checker = _require_on_support(d_eval, spec)
    spliced = np.repeat(gower_encode([instance], d_eval.features), len(grid.points), axis=0)
    spliced[:, j] = grid.codes(d_eval)
    on_support = checker.check_rows(spliced)
    kept = [point for point, ok in zip(grid.points, on_support) if ok]
    off_support = [point for point, ok in zip(grid.points, on_support) if not ok]
    if not kept:
        raise AllGroupsEmpty("no grid point is on support for this instance",
                             operation=spec.question)
    preds = h.predict_batch(spliced[on_support])
    curve = [(point, float(pred), 1) for point, pred in zip(kept, preds)]
    return DescriptorResult(spec=spec, curve=curve, diagnostics={
        "off_support_grid_points": off_support, "evaluation_size": d_eval.k})


# -- conditional contributions ------------------------------------------------


def _full_and_reduced(d, feature):
    """The index of `feature` (a name or an index), all of d's feature
    indices, and all but that one."""
    j = d.feature_index(feature)
    full_set = tuple(range(d.n))
    return j, full_set, full_set[:j] + full_set[j + 1:]


def cpfi_sets(d, feature):
    """cpfi's index of `feature`, its full feature set and its reduced one."""
    if d.n < 2:
        raise ValueError("cpfi needs at least two features")
    return _full_and_reduced(d, feature)


def cpfi(config, d_train, d_eval, feature, loss):
    """Conditional feature importance, refit form: how much worse the
    optimally reduced model predicts without the feature (a name or an index)."""
    require_same_features(d_train, d_eval, "cpfi")
    j, full_set, reduced_set = cpfi_sets(d_train, feature)
    spec = DescriptorSpec(question="cpfi", feature=j, loss=loss)
    full_epe, reduced_epe = subset_risks(config, d_train, d_eval, loss, [full_set, reduced_set])
    return DescriptorResult(spec=spec, scalar=reduced_epe - full_epe, diagnostics={
        "epe_full": full_epe, "epe_reduced": reduced_epe,
        "evaluation_size": d_eval.k})


def local_conditional_contribution(config, d_train, d_eval, instance, observed_y,
                                   feature, loss):
    """Instance-level analogue of cpfi: the loss paid at this instance by
    not knowing the feature (reduced minus full, helpful features positive)."""
    y = np.array([_finite("observed_y", observed_y)])
    require_same_features(d_train, d_eval, "local_conditional_contribution")
    j, full_set, reduced_set = _full_and_reduced(d_train, feature)
    spec = DescriptorSpec(question="local_conditional_contribution", feature=j,
                          instance=list(instance), loss=loss)
    _require_on_support(d_eval, spec)
    # no learner trains under KL, the one loss that reads y_levels, so the
    # full refit refuses it before any loss is taken
    preds = subset_predictions(config, d_train, loss, [full_set, reduced_set], [instance])
    loss_full, loss_reduced = (float(pointwise_loss(loss, y, pred)[0]) for pred in preds)
    return DescriptorResult(spec=spec, scalar=loss_reduced - loss_full, diagnostics={
        "loss_full": loss_full, "loss_reduced": loss_reduced})


# -- fair contributions (Shapley) ----------------------------------------------


def _shapley_exact(n, values):
    """phi_j = (1/n) sum_S C(n-1,|S|)^-1 [v(S u j) - v(S)], over the values
    of all subsets."""
    phi = np.zeros(n)
    for j in range(n):
        others = [i for i in range(n) if i != j]
        for size in range(n):
            weight = 1.0 / (n * comb(n - 1, size))
            for s in itertools.combinations(others, size):
                with_j = tuple(sorted(s + (j,)))
                phi[j] += weight * (values[with_j] - values[s])
    return phi


def _shapley_permutation_mc(n, values, orderings):
    """Average marginal gains over the orderings, from the values of the
    subsets they visit (each ordering visits all n)."""
    gains = np.zeros((len(orderings), n))
    for p, order in enumerate(orderings):
        prev = values[()]
        for i, j in enumerate(order):
            value = values[tuple(sorted(order[:i + 1]))]
            gains[p, j] = value - prev
            prev = value
    phi = gains.mean(axis=0)
    stderr = gains.std(axis=0, ddof=1) / np.sqrt(len(orderings))
    return phi, stderr


def _fair_contribution(n, values_of, spec, extra=None):
    """Shapley attribution from `values_of(subsets)`, the coalition values
    of a list of subsets: all 2^n in exact mode, else the empty set and the
    prefixes of the drawn orderings, each listed once in the order visited."""
    if spec.mode == "exact":
        if n > EXACT_MODE_LIMIT:
            raise TooManyFeaturesForExact(
                f"{n} features exceeds the exact-mode limit {EXACT_MODE_LIMIT}",
                operation=spec.question)
        subsets = [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]
    else:
        rng = np.random.default_rng(derive_seed(spec.seed, "shapley-permutations"))
        orderings = [rng.permutation(n).tolist() for _ in range(spec.mc_permutations)]
        subsets = [()] + [tuple(sorted(order[:i + 1])) for order in orderings for i in range(n)]
    subsets = list(dict.fromkeys(subsets))
    values = dict(zip(subsets, values_of(subsets)))
    if spec.mode == "exact":
        phi = _shapley_exact(n, values)
        diagnostics = {}
    else:
        phi, stderr = _shapley_permutation_mc(n, values, orderings)
        diagnostics = {"mc_stderr": stderr.tolist()}
    diagnostics.update(value_empty=values[()], value_full=values[tuple(range(n))])
    if extra:
        diagnostics.update(extra)
    return DescriptorResult(spec=spec, attribution=phi, diagnostics=diagnostics)


def sage(config, d_train, d_eval, loss, mode=DescriptorSpec.mode,
         mc_permutations=DescriptorSpec.mc_permutations, seed=DescriptorSpec.seed):
    """Global fair contribution: Shapley attribution of risk reductions.

    The coalition value of S is -EPE of the subset refit on S, so a feature's
    score is its Shapley-weighted average EPE reduction; the scores sum to
    EPE(empty) - EPE(full)."""
    require_same_features(d_train, d_eval, "sage")
    spec = DescriptorSpec(question="sage", loss=loss, mode=mode,
                          mc_permutations=mc_permutations, seed=seed)
    return _fair_contribution(
        d_train.n, lambda subsets: [-r for r in subset_risks(config, d_train, d_eval, loss,
                                                             subsets)],
        spec, extra={"evaluation_size": d_eval.k})


def shapley_local(config, d_train, d_eval, instance, mode=DescriptorSpec.mode,
                  mc_permutations=DescriptorSpec.mc_permutations, seed=DescriptorSpec.seed,
                  loss=DescriptorSpec.loss):
    """Local fair contribution: Shapley attribution of the prediction itself,
    with subset predictions realized as refits evaluated at the instance's
    restriction. In exact mode the scores sum to m(x) minus the best
    constant."""
    require_same_features(d_train, d_eval, "shapley_local")
    spec = DescriptorSpec(question="shapley_local", instance=list(instance), loss=loss,
                          mode=mode, mc_permutations=mc_permutations, seed=seed)
    _require_on_support(d_eval, spec)
    return _fair_contribution(
        d_train.n, lambda subsets: [float(pred[0]) for pred in subset_predictions(
            config, d_train, loss, subsets, [instance])], spec)


# -- relevant values and counterfactuals ---------------------------------------


PERTURB_STEPS = (-0.5, -0.25, 0.25, 0.5)   # in units of per-feature std
PERTURB_TOP_ROWS = 5


def _perturbations(d_eval, base_rows):
    """Deterministic coordinate-wise perturbations of promising rows, rounded
    on integer features; a value the row or an earlier step has is skipped."""
    stds = [0.0 if spec.kind == "categorical" else float(np.std(d_eval.numeric_column(j)))
            for j, spec in enumerate(d_eval.features)]
    out = []
    for row in base_rows:
        for j, spec in enumerate(d_eval.features):
            if spec.kind == "categorical" or stds[j] == 0.0:
                continue
            seen = {float(row[j])}
            for step in PERTURB_STEPS:
                value = float(row[j]) + step * stds[j]
                value = float(round(value)) if spec.kind == "integer" else value
                if value not in seen:
                    seen.add(value)
                    out.append(list(row[:j]) + [value] + list(row[j + 1:]))
    return out


def relevant_value_global(h, d_eval, y_rel):
    """Realistic conditions under which the model output comes closest to a
    relevant target value: exhaustive scan over evaluation rows, then local
    perturbations of the best rows that still pass the support check."""
    spec = DescriptorSpec(question="relevant_value_global", y_rel=y_rel)
    if d_eval.k == 0:
        raise ValueError("evaluation dataset is empty")
    preds = h.predict_batch(d_eval.codes)
    objective = np.abs(preds - spec.y_rel)
    best_idx = int(np.argmin(objective))
    best_obj = float(objective[best_idx])
    best_x = list(gower_decode(d_eval.codes[[best_idx]], d_eval.features)[0])

    checker = get_support_checker(d_eval)
    top = np.argsort(objective, kind="stable")[:PERTURB_TOP_ROWS]
    perturbed = _perturbations(d_eval, gower_decode(d_eval.codes[top], d_eval.features))
    candidates = [c for c, ok in zip(perturbed, checker.check_rows(perturbed)) if ok]
    perturbed_used = False
    if candidates:
        cand_preds = h.predict_batch(gower_encode(candidates, d_eval.features))
        cand_obj = np.abs(cand_preds - spec.y_rel)
        ci = int(np.argmin(cand_obj))
        if float(cand_obj[ci]) < best_obj:
            best_obj, best_x = float(cand_obj[ci]), list(candidates[ci])
            best_idx, perturbed_used = None, True

    return DescriptorResult(spec=spec, point={
        "x": best_x, "objective": best_obj, "row_index": best_idx,
        "from_perturbation": perturbed_used,
    }, diagnostics={"candidates_scanned": d_eval.k + len(candidates)})


def counterfactual_local(h, d_eval, instance, y_rel, lam):
    """Realistic conditions similar to the instance under which the model
    output comes closest to the target: minimize |m(x') - y_rel| plus a
    Gower-distance penalty over supported candidates."""
    spec = DescriptorSpec(question="counterfactual_local", instance=list(instance),
                          y_rel=y_rel, lam=lam)
    checker = _require_on_support(d_eval, spec)

    def candidate(i):  # the instance as given, an evaluation row, or a perturbation
        if 0 < i <= d_eval.k:
            return list(gower_decode(d_eval.codes[[i - 1]], d_eval.features)[0])
        return list(instance) if i == 0 else list(perturbed[i - 1 - d_eval.k])

    codes = np.vstack([gower_encode([instance], d_eval.features), d_eval.codes])
    gap = np.abs(h.predict_batch(codes) - spec.y_rel)
    top = np.argsort(gap, kind="stable")[:PERTURB_TOP_ROWS]
    perturbed = _perturbations(d_eval, [candidate(i) for i in top])
    codes = np.vstack([codes, gower_encode(perturbed, d_eval.features)])

    # the instance, candidate 0, passed this checker in _require_on_support
    on_support = np.flatnonzero(checker.check_rows(codes))
    supported = codes[on_support]
    preds = h.predict_batch(supported)
    gaps = np.abs(preds - spec.y_rel)
    dists = gower_distances(supported, list(instance), d_eval.features, checker.ranges)
    objectives = gaps + spec.lam * dists
    best = int(np.argmin(objectives))

    return DescriptorResult(spec=spec, point={
        "x": candidate(on_support[best]),
        "objective": float(objectives[best]),
        "prediction_gap": float(gaps[best]),
        "gower_distance": float(dists[best]),
    }, diagnostics={"candidates_scanned": len(on_support)})


# -- the questions ---------------------------------------------------------------


@dataclass(frozen=True)
class Question:
    """A question's facts, stated once. `answer` calls its descriptor by the
    module name, so that a patched name (a tracer's) is the one called."""

    reads: str              # "model", or refits on "train_data"
    needs: tuple            # the inputs it cannot do without, in flag order
    answer: object          # (spec, handle or learner config, d_train, d_eval, observed_y)
    y_label: str = None     # its curve's y axis; None when the answer is no curve
    intervals: tuple = ()   # "ee" (the model held fixed), "combined" (refits)
    # an interval reads one model per column set (spec, d), full first, and
    # averages row_values (spec, views, handles), per-row values, over the
    # groups of members (spec, grid, views), a k x G membership that reads
    # no model
    row_values: object = None
    members: object = None
    column_sets: object = lambda spec, d: [tuple(range(d.n))]


# answer's arguments: s spec, h handle or c learner config, t d_train, d d_eval, y observed_y
QUESTIONS = {
    "cpdp": Question(
        "model", ("feature",),
        lambda s, h, t, d, y: cpdp(h, d, s.feature, s.grid, s.band, s.max_points),
        y_label="estimate", intervals=("ee", "combined"),
        row_values=lambda s, views, hs: hs[0].predict_batch(views[0].codes),
        # grouped by grid point
        members=lambda s, grid, views: grid_membership(views[0], grid, s.band).astype(float)),
    "ice": Question(
        "model", ("feature", "instance"),
        lambda s, h, t, d, y: ice(h, s.instance, s.feature, s.grid, d, s.max_points),
        y_label="prediction"),
    "cpfi": Question(
        "train_data", ("feature",), lambda s, c, t, d, y: cpfi(c, t, d, s.feature, s.loss),
        intervals=("combined",), column_sets=lambda s, d: cpfi_sets(d, s.feature)[1:],
        row_values=lambda s, views, hs:  # reduced-minus-full losses, one group
            row_losses(hs[1], views[1], s.loss) - row_losses(hs[0], views[0], s.loss),
        members=lambda s, grid, views: np.ones((views[0].k, 1))),
    "sage": Question(
        "train_data", (), lambda s, c, t, d, y: sage(c, t, d, s.loss, s.mode,
                                                      s.mc_permutations, s.seed)),
    "shapley_local": Question(
        "train_data", ("instance",), lambda s, c, t, d, y: shapley_local(
            c, t, d, s.instance, s.mode, s.mc_permutations, s.seed, s.loss)),
    "local_conditional_contribution": Question(
        "train_data", ("feature", "instance", "observed_y"),
        lambda s, c, t, d, y: local_conditional_contribution(c, t, d, s.instance, y,
                                                             s.feature, s.loss)),
    "relevant_value_global": Question(
        "model", ("y_rel",), lambda s, h, t, d, y: relevant_value_global(h, d, s.y_rel)),
    "counterfactual_local": Question(
        "model", ("instance", "y_rel", "lambda"),
        lambda s, h, t, d, y: counterfactual_local(h, d, s.instance, s.y_rel, s.lam)),
}
