"""Error quantification for descriptor estimates.

Two error sources are kept apart. Estimation error: the descriptor was
computed from finite evaluation data instead of full distributional
knowledge. Model error: it was computed on a trained model instead of the
optimal one. Variances of both are estimated by nested resampling and turned
into pointwise confidence intervals; the combined interval additionally
assumes the learner is unbiased, which is flagged, not verified, and
resampling overlap between training and evaluation data is flagged as a
known source of variance underestimation.
"""

import warnings
from dataclasses import dataclass, field
from itertools import chain, islice, repeat, tee

import numpy as np

# resample is not called here: perfbench/test_checks.py checks that its tracer patches this name
from .data import (ResamplePlan, resample, resample_size,  # noqa: F401
                   resample_streams, select_features)
from .descriptors import QUESTIONS, feature_grid
from .errors import (
    InsufficientReplicates,
    NoOracleAvailable,
    NoReferenceAvailable,
)
from .models import train_each
from .phenomenon import true_conditional_expectation
from .samplers import group_means
from ._util import derive_seed, lru_get, lru_get_or_build, new_cache

MIN_REPLICATES = 20
# replicate x row cells of one stacked group_means call: a memory bound
GROUP_MEAN_CELLS = 1 << 18
# replicate x row cells of an interval's draws, at most, for its draws and
# refits to be kept for the next interval on the same data: a memory bound
KEPT_CELLS = 1 << 21
# the intervals whose draws, and the column sets whose refits, are kept
KEPT_INTERVALS = 2
_draw_cache, _refit_cache = new_cache(), new_cache()


@dataclass(frozen=True)
class CIConfig:
    """Confidence-interval construction parameters. resample_plan gives the
    resampling method, fraction and seed; the replicate counts are
    ee_replicates and me_replicates, and the plan's own count is not read."""

    alpha: float = 0.05
    ee_replicates: int = 100
    me_replicates: int = 30
    resample_plan: ResamplePlan = None
    quantile_family: str = "student_t"

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.quantile_family not in ("student_t", "normal"):
            raise ValueError(f"unknown quantile family {self.quantile_family!r}")
        if self.resample_plan is None:
            object.__setattr__(self, "resample_plan",
                               ResamplePlan(method="bootstrap", replicates=1, seed=0))

    def quantile(self, replicates):
        """The two-sided (1 - alpha) quantile: the same special functions
        `scipy.stats.norm.ppf` and `t.ppf` evaluate, without importing
        scipy.stats (about 1 s) into every process that builds no interval."""
        from scipy import special
        if self.quantile_family == "normal":
            return float(special.ndtri(1.0 - self.alpha / 2.0))
        return float(special.stdtrit(replicates - 1, 1.0 - self.alpha / 2.0))


@dataclass
class UncertaintyReport:
    """Point estimates with variance vectors and confidence intervals.

    ci_me_ee is None when only estimation error was quantified. When both
    are present the combined variance dominates the estimation-only variance
    pointwise by construction (law-of-total-variance split of the same
    replicate grid)."""

    grid: object
    point_estimates: np.ndarray
    var_ee: np.ndarray
    ci_ee: np.ndarray
    var_me_ee: np.ndarray = None
    ci_me_ee: np.ndarray = None
    replicate_curves: np.ndarray = None
    assumptions: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        d = {
            "grid": list(self.grid.points) if self.grid is not None else None,
            "point_estimates": self.point_estimates.tolist(),
            "var_ee": self.var_ee.tolist(),
            "ci_ee": self.ci_ee.tolist(),
            "assumptions": self.assumptions,
            "diagnostics": self.diagnostics,
        }
        if self.var_me_ee is not None:
            d["var_me_ee"] = self.var_me_ee.tolist()
            d["ci_me_ee"] = self.ci_me_ee.tolist()
        return d


# -- descriptor evaluation on a fixed grid -------------------------------------


def _check_question(spec, operation, mode):
    """Refuse, by name and before any work, a question without `mode`
    intervals; mode None (the error measurements, which compare curves)
    takes a curve with intervals. Combined-only questions read refits."""
    question = QUESTIONS[spec.question]
    if (mode in question.intervals) if mode else (question.y_label and question.intervals):
        return
    if mode == "ee" and question.intervals:
        raise ValueError(f"{spec.question} intervals refit the learner, which {operation} "
                         "holds fixed; use ci_combined (--mode combined)")
    raise ValueError(f"{operation} does not support the question {spec.question!r}")


def _resolve_grid(spec, d):
    if QUESTIONS[spec.question].y_label is None:
        return None
    return feature_grid(d, spec.feature, spec.grid, spec.max_points)


def _kept(k, plans):
    """Whether an interval's draws on k rows, and its refits, are kept."""
    return sum(plan.replicates * resample_size(k, plan) for plan in plans) <= KEPT_CELLS


def _draws(k, plans):
    """Per plan, the replicates' row indices on k rows that resample_streams
    draws. A kept interval's are a read-only matrix per plan, of the smallest
    integer type that holds k - 1, which the next interval on k rows with
    the same plans reuses; a larger interval's are drawn lazily."""
    if not _kept(k, plans):
        return resample_streams(k, plans)

    def build():
        dtype, matrices = np.min_scalar_type(max(k - 1, 0)), []
        for plan, draws in zip(plans, resample_streams(k, plans)):
            matrix = np.empty((plan.replicates, resample_size(k, plan)), dtype)
            for r, rows in enumerate(draws):
                matrix[r] = rows
            matrix.setflags(write=False)
            matrices.append(matrix)
        return tuple(matrices)

    return lru_get_or_build(_draw_cache, KEPT_INTERVALS, (k, tuple(plans)), build)


def _refits(config, d, loss, plans, train_draws, column_sets):
    """Per refit, its handle on each column set: the full-data refit, then
    one per training draw (of plans[0]). Each set's refits are one
    train_each stream of (d's columns of the set, rows) fits, rows None for
    the full-data refit and then each draw's row indices, so that by its
    one stacking rule a set's ols and mlp refits train as stacks and no
    Dataset copy is made; the sets to train share the draws. A kept
    interval's refits on a set are kept, keyed on the config, d's
    fingerprint, the loss, the training plan and the set, and the next
    interval with that key reads them back."""
    keys = [(config, d.fingerprint, loss, plans[0], cols) for cols in column_sets] \
        if _kept(d.k, plans) else [None] * len(column_sets)
    streams = [key and lru_get(_refit_cache, key) for key in keys]
    missing = [i for i, handles in enumerate(streams) if handles is None]
    for i, draws in zip(missing, tee(chain([None], train_draws), len(missing))):
        fits = train_each(config, zip(repeat(select_features(d, column_sets[i])), draws), loss)
        streams[i] = fits if keys[i] is None else _keeping(fits, keys[i])
    return zip(*streams)


def _keeping(handles, key):
    """The handles of the iterable, kept under key. The first is passed on
    as soon as train_each yields it, so that the point estimate is computed
    where an unkept interval computes it, and its error comes before a
    replicate refit's; the rest train together when the second is asked for."""
    first = next(handles)
    yield first
    rest = tuple(handles)
    lru_get_or_build(_refit_cache, KEPT_INTERVALS, key, lambda: (first, *rest))
    yield from rest


def _curves(spec, grid, views, handles, samples=None, members=None):
    """The question on views (the data on each of its column sets, full
    first) and handles (a model per set): one vector per row sample of the
    iterable `samples` (row indices, a repeated row counted each time; None,
    every row once), as the rows of a matrix; samples None is [None] (the
    point estimate). A vector is the question's row values averaged per
    group of `members`, its k x G membership matrix (`Question.members`,
    computed here when None): aligned to the grid, NaN where a point was
    dropped, or of length 1 for a one-group question; it equals a Dataset
    copy's up to summation order. The membership depends only on the data,
    the grid and the band, so an interval computes it once and passes it to
    each refit's call. Each chunk of at most GROUP_MEAN_CELLS sample x row
    cells is one bincount (row indices offset by r·k) and one `group_means`
    call."""
    d = views[0]
    samples = iter([None] if samples is None else samples)
    if d.k == 0:
        raise ValueError("evaluation dataset is empty")
    question = QUESTIONS[spec.question]
    values = question.row_values(spec, views, handles)
    if members is None:
        members = question.members(spec, grid, views)
    groups = "every grid point" if grid is not None else "the evaluation rows"
    every_row, curves = np.arange(d.k), []
    while chunk := [every_row if rows is None else rows
                    for rows in islice(samples, max(1, GROUP_MEAN_CELLS // d.k))]:
        sizes = [rows.size for rows in chunk]
        if not all(sizes):
            raise ValueError("evaluation dataset is empty")
        rows = np.concatenate(chunk) + np.repeat(np.arange(0, len(chunk) * d.k, d.k), sizes)
        weights = np.bincount(rows, minlength=len(chunk) * d.k).reshape(len(chunk), d.k)
        curves.append(group_means(values, members, weights.astype(float), spec.question,
                                  groups)[0])
    return np.concatenate(curves)


def _grid_mean_sq(a, b):
    """Squared-error descriptor distance averaged over jointly retained points."""
    mask = ~(np.isnan(a) | np.isnan(b))
    if not mask.any():
        raise ValueError("no jointly retained grid points")
    return float(np.mean((a[mask] - b[mask]) ** 2))


# -- error measurements ---------------------------------------------------------


def estimation_error(h, reference, d_eval, spec):
    """Squared distance between the descriptor on a full-knowledge reference
    sample and on the finite evaluation data, averaged over the grid."""
    _check_question(spec, "estimation_error", None)
    if reference is None:
        raise NoReferenceAvailable(
            "estimation error needs a full-knowledge reference sample; with "
            "observed data it is only estimable in expectation via the variance",
            operation="estimation_error")
    grid = _resolve_grid(spec, reference)
    ref_curve = _curves(spec, grid, [reference], [h])[0]
    est_curve = _curves(spec, grid, [d_eval], [h])[0]
    return _grid_mean_sq(ref_curve, est_curve)


def model_error(h, oracle, reference, spec):
    """Squared distance between the descriptors of the trained and the
    optimal model, both computed on the same reference sample."""
    _check_question(spec, "model_error", None)
    if oracle is None:
        raise NoOracleAvailable("model error needs the optimal predictor",
                                operation="model_error")
    grid = _resolve_grid(spec, reference)
    oracle_curve = _curves(spec, grid, [reference], [oracle])[0]
    model_curve = _curves(spec, grid, [reference], [h])[0]
    return _grid_mean_sq(oracle_curve, model_curve)


def bias_variance_me(config, p, k, replicates, spec, seed, reference_size=50000):
    """Decompose expected model error over the training-set distribution.

    Refits the learner on `replicates` fresh training samples of size k,
    evaluates the descriptor of each refit on one shared reference sample,
    and splits the squared error against the analytic curve into bias^2 and
    variance per grid point. Variances use the 1/N convention so that
    mean(per-replicate ME) = bias^2 + variance holds as an identity.
    """
    from .phenomenon import sample as sample_phenomenon

    _check_question(spec, "bias_variance_me", None)
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    reference = sample_phenomenon(p, reference_size, derive_seed(seed, "bv-reference"))
    grid = _resolve_grid(spec, reference)
    oracle_curve = np.array([true_conditional_expectation(p, spec.feature, v)
                             for v in grid.points])

    d_trains = (sample_phenomenon(p, k, derive_seed(seed, "bv-train", r))
                for r in range(replicates))
    members = QUESTIONS[spec.question].members(spec, grid, [reference])
    curves = np.concatenate([_curves(spec, grid, [reference], [handle], members=members)
                             for handle in train_each(config, zip(d_trains, repeat(None)),
                                                      spec.loss)])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN replicate slices
        mean_curve = np.nanmean(curves, axis=0)
        variance = np.nanvar(curves, axis=0, ddof=0)
    bias_sq = (oracle_curve - mean_curve) ** 2
    return bias_sq, variance


# -- confidence intervals --------------------------------------------------------


def _check_replicates(count, operation):
    if count < MIN_REPLICATES:
        raise InsufficientReplicates(
            f"{count} replicates < required minimum {MIN_REPLICATES}",
            operation=operation)


def _plan(cfg, replicates, *parts):
    """cfg's resampling plan with its own seed stream, derived from parts."""
    return ResamplePlan(method=cfg.resample_plan.method, fraction=cfg.resample_plan.fraction,
                        replicates=replicates, seed=derive_seed(cfg.resample_plan.seed, *parts))


def _interval(points, half):
    return np.stack([points - half, points + half], axis=1)


def ci_estimation(h, d_eval, spec, cfg):
    """Pointwise CI for estimation error only: the model is held fixed and
    the evaluation data is resampled; half-width is the chosen quantile times
    the replicate standard deviation."""
    _check_question(spec, "ci_estimation", "ee")
    _check_replicates(cfg.ee_replicates, "ci_estimation")
    grid = _resolve_grid(spec, d_eval)
    [draws] = _draws(d_eval.k, [_plan(cfg, cfg.ee_replicates, "ci-ee")])
    # the point estimate is the first sample, so the row values are computed once
    curves = _curves(spec, grid, [d_eval], [h], chain([None], draws))
    point, curves = curves[0], curves[1:]

    counts = np.sum(~np.isnan(curves), axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN replicate slices
        var_ee = np.nanvar(curves, axis=0, ddof=1)
    half = cfg.quantile(cfg.ee_replicates) * np.sqrt(var_ee)
    return UncertaintyReport(
        grid=grid, point_estimates=point, var_ee=var_ee, ci_ee=_interval(point, half),
        replicate_curves=curves,
        assumptions={"unbiased_learner_assumed": False,
                     "resampling_overlap_warning": False},
        diagnostics={"ee_replicates": cfg.ee_replicates,
                     "replicate_retained_counts": counts.tolist(),
                     "alpha": cfg.alpha})


def ci_combined(config, d, spec, cfg):
    """Pointwise CI for model and estimation error together.

    Each model replicate is a refit on resampled training data; each
    evaluation replicate resamples the evaluation data under the refit
    model. The point estimate's full-data refit leads the one stream of
    refits, so under bootstrap (replicates of the data's row count) its ols
    or mlp fit stacks with the replicates'. The grid membership is computed
    once, after the full-data refit, and serves every refit. The combined variance pools all
    replicate pairs (1/N convention); the estimation-only variance is the
    mean within-refit variance, so the combined variance dominates it
    pointwise by the law of total variance.
    Training and evaluation resamples overlap, which is flagged because it
    can bias the variance downward.
    """
    _check_question(spec, "ci_combined", "combined")
    _check_replicates(cfg.ee_replicates, "ci_combined")
    _check_replicates(cfg.me_replicates, "ci_combined")
    grid = _resolve_grid(spec, d)
    column_sets = QUESTIONS[spec.question].column_sets(spec, d)
    views = [select_features(d, cols) for cols in column_sets]
    # allocated first, so that an absurd replicate count fails before any seed is derived
    curves = np.empty((cfg.me_replicates, cfg.ee_replicates,
                       1 if grid is None else len(grid.points)))
    plans = [_plan(cfg, cfg.me_replicates, "ci-me-train")]
    plans += [_plan(cfg, cfg.ee_replicates, "ci-me-eval", r) for r in range(cfg.me_replicates)]
    train_draws, *eval_draws = _draws(d.k, plans)
    refits = _refits(config, d, spec.loss, plans, train_draws, column_sets)
    handles = next(refits)
    members = QUESTIONS[spec.question].members(spec, grid, views)
    point = _curves(spec, grid, views, handles, members=members)[0]
    for r, (handles, draws) in enumerate(zip(refits, eval_draws)):
        curves[r] = _curves(spec, grid, views, handles, draws, members)

    flat = curves.reshape(-1, point.size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN replicate slices
        var_me_ee = np.nanvar(flat, axis=0, ddof=0)
        var_ee = np.nanmean(np.nanvar(curves, axis=1, ddof=0), axis=0)

    # one shared quantile factor, so interval nesting mirrors variance dominance
    n_pairs = cfg.me_replicates * cfg.ee_replicates
    factor = cfg.quantile(n_pairs)
    half_combined = factor * np.sqrt(var_me_ee)
    half_ee = factor * np.sqrt(var_ee)
    counts = np.sum(~np.isnan(flat), axis=0)
    return UncertaintyReport(
        grid=grid, point_estimates=point, var_ee=var_ee, ci_ee=_interval(point, half_ee),
        var_me_ee=var_me_ee, ci_me_ee=_interval(point, half_combined),
        replicate_curves=flat,
        assumptions={"unbiased_learner_assumed": True,
                     "resampling_overlap_warning": True},
        diagnostics={"ee_replicates": cfg.ee_replicates,
                     "me_replicates": cfg.me_replicates,
                     "replicate_retained_counts": counts.tolist(),
                     "alpha": cfg.alpha})
