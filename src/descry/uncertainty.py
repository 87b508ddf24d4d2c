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

import numpy as np
from scipy import stats

from .data import ResamplePlan, resample, resample_indices, select_features
from .descriptors import cpdp, cpfi, relevant_value_global
from .errors import (
    InsufficientReplicates,
    NoOracleAvailable,
    NoReferenceAvailable,
)
from .models import row_losses, train
from .phenomenon import true_conditional_expectation
from .samplers import build_grid, grid_membership, group_means
from ._util import derive_seed

MIN_REPLICATES = 20


@dataclass(frozen=True)
class CIConfig:
    """Confidence-interval construction parameters."""

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
        if self.quantile_family == "normal":
            return float(stats.norm.ppf(1.0 - self.alpha / 2.0))
        return float(stats.t.ppf(1.0 - self.alpha / 2.0, df=replicates - 1))


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

    def csv_lines(self):
        header = "grid,estimate,ci_ee_lo,ci_ee_hi"
        combined = self.ci_me_ee is not None
        if combined:
            header += ",ci_me_ee_lo,ci_me_ee_hi"
        lines = [header]
        points = list(self.grid.points) if self.grid is not None else [""]
        for i, point in enumerate(points):
            row = [point if isinstance(point, str) else repr(float(point)),
                   repr(float(self.point_estimates[i])),
                   repr(float(self.ci_ee[i][0])), repr(float(self.ci_ee[i][1]))]
            if combined:
                row += [repr(float(self.ci_me_ee[i][0])), repr(float(self.ci_me_ee[i][1]))]
            lines.append(",".join(row))
        return lines


# -- descriptor evaluation on a fixed grid -------------------------------------


CURVE_QUESTIONS = ("cpdp",)


def _resolve_grid(spec, d):
    if spec.question not in CURVE_QUESTIONS:
        return None
    if spec.grid is not None:
        return spec.grid
    return build_grid(d, spec.feature, spec.max_points)


def _curve_on_grid(h, d_eval, spec, grid):
    """cPDP values aligned to a fixed grid; NaN where a point was dropped."""
    result = cpdp(h, d_eval, spec.feature, grid=grid, band=spec.band)
    by_point = {v: e for v, e, _ in result.curve}
    return np.array([by_point.get(p, np.nan) for p in grid.points])


def _descriptor_vector(spec, grid, *, handle=None, config=None, d_train=None, d_eval):
    """Evaluate the spec's question as a vector aligned to the grid (curve
    questions) or a length-1 vector (scalar questions)."""
    if spec.question == "cpdp":
        return _curve_on_grid(handle, d_eval, spec, grid)
    if spec.question == "cpfi":
        if config is None or d_train is None:
            raise ValueError("cpfi uncertainty needs a learner config; use ci_combined")
        result = cpfi(config, d_train, d_eval, spec.feature, spec.loss)
        return np.array([result.scalar])
    if spec.question == "relevant_value_global":
        result = relevant_value_global(handle, d_eval, spec.y_rel)
        return np.array([result.point["objective"]])
    raise ValueError(f"uncertainty quantification does not support {spec.question!r}")


def _replicate_curves(spec, grid, d, plan, *, handle=None, config=None, d_train=None):
    """The descriptor on each replicate of d under plan, one row each. For cpdp
    and cpfi a replicate is its row-count vector, weighting per-row predictions
    or losses computed once (equal to a Dataset copy's value up to summation
    order); relevant_value_global's support check needs the copy's own rows."""
    replicates = range(plan.replicates)
    if spec.question == "relevant_value_global":
        return np.stack([_descriptor_vector(spec, grid, handle=handle, d_eval=resample(d, plan, r))
                         for r in replicates])
    counts = (np.bincount(resample_indices(d.k, plan, r), minlength=d.k) for r in replicates)
    if spec.question == "cpfi":
        # a replicate's two refits are never asked for again, so they skip subset_model's cache
        reduced_set = [j for j in range(d.n) if j != spec.feature]
        full = row_losses(train(config, d_train, spec.loss), d, spec.loss)
        reduced = row_losses(train(config, select_features(d_train, reduced_set), spec.loss),
                             select_features(d, reduced_set), spec.loss)
        return np.array([[(w @ reduced - w @ full) / w.sum()] for w in counts])
    members = grid_membership(d, grid, spec.band).astype(float)
    preds = handle.predict_batch(d.rows)
    curves = np.empty((plan.replicates, len(grid.points)))
    for r, w in enumerate(counts):
        if not w.any():
            raise ValueError("evaluation dataset is empty")
        curves[r] = group_means(preds, members, w)[0]
    return curves


def _grid_mean_sq(a, b):
    """Squared-error descriptor distance averaged over jointly retained points."""
    mask = ~(np.isnan(a) | np.isnan(b))
    if not mask.any():
        raise ValueError("no jointly retained grid points")
    return float(np.mean((a[mask] - b[mask]) ** 2))


# -- error measurements ---------------------------------------------------------


def estimation_error(h, sampler_full, d_eval, spec):
    """Squared distance between the descriptor on a full-knowledge reference
    sample and on the finite evaluation data, averaged over the grid."""
    if sampler_full is None:
        raise NoReferenceAvailable(
            "estimation error needs a full-knowledge reference sample; with "
            "observed data it is only estimable in expectation via the variance",
            operation="estimation_error")
    reference = sampler_full.source
    grid = _resolve_grid(spec, reference)
    ref_curve = _curve_on_grid(h, reference, spec, grid)
    est_curve = _curve_on_grid(h, d_eval, spec, grid)
    return _grid_mean_sq(ref_curve, est_curve)


def model_error(h, oracle, sampler, d_eval, spec):
    """Squared distance between the descriptors of the trained and the
    optimal model, both computed with the same reference sampler."""
    if oracle is None:
        raise NoOracleAvailable("model error needs the optimal predictor",
                                operation="model_error")
    reference = sampler.source if sampler is not None else d_eval
    grid = _resolve_grid(spec, reference)
    oracle_curve = _curve_on_grid(oracle, reference, spec, grid)
    model_curve = _curve_on_grid(h, reference, spec, grid)
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

    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    reference = sample_phenomenon(p, reference_size, derive_seed(seed, "bv-reference"))
    grid = _resolve_grid(spec, reference)
    oracle_curve = np.array([true_conditional_expectation(p, spec.feature, v)
                             for v in grid.points])

    curves = np.empty((replicates, len(grid.points)))
    for r in range(replicates):
        d_train = sample_phenomenon(p, k, derive_seed(seed, "bv-train", r))
        handle = train(config, d_train, spec.loss)
        curves[r] = _curve_on_grid(handle, reference, spec, grid)

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
    _check_replicates(cfg.ee_replicates, "ci_estimation")
    grid = _resolve_grid(spec, d_eval)
    point = _descriptor_vector(spec, grid, handle=h, d_eval=d_eval)

    curves = _replicate_curves(spec, grid, d_eval, _plan(cfg, cfg.ee_replicates, "ci-ee"),
                               handle=h)

    counts = np.sum(~np.isnan(curves), axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN replicate slices
        var_ee = np.nanvar(curves, axis=0, ddof=1)
    half = cfg.quantile(cfg.ee_replicates) * np.sqrt(var_ee)
    return UncertaintyReport(
        grid=grid if spec.question == "cpdp" else None,
        point_estimates=point, var_ee=var_ee, ci_ee=_interval(point, half),
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
    model. The combined variance pools all replicate pairs (1/N convention);
    the estimation-only variance is the mean within-refit variance, so the
    combined variance dominates it pointwise by the law of total variance.
    Training and evaluation resamples overlap, which is flagged because it
    can bias the variance downward.
    """
    _check_replicates(cfg.ee_replicates, "ci_combined")
    _check_replicates(cfg.me_replicates, "ci_combined")
    grid = _resolve_grid(spec, d)

    # cpfi refits its own subset models; every other question needs the model
    full_model = train(config, d, spec.loss) if spec.question != "cpfi" else None
    point = _descriptor_vector(spec, grid, handle=full_model, config=config,
                               d_train=d, d_eval=d)

    train_plan = _plan(cfg, cfg.me_replicates, "ci-me-train")
    curves = np.empty((cfg.me_replicates, cfg.ee_replicates, point.size))
    for r in range(cfg.me_replicates):
        d_train_r = resample(d, train_plan, r)
        eval_plan = _plan(cfg, cfg.ee_replicates, "ci-me-eval", r)
        handle_r = train(config, d_train_r, spec.loss) if spec.question != "cpfi" else None
        curves[r] = _replicate_curves(spec, grid, d, eval_plan, handle=handle_r,
                                      config=config, d_train=d_train_r)

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
        grid=grid if spec.question == "cpdp" else None,
        point_estimates=point, var_ee=var_ee, ci_ee=_interval(point, half_ee),
        var_me_ee=var_me_ee, ci_me_ee=_interval(point, half_combined),
        replicate_curves=flat,
        assumptions={"unbiased_learner_assumed": True,
                     "resampling_overlap_warning": True},
        diagnostics={"ee_replicates": cfg.ee_replicates,
                     "me_replicates": cfg.me_replicates,
                     "replicate_retained_counts": counts.tolist(),
                     "alpha": cfg.alpha})
