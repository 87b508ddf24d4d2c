"""descry: conditional descriptors for tabular prediction models, with
uncertainty quantification and an analytic simulator for oracle testing."""

__version__ = "0.1.0"

from .data import (
    Dataset,
    FeatureSpec,
    ResamplePlan,
    center_feature,
    jitter_augment,
    load_csv,
    merge_students,
    resample,
    select_features,
    split,
    student_schema,
)
from .errors import DescryError
from .models import (
    LearnerConfig,
    LossFunction,
    PredictorHandle,
    epe,
    model_distance,
    predict,
    subset_model,
    train,
)
from .phenomenon import (
    OptimalPredictorSpec,
    Phenomenon,
    optimal_predictor,
    sample,
    sample_conditional,
    true_conditional_expectation,
    true_epe,
)
from .samplers import (
    ConditionalSampler,
    Grid,
    build_grid,
    conditional_groups,
    conditional_sample,
    support_check,
)
from .descriptors import (
    DescriptorResult,
    DescriptorSpec,
    counterfactual_local,
    cpdp,
    cpfi,
    ice,
    local_conditional_contribution,
    relevant_value_global,
    sage,
    shapley_local,
)
from .uncertainty import (
    CIConfig,
    UncertaintyReport,
    bias_variance_me,
    ci_combined,
    ci_estimation,
    estimation_error,
    model_error,
)

__all__ = [
    "__version__",
    "Dataset", "FeatureSpec", "ResamplePlan", "center_feature", "jitter_augment",
    "load_csv", "merge_students", "resample", "select_features", "split",
    "student_schema",
    "DescryError",
    "LearnerConfig", "LossFunction", "PredictorHandle", "epe", "model_distance",
    "predict", "subset_model", "train",
    "OptimalPredictorSpec", "Phenomenon", "optimal_predictor", "sample",
    "sample_conditional", "true_conditional_expectation", "true_epe",
    "ConditionalSampler", "Grid", "build_grid",
    "conditional_groups", "conditional_sample", "support_check",
    "DescriptorResult", "DescriptorSpec", "counterfactual_local", "cpdp", "cpfi",
    "ice", "local_conditional_contribution", "relevant_value_global", "sage",
    "shapley_local",
    "CIConfig", "UncertaintyReport", "bias_variance_me", "ci_combined",
    "ci_estimation", "estimation_error", "model_error",
]
