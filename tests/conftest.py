import os

import numpy as np
import pytest

from descry import Dataset, FeatureSpec, LossFunction, Phenomenon, clear_caches


@pytest.fixture(autouse=True)
def empty_caches():
    """Every test starts with descry's caches empty, so that a test which
    counts refits, draws or checker builds does not depend on the tests run
    before it."""
    clear_caches()


@pytest.fixture(scope="session")
def benchmark_phenomenon():
    """Two correlated Gaussian features, linear response, unit noise.

    Closed-form values used throughout: E[Y|X1=v] = 2.5 v,
    EPE(full) = 1, EPE({x2}) = 4, EPE(empty) = Var(Y) = 8.
    """
    return Phenomenon(kind="linear_gaussian", mu=[0.0, 0.0],
                      sigma=[[1.0, 0.5], [0.5, 1.0]], beta=[2.0, 1.0],
                      beta0=0.0, noise_sd=1.0)


@pytest.fixture(scope="session")
def nonlinear_phenomenon():
    """Independent marginals with a quadratic + interaction response."""
    return Phenomenon(
        kind="nonlinear_independent",
        marginals=[{"family": "normal", "mu": 0.5, "sd": 1.0},
                   {"family": "uniform", "low": -1.0, "high": 1.0}],
        terms=[{"coef": 1.5, "powers": {0: 2}},
               {"coef": 2.0, "powers": {0: 1, 1: 1}},
               {"coef": -1.0, "powers": {1: 1}}],
        intercept=0.25, noise_sd=0.5)


@pytest.fixture(scope="session")
def discrete_phenomenon():
    """Two binary features, binary target, dependence on x1 only."""
    # P(x1, x2, y); y follows x1 with probability 0.9, x2 is a coin flip
    table = np.zeros((2, 2, 2))
    for x1 in (0, 1):
        for x2 in (0, 1):
            table[x1, x2, x1] = 0.25 * 0.9
            table[x1, x2, 1 - x1] = 0.25 * 0.1
    return Phenomenon(kind="discrete_classification", x_levels=[[0, 1], [0, 1]],
                      y_levels=[0, 1], table=table)


@pytest.fixture
def toy_dataset():
    features = [FeatureSpec(name="a", kind="integer"),
                FeatureSpec(name="b", kind="numeric")]
    target = FeatureSpec(name="y", kind="numeric")
    rows = [[i, float(i) / 2.0] for i in range(20)]
    targets = [3.0 * i for i in range(20)]
    return Dataset(features=features, target=target, rows=rows, targets=targets,
                   provenance="observed")


def student_data_dir():
    """Directory holding student-mat.csv / student-por.csv, if provided."""
    env = os.environ.get("DESCRY_STUDENT_DATA")
    candidates = [env] if env else []
    candidates.append(os.path.join(os.path.dirname(__file__), "data", "student"))
    for cand in candidates:
        if cand and os.path.exists(os.path.join(cand, "student-mat.csv")) \
                and os.path.exists(os.path.join(cand, "student-por.csv")):
            return cand
    return None


requires_student_data = pytest.mark.skipif(
    student_data_dir() is None,
    reason="student grade files not present (place student-mat.csv and "
           "student-por.csv under tests/data/student or set DESCRY_STUDENT_DATA)")


MSE = LossFunction.MSE
