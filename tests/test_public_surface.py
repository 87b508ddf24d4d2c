"""The package's public surface holds nothing dead: every error class in
`descry.errors` is raised by descry's own code, and every name that
`descry.__all__` exports resolves."""

import ast
import inspect
import os

import descry
from descry import errors

SRC = os.path.dirname(os.path.abspath(descry.__file__))


def raised_names():
    """The names of the exceptions that a `raise` statement in src/descry
    raises: `raise Name(...)`, `raise Name` and `raise module.Name(...)`."""
    names = set()
    for root, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name):
                        names.add(exc.id)
                    elif isinstance(exc, ast.Attribute):
                        names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    classes = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, errors.DescryError) and obj is not errors.DescryError}
    assert classes, "no error classes found"
    assert sorted(classes - raised_names()) == []


def test_every_export_resolves():
    missing = [name for name in descry.__all__ if not hasattr(descry, name)]
    assert missing == []
    assert len(set(descry.__all__)) == len(descry.__all__)


def test_one_reset_empties_every_cache(benchmark_phenomenon):
    from descry import _util, models, samplers, uncertainty
    assert "clear_caches" in descry.__all__
    d = descry.sample(benchmark_phenomenon, 60, seed=1)
    config = descry.LearnerConfig(learner="ols")
    plan = descry.ResamplePlan(method="bootstrap", replicates=1, seed=0)
    descry.ci_combined(config, d, descry.DescriptorSpec(question="cpfi", feature=0),
                       descry.CIConfig(ee_replicates=20, me_replicates=20, resample_plan=plan))
    descry.subset_epe(config, d, d, descry.LossFunction.MSE, (0,))
    descry.support_check(d, d.rows[0])
    caches = [models._subset_cache, models._risk_cache, samplers._checker_cache,
              uncertainty._draw_cache, uncertainty._refit_cache]
    assert sorted(map(id, caches)) == sorted(map(id, _util._caches))
    assert all(caches)
    descry.clear_caches()
    assert not any(caches)
