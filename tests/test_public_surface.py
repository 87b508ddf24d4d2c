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
