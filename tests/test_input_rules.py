"""Each input rule is stated once.

A conditioning band, a relevant target value y_rel, a counterfactual's
lambda, a feature's jitter offsets and an instance's numeric cells each have
one check. Every operation
that takes such a value goes through that check, so for any value each of
them accepts it, or each raises the same ValueError with the same message.
"""

from math import inf, isfinite, nan

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descry import (
    Dataset, FeatureSpec, LearnerConfig, LossFunction, Phenomenon, build_grid,
    conditional_groups, counterfactual_local, cpdp, ice, jitter_augment,
    local_conditional_contribution, relevant_value_global, sample, shapley_local, train,
)
from descry.descriptors import DescriptorSpec
from descry.samplers import grid_membership

MSE = LossFunction.MSE
NUMBERS = st.floats(allow_nan=True, allow_infinity=True)


def also_at(*values):
    """Run a hypothesis test on each of values as well as on drawn ones."""
    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test
    return decorate


also_at_named_numbers = also_at(-1.0, nan, inf, -inf, -0.0, 0.0, 0.5)


# an integer feature with 4 values, 15 rows each: every group is kept at any band
GROUPED = Dataset(features=[FeatureSpec(name="g", kind="integer"),
                            FeatureSpec(name="x", kind="numeric")],
                  target=FeatureSpec(name="y", kind="numeric"),
                  rows=[[i % 4, i / 7.0] for i in range(60)],
                  targets=[(i % 4) + i / 70.0 for i in range(60)], provenance="observed")
GROUPED_HANDLE = train(LearnerConfig(learner="ols"), GROUPED, MSE)

SEARCHED = sample(Phenomenon(kind="linear_gaussian", mu=[0.0, 0.0],
                             sigma=[[1.0, 0.5], [0.5, 1.0]], beta=[2.0, 1.0],
                             beta0=0.0, noise_sd=1.0), 200, seed=133)
SEARCHED_HANDLE = train(LearnerConfig(learner="ols"), SEARCHED, MSE)
INSTANCE = list(SEARCHED.rows[0])


def outcome(run):
    """"accepted", or the type and message of the ValueError raised."""
    try:
        run()
    except ValueError as exc:
        return type(exc), str(exc)
    return "accepted"


def assert_one_rule(outcomes, accepted):
    assert len(set(outcomes)) == 1, outcomes
    assert (outcomes[0] == "accepted") == accepted, outcomes[0]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(NUMBERS)
@also_at_named_numbers
def test_band(band):
    grid = build_grid(GROUPED, 0)
    assert_one_rule([
        outcome(lambda: DescriptorSpec(question="cpdp", feature=0, band=band)),
        outcome(lambda: cpdp(GROUPED_HANDLE, GROUPED, 0, band=band)),
        outcome(lambda: conditional_groups(GROUPED, grid, band=band)),
        outcome(lambda: grid_membership(GROUPED, grid, band=band)),
    ], accepted=isfinite(band) and band >= 0)


def test_band_none_is_the_default_band():
    grid = build_grid(GROUPED, 1)
    assert (grid_membership(GROUPED, grid) == grid_membership(GROUPED, grid, None)).all()
    assert DescriptorSpec(question="cpdp", feature=0).band is None


@settings(derandomize=True, deadline=None, max_examples=60)
@given(NUMBERS)
@also_at_named_numbers
def test_y_rel(y_rel):
    h, d, x = SEARCHED_HANDLE, SEARCHED, INSTANCE
    assert_one_rule([
        outcome(lambda: DescriptorSpec(question="relevant_value_global", y_rel=y_rel)),
        outcome(lambda: relevant_value_global(h, d, y_rel)),
        outcome(lambda: DescriptorSpec(question="counterfactual_local", instance=x,
                                       y_rel=y_rel, lam=0.5)),
        outcome(lambda: counterfactual_local(h, d, x, y_rel, 0.5)),
    ], accepted=isfinite(y_rel))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(NUMBERS)
@also_at_named_numbers
def test_lambda(lam):
    h, d, x = SEARCHED_HANDLE, SEARCHED, INSTANCE
    assert_one_rule([
        outcome(lambda: DescriptorSpec(question="counterfactual_local", instance=x,
                                       y_rel=1.0, lam=lam)),
        outcome(lambda: counterfactual_local(h, d, x, 1.0, lam)),
    ], accepted=isfinite(lam) and lam >= 0)


def test_the_spec_echo_is_the_spec_the_descriptor_checked():
    h, d, x = SEARCHED_HANDLE, SEARCHED, INSTANCE
    assert counterfactual_local(h, d, x, 1, 0).spec.to_dict() == DescriptorSpec(
        question="counterfactual_local", instance=x, y_rel=1, lam=0).to_dict()
    spec = relevant_value_global(h, d, 2).spec
    assert type(spec.y_rel) is float and spec.to_dict()["y_rel"] == 2.0


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, nan, inf, -inf]), max_size=4))
@also_at([], [0.0], [-0.0], [1.0, 1.0], [inf], [1.0, -1.0])
def test_jitter_offsets(offsets):
    accepted = (bool(offsets) and all(isfinite(o) and o != 0 for o in offsets)
                and len(set(offsets)) == len(offsets))
    assert_one_rule([
        outcome(lambda: FeatureSpec(name="x", kind="numeric", jitter_offsets=offsets)),
        outcome(lambda: jitter_augment(GROUPED, "x", offsets)),
    ], accepted=accepted)
    if accepted:
        assert FeatureSpec(name="x", kind="numeric",
                           jitter_offsets=offsets).jitter_offsets == tuple(offsets)
        assert jitter_augment(GROUPED, "x", offsets).k == GROUPED.k * (len(offsets) + 1)


def instance_questions(instance):
    """Every question that takes an instance, asked at it."""
    config = LearnerConfig(learner="ols")
    return [lambda: ice(SEARCHED_HANDLE, instance, "x1", None, SEARCHED),
            lambda: counterfactual_local(SEARCHED_HANDLE, SEARCHED, instance, 1.0, 0.5),
            lambda: shapley_local(config, SEARCHED, SEARCHED, instance),
            lambda: local_conditional_contribution(config, SEARCHED, SEARCHED, instance,
                                                   0.0, 0, MSE)]


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("cell", [True, False, np.bool_(True), "0.1", "x", None, [0.1], [[]]])
def test_instance_cell_that_is_not_a_number(cell, position):
    """A bool or a numeric string is no number, although numpy would read it as one."""
    instance = list(INSTANCE)
    instance[position] = cell
    message = (f"instance value {cell!r} of feature {SEARCHED.feature_names[position]!r} "
               f"is not a number")
    assert [outcome(ask) for ask in instance_questions(instance)] == [(ValueError, message)] * 4


def test_instance_cells_of_any_number_type_are_accepted():
    instance = [np.float64(INSTANCE[0]), float(INSTANCE[1])]
    assert [outcome(ask) for ask in instance_questions(instance)] == ["accepted"] * 4
