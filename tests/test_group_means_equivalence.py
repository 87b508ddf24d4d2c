"""The stacked `samplers.group_means` against one call per weight row, and
the number of calls an interval makes.

An (R, k) weight matrix is averaged as R vector-matrix products in one
`np.matmul` call. The reference below is the one-row formula that each
replicate used to call on its own; the stacked call must give its bits,
not merely its values, so a numpy change that reorders the stacked products
fails here instead of moving an interval's bytes.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descry import CIConfig, LearnerConfig, LossFunction, ResamplePlan, ci_combined, sample
from descry import uncertainty
from descry.descriptors import DescriptorSpec
from descry.errors import AllGroupsEmpty
from descry.samplers import MIN_GROUP_SIZE, build_grid, group_means

NAMES = [("cpdp", "every grid point"), ("cpfi", "the evaluation rows")]


def one_row(values, members, weights, operation, groups):
    """The one-row formula: weights is a length-k vector."""
    sizes = weights @ members
    kept = sizes >= MIN_GROUP_SIZE
    if not kept.any():
        raise AllGroupsEmpty(f"{groups} fell below the minimum group size",
                             operation=operation)
    means = (weights * values) @ members / np.maximum(sizes, 1)
    means[~kept] = np.nan
    return means, sizes, kept


def outcome(run):
    """run()'s results as a list, or the message and operation of its
    AllGroupsEmpty as a tuple."""
    try:
        return list(run())
    except AllGroupsEmpty as exc:
        return str(exc), exc.operation


@st.composite
def cases(draw):
    """Values, a k x G membership and an (R, k) matrix of row counts.

    A group holds each row with its own probability, from 2·MIN_GROUP_SIZE
    rows in k to all of them, so that under half-subsample or bootstrap counts its
    weighted size falls under MIN_GROUP_SIZE in some rows only; an emptied
    weight row keeps no group."""
    k = draw(st.one_of(st.integers(1, 80), st.sampled_from([600, 3000])))
    membership = draw(st.sampled_from(["bool", "float", "one_group"]))
    groups = 1 if membership == "one_group" else draw(st.integers(1, 30))
    replicates = draw(st.integers(1, 50))
    counts = draw(st.sampled_from(["subsample", "bootstrap"] * 2 + ["ones"]))
    emptied = draw(st.sampled_from([None] * 8 + [0, -1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    values = rng.normal(loc=rng.normal(scale=100.0), scale=rng.uniform(0.1, 10.0), size=k)
    if membership == "one_group":
        members = np.ones((k, 1))
    else:
        low = np.log(min(1.0, 2.0 * MIN_GROUP_SIZE / k))
        members = rng.random((k, groups)) < np.exp(rng.uniform(low, 0.0, groups))
        members = members if membership == "bool" else members.astype(float)
    if counts == "subsample":
        weights = np.array([np.bincount(rng.permutation(k)[:k // 2], minlength=k)
                            for _ in range(replicates)])
    elif counts == "bootstrap":
        weights = np.array([np.bincount(rng.integers(0, k, k), minlength=k)
                            for _ in range(replicates)])
    else:
        weights = np.ones((replicates, k))
    weights = weights.astype(float)
    if emptied is not None:
        weights[emptied] = 0.0
    return values, members, weights, draw(st.sampled_from(NAMES))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cases())
# a group of exactly MIN_GROUP_SIZE rows next to groups one row either side
@example((np.arange(12.0), np.eye(12, 3, dtype=bool) | (np.arange(12)[:, None] < [4, 5, 6]),
          np.ones((2, 12)), NAMES[0]))
def test_stacked_group_means_are_one_row_calls(case):
    values, members, weights, (operation, groups) = case
    ref = outcome(lambda: [one_row(values, members, w, operation, groups) for w in weights])
    new = outcome(lambda: group_means(values, members, weights, operation, groups))
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert not isinstance(new, tuple), new
    for got, want in zip(new, zip(*ref)):
        want = np.array(want)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_a_row_that_keeps_no_group_names_the_operation_and_groups():
    members = np.ones((6, 1))
    weights = np.array([np.ones(6), np.r_[np.ones(4), 0.0, 0.0]])
    with pytest.raises(AllGroupsEmpty) as info:
        group_means(np.arange(6.0), members, weights, "cpfi", "the evaluation rows")
    assert str(info.value) == "the evaluation rows fell below the minimum group size"
    assert info.value.operation == "cpfi"


@pytest.mark.parametrize("question", ["cpdp", "cpfi"])
def test_a_combined_interval_averages_each_refit_in_one_call(
        benchmark_phenomenon, monkeypatch, question):
    """A 20 x 20 ols interval on 600 rows: one group_means call for the point
    estimate and one per refit, where one per replicate made 401. Chunks of
    3 replicates (20 = 6·3 + 2) make 1 + 20·7 calls and the same report."""
    d = sample(benchmark_phenomenon, 600, seed=1)
    spec = DescriptorSpec(question="cpdp", feature=0, grid=build_grid(d, 0)) \
        if question == "cpdp" else DescriptorSpec(question="cpfi", feature=0,
                                                  loss=LossFunction.MSE)
    plan = ResamplePlan(method="subsample", fraction=0.5, replicates=1, seed=3)
    cfg = CIConfig(ee_replicates=20, me_replicates=20, resample_plan=plan)
    config = LearnerConfig(learner="ols", seed=0)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2].shape)
        return group_means(*args, **kwargs)

    monkeypatch.setattr(uncertainty, "group_means", counting)
    report = ci_combined(config, d, spec, cfg)
    assert len(calls) == 21
    assert calls[0] == (1, 600) and set(calls[1:]) == {(20, 600)}

    calls.clear()
    monkeypatch.setattr(uncertainty, "GROUP_MEAN_CELLS", 3 * 600)
    chunked = ci_combined(config, d, spec, cfg)
    assert len(calls) == 141
    assert calls[1:8] == [(3, 600)] * 6 + [(2, 600)]
    assert json.dumps(chunked.to_dict()) == json.dumps(report.to_dict())
    assert chunked.replicate_curves.tobytes() == report.replicate_curves.tobytes()
