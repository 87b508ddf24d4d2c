"""`data.resample_streams` against the one-draw `resample_indices` and
against numpy itself.

The batch reproduces numpy's SeedSequence hash and PCG64 seeding as integer
arithmetic, so these tests pin it to `np.random.default_rng(seed)`: a numpy
release that changes either fails here instead of moving an interval's bytes.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descry import CIConfig, LearnerConfig, LossFunction, ResamplePlan, ci_combined, sample
from descry import data
from descry.data import _pcg64_state, _seed_words, resample_indices, resample_streams
from descry.descriptors import DescriptorSpec
from descry.samplers import build_grid
from descry._util import derive_seed

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**63 - 1))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(seeds, min_size=1, max_size=8))
def test_seed_words_and_state_are_numpys(batch):
    words = _seed_words(batch)
    for seed, w in zip(batch, words):
        assert np.array_equal(w, np.random.SeedSequence(seed).generate_state(4, np.uint64))
        assert _pcg64_state(w) == np.random.default_rng(seed).bit_generator.state


@st.composite
def plans(draw):
    method = draw(st.sampled_from(["bootstrap", "subsample"]))
    fraction = 1.0 if method == "bootstrap" else draw(st.sampled_from([0.1, 0.5, 0.632, 0.99]))
    return ResamplePlan(method=method, fraction=fraction, seed=draw(seeds),
                        replicates=draw(st.integers(1, 6)))


def numpy_draw(k, plan, r):
    rng = np.random.default_rng(derive_seed(plan.seed, "resample", r))
    if plan.method == "bootstrap":
        return rng.integers(0, k, size=k)
    return rng.permutation(k)[:int(np.floor(plan.fraction * k))]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from([0, 1, 2, 7, 600]), st.lists(plans(), min_size=1, max_size=4),
       st.booleans())
@example(600, [ResamplePlan(method="subsample", fraction=0.5, replicates=20, seed=s)
               for s in EDGE_SEEDS], True)
def test_streams_equal_one_draw_each(k, batch, interleaved):
    """Each plan's stream is its replicates' one-draw indices, also when the
    streams, which share one generator, are read in turns."""
    streams = resample_streams(k, batch)
    if interleaved:
        got = [[] for _ in batch]
        for r in range(max(plan.replicates for plan in batch)):
            for i, stream in enumerate(streams):
                if r < batch[i].replicates:
                    got[i].append(next(stream))
    else:
        got = [list(stream) for stream in streams]
    for plan, draws in zip(batch, got):
        assert len(draws) == plan.replicates
        for r, rows in enumerate(draws):
            assert rows.dtype == np.int64
            assert np.array_equal(rows, resample_indices(k, plan, r))
            assert np.array_equal(rows, numpy_draw(k, plan, r))


def test_a_combined_interval_builds_one_generator(benchmark_phenomenon):
    """A 20 x 20 ols interval draws its 420 replicates (20 training, 400
    evaluation) from one generator, where one generator a draw took 420."""
    d = sample(benchmark_phenomenon, 600, seed=1)
    spec = DescriptorSpec(question="cpdp", feature=0, grid=build_grid(d, 0, 12))
    plan = ResamplePlan(method="subsample", fraction=0.5, replicates=1, seed=3)
    cfg = CIConfig(ee_replicates=20, me_replicates=20, resample_plan=plan)
    built = []

    def counting(make):
        def build(*args, **kwargs):
            built.append(make)
            return make(*args, **kwargs)
        return build

    random = data.np.random
    with mock.patch.object(random, "default_rng", counting(random.default_rng)), \
            mock.patch.object(random, "Generator", counting(random.Generator)):
        report = ci_combined(LearnerConfig(learner="ols", seed=0), d, spec, cfg)
    assert report.replicate_curves.shape == (400, len(spec.grid.points))
    assert len(built) <= 1
