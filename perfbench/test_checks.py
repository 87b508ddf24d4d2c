"""Tests of the benchmark's own output checks, digest and tracer.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import descry  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path / "work")


@pytest.fixture(scope="module")
def coverage_job():
    wl = W.Coverage(seed=3, workdir=None)
    inp = wl.inputs(0)
    return wl, inp, wl.run(inp)


def test_coverage_checks_pass_with_the_closed_form(coverage_job):
    wl, inp, out = coverage_job
    problems, record = wl.check(inp, out)
    assert problems == []
    assert record["intervals"] > 0


def test_wrong_oracle_is_counted_as_a_failed_job(coverage_job):
    wl, inp, out = coverage_job
    wl_wrong = W.Coverage(seed=3, workdir=None)
    wl_wrong.cpfi_truth = [30.0]                 # the closed form is 3.0
    problems, _ = wl_wrong.check(inp, out)
    assert any("SE from the closed form" in p for p in problems)

    wl_wrong.cpfi_truth = wl.cpfi_truth
    wl_wrong.cpdp_truth = [2.0 * t + 1.0 for t in wl.cpdp_truth]   # truth is 2.5 x1
    loop = run.Loop(wl_wrong)
    loop.job(0)
    assert (loop.attempted, loop.failed) == (1, 1)
    assert loop.quality()["coverage_gap"] > 0.5


def test_ci_mlp_wrong_oracle_is_counted_as_a_failed_job(workdir):
    wl = W.CiMlp(seed=7, workdir=workdir)
    right = wl.truth
    loop = run.Loop(wl)
    loop.job(0)
    assert (loop.attempted, loop.failed) == (1, 0)
    assert loop.worst["oracle_misfit"] <= W.MLP_MISFIT_MAX

    wl.truth = lambda grid: [-t for t in right(grid)]      # the closed form is 1.5 v^2 + 0.25
    loop.job(1)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert any("mlp misfit" in p for p in loop.problems)
    wl.close()


def test_traced_run_refuses_threaded_refits(tmp_path):
    env = dict(os.environ, DESCRY_THREADS="2")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "coverage",
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode != 0
    assert "DESCRY_THREADS" in proc.stderr and proc.stdout == ""


def test_ci_report_checks_catch_broken_intervals(coverage_job):
    wl, inp, out = coverage_job
    report = copy.deepcopy(out["cpdp"].to_dict())
    report["ci_me_ee"] = [[hi, lo] for lo, hi in report["ci_me_ee"]]
    report["var_me_ee"] = [v / 2.0 for v in report["var_ee"]]
    del report["assumptions"]["resampling_overlap_warning"]
    problems = W.check_ci_report(report, wl.cpdp_truth)
    assert any(p.startswith("ci_me_ee") for p in problems)
    assert any(p.startswith("var_me_ee < var_ee") for p in problems)
    assert any("resampling_overlap_warning" in p for p in problems)


def test_shapley_checks_use_the_exact_attribution():
    p = W.RefitKnn.P
    ols = descry.LearnerConfig(learner="ols")
    d_train = descry.sample(p, 400, seed=1)
    d_eval = descry.sample(p, 400, seed=2)
    sage = descry.sage(ols, d_train, d_eval, W.MSE).to_dict()
    local = descry.shapley_local(ols, d_train, d_eval, list(d_eval.rows[0])).to_dict()
    phi_star = W.shapley_exact(4, lambda s: -descry.true_epe(p, W.MSE, s))
    assert abs(phi_star.sum() - (descry.true_epe(p, W.MSE, ()) -
                                 descry.true_epe(p, W.MSE, range(4)))) < 1e-12
    assert W.check_shapley(sage, local, phi_star) == []
    assert W.check_shapley(sage, local, phi_star[::-1])      # a wrong oracle

    local["attribution"][0] += 1e-6                          # efficiency broken
    assert any("shapley_local efficiency" in p
               for p in W.check_shapley(sage, local, phi_star))


def test_search_checks_compare_against_the_observed_minimum(workdir):
    wl = W.SearchMixed(seed=5, workdir=workdir)
    inp = wl.inputs(0)
    out = wl.run(inp)
    d = inp["d"]
    with open(os.path.join(out, "model", "model.json"), encoding="utf-8") as fh:
        handle = descry.PredictorHandle.from_dict(json.load(fh))
    observed_min = float(min(abs(handle.predict_batch(d.rows) - inp["y_rel"])))
    problems, record = wl.check(inp, out)
    assert problems == [] and record["bytes"] > 0
    assert not os.path.exists(out)                          # outputs removed once digested

    cf = {"x": list(inp["instance"]), "objective": 0.0}
    rvg = {"objective": observed_min + 1.0}                  # worse than an observed row
    problems = W.check_search(cf, [], rvg, d, own_objective=1.0, observed_min=observed_min)
    assert any("observed minimum" in p for p in problems)
    assert any("ice curve is empty" in p for p in problems)
    wl.close()
    assert not os.path.exists(workdir)


def test_digest_repeats_for_the_same_seed(coverage_job):
    wl, inp, out = coverage_job
    again = W.Coverage(seed=3, workdir=None)
    inp2 = again.inputs(0)
    assert again.check(inp2, again.run(inp2))[1]["digest"] == wl.check(inp, out)[1]["digest"]
    assert W.job_seed(3, "coverage", 0) != W.job_seed(4, "coverage", 0)


def test_tracer_restores_the_program_and_sums_self_time():
    original = (descry.uncertainty.resample, descry.data.Dataset.__dict__["take"],
                descry.data.Dataset.__dict__["fingerprint"])
    tracer = Tracer()
    d = descry.sample(W.Coverage.P, 200, seed=1)
    with tracer.installed():
        assert descry.uncertainty.resample is descry.data.resample is not original[0]
        descry.cpfi(descry.LearnerConfig(learner="ols"), d, d, 0, W.MSE)
    assert (descry.uncertainty.resample, descry.data.Dataset.__dict__["take"],
            descry.data.Dataset.__dict__["fingerprint"]) == original

    m = tracer.metrics()
    assert m["descriptors.cpfi.calls"][0] == 1
    assert m["models.subset_model.calls"][0] == 2
    assert m["models.train.calls.ols"][0] == 2
    assert m["data.fingerprint.rows_hashed"][0] == 200
    children = sum(s for name, s in tracer.self_s.items() if name != "descriptors.cpfi")
    total = tracer.total_s["descriptors.cpfi"]
    assert abs(tracer.self_s["descriptors.cpfi"] + children - total) < 1e-9


def test_run_fails_without_the_program(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), root)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "coverage",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
