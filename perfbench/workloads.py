"""The four benchmark workloads: input generation, the timed job, output checks.

Each workload is a closed loop of independent end-user jobs. Job inputs are
drawn from the benchmark seed alone, and every job samples a fresh dataset,
so no job can reuse another job's cached fingerprint, refit or support
checker, just as a fresh CLI process could not.

A workload object exposes:

- ``inputs(i)``: job i's inputs (untimed);
- ``run(inp)``: the timed job, which calls only the program;
- ``check(inp, out)``: ``(problems, record)``. ``problems`` lists every
  failed output check; ``record`` holds the checked values that feed the
  determinism digest and the quality metrics (untimed);
- ``quality(records)``: quality metrics over a fixed prefix of job records.

The ``phenomenon`` module is used only here, to generate inputs and oracle
answers, never inside ``run``. Check functions take the oracle values as
arguments, so a test can hand them a wrong one.
"""

import hashlib
import itertools
import json
import os
import shutil
from math import comb

import numpy as np

import descry
import descry.cli

MSE = descry.LossFunction.MSE
NOMINAL_COVERAGE = 0.95
# A point estimate may sit at most this many combined standard errors from
# the closed-form value. Honest estimates essentially never reach it; a
# wrong estimator or a wrong oracle does.
ORACLE_Z_MAX = 10.0
# The distance is checked only at grid points that kept a value in at least
# this share of the replicate pairs. At a sparse tail point the group has
# about 10 rows, half-samples often drop it, and the variance is a poor
# estimate: with ols, 13 of 400 pairs gave z = 6.8, and 256 of 400 gave
# z = 5.0. At points above this share, z stayed below 3.5 over 2 400
# values. Sparse points still count in coverage_gap.
ORACLE_MIN_RETAINED = 0.9
EFFICIENCY_GAP_MAX = 1e-9
# Exact SAGE attribution of a 1 000-row knn fit against the closed form,
# as sum |phi - phi*| / sum phi*. Sampling error alone stays far below it.
ORACLE_ERR_MAX = 0.5
# ci_mlp: the share of the closed form's spread over well-retained grid
# points that the mlp estimates miss, sum (point - truth)^2 over
# sum (truth - mean truth)^2. A constant fit scores at least 1. Over 230 jobs
# at 100 epochs it stayed below 0.33, all but two below 0.22; the limit
# leaves room for that tail.
MLP_MISFIT_MAX = 0.8
# The oracle distance each job record may carry, with its check limit.
LIMITS = {"oracle_z": ORACLE_Z_MAX, "oracle_err": ORACLE_ERR_MAX,
          "oracle_misfit": MLP_MISFIT_MAX}
# Relative slack for comparing two objectives computed by the same code on
# the same values; covers a change of floating-point summation order.
OBJECTIVE_RTOL = 1e-9


def job_seed(seed, workload, i):
    """Stable 63-bit seed of job i; job -1 is the untimed warm-up job."""
    name = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    state = np.random.SeedSequence([int(seed), name, i + 1]).generate_state(2)
    return (int(state[0]) << 31) ^ int(state[1])


def digest_of(value):
    """sha256 of a JSON-able value with floats written at full precision."""
    text = json.dumps(value, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot digest {type(obj).__name__}")


def files_digest(directory):
    """sha256 of every JSON/CSV file under a directory, by relative path."""
    entries = []
    for root, _dirs, names in os.walk(directory):
        for name in names:
            if name.endswith((".json", ".csv")):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    entries.append((os.path.relpath(path, directory),
                                    hashlib.sha256(fh.read()).hexdigest()))
    return sorted(entries)


def bytes_under(directory):
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _dirs, names in os.walk(directory) for name in names)


def _none_to_nan(values):
    return np.array([np.nan if v is None else v for v in values], dtype=float)


# -- output checks -------------------------------------------------------------


def check_ci_report(report, truth=None):
    """Checks on one combined-CI report (a ``UncertaintyReport.to_dict()``).

    Every finite interval contains its point estimate, the combined variance
    dominates the estimation-only variance, and both assumption flags are set.
    Given the closed-form values ``truth``, each well-retained point estimate
    also lies within ``ORACLE_Z_MAX`` combined standard errors of its closed
    form. That check suits an unbiased learner only, so ``truth`` is left out
    for a learner with model bias.
    """
    problems = []
    point = _none_to_nan(report["point_estimates"])
    var_ee = _none_to_nan(report["var_ee"])
    var_me_ee = _none_to_nan(report["var_me_ee"])
    finite = np.isfinite(point) & np.isfinite(var_me_ee) & np.isfinite(var_ee)
    if not finite.any():
        problems.append("no grid point has a finite estimate and variance")
    for key in ("ci_ee", "ci_me_ee"):
        ci = np.array([[np.nan if v is None else v for v in pair] for pair in report[key]])
        bad = finite & ~((ci[:, 0] <= point) & (point <= ci[:, 1]))
        if bad.any():
            problems.append(f"{key}: point outside its interval at {np.flatnonzero(bad).tolist()}")
    slack = OBJECTIVE_RTOL * np.abs(var_ee)
    bad = finite & (var_me_ee < var_ee - slack)
    if bad.any():
        problems.append(f"var_me_ee < var_ee at {np.flatnonzero(bad).tolist()}")
    flags = report.get("assumptions", {})
    for flag in ("unbiased_learner_assumed", "resampling_overlap_warning"):
        if flag not in flags:
            problems.append(f"assumption flag {flag!r} missing")
    if truth is None:
        return problems
    z = oracle_z(report, truth)
    bad = z > ORACLE_Z_MAX
    if bad.any():
        problems.append(f"estimate more than {ORACLE_Z_MAX} SE from the closed form at "
                        f"{np.flatnonzero(bad).tolist()}")
    return problems


def oracle_z(report, truth):
    """Distance of each point estimate from the closed form, in combined
    standard errors; NaN where a grid point was dropped or poorly retained."""
    point = _none_to_nan(report["point_estimates"])
    z = np.abs(point - np.asarray(truth, dtype=float)) / np.sqrt(_none_to_nan(report["var_me_ee"]))
    return np.where(well_retained(report), z, np.nan)


def well_retained(report):
    """Grid points that kept a value in at least ORACLE_MIN_RETAINED of the
    replicate pairs."""
    diag = report["diagnostics"]
    pairs = diag["me_replicates"] * diag["ee_replicates"]
    return np.asarray(diag["replicate_retained_counts"]) >= ORACLE_MIN_RETAINED * pairs


def oracle_misfit(report, truth):
    """1 - R^2 of the point estimates against the closed form over the
    well-retained grid points; NaN with fewer than two such points."""
    point = _none_to_nan(report["point_estimates"])
    keep = well_retained(report) & np.isfinite(point)
    if keep.sum() < 2:
        return float("nan")
    p, t = point[keep], np.asarray(truth, dtype=float)[keep]
    return float(np.sum((p - t) ** 2) / np.sum((t - t.mean()) ** 2))


def interval_hits(report, truth):
    """(intervals containing the closed-form value, finite intervals)."""
    truth = np.asarray(truth, dtype=float)
    hits = total = 0
    for (lo, hi), t in zip(report["ci_me_ee"], truth):
        if lo is None or hi is None or not (np.isfinite(lo) and np.isfinite(hi)):
            continue
        total += 1
        hits += bool(lo <= t <= hi)
    return hits, total


def coverage_gap(records):
    hits = sum(r["hits"] for r in records)
    total = sum(r["intervals"] for r in records)
    return abs(hits / total - NOMINAL_COVERAGE) if total else float("nan")


def shapley_exact(n, value_of):
    """Exact Shapley values of the coalition game ``value_of`` on n players."""
    values = {s: value_of(s) for size in range(n + 1)
              for s in itertools.combinations(range(n), size)}
    phi = np.zeros(n)
    for j in range(n):
        others = [i for i in range(n) if i != j]
        for size in range(n):
            weight = 1.0 / (n * comb(n - 1, size))
            for s in itertools.combinations(others, size):
                phi[j] += weight * (values[tuple(sorted(s + (j,)))] - values[s])
    return phi


def sage_oracle_error(phi, phi_star):
    phi, phi_star = np.asarray(phi, dtype=float), np.asarray(phi_star, dtype=float)
    return float(np.abs(phi - phi_star).sum() / phi_star.sum())


def check_shapley(sage_result, local_result, phi_star):
    """Exact-mode efficiency of SAGE and local Shapley, and SAGE against the
    closed-form attribution ``phi_star``."""
    problems = []
    for name, res in (("sage", sage_result), ("shapley_local", local_result)):
        diag = res["diagnostics"]
        gap = abs(sum(res["attribution"]) - (diag["value_full"] - diag["value_empty"]))
        if not gap <= EFFICIENCY_GAP_MAX:
            problems.append(f"{name} efficiency gap {gap:.3g} > {EFFICIENCY_GAP_MAX}")
    err = sage_oracle_error(sage_result["attribution"], phi_star)
    if not err <= ORACLE_ERR_MAX:
        problems.append(f"SAGE oracle error {err:.3g} > {ORACLE_ERR_MAX}")
    return problems


def check_search(cf, ice_curve, rvg, d, own_objective, observed_min):
    """Checks on one search_mixed job.

    ``own_objective`` is the counterfactual objective of the instance itself
    and ``observed_min`` the smallest |m(x) - y_rel| over observed rows; both
    are computed by the caller from the written model.
    """
    problems = []
    if not descry.support_check(d, cf["x"]):
        problems.append("counterfactual x fails the support check")
    if not cf["objective"] <= own_objective + OBJECTIVE_RTOL * (1.0 + abs(own_objective)):
        problems.append(f"counterfactual objective {cf['objective']!r} exceeds the "
                        f"instance's own {own_objective!r}")
    if not rvg["objective"] <= observed_min + OBJECTIVE_RTOL * (1.0 + abs(observed_min)):
        problems.append(f"relevant value objective {rvg['objective']!r} exceeds the "
                        f"observed minimum {observed_min!r}")
    for x in ice_curve:
        if not descry.support_check(d, x):
            problems.append(f"ice point {x!r} is off support")
    if not ice_curve:
        problems.append("ice curve is empty")
    return problems


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    # Jobs in the fixed prefix: the digest, the quality metrics, peak RSS and
    # the traced run all cover jobs 0..prefix_jobs-1 of the seed.
    prefix_jobs = 1

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir

    def seed_of(self, i):
        return job_seed(self.seed, self.name, i)

    def quality(self, records):
        return {}

    def close(self):
        pass


class Coverage(Workload):
    """Library ``ci_combined`` for cpdp and cpfi with ols (criterion-5 shape)."""

    name = "coverage"
    prefix_jobs = 12
    P = descry.Phenomenon(kind="linear_gaussian", mu=[0.0, 0.0],
                          sigma=[[1.0, 0.5], [0.5, 1.0]], beta=[2.0, 1.0],
                          beta0=0.0, noise_sd=1.0)
    K = 600
    REPLICATES = 20

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        reference = descry.sample(self.P, 50000, seed=job_seed(seed, "coverage-reference", 0))
        self.grid = descry.build_grid(reference, "x1", max_points=12)
        self.cpdp_truth = [descry.true_conditional_expectation(self.P, 0, v)
                           for v in self.grid.points]
        self.cpfi_truth = [descry.true_epe(self.P, MSE, {1}) - descry.true_epe(self.P, MSE, {0, 1})]
        self.config = descry.LearnerConfig(learner="ols", seed=0)

    def inputs(self, i):
        s = self.seed_of(i)
        plan = descry.ResamplePlan(method="subsample", fraction=0.5,
                                   replicates=self.REPLICATES, seed=s)
        return {"d": descry.sample(self.P, self.K, seed=s),
                "cfg": descry.CIConfig(alpha=0.05, ee_replicates=self.REPLICATES,
                                       me_replicates=self.REPLICATES, resample_plan=plan)}

    def run(self, inp):
        cpdp_spec = descry.DescriptorSpec(question="cpdp", feature=0, grid=self.grid)
        cpfi_spec = descry.DescriptorSpec(question="cpfi", feature=0)
        return {"cpdp": descry.ci_combined(self.config, inp["d"], cpdp_spec, inp["cfg"]),
                "cpfi": descry.ci_combined(self.config, inp["d"], cpfi_spec, inp["cfg"])}

    def check(self, inp, out):
        reports = {q: rep.to_dict() for q, rep in out.items()}
        problems = (check_ci_report(reports["cpdp"], self.cpdp_truth)
                    + check_ci_report(reports["cpfi"], self.cpfi_truth))
        h1, t1 = interval_hits(reports["cpdp"], self.cpdp_truth)
        h2, t2 = interval_hits(reports["cpfi"], self.cpfi_truth)
        z = max(np.nanmax(oracle_z(reports["cpdp"], self.cpdp_truth)),
                np.nanmax(oracle_z(reports["cpfi"], self.cpfi_truth)))
        return problems, {"digest": digest_of(reports), "hits": h1 + h2, "intervals": t1 + t2,
                          "oracle_z": float(z)}

    def quality(self, records):
        return {"coverage_gap": coverage_gap(records)}


class RefitKnn(Workload):
    """Library refit descriptors with knn: exact SAGE, local Shapley, local
    conditional contribution and cpfi for every feature."""

    name = "refit_knn"
    # Also the least number of jobs a run times: at about 2.5 s a job, a 15 s
    # run held six, and the median of six spread by 0.10-0.13 from run to run.
    prefix_jobs = 8
    RHO = 0.5
    P = descry.Phenomenon(kind="linear_gaussian", mu=[0.0] * 4,
                          sigma=(np.full((4, 4), RHO) + (1 - RHO) * np.eye(4)).tolist(),
                          beta=[2.0, 1.0, -0.5, 0.5], beta0=0.0, noise_sd=1.0)
    K = 1000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = descry.LearnerConfig(learner="knn", knn_k=5,
                                           distance="euclidean_standardized")
        self.phi_star = shapley_exact(4, lambda s: -descry.true_epe(self.P, MSE, s))

    def inputs(self, i):
        s = self.seed_of(i)
        d_train = descry.sample(self.P, self.K, seed=s)
        d_eval = descry.sample(self.P, self.K, seed=s ^ 1)
        # The most central evaluation row: inside every quantile band, and at
        # distance 0 from an observed row, so it is on support by construction.
        row = int(np.argmin(np.linalg.norm(np.asarray(d_eval.rows, dtype=float), axis=1)))
        return {"d_train": d_train, "d_eval": d_eval,
                "instance": list(d_eval.rows[row]), "y": float(d_eval.targets[row])}

    def run(self, inp):
        c, dt, de, x = self.config, inp["d_train"], inp["d_eval"], inp["instance"]
        return {
            "sage": descry.sage(c, dt, de, MSE, mode="exact"),
            "shapley_local": descry.shapley_local(c, dt, de, x, mode="exact"),
            "lcc": descry.local_conditional_contribution(c, dt, de, x, inp["y"], 0, MSE),
            "cpfi": [descry.cpfi(c, dt, de, j, MSE) for j in range(dt.n)],
        }

    def check(self, inp, out):
        res = {"sage": out["sage"].to_dict(), "shapley_local": out["shapley_local"].to_dict(),
               "lcc": out["lcc"].to_dict(), "cpfi": [r.to_dict() for r in out["cpfi"]]}
        problems = check_shapley(res["sage"], res["shapley_local"], self.phi_star)
        err = sage_oracle_error(res["sage"]["attribution"], self.phi_star)
        return problems, {"digest": digest_of(res), "oracle_err": err}

    def quality(self, records):
        return {"oracle_err": float(np.mean([r["oracle_err"] for r in records]))}


class _CliWorkload(Workload):
    """A workload whose jobs call ``descry.cli.main`` in-process on files
    written under the work directory."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)

    def job_dir(self, i):
        path = os.path.join(self.workdir, f"job{i + 1:05d}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def write_dataset(self, path, d):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d.to_dict(), fh)

    def cli(self, argv):
        code = descry.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"descry {' '.join(argv)} exited with {code}")

    def finish(self, inp):
        """Digest the job's JSON/CSV outputs, then delete them."""
        entries = files_digest(inp["dir"])
        size = bytes_under(inp["dir"])
        shutil.rmtree(inp["dir"], ignore_errors=True)
        return entries, size

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class SearchMixed(_CliWorkload):
    """CLI train, then describe counterfactual_local, ice and
    relevant_value_global on mixed numeric/integer/categorical data."""

    name = "search_mixed"
    prefix_jobs = 6
    P = descry.Phenomenon(kind="linear_gaussian", mu=[0.0] * 4,
                          sigma=[[1.0, 0.4, 0.2, 0.0], [0.4, 1.0, 0.3, 0.1],
                                 [0.2, 0.3, 1.0, 0.2], [0.0, 0.1, 0.2, 1.0]],
                          beta=[1.5, -1.0, 0.8, 1.2], beta0=0.0, noise_sd=1.0)
    K = 2000
    LEVELS = ("low", "mid", "high")
    FEATURES = [descry.FeatureSpec(name="x1", kind="numeric"),
                descry.FeatureSpec(name="x2", kind="numeric"),
                descry.FeatureSpec(name="x3", kind="integer"),
                descry.FeatureSpec(name="x4", kind="categorical", categories=LEVELS)]
    LAMBDA = 2.0

    def mixed_dataset(self, seed):
        """The student-example shape: x3 rounded to an integer grade, x4 binned
        into three categories."""
        raw = descry.sample(self.P, self.K, seed=seed)
        x = np.asarray(raw.rows, dtype=float)
        grade = np.clip(np.round(2.0 * x[:, 2] + 10.0), 0.0, 20.0)
        level = np.digitize(x[:, 3], [-0.5, 0.5])
        rows = [[float(a), float(b), float(g), self.LEVELS[c]]
                for a, b, g, c in zip(x[:, 0], x[:, 1], grade, level)]
        return descry.Dataset(features=self.FEATURES, target=raw.target, rows=rows,
                              targets=raw.targets, provenance="synthetic", seed=seed)

    def inputs(self, i):
        d = self.mixed_dataset(self.seed_of(i))
        directory = self.job_dir(i)
        data = os.path.join(directory, "dataset.json")
        self.write_dataset(data, d)
        numeric = np.asarray(d.rows[:, :3], dtype=float)
        z = (numeric - numeric.mean(axis=0)) / numeric.std(axis=0)
        row = int(np.argmin(np.linalg.norm(z, axis=1)))
        return {"d": d, "dir": directory, "data": data, "instance": list(d.rows[row]),
                "y_rel": float(np.quantile(d.targets, 0.9))}

    def run(self, inp):
        directory, data = inp["dir"], inp["data"]
        model = os.path.join(directory, "model")
        instance = json.dumps(inp["instance"])
        y_rel = repr(inp["y_rel"])
        self.cli(["train", "--data", data, "--learner", "ols", "--out", model])
        model_json = os.path.join(model, "model.json")
        self.cli(["describe", "--question", "counterfactual_local", "--model", model_json,
                  "--data", data, "--instance", instance, "--y-rel", y_rel,
                  "--lambda", repr(self.LAMBDA), "--out", os.path.join(directory, "cf")])
        self.cli(["describe", "--question", "ice", "--model", model_json, "--data", data,
                  "--feature", "x1", "--instance", instance,
                  "--out", os.path.join(directory, "ice")])
        self.cli(["describe", "--question", "relevant_value_global", "--model", model_json,
                  "--data", data, "--y-rel", y_rel, "--out", os.path.join(directory, "rvg")])
        return directory

    def check(self, inp, out):
        def read(*parts):
            with open(os.path.join(out, *parts), encoding="utf-8") as fh:
                return json.load(fh)

        d = inp["d"]
        handle = descry.PredictorHandle.from_dict(read("model", "model.json"))
        preds = handle.predict_batch(d.rows)
        own = abs(handle.predict(inp["instance"]) - inp["y_rel"])
        observed_min = float(np.min(np.abs(preds - inp["y_rel"])))
        cf = read("cf", "result.json")["point"]
        rvg = read("rvg", "result.json")["point"]
        ice_curve = []
        for v, _, _ in read("ice", "result.json")["curve"]:
            x = list(inp["instance"])
            x[0] = v
            ice_curve.append(x)
        problems = check_search(cf, ice_curve, rvg, d, own, observed_min)
        entries, size = self.finish(inp)
        return problems, {"digest": digest_of(entries), "bytes": size}


class CiMlp(_CliWorkload):
    """CLI ``uncertainty --mode combined --learner mlp`` for cpdp."""

    name = "ci_mlp"
    prefix_jobs = 6
    P = descry.Phenomenon(
        kind="nonlinear_independent",
        marginals=[{"family": "normal", "mu": 0.5, "sd": 1.0},
                   {"family": "uniform", "low": -1.0, "high": 1.0}],
        terms=[{"coef": 1.5, "powers": {0: 2}}, {"coef": 2.0, "powers": {0: 1, 1: 1}},
               {"coef": -1.0, "powers": {1: 1}}],
        intercept=0.25, noise_sd=0.5)
    K = 400
    # 100 epochs, not the default 300: at 300 a job takes about 5 s, and a
    # 20 s run holds only four jobs, too few for a steady figure on a shared
    # host. mlp refits still take over 80 % of the job.
    EPOCHS = 100

    def inputs(self, i):
        s = self.seed_of(i)
        d = descry.sample(self.P, self.K, seed=s)
        directory = self.job_dir(i)
        data = os.path.join(directory, "dataset.json")
        self.write_dataset(data, d)
        return {"dir": directory, "data": data, "seed": s}

    def run(self, inp):
        out = os.path.join(inp["dir"], "bands")
        self.cli(["uncertainty", "--question", "cpdp", "--mode", "combined",
                  "--data", inp["data"], "--learner", "mlp", "--feature", "x1",
                  "--ee-replicates", "20", "--me-replicates", "20",
                  "--resample", "subsample", "--fraction", "0.5", "--max-points", "12",
                  "--epochs", str(self.EPOCHS),
                  "--seed", str(inp["seed"]), "--out", out])
        return out

    def truth(self, grid):
        """The closed-form cpdp of x1 at each grid value."""
        return [descry.true_conditional_expectation(self.P, 0, v) for v in grid]

    def check(self, inp, out):
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        truth = self.truth(report["grid"])
        # An mlp fit of 400 rows is biased, so the estimates are not held to
        # the standard-error distance; they must still follow the closed form.
        problems = check_ci_report(report)
        misfit = oracle_misfit(report, truth)
        if not misfit <= MLP_MISFIT_MAX:
            problems.append(f"mlp misfit {misfit:.3g} against the closed form > {MLP_MISFIT_MAX}")
        hits, total = interval_hits(report, truth)
        entries, size = self.finish(inp)
        return problems, {"digest": digest_of(entries), "hits": hits, "intervals": total,
                          "bytes": size, "oracle_misfit": misfit}

    def quality(self, records):
        return {"coverage_gap": coverage_gap(records)}


WORKLOADS = {w.name: w for w in (Coverage, RefitKnn, SearchMixed, CiMlp)}
