"""Layer spans recorded from outside the program.

The tracer wraps the public functions of each descry module, and the
methods of its core classes, for the length of one traced job. A function
is replaced in every ``descry.*`` module that binds it, matched by
identity, so calls made inside the package are caught as well as the
benchmark's own. Spans stay in memory (name, start, end, parent, job) and
are written out when the run ends.

A span's self time is its duration minus the time covered by its child
spans. Per-layer metrics are sums over the traced jobs.
"""

import functools
import gzip
import json
import math
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import descry
import descry.cli
from descry import data, descriptors, models, plots, samplers, uncertainty
from descry import _util
from descry.errors import DescryError

LEARNERS = ("ols", "knn", "mlp")
PREDICT_KINDS = ("linear", "knn", "mlp")
OPERATIONS = ("cpdp", "ice", "cpfi", "sage", "shapley_local",
              "local_conditional_contribution", "relevant_value_global",
              "counterfactual_local")
CLI_COMMANDS = ("train", "describe", "uncertainty")
CI_QUESTIONS = ("cpdp", "cpfi")


class _IdentitySet:
    """Objects seen so far, by identity and without keeping them alive (the
    program's datasets and handles compare by value and are unhashable)."""

    def __init__(self):
        self._refs = {}

    def add(self, obj):
        self._refs[id(obj)] = weakref.ref(obj)

    def __contains__(self, obj):
        ref = self._refs.get(id(obj))
        return ref is not None and ref() is obj


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id or -1, job, name, start, end)
        self.stack = []          # open spans: [id, covered-by-children seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.job = None          # index of the traced job, set by the caller
        self.job_s = 0.0         # wall time of the traced jobs, added by the caller
        self.covered_s = 0.0     # time under top-level spans, summed over jobs
        self._patches = []
        self._seen_handles = _IdentitySet()
        self._hashed = _IdentitySet()

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [len(tracer.spans) + len(tracer.stack), 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except DescryError:
                if label.startswith("descriptors."):
                    tracer.counts["descriptors.errors"] += 1
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer._close(label, frame, parent, start, end)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _close(self, label, frame, parent, start, end):
        duration = end - start
        self.calls[label] += 1
        self.self_s[label] += duration - frame[1]
        self.total_s[label] += duration
        if parent is None:
            self.covered_s += duration
        else:
            parent[1] += duration
        self.spans.append((frame[0], parent[0] if parent else -1, self.job, label, start, end))

    def _count(self, key, amount=1):
        self.counts[key] += amount

    # -- counters read from arguments and results ------------------------------

    def _after_train(self, args, handle):
        config = args[0]
        meta = handle.metadata
        if meta.get("ridge_fallback"):
            self._count("models.ols.ridge_fallbacks")
        if config.learner == "mlp":
            # each rejected epoch multiplies the learning rate by lr_decay
            rejected = math.log(meta["final_lr"] / config.learning_rate) / math.log(config.lr_decay)
            self._count("models.mlp.epochs_rejected", round(rejected))

    def _after_subset_model(self, args, handle):
        if handle in self._seen_handles:
            self._count("models.subset_model.hits")
        else:
            self._seen_handles.add(handle)
            self._count("models.subset_model.trained")

    def _after_fingerprint(self, args, _result):
        d = args[0]
        if d not in self._hashed:
            self._hashed.add(d)
            self._count("data.fingerprint.rows_hashed", d.k)

    def _after_ci_combined(self, args, report):
        diag = report.diagnostics
        pairs = diag["me_replicates"] * diag["ee_replicates"]
        retained = diag["replicate_retained_counts"]
        self._count("uncertainty.replicate_pairs", pairs)
        self._count("uncertainty.retained_values", sum(retained))
        self._count("uncertainty.retained_slots", pairs * len(retained))

    def _after_descriptor(self, args, result):
        scanned = result.diagnostics.get("candidates_scanned")
        if scanned is not None:
            self._count("descriptors.candidates_scanned", scanned)

    def _functions(self):
        """(function, span name, after hook) for every traced function."""
        rows = lambda key: lambda args, _r: self._count(key, len(args[0]))  # noqa: E731
        targets = [
            (data.resample, "data.resample", None),
            (data.select_features, "data.select_features", None),
            (models.train, lambda a, k: "models.train." + a[0].learner, self._after_train),
            (models.subset_model, "models.subset_model", self._after_subset_model),
            (models.gower_distances, "models.gower_distances",
             rows("models.gower_distances.rows")),
            (samplers.conditional_groups, "samplers.conditional_groups",
             lambda a, r: self._count("samplers.grid_points_dropped", len(r[1]))),
            (samplers.get_support_checker, "samplers.get_support_checker", None),
            (uncertainty.ci_combined, lambda a, k: "uncertainty.ci_combined." + a[2].question,
             self._after_ci_combined),
            (descry.cli.main, lambda a, k: "cli." + a[0][0],
             lambda a, code: self._count("cli.errors", code != 0)),
            (descry.cli._read_json, "cli.load", None),
            (_util.write_json, "cli.write", None),
            (plots.write_curve_svg, "cli.write", None),
        ]
        for op in OPERATIONS:
            targets.append((getattr(descriptors, op), "descriptors." + op,
                            self._after_descriptor))
        return targets

    def _methods(self):
        """(class, attribute, wrapped replacement) for every traced method."""
        Dataset, Handle, Checker = data.Dataset, models.PredictorHandle, samplers.SupportChecker
        take = Dataset.__dict__["take"]
        fingerprint = Dataset.__dict__["fingerprint"]
        from_dict = Dataset.__dict__["from_dict"]
        predict_batch = Handle.__dict__["predict_batch"]
        return [
            (Dataset, "take", self._wrap(
                take, "data.take",
                lambda a, r: self._count("data.take.rows", len(a[1])))),
            (Dataset, "fingerprint", property(self._wrap(
                fingerprint.fget, "data.fingerprint", self._after_fingerprint))),
            (Dataset, "from_dict", classmethod(self._wrap(
                from_dict.__func__, "data.from_dict",
                lambda a, d: self._count("data.from_dict.rows", d.k)))),
            (Handle, "predict_batch", self._wrap(
                predict_batch, lambda a, k: "models.predict_batch." + a[0].kind,
                lambda a, r: self._count(f"models.predict_batch.rows.{a[0].kind}", len(a[1])))),
            (Checker, "__init__", self._wrap(Checker.__dict__["__init__"],
                                             "samplers.support_checker")),
            (Checker, "check", self._wrap(
                Checker.__dict__["check"], "samplers.support_check",
                lambda a, ok: self._count("samplers.support_check.passed", bool(ok)))),
        ]

    @contextmanager
    def installed(self):
        """Trace every call into the program while the block runs."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "descry" or name.startswith("descry."))]
        try:
            for fn, name, after in self._functions():
                wrapper = self._wrap(fn, name, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, wrapper)
            for cls, attr, replacement in self._methods():
                self._patch(cls, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch(self, owner, attr, replacement):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, summed over the traced jobs: name -> (value, unit)."""
        out = {}

        def layer(name, span=None, *, calls=True, self_s=True, total_s=False):
            span = span or name
            if calls:
                out[f"{name}.calls"] = (self.calls[span], "count")
            if self_s:
                out[f"{name}.self_s"] = (self.self_s[span], "s")
            if total_s:
                out[f"{name}.total_s"] = (self.total_s[span], "s")

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        layer("data.resample")
        layer("data.take", calls=False)
        out["data.take.rows"] = (c["data.take.rows"], "count")
        layer("data.select_features")
        layer("data.fingerprint", calls=False)
        out["data.fingerprint.rows_hashed"] = (c["data.fingerprint.rows_hashed"], "count")
        layer("data.from_dict", calls=False)
        out["data.from_dict.rows"] = (c["data.from_dict.rows"], "count")

        for learner in LEARNERS:
            span = "models.train." + learner
            out[f"models.train.calls.{learner}"] = (self.calls[span], "count")
            out[f"models.train.self_s.{learner}"] = (self.self_s[span], "s")
        for kind in PREDICT_KINDS:
            span = "models.predict_batch." + kind
            out[f"models.predict_batch.rows.{kind}"] = (c[f"models.predict_batch.rows.{kind}"],
                                                        "count")
            out[f"models.predict_batch.self_s.{kind}"] = (self.self_s[span], "s")
        subset_calls = self.calls["models.subset_model"]
        out["models.subset_model.calls"] = (subset_calls, "count")
        out["models.subset_model.trained"] = (c["models.subset_model.trained"], "count")
        out["models.subset_model.hit_ratio"] = (
            ratio(c["models.subset_model.hits"], subset_calls), "ratio")
        layer("models.gower_distances", calls=False)
        out["models.gower_distances.rows"] = (c["models.gower_distances.rows"], "count")
        out["models.mlp.epochs_rejected"] = (c["models.mlp.epochs_rejected"], "count")
        out["models.ols.ridge_fallbacks"] = (c["models.ols.ridge_fallbacks"], "count")

        layer("samplers.conditional_groups")
        out["samplers.grid_points_dropped"] = (c["samplers.grid_points_dropped"], "count")
        builds = self.calls["samplers.support_checker"]
        gets = self.calls["samplers.get_support_checker"]
        out["samplers.support_checker.builds"] = (builds, "count")
        out["samplers.support_checker.build_s"] = (self.total_s["samplers.support_checker"], "s")
        out["samplers.support_checker.hit_ratio"] = (ratio(gets - builds, gets), "ratio")
        layer("samplers.support_check")
        out["samplers.support_check.pass_ratio"] = (
            ratio(c["samplers.support_check.passed"], self.calls["samplers.support_check"]),
            "ratio")

        for op in OPERATIONS:
            layer("descriptors." + op, total_s=True)
        out["descriptors.candidates_scanned"] = (c["descriptors.candidates_scanned"], "count")
        out["descriptors.errors"] = (c["descriptors.errors"], "count")

        questions = [f"uncertainty.ci_combined.{q}" for q in CI_QUESTIONS]
        out["uncertainty.ci_combined.self_s"] = (sum(self.self_s[q] for q in questions), "s")
        for q in questions:
            out[f"{q}.calls"] = (self.calls[q], "count")
            out[f"{q}.total_s"] = (self.total_s[q], "s")
        out["uncertainty.replicate_pairs"] = (c["uncertainty.replicate_pairs"], "count")
        out["uncertainty.retained_ratio"] = (
            ratio(c["uncertainty.retained_values"], c["uncertainty.retained_slots"]), "ratio")

        for command in CLI_COMMANDS:
            out[f"cli.{command}.self_s"] = (self.self_s["cli." + command], "s")
        out["cli.load.self_s"] = (self.self_s["cli.load"], "s")
        out["cli.write.self_s"] = (self.self_s["cli.write"], "s")
        out["cli.errors"] = (c["cli.errors"], "count")
        out["trace.uncovered_share"] = (ratio(self.job_s - self.covered_s, self.job_s), "ratio")
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
