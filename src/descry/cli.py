"""Command-line pipeline: ingest, simulate, train, describe, uncertainty, report.

`main` owns each run's output directory: it writes a manifest (config echo,
version, seeds) after a success and error.json after a failure, never both,
and identical manifests reproduce byte-identical JSON/CSV output.
Exit codes: 0 success, 1 runtime error (with machine-readable error JSON),
2 usage error.
"""

import argparse
import contextlib
import csv
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .data import (
    Dataset, FeatureSpec, ResamplePlan, center_feature, feature_mismatch, jitter_augment,
    load_csv, merge_students, select_features, student_schema,
)
from .descriptors import QUESTIONS, DescriptorSpec
from .errors import DescryError, MissingManifest, SchemaMismatch, error_report
from .models import LearnerConfig, LossFunction, PredictorHandle, epe, train
from .phenomenon import Phenomenon, sample
from .plots import write_curve_svg
from .uncertainty import CIConfig, ci_combined, ci_estimation
from ._util import canonical_json, clear_caches, write_json

# `ingest --jitter` offsets when neither --offsets nor the schema gives any
JITTER_OFFSETS = (1.0, -1.0, 2.0, -2.0, 3.0, -3.0)


def _decode(text, flag, source):
    """The JSON value in text, refusing text that does not parse by its flag
    (or the label of the file) and its source (a path, or the flag's own value)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag} {source} is not valid JSON: {exc}") from None


def _read_json(path, flag):
    """The JSON in path; a file that does not parse is refused by its flag and path."""
    with open(path, "r", encoding="utf-8") as fh:
        return _decode(fh.read(), flag, path)


def _load(flag, path, what, build):
    """build(the JSON in path), refusing a file of another kind by its flag."""
    raw = _read_json(path, flag)
    try:
        return build(raw)
    except (KeyError, TypeError) as exc:
        found = f"it has no key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{flag} {path} is not a {what} file: {found}") from None


def _load_schema(arg):
    if arg == "student":
        return student_schema()
    return _load("--schema", arg, "schema", lambda raw: [
        FeatureSpec.from_dict(c) for c in (raw["columns"] if isinstance(raw, dict) else raw)])


def _require_data_features(args, subject, schema, d):
    """Refuse `subject` (a flag, its path and a verb) unless `schema` lists the
    features of the --data d, by `feature_mismatch`'s rule."""
    mismatch = feature_mismatch(schema, d.features)
    if mismatch:
        raise SchemaMismatch(f"{subject} {mismatch[0]}, but --data {args.data} has {mismatch[1]}",
                             operation=args.command)


def _load_model(args, d=None):
    """The --model handle; given the data d it reads, refused unless its features
    are d's."""
    handle = _load("--model", args.model, "model", PredictorHandle.from_dict)
    if d is not None:
        _require_data_features(args, f"--model {args.model} reads features",
                               handle.input_schema, d)
    return handle


def _load_dataset(args, flag="--data"):
    path = getattr(args, flag[2:].replace("-", "_"))
    if path.endswith(".json"):
        return _load(flag, path, "dataset", Dataset.from_dict)
    if args.schema is None:
        raise DescryError("CSV input needs --schema", operation=args.command)
    return load_csv(path, _load_schema(args.schema), args.target, delimiter=args.delimiter)


def _numbers(args, flag, kind=float):
    """The comma-separated numbers a flag was given, each as `kind`."""
    text = getattr(args, flag[2:].replace("-", "_"))
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated {kind.__name__} values, "
                         f"got {text!r}") from None


def _learner_config(args):
    return LearnerConfig(
        learner=args.learner, seed=args.seed, knn_k=args.knn_k,
        distance=args.distance, hidden=_numbers(args, "--hidden", int),
        learning_rate=args.learning_rate, lr_decay=args.lr_decay,
        epochs=args.epochs, batch_size=args.batch_size)


def _write_manifest(outdir, args):
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    write_json(os.path.join(outdir, "manifest.json"), {
        "command": args.command, "config": config,
        "version": __version__, "seed": getattr(args, "seed", None)})


def _parse_instance(raw):
    if raw.startswith("@"):
        instance = _read_json(raw[1:], "--instance")
    else:   # an empty value is no array either
        instance = _decode(raw, "--instance", raw) if raw else None
    if not isinstance(instance, list):
        raise ValueError(f"--instance takes a JSON array, or @file.json holding one, "
                         f"got {raw}")
    return instance


def _write_csv(path, header, rows):
    """A CSV file: a label as it is (quoted when it holds a comma, a quote or
    a line break), an int as digits, any other number as repr(float)."""
    def cell(x):
        return x if isinstance(x, str) else str(x) if isinstance(x, int) else repr(float(x))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(cell, row) for row in rows)


def _write_dataset(outdir, d):
    write_json(os.path.join(outdir, "dataset.json"), d.to_dict())
    d.write_csv(os.path.join(outdir, "dataset.csv"))


def _plot(outdir, curve, title, x_label, y_label, **bands):
    """plot.svg of a curve, drawn only when it has points on a numeric grid."""
    if curve and not any(isinstance(v, str) for v, _, _ in curve):
        write_curve_svg(os.path.join(outdir, "plot.svg"), curve, title=title,
                        x_label=x_label, y_label=y_label, **bands)


def _curve_outputs(outdir, result, x_label, y_label):
    stderr = result.diagnostics.get("stderr")
    _write_csv(os.path.join(outdir, "curve.csv"),
               ["grid", "estimate", "group_size"] + (["stderr"] if stderr else []),
               [row + ((stderr[i],) if stderr else ()) for i, row in enumerate(result.curve)])
    _plot(outdir, result.curve, result.spec.question, x_label, y_label)
    dropped = result.diagnostics.get("dropped_grid_points",
                                     result.diagnostics.get("off_support_grid_points", []))
    write_json(os.path.join(outdir, "sparse_regions.json"),
               {"dropped_grid_points": dropped})


# -- subcommands --------------------------------------------------------------


def _cmd_simulate(args):
    p = _load("--spec", args.spec, "phenomenon", Phenomenon.from_dict)
    _write_dataset(args.out, sample(p, args.k, args.seed))


def _cmd_ingest(args):
    stray = [flag for flag in ("--offsets", "--clamp") if getattr(args, flag[2:]) is not None]
    if stray and not args.jitter:
        raise ValueError(f"{' and '.join(stray)} given without --jitter")
    schema = _load_schema(args.schema)
    d = load_csv(args.csv, schema, args.target, delimiter=args.delimiter)
    report = {"rows": d.k}
    if args.merge_csv:
        por = load_csv(args.merge_csv, schema, args.target, delimiter=args.delimiter)
        d, merge_report = merge_students(d, por)
        report["merge"] = merge_report
    if args.drop:
        dropped = {d.feature_index(name) for name in args.drop.split(",")}
        if len(dropped) == d.n:
            raise ValueError(f"--drop {args.drop!r} names every feature; keep at least one")
        d = select_features(d, set(range(d.n)) - dropped)
    if args.center:
        d, mean = center_feature(d, args.center)
        report["center"] = {"feature": args.center, "mean": mean}
    if args.jitter:
        offsets = _numbers(args, "--offsets") if args.offsets is not None else \
            d.features[d.feature_index(args.jitter)].jitter_offsets or JITTER_OFFSETS
        clamp = tuple(_numbers(args, "--clamp")) if args.clamp else None
        d = jitter_augment(d, args.jitter, offsets, clamp=clamp)
        report["jitter"] = {"feature": args.jitter, "offsets": offsets,
                            "clamp": list(clamp) if clamp else None, "rows": d.k}
    _write_dataset(args.out, d)
    write_json(os.path.join(args.out, "ingest_report.json"), report)


def _cmd_train(args):
    d = _load_dataset(args)
    config = _learner_config(args)
    loss = LossFunction(args.loss)
    handle = train(config, d, loss)
    write_json(os.path.join(args.out, "model.json"), handle.to_dict())
    write_json(os.path.join(args.out, "training.json"),
               {"config": config.to_dict(), "loss": loss.value,
                "train_epe": epe(handle, d, loss), "rows": d.k})


def _check_needs(what, names, args):
    """Refuse a run without a flag (named by its argparse dest) that `what` needs."""
    missing = ["--" + name.replace("_", "-") for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{what} needs {', '.join(missing)}")


def _spec(args, d, **fields):
    """The question the flags ask, with --feature (a name, or an index) resolved on d."""
    feature = args.feature
    if feature is not None:
        try:
            feature = int(feature)
        except ValueError:
            pass
        feature = d.feature_index(feature)
    return DescriptorSpec(question=args.question, feature=feature, loss=args.loss,
                          seed=args.seed, max_points=args.max_points, band=args.band, **fields)


def _cmd_describe(args):
    question = QUESTIONS[args.question]
    _check_needs(args.question, (question.reads,) + question.needs, args)
    d_eval = _load_dataset(args)
    read = d_eval if question.reads == "model" else None   # a refit question ignores --model
    handle = _load_model(args, read) if args.model else None
    config = _learner_config(args) if args.train_data else None
    d_train = _load_dataset(args, "--train-data") if args.train_data else None
    if question.reads == "train_data":   # refits on d_train read d_eval's rows
        _require_data_features(args, f"--train-data {args.train_data} has features",
                               d_train.features, d_eval)
    instance = None if args.instance is None else _parse_instance(args.instance)
    spec = _spec(args, d_eval, instance=instance, y_rel=args.y_rel, lam=getattr(args, "lambda"),
                 mode=args.mode, mc_permutations=args.mc_permutations)

    source = handle if question.reads == "model" else config
    result = question.answer(spec, source, d_train, d_eval, args.observed_y)
    write_json(os.path.join(args.out, "result.json"), result.to_dict())
    if question.y_label:
        _curve_outputs(args.out, result, d_eval.features[spec.feature].name, question.y_label)


def _cmd_uncertainty(args):
    question = QUESTIONS[args.question]
    _check_needs(args.question, question.needs, args)
    if args.mode not in question.intervals:   # combined only: the question reads refits
        raise ValueError(f"{args.question} intervals refit the learner; use --mode combined")
    if args.mode == "ee":
        _check_needs("--mode ee", ("model",), args)
    d = _load_dataset(args)
    spec = _spec(args, d)
    plan = ResamplePlan(method=args.resample, fraction=args.fraction, replicates=1,
                        seed=args.seed)
    cfg = CIConfig(alpha=args.alpha, ee_replicates=args.ee_replicates,
                   me_replicates=args.me_replicates, resample_plan=plan,
                   quantile_family=args.quantile_family)

    if args.mode == "ee":
        report = ci_estimation(_load_model(args, d), d, spec, cfg)
    else:
        report = ci_combined(_learner_config(args), d, spec, cfg)

    write_json(os.path.join(args.out, "report.json"),
               dict(report.to_dict(), question=args.question, mode=args.mode))
    combined = report.ci_me_ee is not None
    points = report.grid.points if report.grid is not None else [""]
    values = np.column_stack([report.point_estimates, report.ci_ee]
                             + ([report.ci_me_ee] if combined else []))
    _write_csv(os.path.join(args.out, "report.csv"),
               ["grid", "estimate", "ci_ee_lo", "ci_ee_hi"]
               + (["ci_me_ee_lo", "ci_me_ee_hi"] if combined else []),
               [[v, *values[i]] for i, v in enumerate(points)])
    if report.grid is not None:
        keep = [i for i, v in enumerate(report.point_estimates)
                if np.isfinite(v) and np.all(np.isfinite(report.ci_ee[i]))]
        _plot(args.out, [(report.grid.points[i], float(report.point_estimates[i]), 1)
                         for i in keep],
              f"{args.question} ({args.mode})", d.features[spec.feature].name, question.y_label,
              ci_ee=report.ci_ee[keep].tolist(),
              ci_me_ee=report.ci_me_ee[keep].tolist() if combined else None)
    # each interval keeps its draws and refits for the next one on the same data;
    # a command answers one, so an in-process caller would hold them for nothing
    clear_caches()


def _md_row(cells):
    """One markdown table row; a `|` inside a cell is escaped so it stays one cell."""
    return "| " + " | ".join(str(c).replace("|", r"\|") for c in cells) + " |"


def _table_rows(raw, key, width):
    """raw[key] as a list of rows of `width` values each, refusing any other shape."""
    rows = raw[key]
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and len(row) == width for row in rows)):
        raise TypeError(f"{key!r} is not a list of rows of {width} values")
    return rows


def _number_cell(x, fmt=".6g"):
    """x formatted for a table cell, "-" for None; anything but a number is refused."""
    if x is not None and not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a number")
    return "-" if x is None else format(x, fmt)


def _result_lines(run_dir, raw):
    """The markdown of a result.json, and its sparsity warning line or None;
    {**raw} refuses a result that is not an object."""
    result = {**raw}
    lines = []
    if "curve" in result:
        lines += ["| grid | estimate | group size |", "| --- | --- | --- |"]
        lines += [_md_row(row) for row in _table_rows(result, "curve", 3)]
    elif "scalar" in result:
        lines.append(f"Scalar value: **{result['scalar']}**")
    elif "attribution" in result:
        lines += ["| feature | attribution |", "| --- | --- |"]
        lines += [_md_row(row) for row in enumerate(result["attribution"])]
    elif "point" in result:
        lines.append(f"Point: `{json.dumps(result['point'])}`")
    if result:
        lines.append("")
    dropped = {**result.get("diagnostics", {})}.get("dropped_grid_points")
    warning = (f"- `{run_dir}`: {len(dropped)} grid point(s) dropped for "
               f"insufficient data: {json.dumps(dropped)}") if dropped else None
    return lines, warning


def _report_lines(raw):
    """The markdown of a report.json; {**raw} refuses a report that is not an object."""
    rep = {**raw}
    if not rep:
        return []
    grid = rep["grid"] or [""]
    estimates = rep["point_estimates"]
    ee = _table_rows(rep, "ci_ee", 2)
    mee = _table_rows(rep, "ci_me_ee", 2) if rep.get("ci_me_ee") else None
    columns = {"grid": grid, "point_estimates": estimates, "ci_ee": ee, "ci_me_ee": mee or grid}
    for key, values in columns.items():
        if not isinstance(values, list) or len(values) != len(grid):
            raise TypeError(f"{key!r} is not a list of one entry per grid point")

    def interval(pair):
        return f"[{_number_cell(pair[0], '.4g')}, {_number_cell(pair[1], '.4g')}]"

    lines = ["| grid | estimate | ci_ee | ci_me_ee |", "| --- | --- | --- | --- |"]
    for i, v in enumerate(grid):
        lines.append(_md_row([v, _number_cell(estimates[i]), interval(ee[i]),
                              interval(mee[i]) if mee else "-"]))
    flags = rep.get("assumptions", {})
    return lines + ["", f"Assumption flags: `{json.dumps(flags, sort_keys=True)}`", ""]


def _cmd_report(args):
    sections = {}
    warnings = []
    for run_dir in args.run_dirs:
        manifest_path = os.path.join(run_dir, "manifest.json")
        if not os.path.exists(manifest_path):
            failed = os.path.exists(os.path.join(run_dir, "error.json"))
            raise MissingManifest(f"{run_dir} has no manifest.json" + (
                "; its error.json records a failed run" if failed else ""), operation="report")
        # a run's section is its question, or else its command; {**config}
        # refuses a config that is not an object
        kind = _load("run file", manifest_path, "manifest",
                     lambda raw: {**raw["config"]}.get("question", raw["command"]))
        entry = {"dir": run_dir, "lines": []}
        result_path = os.path.join(run_dir, "result.json")
        report_path = os.path.join(run_dir, "report.json")
        if os.path.exists(result_path):
            lines, warning = _load("run file", result_path, "result",
                                   lambda raw: _result_lines(run_dir, raw))
            entry["lines"] += lines
            if warning:
                warnings.append(warning)
        if os.path.exists(report_path):
            entry["lines"] += _load("run file", report_path, "report", _report_lines)
        sections.setdefault(kind, []).append(entry)

    lines = [f"# descry report", "", f"Generated by descry {__version__}.", ""]
    for kind in sorted(sections):
        lines.append(f"## {kind}")
        lines.append("")
        # a question without a curve draws no plot, so a plot.svg beside it is another run's
        curve = kind in QUESTIONS and QUESTIONS[kind].y_label
        for entry in sections[kind]:
            lines.append(f"### `{entry['dir']}`")
            lines.append("")
            svg = os.path.join(entry["dir"], "plot.svg")
            if curve and os.path.exists(svg):
                lines.append(f"![curve]({os.path.relpath(svg, args.out)})")
                lines.append("")
            lines += entry["lines"]
    if warnings:
        lines.append("## Sparsity warnings")
        lines.append("")
        lines += warnings
        lines.append("")

    with open(os.path.join(args.out, "report.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- parser --------------------------------------------------------------------


def _add_learner_flags(sub):
    sub.add_argument("--learner", choices=["ols", "knn", "mlp"], default="ols")
    sub.add_argument("--knn-k", type=int, default=LearnerConfig.knn_k)
    sub.add_argument("--distance", choices=["euclidean_standardized", "gower"],
                     default=LearnerConfig.distance)
    sub.add_argument("--hidden", default=",".join(map(str, LearnerConfig.hidden)))
    sub.add_argument("--learning-rate", type=float, default=LearnerConfig.learning_rate)
    sub.add_argument("--lr-decay", type=float, default=LearnerConfig.lr_decay)
    sub.add_argument("--epochs", type=int, default=LearnerConfig.epochs)
    sub.add_argument("--batch-size", type=int, default=LearnerConfig.batch_size)


def _add_data_flags(sub):
    sub.add_argument("--data", required=True, help="dataset .json (or .csv with --schema)")
    sub.add_argument("--schema", default=None)
    sub.add_argument("--target", default=None)
    sub.add_argument("--delimiter", default=",")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The CLI's parser, built once per process: no flag has a mutable default."""
    parser = argparse.ArgumentParser(prog="descry",
                                     description="conditional model descriptors with "
                                                 "uncertainty quantification")
    parser.add_argument("--version", action="version", version=f"descry {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("simulate", help="sample a dataset from a phenomenon spec")
    sub.add_argument("--spec", required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("ingest", help="load CSV data against a schema")
    sub.add_argument("--csv", required=True)
    sub.add_argument("--merge-csv", default=None,
                     help="second student file to pair on identity attributes")
    sub.add_argument("--schema", required=True, help="schema .json, or 'student'")
    sub.add_argument("--target", required=True)
    sub.add_argument("--delimiter", default=",")
    sub.add_argument("--drop", default=None, help="comma-separated feature names to drop")
    sub.add_argument("--center", default=None)
    sub.add_argument("--jitter", default=None)
    sub.add_argument("--offsets", default=None,
                     help="comma-separated jitter offsets (default: the jittered feature's "
                          "schema jitter_offsets, else 1,-1,2,-2,3,-3)")
    sub.add_argument("--clamp", default=None)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_ingest)

    sub = subs.add_parser("train", help="fit a learner")
    _add_data_flags(sub)
    _add_learner_flags(sub)
    sub.add_argument("--loss", default="mse")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_train)

    sub = subs.add_parser("describe", help="answer a formalized question")
    _add_data_flags(sub)
    _add_learner_flags(sub)
    sub.add_argument("--question", required=True, choices=list(QUESTIONS))
    sub.add_argument("--model", default=None, help="model .json for handle questions")
    sub.add_argument("--train-data", default=None, help="training dataset for refit questions")
    sub.add_argument("--feature", default=None)
    sub.add_argument("--instance", default=None, help="JSON array, or @file.json")
    sub.add_argument("--observed-y", type=float, default=None)
    sub.add_argument("--y-rel", type=float, default=None)
    sub.add_argument("--lambda", type=float, default=None)
    sub.add_argument("--loss", default="mse")
    sub.add_argument("--max-points", type=int, default=DescriptorSpec.max_points)
    sub.add_argument("--band", type=float, default=None)
    sub.add_argument("--mode", choices=["exact", "permutation_mc"], default=DescriptorSpec.mode)
    sub.add_argument("--mc-permutations", type=int, default=DescriptorSpec.mc_permutations)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_describe)

    sub = subs.add_parser("uncertainty", help="confidence intervals for a descriptor")
    _add_data_flags(sub)
    _add_learner_flags(sub)
    sub.add_argument("--question", default="cpdp",
                     choices=[name for name, q in QUESTIONS.items() if q.intervals])
    sub.add_argument("--mode", choices=["ee", "combined"], required=True)
    sub.add_argument("--model", default=None)
    sub.add_argument("--feature", default=None)
    sub.add_argument("--loss", default="mse")
    sub.add_argument("--alpha", type=float, default=CIConfig.alpha)
    sub.add_argument("--ee-replicates", type=int, default=CIConfig.ee_replicates)
    sub.add_argument("--me-replicates", type=int, default=CIConfig.me_replicates)
    sub.add_argument("--resample", choices=["bootstrap", "subsample"], default="bootstrap")
    sub.add_argument("--fraction", type=float, default=0.5,
                     help="subsample fraction, below 1; 0.5 makes refit spread match "
                          "full-sample variance")
    sub.add_argument("--quantile-family", choices=["student_t", "normal"],
                     default=CIConfig.quantile_family)
    sub.add_argument("--max-points", type=int, default=DescriptorSpec.max_points)
    sub.add_argument("--band", type=float, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_uncertainty)

    sub = subs.add_parser("report", help="summarize one or more run directories")
    sub.add_argument("run_dirs", nargs="+")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_report)

    parser.commands = tuple(subs.choices)
    return parser


# Flags a command no longer takes; a manifest written while it did still holds
# them, and its replay drops them.
_RETIRED_FLAGS = {("ingest", "seed"), ("uncertainty", "y_rel")}


def _expand_config(argv, commands):
    """Replace `--config file.json` with the flags it encodes.

    The file is either a flat {"command": ..., "<flag>": value} object or a
    manifest written by a previous run; explicit flags given after --config
    still win because argparse keeps the last occurrence. The command may
    also be named before `--config` or right after its path (one of
    `commands`), but it must be the file's own.
    """
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path = argv[at + 1]
    raw = _read_json(path, "--config")
    if not isinstance(raw, dict) or "command" not in raw:
        raise ValueError(f"--config file {path} has no \"command\" key")
    if "config" in raw:                                # a run manifest
        command, flags = raw["command"], raw["config"]
    else:
        raw = dict(raw)
        command, flags = raw.pop("command"), raw
    if not isinstance(command, str):
        raise ValueError(f'--config file {path}: "command" is not a string')
    if not isinstance(flags, dict):
        raise ValueError(f'--config file {path}: "config" is not an object')
    before, after = argv[:at], argv[at + 2:]
    named = None
    if before and not before[0].startswith("-"):      # `descry <command> --config ...`
        named, before = before[0], before[1:]
    elif after and after[0] in commands:              # `descry --config ... <command>`
        named, after = after[0], after[1:]
    if named is not None and named != command:
        raise ValueError(f"--config holds a {command!r} run, but the command line "
                         f"asks for {named!r}")
    expanded = [command]
    for key, value in sorted(flags.items()):
        if value is None or key in ("command", "func") or (command, key) in _RETIRED_FLAGS:
            continue
        if key == "run_dirs":
            if not isinstance(value, list):
                raise ValueError(f'--config file {path}: "run_dirs" is not a list')
            expanded.extend(str(v) for v in value)
        else:
            expanded.extend(["--" + key.replace("_", "-"), str(value)])
    return expanded + before + after


def main(argv=None):
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv, parser.commands)
    except (OSError, KeyError, ValueError) as exc:
        sys.stderr.write(canonical_json(error_report(exc, "config")) + "\n")
        return 1
    args = parser.parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        args.func(args)
        _write_manifest(args.out, args)
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(args.out, "error.json"))
        return 0
    except Exception as exc:  # runtime failures also produce machine-readable JSON
        payload = error_report(exc, args.command)
    sys.stderr.write(canonical_json(payload) + "\n")
    try:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(args.out, "manifest.json"))
        write_json(os.path.join(args.out, "error.json"), payload)
    except OSError:
        pass
    return 1
