"""Command-line pipeline: ingest, simulate, train, describe, uncertainty, report.

Every run writes a manifest (config echo, version, seeds) into its output
directory, and identical manifests reproduce byte-identical JSON/CSV output.
Exit codes: 0 success, 1 runtime error (with machine-readable error JSON),
2 usage error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .data import (
    Dataset, FeatureSpec, ResamplePlan, center_feature, jitter_augment,
    load_csv, merge_students, student_schema,
)
from .descriptors import (
    DescriptorSpec, counterfactual_local, cpdp, cpfi, ice,
    local_conditional_contribution, relevant_value_global, sage, shapley_local,
)
from .errors import DescryError, MissingManifest
from .models import LearnerConfig, LossFunction, PredictorHandle, epe, train
from .phenomenon import Phenomenon, sample
from .plots import write_curve_svg
from .uncertainty import CIConfig, ci_combined, ci_estimation
from ._util import canonical_json, write_json


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_schema(arg):
    if arg == "student":
        return student_schema()
    raw = _read_json(arg)
    columns = raw["columns"] if isinstance(raw, dict) else raw
    return [FeatureSpec.from_dict(c) for c in columns]


def _load_dataset(args, path=None, schema_arg=None):
    path = path or args.data
    if path.endswith(".json"):
        return Dataset.from_dict(_read_json(path))
    schema_arg = schema_arg or getattr(args, "schema", None)
    if schema_arg is None:
        raise DescryError("CSV input needs --schema", operation=args.command)
    schema = _load_schema(schema_arg)
    return load_csv(path, schema, args.target, delimiter=args.delimiter)


def _learner_config(args):
    return LearnerConfig(
        learner=args.learner, seed=args.seed, knn_k=args.knn_k,
        distance=args.distance, hidden=tuple(int(w) for w in args.hidden.split(",")),
        learning_rate=args.learning_rate, lr_decay=args.lr_decay,
        epochs=args.epochs, batch_size=args.batch_size)


def _write_manifest(outdir, args):
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    write_json(os.path.join(outdir, "manifest.json"), {
        "command": args.command, "config": config,
        "version": __version__, "seed": getattr(args, "seed", None)})


def _resolve_feature(d, name_or_index):
    try:
        return int(name_or_index)
    except (TypeError, ValueError):
        return d.feature_index(name_or_index)


def _parse_instance(raw):
    if raw.startswith("@"):
        return _read_json(raw[1:])
    return json.loads(raw)


def _curve_outputs(outdir, result, x_label, y_label):
    write_json(os.path.join(outdir, "result.json"), result.to_dict())
    stderr = result.diagnostics.get("stderr")
    lines = ["grid,estimate,group_size" + (",stderr" if stderr else "")]
    for i, (v, e, g) in enumerate(result.curve):
        row = f"{v if isinstance(v, str) else repr(float(v))},{repr(float(e))},{g}"
        if stderr:
            row += f",{repr(float(stderr[i]))}"
        lines.append(row)
    with open(os.path.join(outdir, "curve.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    numeric = all(not isinstance(v, str) for v, _, _ in result.curve)
    if numeric:
        write_curve_svg(os.path.join(outdir, "plot.svg"), result.curve,
                        title=result.spec.question, x_label=x_label, y_label=y_label)
    dropped = result.diagnostics.get("dropped_grid_points",
                                     result.diagnostics.get("off_support_grid_points", []))
    write_json(os.path.join(outdir, "sparse_regions.json"),
               {"dropped_grid_points": dropped})


# -- subcommands --------------------------------------------------------------


def _cmd_simulate(args):
    p = Phenomenon.from_dict(_read_json(args.spec))
    d = sample(p, args.k, args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "dataset.json"), d.to_dict())
    d.write_csv(os.path.join(args.out, "dataset.csv"))
    _write_manifest(args.out, args)
    return 0


def _cmd_ingest(args):
    schema = _load_schema(args.schema)
    d = load_csv(args.csv, schema, args.target, delimiter=args.delimiter)
    report = {"rows": d.k}
    if args.merge_csv:
        por = load_csv(args.merge_csv, schema, args.target, delimiter=args.delimiter)
        d, merge_report = merge_students(d, por)
        report["merge"] = merge_report
    if args.drop:
        keep = [j for j, f in enumerate(d.features) if f.name not in args.drop.split(",")]
        from .data import select_features
        d = select_features(d, keep)
    if args.center:
        d, mean = center_feature(d, args.center)
        report["center"] = {"feature": args.center, "mean": mean}
    if args.jitter:
        offsets = [float(o) for o in args.offsets.split(",")]
        clamp = tuple(float(c) for c in args.clamp.split(",")) if args.clamp else None
        d = jitter_augment(d, args.jitter, offsets, clamp=clamp)
        report["jitter"] = {"feature": args.jitter, "offsets": offsets,
                            "clamp": list(clamp) if clamp else None, "rows": d.k}
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "dataset.json"), d.to_dict())
    d.write_csv(os.path.join(args.out, "dataset.csv"))
    write_json(os.path.join(args.out, "ingest_report.json"), report)
    _write_manifest(args.out, args)
    return 0


def _cmd_train(args):
    d = _load_dataset(args)
    config = _learner_config(args)
    loss = LossFunction(args.loss)
    handle = train(config, d, loss)
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "model.json"), handle.to_dict())
    write_json(os.path.join(args.out, "training.json"),
               {"config": config.to_dict(), "loss": loss.value,
                "train_epe": epe(handle, d, loss), "rows": d.k})
    _write_manifest(args.out, args)
    return 0


def _cmd_describe(args):
    d_eval = _load_dataset(args)
    loss = LossFunction(args.loss)
    os.makedirs(args.out, exist_ok=True)

    handle = PredictorHandle.from_dict(_read_json(args.model)) if args.model else None
    config = _learner_config(args) if args.train_data else None
    d_train = _load_dataset(args, path=args.train_data) if args.train_data else None
    feature = _resolve_feature(d_eval, args.feature) if args.feature is not None else None
    instance = _parse_instance(args.instance) if args.instance else None

    q = args.question
    if q == "cpdp":
        result = cpdp(handle, d_eval, feature, band=args.band, max_points=args.max_points)
        _curve_outputs(args.out, result, d_eval.features[feature].name, "estimate")
    elif q == "ice":
        result = ice(handle, instance, feature, None, d_eval, max_points=args.max_points)
        _curve_outputs(args.out, result, d_eval.features[feature].name, "prediction")
    else:
        if q == "cpfi":
            result = cpfi(config, d_train, d_eval, feature, loss)
        elif q == "sage":
            result = sage(config, d_train, d_eval, loss, mode=args.mode,
                          mc_permutations=args.mc_permutations, seed=args.seed)
        elif q == "shapley_local":
            result = shapley_local(config, d_train, d_eval, instance, mode=args.mode,
                                   mc_permutations=args.mc_permutations, seed=args.seed,
                                   loss=loss)
        elif q == "local_conditional_contribution":
            result = local_conditional_contribution(
                config, d_train, d_eval, instance, args.observed_y, feature, loss)
        elif q == "relevant_value_global":
            result = relevant_value_global(handle, d_eval, args.y_rel)
        elif q == "counterfactual_local":
            result = counterfactual_local(handle, d_eval, instance, args.y_rel,
                                          getattr(args, "lambda"))
        else:
            raise DescryError(f"unknown question {q!r}", operation="describe")
        write_json(os.path.join(args.out, "result.json"), result.to_dict())
    _write_manifest(args.out, args)
    return 0


def _cmd_uncertainty(args):
    d = _load_dataset(args)
    loss = LossFunction(args.loss)
    feature = _resolve_feature(d, args.feature) if args.feature is not None else None
    spec = DescriptorSpec(question=args.question, feature=feature, loss=loss,
                          y_rel=args.y_rel, seed=args.seed, max_points=args.max_points,
                          band=args.band)
    plan = ResamplePlan(method=args.resample, fraction=args.fraction,
                        replicates=max(args.ee_replicates, args.me_replicates),
                        seed=args.seed)
    cfg = CIConfig(alpha=args.alpha, ee_replicates=args.ee_replicates,
                   me_replicates=args.me_replicates, resample_plan=plan,
                   quantile_family=args.quantile_family)

    if args.mode == "ee":
        handle = PredictorHandle.from_dict(_read_json(args.model))
        report = ci_estimation(handle, d, spec, cfg)
    else:
        config = _learner_config(args)
        report = ci_combined(config, d, spec, cfg)

    os.makedirs(args.out, exist_ok=True)
    out = report.to_dict()
    out["question"] = args.question
    out["mode"] = args.mode
    write_json(os.path.join(args.out, "report.json"), out)
    with open(os.path.join(args.out, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.csv_lines()) + "\n")
    if report.grid is not None and not any(isinstance(v, str) for v in report.grid.points):
        keep = [i for i, v in enumerate(report.point_estimates)
                if np.isfinite(v) and np.all(np.isfinite(report.ci_ee[i]))]
        if keep:
            curve = [(report.grid.points[i], float(report.point_estimates[i]), 1)
                     for i in keep]
            ci_me = (report.ci_me_ee[keep].tolist()
                     if report.ci_me_ee is not None else None)
            write_curve_svg(os.path.join(args.out, "plot.svg"), curve,
                            title=f"{args.question} ({args.mode})",
                            x_label=d.features[feature].name, y_label="estimate",
                            ci_ee=report.ci_ee[keep].tolist(), ci_me_ee=ci_me)
    _write_manifest(args.out, args)
    return 0


def _cmd_report(args):
    sections = {}
    warnings = []
    for run_dir in args.run_dirs:
        manifest_path = os.path.join(run_dir, "manifest.json")
        if not os.path.exists(manifest_path):
            raise MissingManifest(f"{run_dir} has no manifest.json", operation="report")
        manifest = _read_json(manifest_path)
        entry = {"dir": run_dir, "manifest": manifest}
        result_path = os.path.join(run_dir, "result.json")
        report_path = os.path.join(run_dir, "report.json")
        kind = manifest["config"].get("question", manifest["command"])
        if os.path.exists(result_path):
            entry["result"] = _read_json(result_path)
            dropped = entry["result"].get("diagnostics", {}).get("dropped_grid_points")
            if dropped:
                warnings.append((run_dir, dropped))
        if os.path.exists(report_path):
            entry["report"] = _read_json(report_path)
        sections.setdefault(kind, []).append(entry)

    lines = [f"# descry report", "", f"Generated by descry {__version__}.", ""]
    for kind in sorted(sections):
        lines.append(f"## {kind}")
        lines.append("")
        for entry in sections[kind]:
            lines.append(f"### `{entry['dir']}`")
            lines.append("")
            svg = os.path.join(entry["dir"], "plot.svg")
            if os.path.exists(svg):
                lines.append(f"![curve]({os.path.relpath(svg, args.out)})")
                lines.append("")
            result = entry.get("result")
            if result:
                if "curve" in result:
                    lines.append("| grid | estimate | group size |")
                    lines.append("| --- | --- | --- |")
                    for v, e, g in result["curve"]:
                        lines.append(f"| {v} | {e} | {g} |")
                elif "scalar" in result:
                    lines.append(f"Scalar value: **{result['scalar']}**")
                elif "attribution" in result:
                    lines.append("| feature | attribution |")
                    lines.append("| --- | --- |")
                    for j, a in enumerate(result["attribution"]):
                        lines.append(f"| {j} | {a} |")
                elif "point" in result:
                    lines.append(f"Point: `{json.dumps(result['point'])}`")
                lines.append("")
            rep = entry.get("report")
            if rep:
                def cell(x, fmt=".6g"):
                    return "-" if x is None else format(x, fmt)

                lines.append("| grid | estimate | ci_ee | ci_me_ee |")
                lines.append("| --- | --- | --- | --- |")
                grid = rep["grid"] or [""]
                for i, v in enumerate(grid):
                    ee = rep["ci_ee"][i]
                    mee = rep.get("ci_me_ee")
                    mee_txt = (f"[{cell(mee[i][0], '.4g')}, {cell(mee[i][1], '.4g')}]"
                               if mee else "-")
                    lines.append(f"| {v} | {cell(rep['point_estimates'][i])} "
                                 f"| [{cell(ee[0], '.4g')}, {cell(ee[1], '.4g')}] "
                                 f"| {mee_txt} |")
                flags = rep.get("assumptions", {})
                lines.append("")
                lines.append(f"Assumption flags: `{json.dumps(flags, sort_keys=True)}`")
                lines.append("")
    if warnings:
        lines.append("## Sparsity warnings")
        lines.append("")
        for run_dir, dropped in warnings:
            lines.append(f"- `{run_dir}`: {len(dropped)} grid point(s) dropped for "
                         f"insufficient data: {json.dumps(dropped)}")
        lines.append("")

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_manifest(args.out, args)
    return 0


# -- parser --------------------------------------------------------------------


def _add_learner_flags(sub):
    sub.add_argument("--learner", choices=["ols", "knn", "mlp"], default="ols")
    sub.add_argument("--knn-k", type=int, default=5)
    sub.add_argument("--distance", choices=["euclidean_standardized", "gower"],
                     default="euclidean_standardized")
    sub.add_argument("--hidden", default="32,16,8")
    sub.add_argument("--learning-rate", type=float, default=0.01)
    sub.add_argument("--lr-decay", type=float, default=0.5)
    sub.add_argument("--epochs", type=int, default=300)
    sub.add_argument("--batch-size", type=int, default=32)


def _add_data_flags(sub):
    sub.add_argument("--data", required=True, help="dataset .json (or .csv with --schema)")
    sub.add_argument("--schema", default=None)
    sub.add_argument("--target", default=None)
    sub.add_argument("--delimiter", default=",")


def build_parser():
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
    sub.add_argument("--offsets", default="1,-1,2,-2,3,-3")
    sub.add_argument("--clamp", default=None)
    sub.add_argument("--seed", type=int, default=0)
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
    sub.add_argument("--question", required=True,
                     choices=["cpdp", "ice", "cpfi", "sage", "shapley_local",
                              "local_conditional_contribution",
                              "relevant_value_global", "counterfactual_local"])
    sub.add_argument("--model", default=None, help="model .json for handle questions")
    sub.add_argument("--train-data", default=None, help="training dataset for refit questions")
    sub.add_argument("--feature", default=None)
    sub.add_argument("--instance", default=None, help="JSON array, or @file.json")
    sub.add_argument("--observed-y", type=float, default=None)
    sub.add_argument("--y-rel", type=float, default=None)
    sub.add_argument("--lambda", type=float, default=None)
    sub.add_argument("--loss", default="mse")
    sub.add_argument("--max-points", type=int, default=20)
    sub.add_argument("--band", type=float, default=None)
    sub.add_argument("--mode", choices=["exact", "permutation_mc"], default="exact")
    sub.add_argument("--mc-permutations", type=int, default=2000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_describe)

    sub = subs.add_parser("uncertainty", help="confidence intervals for a descriptor")
    _add_data_flags(sub)
    _add_learner_flags(sub)
    sub.add_argument("--question", choices=["cpdp", "cpfi", "relevant_value_global"],
                     default="cpdp")
    sub.add_argument("--mode", choices=["ee", "combined"], required=True)
    sub.add_argument("--model", default=None)
    sub.add_argument("--feature", default=None)
    sub.add_argument("--y-rel", type=float, default=None)
    sub.add_argument("--loss", default="mse")
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--ee-replicates", type=int, default=100)
    sub.add_argument("--me-replicates", type=int, default=30)
    sub.add_argument("--resample", choices=["bootstrap", "subsample"], default="bootstrap")
    sub.add_argument("--fraction", type=float, default=0.5,
                     help="subsample fraction; 0.5 makes refit spread match "
                          "full-sample variance")
    sub.add_argument("--quantile-family", choices=["student_t", "normal"],
                     default="student_t")
    sub.add_argument("--max-points", type=int, default=20)
    sub.add_argument("--band", type=float, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_uncertainty)

    sub = subs.add_parser("report", help="summarize one or more run directories")
    sub.add_argument("run_dirs", nargs="+")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_report)

    return parser


def _expand_config(argv):
    """Replace `--config file.json` with the flags it encodes.

    The file is either a flat {"command": ..., "<flag>": value} object or a
    manifest written by a previous run; explicit flags given after --config
    still win because argparse keeps the last occurrence.
    """
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 == len(argv):
        raise ValueError("--config needs a file path")
    raw = _read_json(argv[at + 1])
    if "config" in raw and "command" in raw:           # a run manifest
        command, flags = raw["command"], raw["config"]
    else:
        raw = dict(raw)
        command, flags = raw.pop("command"), raw
    expanded = [command]
    for key, value in sorted(flags.items()):
        if value is None or key in ("command", "func"):
            continue
        flag = "--" + key.replace("_", "-")
        if key == "run_dirs":
            expanded.extend(str(v) for v in value)
        elif isinstance(value, bool):
            if value:
                expanded.append(flag)
        else:
            expanded.extend([flag, str(value)])
    return expanded + argv[:at] + argv[at + 2:]


def main(argv=None):
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
    except (OSError, KeyError, ValueError) as exc:
        sys.stderr.write(canonical_json({
            "error": type(exc).__name__, "module": "cli", "operation": "config",
            "message": str(exc)}) + "\n")
        return 1
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DescryError as exc:
        payload = exc.to_dict()
    except Exception as exc:  # runtime failures also produce machine-readable JSON
        payload = {"error": type(exc).__name__, "module": "cli",
                   "operation": args.command, "message": str(exc)}
    sys.stderr.write(canonical_json(payload) + "\n")
    out = getattr(args, "out", None)
    if out:
        try:
            os.makedirs(out, exist_ok=True)
            write_json(os.path.join(out, "error.json"), payload)
        except OSError:
            pass
    return 1


if __name__ == "__main__":
    sys.exit(main())
