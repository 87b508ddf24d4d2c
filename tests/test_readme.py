"""The README's library quick start and CLI walk-through, run as written, so
that an edit to either block is tested."""

import os
import re
import shlex

import pytest

from descry._util import write_json
from descry.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def code_block(heading, language):
    """The first ```language block under the README's `## heading`."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def commands(block):
    """The argv of each `descry` command in a shell block: comments dropped,
    backslash continuations joined."""
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    argvs = [shlex.split(line) for line in lines]
    assert all(argv[0] == "descry" for argv in argvs), argvs
    return [argv[1:] for argv in argvs]


@pytest.fixture(scope="module")
def quick_start():
    namespace = {}
    exec(code_block("Library quick start", "python"), namespace)
    return namespace


def test_quick_start_answers_near_its_oracles(quick_start):
    """At the quick start's seeds cpfi reads 2.932 (oracle 3.0), the largest
    cpdp error over its 15 grid points is 0.111, and the combined interval
    covers 14 of the 15 true conditional expectations. The bands below are
    loose around those values: cpfi within 0.5 of 3.0, every cpdp point
    within 0.3 of its truth, and at least 12 of 15 truths covered."""
    ns = quick_start
    truth = dict(zip(ns["grid"].points, ns["truth"]))
    assert len(truth) == 15
    assert abs(ns["importance"].scalar - 3.0) < 0.5
    curve = ns["curve"].curve
    assert len(curve) == 15
    assert max(abs(estimate - truth[v]) for v, estimate, _ in curve) < 0.3
    report = ns["report"]
    covered = sum(lo <= truth[v] <= hi
                  for v, (lo, hi) in zip(report.grid.points, report.ci_me_ee))
    assert covered >= 12


def test_cli_block_runs_as_written(quick_start, tmp_path, monkeypatch):
    """Each command of the CLI block succeeds in turn, on an lg.json holding
    the quick start's phenomenon, and leaves its manifest and main artifact."""
    monkeypatch.chdir(tmp_path)
    write_json("lg.json", quick_start["p"].to_dict())
    argvs = commands(code_block("CLI", "bash"))
    assert [argv[0] for argv in argvs] == [
        "simulate", "train", "describe", "uncertainty", "report"]
    for argv in argvs:
        assert main(argv) == 0, argv
        out = argv[argv.index("--out") + 1]
        assert os.path.exists(os.path.join(out, "manifest.json"))
    for path in ("runs/sim/dataset.json", "runs/model/model.json", "runs/curve/result.json",
                 "runs/curve/curve.csv", "runs/bands/report.json", "runs/summary/report.md"):
        assert os.path.exists(path), path
