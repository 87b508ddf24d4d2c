"""What a fresh descry process imports and runs.

Each CLI command is a new process, so import cost is paid on every run.
scipy is loaded only when a confidence interval needs its quantile, and then
only `scipy.special`, not `scipy.stats` (about 1 s of import on its own)."""

import os
import subprocess
import sys

import descry

SRC = os.path.dirname(os.path.dirname(os.path.abspath(descry.__file__)))


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_scipy_is_loaded_only_for_an_interval_quantile():
    probe = (
        "import sys, descry, descry.cli\n"
        "print(sorted({'scipy.stats', 'scipy.special'} & set(sys.modules)))\n"
        "descry.CIConfig().quantile(20)\n"
        "print(sorted({'scipy.stats', 'scipy.special'} & set(sys.modules)))\n")
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['scipy.special']"]


def test_python_m_descry_runs_the_cli():
    proc = run_python("-m", "descry", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"descry {descry.__version__}"


def test_knn_and_the_support_checker_load_no_scipy():
    """Training and predicting a knn model and building a support checker
    import no scipy module: `scipy.spatial` alone would add about 31 MB to a
    process's peak resident memory."""
    probe = (
        "import sys, numpy as np, descry\n"
        "from descry import Dataset, FeatureSpec, LearnerConfig, LossFunction, train\n"
        "from descry.samplers import SupportChecker\n"
        "x = np.random.default_rng(0).normal(size=(1500, 3))\n"
        "d = Dataset(features=[FeatureSpec(name=f'x{j}', kind='numeric') for j in range(3)],\n"
        "            target=FeatureSpec(name='y', kind='numeric'), rows=x,\n"
        "            targets=x.sum(axis=1), provenance='observed')\n"
        "h = train(LearnerConfig(learner='knn'), d, LossFunction.MSE)\n"
        "h.predict_batch(x[:50])\n"
        "SupportChecker(d).check_rows(x[:50] + 0.01)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def test_the_support_threshold_and_a_scan_load_no_scipy():
    """Computing the support checker's distance threshold (its window bounds
    and exact batches) and scanning a row whose window bound cannot settle
    it import no scipy module either."""
    probe = (
        "import sys, numpy as np\n"
        "from descry import Dataset, FeatureSpec, samplers\n"
        "x = np.random.default_rng(0).normal(size=(1500, 3))\n"
        "d = Dataset(features=[FeatureSpec(name=f'x{j}', kind='numeric') for j in range(3)],\n"
        "            target=FeatureSpec(name='y', kind='numeric'), rows=x,\n"
        "            targets=x.sum(axis=1), provenance='observed')\n"
        "scans, real = [], samplers.nearest\n"
        "samplers.nearest = lambda q, *args: scans.append(len(q)) or real(q, *args)\n"
        "checker = samplers.SupportChecker(d)\n"
        "checker.nn_threshold\n"
        "del scans[:]\n"
        "far = np.quantile(x, 0.995, axis=0)[None]   # every column at its upper band edge\n"
        "print(checker.check_rows(np.vstack([x[:50] + 0.01, far])).tolist()[-1], scans)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False [1]", "[]"]
