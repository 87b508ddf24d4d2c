"""descry benchmark: one closed-loop workload per run, checked against oracles.

Usage, from the repository root:

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 15 --trace 0

One process runs one client in a closed loop: the next job starts when the
previous one returns. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the traced jobs and reports the per-layer metrics. The
metrics and their units are listed in BENCHMARK.json at the repository
root; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
name every measured value with its unit, and a full record (environment,
determinism digest, every metric) is written under perfbench/out/.

The program is imported from the ``src`` directory of the checkout this file
sits in; the run fails, without a result, if that directory is missing.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("perfbench", "out")
# Set-up is mostly interpreter start and imports (scipy.stats alone takes
# about 1 s). Its run-to-run spread comes from host drift over minutes, not
# from probe-to-probe noise: on the reference machine, medians of 3 and of 9
# consecutive probes spread alike (0.18 and 0.14). A reference computation
# did not track it either; rescaling by the start of an interpreter that only
# imports numpy moved the median of ten runs by 0.2 between two sets, while
# the wall-time median moved by 0.06. So set-up is plain wall time, and five
# probes keep a run short.
SETUP_PROBES = 5
# A run stops starting jobs after this much wall time, even short of its
# fixed job prefix, so that it always ends within three minutes.
WALL_CAP_S = 120.0
# On a shared host the wall time of one job drifts by up to 2x over minutes,
# and much of the drift is common to all code. A fixed reference computation
# timed next to each job tracks it: on the reference machine its log-time
# correlated 0.7-0.9 with job time, and dividing by it cut the spread of
# 10-job means from 13-18 % to 3-5 %. Job timings are therefore wall times
# rescaled to the reference machine's speed, t * CALIBRATION_REF_S / c, with
# c the reference computation's time measured around t.
CALIBRATION_REF_S = 0.0130


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # internal: set up, say "ready", exit
    return parser.parse_args(argv)


def import_program():
    """Import descry from this checkout's src directory, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "descry", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}/descry")
    sys.path.insert(0, SRC)
    import descry
    if os.path.dirname(os.path.dirname(os.path.abspath(descry.__file__))) != SRC:
        sys.exit(f"perfbench: imported descry from {descry.__file__}, not {SRC}")
    return descry


def calibration_s():
    """Wall time of a fixed numpy and Python computation that uses no descry
    code; a reading of the machine's current speed."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, 3))
    start = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        idx = rng.permutation(300)[:150]
        sub = x[idx]
        acc += float(np.linalg.solve(sub.T @ sub + np.eye(3), sub.sum(axis=0))[0])
        acc += sum(int(v) for v in idx[:50])
    return time.perf_counter() - start


def rescaled(seconds, cal_before, cal_after):
    """Wall seconds at the reference machine's speed."""
    return seconds * CALIBRATION_REF_S / ((cal_before + cal_after) / 2.0)


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- environment record ------------------------------------------------------


def git_commit():
    """The checked-out commit, or None outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def openblas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "openblas_threads": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "DESCRY_THREADS": os.environ.get("DESCRY_THREADS"),
        "git_commit": git_commit(),
    }


# -- set-up ------------------------------------------------------------------------


def work_dir(workload, probe):
    return os.path.join(OUT, "work", workload + ("-probe" if probe else ""))


def setup_probe(args):
    """Child-process body: import, set up, generate job 0's inputs, report."""
    import_program()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, work_dir(args.workload, probe=True))
    wl.inputs(0)
    print("ready", flush=True)
    wl.close()


def measure_setup(args):
    """Median, over fresh processes, of process start to "ready": imports plus
    input generation, the wait a user has before the first job."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times), times


# -- the job loop ------------------------------------------------------------------


class Loop:
    """Runs jobs, times them, checks them, and keeps the prefix records."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.records = {}
        self.worst = {}       # largest oracle distance of each kind over all checked jobs

    def job(self, i, tracer=None):
        """Run job i; returns its wall time, or None if it raised."""
        wl = self.wl
        inp = wl.inputs(i)
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                out = wl.run(inp)
                elapsed = time.perf_counter() - start
            else:
                tracer.job = i
                with tracer.installed():
                    start = time.perf_counter()
                    out = wl.run(inp)
                    elapsed = time.perf_counter() - start
                tracer.job = None
                tracer.job_s += elapsed
        except Exception:
            self.failed += 1
            self.problems.append(f"job {i}: {traceback.format_exc(limit=3)}")
            if 0 <= i < wl.prefix_jobs:
                self.records[i] = None
            return None
        problems, record = wl.check(inp, out)
        if problems:
            self.failed += 1
            self.problems.extend(f"job {i}: {p}" for p in problems)
        if 0 <= i < wl.prefix_jobs:
            self.records[i] = record
        from workloads import LIMITS
        for key in LIMITS:
            if key in record:
                self.worst[key] = max(self.worst.get(key, 0.0), record[key])
        return elapsed

    def prefix_digest(self):
        from workloads import digest_of
        return digest_of([(self.records.get(i) or {}).get("digest")
                          for i in range(self.wl.prefix_jobs)])

    def quality(self):
        done = [r for r in self.records.values() if r is not None]
        return self.wl.quality(done)


def tail(times):
    """The highest percentile with at least ten jobs beyond it, or None."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def run_untraced(args, wl, loop):
    times, scaled, rss = [], [], None
    cals = [calibration_s()]
    started = time.perf_counter()
    i = 0
    while True:
        elapsed = loop.job(i)
        cals.append(calibration_s())
        if elapsed is not None:
            times.append(elapsed)
            scaled.append(rescaled(elapsed, cals[-2], cals[-1]))
        i += 1
        if i == wl.prefix_jobs:
            rss = max_rss_mb()
        if i >= wl.prefix_jobs and sum(times) >= args.seconds:
            break
        if time.perf_counter() - started > WALL_CAP_S:
            break
    if rss is None:
        rss = max_rss_mb()
    timed = sum(times)
    metrics = {
        "jobs_per_s": (len(scaled) / sum(scaled) if scaled else 0.0, "1/s"),
        "job_s_p50": (statistics.median(scaled) if scaled else 0.0, "s"),
        "jobs_per_s_wall": (len(times) / timed if timed else 0.0, "1/s"),
        "job_s_p50_wall": (statistics.median(times) if times else 0.0, "s"),
        "speed_index": (CALIBRATION_REF_S / statistics.median(cals), "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "fail_frac": (loop.failed / loop.attempted, "ratio"),
    }
    extra = {"jobs": len(times), "timed_s": timed, "job_s": times}
    t = tail(scaled)
    if t is not None:
        metrics["job_s_tail"] = (t[0], "s")
        extra["job_s_tail_percentile"] = t[1]
    return metrics, extra


def run_traced(args, wl, loop):
    """Traced jobs 0..J-1 alternate with untraced jobs J..2J-1, so that the
    per-layer sums cover the same jobs as the digest and the overhead compares
    neighbouring jobs."""
    from descry._util import thread_cap
    from tracing import Tracer
    if thread_cap() > 1:
        # the tracer keeps one span stack; threaded refits would interleave on it
        sys.exit("perfbench: --trace 1 needs sequential refits; unset DESCRY_THREADS")
    tracer = Tracer()
    traced, untraced = [], []
    started = time.perf_counter()
    loop.job(-1)          # warm-up, so that first-call costs fall on neither side
    for i in range(wl.prefix_jobs):
        t = loop.job(i, tracer)
        u = loop.job(wl.prefix_jobs + i)
        if t is not None and u is not None:
            traced.append(t)
            untraced.append(u)
        if time.perf_counter() - started > WALL_CAP_S:
            break
    metrics = tracer.metrics()
    overhead = 1.0 - sum(untraced) / sum(traced) if traced else 0.0
    metrics["trace_overhead"] = (overhead, "ratio")
    metrics["cli.bytes_written"] = (
        sum(r.get("bytes", 0) for r in loop.records.values() if r is not None), "count")
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.jsonl.gz")
    tracer.write_spans(spans_path)
    return metrics, {"traced_jobs": len(traced), "spans": len(tracer.spans),
                     "spans_file": spans_path}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    os.chdir(ROOT)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_program()
    import workloads
    from workloads import WORKLOADS
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    env = environment()
    setup = measure_setup(args) if not args.trace else None

    wl = WORKLOADS[args.workload](args.seed, work_dir(args.workload, probe=False))
    loop = Loop(wl)
    try:
        if args.trace:
            metrics, extra = run_traced(args, wl, loop)
        else:
            metrics, extra = run_untraced(args, wl, loop)
            metrics["setup_s"] = (setup[0], "s")
            extra["setup_probe_s"] = setup[1]
            for name, value in loop.quality().items():
                metrics[name] = (value, "ratio")
    finally:
        wl.close()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: workload {args.workload} did not measure {missing}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": loop.attempted, "failed": loop.failed,
        "problems": loop.problems, "prefix_jobs": wl.prefix_jobs, "worst": loop.worst,
        "digest": loop.prefix_digest(), "environment": env, **extra,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in loop.problems:
        print(f"FAILED {problem}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{loop.attempted} jobs attempted, {loop.failed} failed")
    for key, value in extra.items():
        print(f"  {key} = {value}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value!r} {unit}")
    for key, value in loop.worst.items():
        print(f"  worst job {key} = {value!r} (check limit {workloads.LIMITS[key]})")
    print(f"  digest = {record['digest']}")
    print(f"  environment = {json.dumps(env, sort_keys=True)}")
    print(json.dumps({
        "correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
