#!/usr/bin/env python3
"""Paper-grid benchmark of fairclean.

Runs the real run_suite binary over the full paper grid (Figures 1-2,
Tables II-XIV: 39 experiment cells, 10 figure panels) as forked children
and reports what a user of the suite sees, measured from outside the
process: wall time and wait4 rusage.

  python3 gridbench/run.py --workload grid_cold --seed 1 --seconds 10 --trace 0

Workloads (each is a closed batch of one run_suite process at a time):
  grid_cold    full grid, empty cache, FAIRCLEAN_THREADS = nproc
  grid_serial  the same grid at FAIRCLEAN_THREADS = 1
  grid_warm    the same grid over a cache filled during set-up

--trace 0 prints the end-to-end metrics (wall_s, cpu_s, peak_rss_mb,
setup_s). --trace 1 runs the workload once untraced and then grid_trace,
a replay that drives each layer through its public functions with a span
around every call, and prints the per-layer metrics.

The program is built from source on first use into $CARGO_TARGET_DIR
(default .bench_build) as a Release build; any other build type is
refused. Every invocation runs in a fresh working and cache directory
under the build directory, which is removed afterwards. The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import glob
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCALE = {"FAIRCLEAN_SAMPLE": "1000", "FAIRCLEAN_REPEATS": "3"}
# Every knob a child gets besides seed, threads and paths. At this scale a
# few german log-reg repeats are degenerate (a single-class group slice)
# on some seeds; the default two retries reseed only once, which left a
# repeat skipped on about one seed in twenty. Eight retries reseed seven
# times, so every cell completes and no run fails on the program's data.
KNOBS = dict(SCALE, FAIRCLEAN_MAX_RETRIES="8")
# Key of the report digest registry: every knob that shapes report bytes.
REPORT_KEY = "n%s_r%s_x%s" % (SCALE["FAIRCLEAN_SAMPLE"],
                              SCALE["FAIRCLEAN_REPEATS"],
                              KNOBS["FAIRCLEAN_MAX_RETRIES"])
WORKLOADS = {
    # threads None = nproc; a sample is `batch` run_suite invocations.
    "grid_cold": {"threads": None, "warm": False, "batch": 1, "min_samples": 2},
    "grid_serial": {"threads": 1, "warm": False, "batch": 1, "min_samples": 1},
    "grid_warm": {"threads": None, "warm": True, "batch": 3, "min_samples": 3},
}
# Set-ups measured per run for setup_s. On the cold workloads a set-up is
# a fresh cache dir plus a `run_suite --list` preflight (milliseconds, so
# take many); on grid_warm it is a full cache fill, and the samples
# alternate between the filled caches.
MIN_SETUPS = 9
WARM_FILLS = 2
# Wall-clock budget of one benchmark run, build excluded.
RUN_BUDGET_S = 170.0
# The ROADMAP's attribution bar for the traced replay of grid_serial.
MAX_UNATTRIBUTED = 0.05


def die(message):
    print("gridbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds run_suite and grid_trace in Release."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("no fairclean source tree around %s" % Path(__file__).parent.name)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir.mkdir(parents=True, exist_ok=True)
    cache = build_dir / "CMakeCache.txt"
    with open(build_dir / "gridbench_build.log", "w") as log:
        if not cache.exists():
            configure = ["cmake", "-S", str(ROOT / "gridbench"), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=log,
                              stderr=subprocess.STDOUT).returncode:
                die("configure failed; see %s" % log.name)
        build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
        if build_type != "Release":
            die("refusing a %r build in %s" % (build_type, build_dir))
        compile_cmd = ["cmake", "--build", str(build_dir), "--target",
                       "run_suite", "grid_trace", "-j", str(nproc())]
        if subprocess.run(compile_cmd, stdout=log,
                          stderr=subprocess.STDOUT).returncode:
            die("build failed; see %s" % (build_dir / log.name))
    return build_dir


def cache_value(path, key):
    match = re.search(r"^%s:[A-Z]+=(.*)$" % re.escape(key),
                      path.read_text(), re.M)
    return match.group(1) if match else ""


def nproc():
    return len(os.sched_getaffinity(0))


def environment(build_dir, args, threads):
    """What a result was measured on."""
    compiler = "unknown"
    for path in glob.glob(str(build_dir / "CMakeFiles/*/CMakeCXXCompiler.cmake")):
        text = Path(path).read_text()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            compiler = "%s %s" % (ident.group(1), version.group(1))
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {
        "commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "nproc": nproc(),
        "compiler": compiler,
        "build_type": cache_value(build_dir / "CMakeCache.txt",
                                  "CMAKE_BUILD_TYPE"),
        "scale": {"sample": int(SCALE["FAIRCLEAN_SAMPLE"]),
                  "repeats": int(SCALE["FAIRCLEAN_REPEATS"])},
        "max_retries": int(KNOBS["FAIRCLEAN_MAX_RETRIES"]),
        "seed": args.seed,
        "threads": threads,
        "workload": args.workload,
    }


class Bench:
    """One benchmark run: fresh directories, children, checks, counters."""

    def __init__(self, build_dir, args, threads):
        self.run_suite = str(build_dir / "fairclean/tools/run_suite")
        self.grid_trace = str(build_dir / "grid_trace")
        self.root = build_dir / "gridbench_runs" / (
            "%s-%d" % (args.workload, os.getpid()))
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.registry = harness.ReportRegistry(build_dir / "gridbench_reports")
        self.seed = str(args.seed)
        self.threads = threads
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.dirs = 0

    def remaining(self):
        return self.deadline - time.perf_counter()

    def fresh_dir(self):
        self.dirs += 1
        work = self.root / ("w%d" % self.dirs)
        (work / "cache").mkdir(parents=True)
        return work

    def env(self, threads):
        return harness.child_env(os.environ, dict(
            KNOBS, FAIRCLEAN_SEED=self.seed, FAIRCLEAN_THREADS=str(threads),
            FAIRCLEAN_CACHE_DIR="cache", FAIRCLEAN_SUITE_REPORT="report.json"))

    def fail(self, what, problems):
        self.failed += 1
        print("FAIL %s: %s" % (what, "; ".join(problems)), file=sys.stderr)

    def preflight(self):
        """One cold set-up: a fresh cache dir and `run_suite --list`."""
        start = time.perf_counter()
        work = self.fresh_dir()
        child = harness.spawn([self.run_suite, "--list"], self.env(1), work,
                              work / "list.log", self.remaining())
        if child.code != 0:
            die("run_suite --list exited %d" % child.code)
        return work, time.perf_counter() - start

    def suite(self, work, threads, expect_warm=False):
        """One checked run_suite invocation in `work`."""
        self.attempted += 1
        log = work / ("run%d.log" % self.attempted)
        child = harness.spawn([self.run_suite], self.env(threads), work, log,
                              self.remaining())
        text = log.read_text(errors="replace")
        diagnostics = harness.parse_diagnostics(text)
        report, problems = harness.check_report(
            work / "report.json", work, self.registry,
            "%s_s%s" % (REPORT_KEY, self.seed))
        if child.code != 0:
            problems.insert(0, "exit code %d" % child.code)
        if expect_warm and diagnostics.get("cache_hits") != harness.GRID_CELLS:
            problems.append("warm run was not all cache hits")
        if problems:
            self.fail("run_suite in %s" % work.name, problems)
        return child, report, diagnostics

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def measure(bench, spec, seconds):
    """--trace 0: set-ups and samples for `seconds`; end-to-end metrics."""
    setups = []
    walls, cpus, rss = [], [], []
    warm_dirs = []
    if spec["warm"]:
        for _ in range(WARM_FILLS):
            start = time.perf_counter()
            warm_dirs.append(bench.fresh_dir())
            bench.suite(warm_dirs[-1], bench.threads)
            setups.append(time.perf_counter() - start)
    else:
        while len(setups) < MIN_SETUPS - spec["min_samples"]:
            setups.append(bench.preflight()[1])
    stop = time.perf_counter() + seconds
    while (len(walls) < spec["min_samples"] or time.perf_counter() < stop) \
            and bench.remaining() > 0:
        if spec["warm"]:
            work = warm_dirs[len(walls) % WARM_FILLS]
        else:
            work, setup = bench.preflight()
            setups.append(setup)
        children = [bench.suite(work, bench.threads, expect_warm=spec["warm"])[0]
                    for _ in range(spec["batch"])]
        walls.append(sum(c.wall_s for c in children))
        cpus.append(sum(c.cpu_s for c in children))
        rss.append(max(c.maxrss_kb for c in children) / 1024.0)
        if not spec["warm"]:
            shutil.rmtree(work, ignore_errors=True)
    for name, values in (("wall_s", walls), ("cpu_s", cpus),
                         ("peak_rss_mb", rss), ("setup_s", setups)):
        q1, q2, q3 = harness.quartiles(values)
        print("%-12s median %.4f  q1 %.4f  q3 %.4f  (%d samples)"
              % (name, q2, q1, q3, len(values)))
    units = dict(harness.END_TO_END)
    values = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss,
              "setup_s": setups}
    return {name: (harness.median(values[name]), units[name])
            for name in units}


def trace(bench, spec, workload):
    """--trace 1: one untraced run for reference, then the traced replay."""
    if spec["warm"]:
        work = bench.fresh_dir()
        bench.suite(work, bench.threads)
    else:
        work, _ = bench.preflight()
    ref, report, diagnostics = bench.suite(work, bench.threads,
                                           expect_warm=spec["warm"])
    if spec["warm"]:
        store_dir = work / "cache"
    else:
        store_dir = work / "replay_store"
        store_dir.mkdir()
    summary_path = work / "trace.json"
    bench.attempted += 1
    child = harness.spawn(
        [bench.grid_trace, "--mode", "warm" if spec["warm"] else "compute",
         "--store-dir", str(store_dir), "--out", str(summary_path)],
        harness.child_env(os.environ, dict(KNOBS, FAIRCLEAN_SEED=bench.seed,
                                           FAIRCLEAN_THREADS="1")),
        work, work / "trace.log", bench.remaining())
    if child.code != 0 or not summary_path.exists():
        bench.fail("grid_trace", ["exit code %d: %s" % (
            child.code, (work / "trace.log").read_text(errors="replace")[-2000:])])
        return {}
    summary = json.loads(summary_path.read_text())
    metrics = layer_metrics(summary, ref, diagnostics, bench.threads)
    problems = replay_problems(summary, report, diagnostics, spec["warm"])
    if workload == "grid_serial" and metrics["unattributed_frac"] > MAX_UNATTRIBUTED:
        problems.append("unattributed_frac %.4f > %.2f" % (
            metrics["unattributed_frac"], MAX_UNATTRIBUTED))
    if problems:
        bench.fail("traced replay", problems)
    for name, value in sorted(metrics.items(), key=lambda kv: kv[0]):
        print("%-20s %14.6f" % (name, value))
    units = dict(harness.PER_LAYER)
    return {name: (metrics[name], units[name]) for name in units}


def layer_metrics(summary, ref, diagnostics, threads):
    layers = summary["layers"]

    def self_s(*names):
        return sum(layers.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(prefix):
        return sum(v["calls"] for k, v in layers.items() if k.startswith(prefix))

    detectors = [k for k in layers if k.startswith("detect.")]
    replay_s = summary["replay_s"]
    cells = summary["cell_s"]
    # Time the untraced run spent outside the replayed node work (graph
    # build, planning, report render, process start): its wall time at one
    # thread, its CPU time at nproc. The two passes run one after the
    # other, so host speed drift between them shows here too and the value
    # can be negative.
    busy_s = ref.wall_s if threads == 1 else ref.cpu_s
    return {
        "datasets.gen_s": self_s("datasets.gen"),
        "core.prepare_s": self_s("core.prepare"),
        "detect.s": self_s(*detectors),
        "detect.iforest_s": self_s("detect.outliers-if"),
        "detect.mislabel_s": self_s("detect.mislabels"),
        "detect.calls": calls("detect."),
        "repair.s": self_s("repair"),
        "ml.encode_s": self_s("ml.encode"),
        "ml.tune_s.xgboost": self_s("ml.tune.xgboost"),
        "ml.tune_s.knn": self_s("ml.tune.knn"),
        "ml.tune_s.log-reg": self_s("ml.tune.log-reg"),
        "ml.predict_s": self_s("ml.predict"),
        "ml.tune_calls": calls("ml.tune."),
        "fairness.s": self_s("fairness"),
        "stats.s": self_s("stats"),
        "exec.merge_s": self_s("exec.merge"),
        "exec.cell_s.p50": harness.median(cells),
        "exec.cell_s.max": max(cells),
        "exec.repeats_run": diagnostics.get("repeats_run", 0),
        "exec.retries": diagnostics.get("retries", 0),
        "exec.skips": diagnostics.get("skips", 0),
        "exec.cache_hits": diagnostics.get("cache_hits", 0),
        "sched.idle_frac": 1.0 - ref.cpu_s / (threads * ref.wall_s),
        "sched.overhead_s": busy_s - replay_s,
        "store.read_s": self_s("store.read"),
        "store.write_s": self_s("store.write"),
        "store.bytes": summary["store"]["bytes"],
        "store.records": summary["store"]["records"],
        "trace.replay_s": replay_s,
        "trace.overhead_frac": summary["spans"] * summary["span_cost_s"] / replay_s,
        "unattributed_frac": 1.0 - self_s(*layers) / replay_s,
    }


def replay_problems(summary, report, diagnostics, warm):
    """The replay must reproduce the untraced run's cells and tables."""
    if report is None:
        return ["no reference report"]
    problems = []
    want = {c["id"]: (c["sha256"], c["class"]) for c in report["cells"]}
    got = {c["id"]: (c["sha256"], c["class"]) for c in summary["cells"]}
    if want != got:
        problems.append("replayed cells differ from run_suite: %s" % sorted(
            k for k in set(want) | set(got) if want.get(k) != got.get(k)))
    want = {t["id"]: t["counts"] for t in report["tables"]}
    got = {t["id"]: t["counts"] for t in summary["tables"]}
    if want != got:
        problems.append("replayed tables differ from run_suite")
    if not warm:
        for key in ("repeats_run", "retries", "skips"):
            if summary["counts"][key] != diagnostics.get(key):
                problems.append("replay %s %s != run_suite %s" % (
                    key, summary["counts"][key], diagnostics.get(key)))
        if summary["checks"]["slots"] == 0:
            problems.append("no slot was cross-checked")
    if summary["checks"]["figures"] == 0:
        problems.append("no figure was cross-checked")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    spec = WORKLOADS[args.workload]
    build_dir = build()
    threads = spec["threads"] or nproc()
    print("environment " + json.dumps(environment(build_dir, args, threads)))
    bench = Bench(build_dir, args, threads)
    try:
        if args.trace:
            metrics = trace(bench, spec, args.workload)
        else:
            metrics = measure(bench, spec, args.seconds)
    finally:
        bench.close()
    if not metrics:
        metrics = {}
    print("fail_frac %.4f (%d of %d runs failed)" % (
        harness.fail_frac(bench.attempted, bench.failed), bench.failed,
        bench.attempted))
    print(harness.result_line(bench.failed == 0 and bool(metrics),
                              bench.attempted, bench.failed, metrics))


if __name__ == "__main__":
    main()
