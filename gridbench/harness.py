"""Pure helpers of the grid benchmark: metric tables, statistics, the child
environment, child processes with rusage, and the report checks.

run.py drives the workloads; this module holds everything that can be
tested without building or running the program (test_harness.py).
"""

import hashlib
import json
import os
import re
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

# Every end-to-end metric, printed with --trace 0: (name, unit).
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# Every per-layer metric, printed with --trace 1: (name, unit).
PER_LAYER = [
    ("datasets.gen_s", "s"),
    ("core.prepare_s", "s"),
    ("detect.s", "s"),
    ("detect.iforest_s", "s"),
    ("detect.mislabel_s", "s"),
    ("detect.calls", "count"),
    ("repair.s", "s"),
    ("ml.encode_s", "s"),
    ("ml.tune_s.xgboost", "s"),
    ("ml.tune_s.knn", "s"),
    ("ml.tune_s.log-reg", "s"),
    ("ml.predict_s", "s"),
    ("ml.tune_calls", "count"),
    ("fairness.s", "s"),
    ("stats.s", "s"),
    ("exec.merge_s", "s"),
    ("exec.cell_s.p50", "s"),
    ("exec.cell_s.max", "s"),
    ("exec.repeats_run", "count"),
    ("exec.retries", "count"),
    ("exec.skips", "count"),
    ("exec.cache_hits", "count"),
    ("sched.idle_frac", "fraction"),
    ("sched.overhead_s", "s"),
    ("store.read_s", "s"),
    ("store.write_s", "s"),
    ("store.bytes", "B"),
    ("store.records", "count"),
    ("trace.replay_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("unattributed_frac", "fraction"),
]

# The paper grid: every report must list this many experiment cells.
GRID_CELLS = 39
# Cell classes that mean the run lost work.
FAILED_CLASSES = ("skipped", "budget_exceeded")
# Environment variables a child inherits; everything else, every
# FAIRCLEAN_* knob included, is dropped.
INHERITED_ENV = ("PATH", "LD_LIBRARY_PATH", "HOME", "LANG", "LC_ALL", "TZ")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_env(parent, workload_vars):
    """The environment of a child: a few inherited basics plus exactly the
    variables the workload sets."""
    env = {k: parent[k] for k in INHERITED_ENV if k in parent}
    env.update(workload_vars)
    return env


def fail_frac(attempted, failed):
    return failed / attempted if attempted else 1.0


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def spawn(argv, env, cwd, output_path, timeout_s):
    """Runs argv to completion with stdout and stderr in output_path; the
    child's wall time, user+sys CPU time and peak RSS come from wait4. A
    child still running after timeout_s is killed (exit code -9)."""
    with open(output_path, "wb") as out:
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:  # child
            try:
                os.chdir(cwd)
                os.dup2(out.fileno(), 1)
                os.dup2(out.fileno(), 2)
                os.execvpe(argv[0], argv, env)
            finally:
                os._exit(127)

    def kill(_signum=None, _frame=None):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        kill()
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    return Child(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


class ReportRegistry:
    """Digests of every report seen, one file per (scale, seed): a report
    whose bytes differ from an earlier run at the same seed and scale, in
    any workload, is a failure."""

    def __init__(self, directory):
        self.directory = Path(directory)

    def check(self, key, digest):
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / (key + ".sha256")
        if path.exists():
            known = path.read_text().strip()
            if known != digest:
                return "report bytes differ from an earlier run (%s)" % key
            return None
        tmp = path.with_suffix(".tmp%d" % os.getpid())
        tmp.write_text(digest + "\n")
        os.replace(tmp, path)
        return None


def check_report(report_path, work_dir, registry, key):
    """Returns (report or None, problems) for one run_suite invocation."""
    problems = []
    corrupt = [p.name for p in Path(work_dir).rglob("*.corrupt*")]
    if corrupt:
        problems.append("corrupt files: %s" % ", ".join(sorted(corrupt)))
    try:
        data = Path(report_path).read_bytes()
    except OSError:
        return None, problems + ["report missing"]
    try:
        report = json.loads(data)
    except ValueError:
        return None, problems + ["report unparsable"]
    cells = report.get("cells") if isinstance(report, dict) else None
    if not isinstance(cells, list) or len(cells) < GRID_CELLS:
        problems.append("report has fewer than %d cells" % GRID_CELLS)
    else:
        lost = [c.get("id") for c in cells if c.get("class") in FAILED_CLASSES]
        if lost:
            problems.append("cells lost work: %s" % ", ".join(map(str, lost)))
    drift = registry.check(key, hashlib.sha256(data).hexdigest())
    if drift:
        problems.append(drift)
    return report, problems


DIAG_RE = re.compile(r"\b(experiments|cache_hits|repeats_run|retries|skips)=(\d+)")


def parse_diagnostics(text):
    """The study driver counters run_suite prints at the end of a run."""
    return {k: int(v) for k, v in DIAG_RE.findall(text)}


def result_line(correct, attempted, failed, metrics):
    """The final stdout line: metrics maps name -> (value, unit)."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
