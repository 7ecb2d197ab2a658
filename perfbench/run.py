#!/usr/bin/env python3
"""End-to-end benchmark of the spindle CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each invocation is one ``spindle``
process (``python -m spindle.cli`` on this checkout's ``src``) in a closed
loop: one client, one child at a time, the next call starting only after
the last one exits.  Passes over the workload's call list repeat for about
``--seconds``.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` each pass is run once plain and once under ``shim.py``,
which records per-layer self times and counts, and the per-layer metrics
are printed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, starting with ``# detail``, holds quartiles, sample counts and
the run's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import shim  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SHIM = os.path.join(HERE, "shim.py")
SETUP_CALL = workloads.Call(
    ("compute", "root-system", "--type", "A", "--rank", "1"),
    lambda out: None if "weyl_order" in out else "root-system output missing")
SETUP_SAMPLES_FIRST = 5   # trivial calls timed before the first pass,
SETUP_INTERVAL_S = 1.0    # then one per second of measuring, between calls
CALL_TIMEOUT_S = 100


def child_env():
    """Hermetic environment: this checkout's spindle, no result cache."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "SPINDLE_CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    error: str | None
    trace: dict | None = None


class Runner:
    """Spawns spindle children one at a time and checks each one."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.next_setup = 0.0

    def spawn(self, argv, trace=False):
        """Run one child; returns (wall_s, max-RSS MiB, rc, stdout, stderr,
        trace summary or None).  rc is None if the child was killed."""
        trace_file = os.path.join(self.workdir, "trace.json")
        if trace:
            cmd = [sys.executable, SHIM, trace_file, *argv]
        else:
            cmd = [sys.executable, "-m", "spindle.cli", *argv]
        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(CALL_TIMEOUT_S, os.kill,
                                    (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        rc = None if proc.returncode == -signal.SIGKILL else proc.returncode
        summary = None
        if trace and os.path.exists(trace_file):
            with open(trace_file, encoding="utf-8") as fh:
                summary = json.load(fh)
            os.remove(trace_file)
        return wall, usage.ru_maxrss / 1024.0, rc, stdout, stderr, summary

    def invoke(self, call, cache_dir=None, trace=False):
        """Run and check one Call; failures are counted, never raised."""
        argv = call.argv
        if call.cached:
            argv = ("--cache-dir", cache_dir) + argv
        wall, rss, rc, stdout, stderr, summary = self.spawn(argv, trace)
        error = None
        if rc is None:
            error = f"killed (the time limit is {CALL_TIMEOUT_S} s)"
        elif rc != call.expect_rc:
            error = f"exit code {rc}, expected {call.expect_rc}: {stderr.strip()[-300:]}"
        elif trace and summary is None:
            error = "no trace written"
        else:
            error = call.check(stdout)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAIL {' '.join(call.argv)}: {error}", file=sys.stderr)
        return Outcome(wall, rss, error, summary)

    def reference(self, argv):
        """Untimed reference call used to build checks; must succeed."""
        _, _, rc, stdout, stderr, _ = self.spawn(argv)
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            raise RuntimeError(f"reference call {' '.join(argv)} failed: "
                               f"{stderr.strip()[-300:]}")
        return stdout

    def run_pass(self, calls, setup, trace=False):
        """One pass over calls; set-up samples due meanwhile go to setup."""
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        result = []
        try:
            for call in calls:
                result.append(self.invoke(call, cache_dir, trace))
                self.setup_samples_due(setup)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return result

    def setup_samples(self, n):
        """Wall times of n trivial calls: interpreter start, import, argparse."""
        self.next_setup = time.perf_counter() + SETUP_INTERVAL_S
        return [self.invoke(SETUP_CALL).wall_s for _ in range(n)]

    def setup_samples_due(self, setup):
        """Keep set-up samples spread over the run, one per interval."""
        late = time.perf_counter() - self.next_setup
        if late >= 0:
            setup += self.setup_samples(1 + int(late / SETUP_INTERVAL_S))


# -- statistics -------------------------------------------------------------

def describe(values):
    """Median, quartiles and sample count of a list of timings."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def median_pass(passes):
    """The pass of median wall time (lower median for even counts)."""
    ordered = sorted(passes, key=lambda p: sum(o.wall_s for o in p))
    return ordered[(len(ordered) - 1) // 2]


# -- per-layer metrics from the traced pass ---------------------------------

def layer_metrics(traced):
    """Per-layer self times and counts summed over one traced pass."""
    self_s = {layer: 0.0 for layer in shim.LAYERS}
    counts = {}
    import_s = 0.0
    for o in traced:
        if o.trace is None:
            continue
        for layer, s in o.trace["self_s"].items():
            self_s[layer] += s
        for key, n in o.trace["counts"].items():
            counts[key] = counts.get(key, 0) + n
        import_s += o.trace["import_s"]

    def calls(layer, *names):
        return sum(counts.get(f"{layer}.calls.{n}", 0) for n in names)

    def share(num, den):
        return num / den if den else 0.0

    weights = counts.get("characters.weights", 0)
    weyl_points = counts.get("rootsystem.weyl_points", 0)
    kostant = calls("qanalogues", "kostant_partition_q")
    in_row_space = calls("exactla", "in_row_space")
    m = {f"{layer}.self_s": (s, "s") for layer, s in self_s.items()}
    m.update({
        "characters.calls": (sum(n for k, n in counts.items()
                                 if k.startswith("characters.calls.")), "count"),
        "characters.weights": (weights, "count"),
        "characters.dominant_share": (
            share(counts.get("characters.dominants", 0), weights), "share"),
        "characters.product_terms": (
            counts.get("characters.product_terms", 0), "count"),
        "rootsystem.builds": (counts.get("rootsystem.builds", 0), "count"),
        "rootsystem.build_s": (counts.get("rootsystem.build_ns", 0) / 1e9, "s"),
        "rootsystem.weyl_points": (weyl_points, "count"),
        "rootsystem.orbit_points": (
            counts.get("rootsystem.orbit_points", 0), "count"),
        "qanalogues.lusztig_calls": (
            calls("qanalogues", "lusztig_q_multiplicity"), "count"),
        "qanalogues.kostant_calls": (kostant, "count"),
        "qanalogues.weyl_useful_share": (share(kostant, weyl_points), "share"),
        "qpoly.mul_calls": (
            calls("qpoly", "QPolynomial.__mul__", "QPolynomial.__rmul__"),
            "count"),
        "qpoly.mul_terms": (counts.get("qpoly.mul_terms", 0), "count"),
        "qpoly.add_calls": (
            calls("qpoly", "QPolynomial.__add__", "QPolynomial.__radd__"),
            "count"),
        "exactla.rref_calls": (calls("exactla", "rref"), "count"),
        "exactla.rref_cells": (counts.get("exactla.rref_cells", 0), "count"),
        "exactla.in_row_space_calls": (in_row_space, "count"),
        "exactla.row_space_new_share": (
            share(counts.get("exactla.row_space_new", 0), in_row_space),
            "share"),
        "modulerep.modules": (counts.get("modulerep.modules", 0), "count"),
        "modulerep.module_dim": (counts.get("modulerep.module_dim", 0), "count"),
        "cache.hits": (counts.get("cache.hits", 0), "count"),
        "cache.misses": (counts.get("cache.misses", 0), "count"),
        "cache.stores": (calls("cache", "store"), "count"),
        "verify.checks": (counts.get("verify.checks", 0), "count"),
        "cli.import_s": (import_s, "s"),
    })
    traced_wall = sum(o.wall_s for o in traced)
    m["traced_wall_s"] = (traced_wall, "s")
    m["unattributed_s"] = (traced_wall - sum(self_s.values()), "s")
    return m


# -- measurement --------------------------------------------------------------

def call_medians(passes, attr):
    """Each call's median, over the passes, of one Outcome attribute."""
    return [statistics.median(getattr(p[i], attr) for p in passes)
            for i in range(len(passes[0]))]


def measure(runner, calls, seconds, trace):
    """Repeat rounds of passes for about ``seconds``; returns (metrics,
    detail).  A round is one untraced pass, followed by one traced pass when
    ``trace`` is set.  Another round starts only if, at the mean round time
    so far, it ends within ``seconds``; the first round always runs."""
    setup = runner.setup_samples(SETUP_SAMPLES_FIRST)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass(calls, setup))
        if trace:
            traced.append(runner.run_pass(calls, setup, trace=True))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break

    walls = call_medians(plain, "wall_s")
    detail = {
        "passes": len(plain),
        "pass_wall_s": describe([sum(o.wall_s for o in p) for p in plain]),
        "setup_s": describe(setup),
        "call_wall_s": [[" ".join(c.argv), describe([p[i].wall_s for p in plain])]
                        for i, c in enumerate(calls)],
    }
    ops_failed_share = runner.failed / runner.attempted
    if not trace:
        metrics = {
            "wall_s": (sum(walls), "s"),
            "slowest_call_s": (max(walls), "s"),
            "setup_s": (detail["setup_s"]["median"], "s"),
            "peak_rss_mb": (max(call_medians(plain, "rss_mb")), "MiB"),
            "ops_ok_share": (1.0 - ops_failed_share, "share"),
        }
        return metrics, detail

    traced_wall = sum(call_medians(traced, "wall_s"))
    detail["traced_pass_wall_s"] = describe(
        [sum(o.wall_s for o in p) for p in traced])
    metrics = layer_metrics(median_pass(traced))
    metrics["trace_overhead_share"] = (
        (traced_wall - sum(walls)) / sum(walls), "share")
    metrics["ops_failed_share"] = (ops_failed_share, "share")
    return metrics, detail


def git_commit():
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
    except OSError:
        return "unknown"
    return head


def environment():
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spindle", "cli.py")):
        print(f"error: no spindle sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    env_before = environment()
    try:
        runner = Runner(workdir)
        # Warm-up: compiles bytecode and fills the file cache, untimed.
        runner.setup_samples(1)
        calls = workloads.build(args.workload, args.seed, runner.reference)
        metrics, detail = measure(runner, calls, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env_before,
                  loadavg_after=os.getloadavg())
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
