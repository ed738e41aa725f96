#!/usr/bin/env python3
"""Benchmark of the digitfix command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

A workload is a fixed list of CLI jobs (``perfbench/workloads.json``).  A
pass runs every job once, in an order drawn from the seed, each in a fresh
``python -m digitfix.cli`` process against the checkout's ``src`` tree.  One
client drives the load in a closed loop: a job starts only after the previous
one has exited.  Passes repeat while the next one is expected to end within
``--seconds``, so a run never outlasts it by much.  After each pass, outside
the timed region, every job's output is checked against its frozen answer
(``perfbench/check.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones (``perfbench/traced_job.py``) and reports
the per-layer metrics; see ``perfbench/README.md`` for what each one means.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from check import check_job
from traced_job import TRACE_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 60.0  # the slowest job takes under 15 s on 2 shared cores
RUN_DEADLINE_S = 160.0  # jobs still running then are killed, so a run ends within 180 s
SETUP_PROBES = 3  # set-up samples before each pass
CALIB_ADDS = 1_000_000
SETUP_ARGV = ("--help",)  # imports digitfix.cli and builds its parser, searches nothing
ENGINES = ("scan", "multiset", "armstrong", "powersum", "reversal", "digitsum")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "proc.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "search.self_s": "s",
    **{f"search.{e}.self_share": "ratio" for e in ENGINES},
    **{f"search.{e}.space": "count" for e in ENGINES},
    **{f"search.{e}.space_per_s": "1/s" for e in ENGINES},
    "search.pool.count": "count",
    "search.pool.workers": "count",
    "search.pool.wait_share": "ratio",
    "search.jobs1_wall_s": "s",
    "search.parallel_speedup": "ratio",
    "verify.calls": "count",
    "verify.self_s": "s",
    "funcatalog.evaluate_calls": "count",
    "digitops.calls": "count",
    "families.self_share": "ratio",
    "corpus.self_share": "ratio",
    "trace.overhead_s": "s",
    "host.calib_s": "s",
}


# -- processes ------------------------------------------------------------------


@dataclass
class Outcome:
    wall: float
    cpu: float  # user + system, including reaped pool workers
    rss_mb: float  # max RSS of the job or any of its reaped pool workers
    rc: int | None  # None when the timeout killed the job
    stdout: bytes
    stderr: bytes


def _kill_group(pgid: int) -> bool:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _wait_group_gone(pgid: int, limit_s: float = 5.0) -> None:
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def run_process(cmd: list[str], env: dict, timeout: float) -> Outcome:
    """Run cmd in its own process group; kill the whole group after ``timeout`` seconds."""
    killed = threading.Event()
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )

    def on_timeout() -> None:
        killed.set()
        _kill_group(proc.pid)

    timer = threading.Timer(max(timeout, 0.0), on_timeout)
    errors: list[bytes] = []
    drain = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    timer.start()
    drain.start()
    status = None
    try:
        out = proc.stdout.read()
        # wait4, unlike Popen.wait, returns the child's resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    finally:
        timer.cancel()
        if status is None:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
        if _kill_group(proc.pid):  # workers that outlived their job
            _wait_group_gone(proc.pid)
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        rc=None if killed.is_set() else proc.returncode,
        stdout=out,
        stderr=errors[0] if errors else b"",
    )


def job_env() -> dict:
    env = dict(os.environ)
    env.pop("DIGITFIX_JOBS", None)  # a bad value would crash the parser
    # jobs start the way a user's do: bytecode cached next to the sources
    # (written by the untimed first probe) and block-buffered stdout
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "digitfix.cli", *argv]


def traced_cmd(argv) -> list[str]:
    return [sys.executable, str(HERE / "traced_job.py"), repr(time.monotonic()), *argv]


# -- workloads and checking -----------------------------------------------------


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def draw_jobs(workload: dict, rng: random.Random) -> list[dict]:
    """The workload's jobs, with each pool entry replaced by ``draw`` of its members."""
    jobs = []
    for entry in workload["jobs"]:
        if "pool" in entry:
            jobs.extend(rng.sample(entry["pool"], entry["draw"]))
        else:
            jobs.append(entry)
    return jobs


def with_jobs1(job: dict) -> dict:
    argv = list(job["argv"])
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    return {**job, "argv": argv}


class Checker:
    """Counts attempted and failed operations; a verdict is cached per distinct output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._verdicts: dict[tuple, str | None] = {}

    def job(self, job: dict, outcome: Outcome) -> None:
        key = (json.dumps(job, sort_keys=True), outcome.rc, hashlib.sha256(outcome.stdout).digest())
        if key not in self._verdicts:
            self._verdicts[key] = check_job(job, outcome.rc, outcome.stdout, ROOT)
        self._count(" ".join(job["argv"]), self._verdicts[key])

    def probe(self, outcome: Outcome) -> None:
        self._count("set-up probe", None if outcome.rc == 0 else f"exit code {outcome.rc}")

    def _count(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")


def run_pass(jobs, env, cmd_for, deadline: float, checker: Checker, job_timeout=JOB_TIMEOUT_S):
    """Run each job once in sequence; return the pass wall time and the outcomes."""
    start = time.monotonic()
    outcomes = []
    for job in jobs:
        timeout = min(job_timeout, deadline - time.monotonic())
        outcomes.append(run_process(cmd_for(job["argv"]), env, timeout))
    wall = time.monotonic() - start
    for job, outcome in zip(jobs, outcomes):
        checker.job(job, outcome)
    return wall, outcomes


def calibrate() -> float:
    """Time a fixed pure-Python loop, to tell host drift from a change in the program."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_ADDS):
        total += i
    return time.perf_counter() - start


def _another_cycle(start: float, cycles: list[float], seconds: float) -> bool:
    """Whether one more cycle, as long as the median one so far, still ends within ``seconds``."""
    return time.monotonic() - start + statistics.median(cycles) <= seconds


# -- spans ----------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer: each span's duration minus what its child spans cover.

    A span is a dict with ``job``, ``id``, ``parent`` (an id in the same job,
    or None), ``layer``, ``start`` and ``end``.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["job"], s["parent"])].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children[(s["job"], s["id"])], key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["layer"]] += s["end"] - s["start"] - covered
    return dict(out)


def read_trace(stderr: bytes) -> dict | None:
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    return None


def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    spans, pools = [], []
    counts, space = Counter(), Counter()
    import_s = 0.0
    for job_id, outcome in enumerate(outcomes):
        trace = read_trace(outcome.stderr)
        if trace is None:
            continue  # the job failed and is counted by the checker
        import_s += trace["import_s"]
        spans += [
            dict(zip(("id", "parent", "name", "layer", "start", "end"), s), job=job_id)
            for s in trace["spans"]
        ]
        pools += trace["pools"]
        counts.update(trace["counts"])
        space.update(trace["space"])
    own = self_times(spans)
    main_s = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)

    def share(seconds: float) -> float:
        return seconds / main_s if main_s else 0.0

    m = {
        "proc.import_s": import_s,
        "cli.main_s": main_s,
        "cli.self_s": own.get("cli", 0.0),
        "cli.stdout_bytes": sum(len(o.stdout) for o in outcomes),
        "bounds.calls": sum(1 for s in spans if s["layer"] == "bounds"),
        "bounds.self_s": own.get("bounds", 0.0),
        "search.self_s": sum(own.get(f"search.{e}", 0.0) for e in ENGINES),
        "search.pool.count": len(pools),
        "search.pool.workers": sum(p[2] for p in pools),
        "search.pool.wait_share": share(sum((p[1] or p[0]) - p[0] for p in pools)),
        "verify.calls": sum(1 for s in spans if s["layer"] == "verify"),
        "verify.self_s": own.get("verify", 0.0),
        "funcatalog.evaluate_calls": counts["funcatalog.evaluate_calls"],
        "digitops.calls": counts["digitops.calls"],
        "families.self_share": share(own.get("families", 0.0)),
        "corpus.self_share": share(own.get("corpus", 0.0)),
    }
    for e in ENGINES:
        seconds = own.get(f"search.{e}", 0.0)
        m[f"search.{e}.self_share"] = share(seconds)
        m[f"search.{e}.space"] = space[f"search.{e}"]
        m[f"search.{e}.space_per_s"] = space[f"search.{e}"] / seconds if seconds else 0.0
    return m


# -- runs -----------------------------------------------------------------------


def measure_end_to_end(jobs, env, seconds, rng, checker):
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    checker.probe(run_process(cli_cmd(SETUP_ARGV), env, JOB_TIMEOUT_S))  # writes bytecode; untimed
    samples = defaultdict(list)
    cycles = []
    while True:
        cycle_start = time.monotonic()
        for _ in range(SETUP_PROBES):
            probe = run_process(cli_cmd(SETUP_ARGV), env, JOB_TIMEOUT_S)
            checker.probe(probe)
            samples["setup_s"].append(probe.wall)
        samples["host.calib_s"].append(calibrate())
        wall, outcomes = run_pass(rng.sample(jobs, len(jobs)), env, cli_cmd, deadline, checker)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(sum(o.cpu for o in outcomes))
        samples["peak_rss_mb"].append(max(o.rss_mb for o in outcomes))
        cycles.append(time.monotonic() - cycle_start)
        if not _another_cycle(start, cycles, seconds):
            return samples


def measure_layers(jobs, env, seconds, rng, checker):
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    checker.probe(run_process(cli_cmd(SETUP_ARGV), env, JOB_TIMEOUT_S))  # writes bytecode; untimed
    samples = defaultdict(list)
    serial = [with_jobs1(j) for j in jobs]
    jobs1_wall = None
    if serial != jobs:
        samples["host.calib_s"].append(calibrate())
        jobs1_wall, _ = run_pass(rng.sample(serial, len(serial)), env, cli_cmd, deadline, checker)
    cycles = []
    while True:
        cycle_start = time.monotonic()
        samples["host.calib_s"].append(calibrate())
        order = rng.sample(jobs, len(jobs))
        wall, _ = run_pass(order, env, cli_cmd, deadline, checker)
        samples["untraced_s"].append(wall)
        traced_wall, outcomes = run_pass(order, env, traced_cmd, deadline, checker)
        samples["traced_s"].append(traced_wall)
        for name, value in layer_metrics(outcomes).items():
            samples[name].append(value)
        cycles.append(time.monotonic() - cycle_start)
        if not _another_cycle(start, cycles, seconds):
            break
    untraced = statistics.median(samples["untraced_s"])
    # with every job already at --jobs 1 the untraced passes are the serial passes
    samples["search.jobs1_wall_s"] = [jobs1_wall] if jobs1_wall is not None else samples["untraced_s"]
    samples["search.parallel_speedup"] = [statistics.median(samples["search.jobs1_wall_s"]) / untraced]
    samples["trace.overhead_s"] = [statistics.median(samples["traced_s"]) - untraced]
    return samples


# -- reporting ------------------------------------------------------------------


def git_sha(root: Path) -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(args, samples: dict, units: dict, checker: Checker) -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"python={platform.python_version()} cpu_count={os.cpu_count()} affinity={affinity} "
        f"git={git_sha(ROOT)}"
    )
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        median = statistics.median(values)
        q1, q3 = _quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        print(f"# {name:30s} {median:14.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")
    if "host.calib_s" not in units:
        print(f"# host.calib_s (not a metric here) median {statistics.median(samples['host.calib_s']):.6g} s")
    failed = len(checker.failures)
    print(f"# fail_frac {failed}/{checker.attempted} = {failed / checker.attempted:.6g}")
    for reason in checker.failures[:20]:
        print(f"# FAILED {reason}")
    return {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "digitfix" / "cli.py").is_file():
        print(f"error: no digitfix sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    jobs = draw_jobs(workloads[args.workload], rng)
    checker = Checker()
    if args.trace:
        samples, units = measure_layers(jobs, job_env(), args.seconds, rng, checker), PER_LAYER
    else:
        samples, units = measure_end_to_end(jobs, job_env(), args.seconds, rng, checker), END_TO_END
    result = report(args, samples, units, checker)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
