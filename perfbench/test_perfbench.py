"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import run
from check import verify_record

HERE = Path(__file__).resolve().parent

CUBES = {
    "argv": ["search", "hardy", "--fn", "pow:3", "--format", "records", "--jobs", "1"],
    "expect": {"values": [1, 153, 370, 371, 407]},
    "source": "corpus entry hardy-cubes-b10",
}


def _checked_pass(jobs, cmd_for=run.cli_cmd, job_timeout=run.JOB_TIMEOUT_S):
    checker = run.Checker()
    _, outcomes = run.run_pass(
        jobs, run.job_env(), cmd_for, time.monotonic() + 60, checker, job_timeout
    )
    return checker, outcomes


def test_frozen_answer_passes():
    checker, _ = _checked_pass([CUBES])
    assert checker.attempted == 1
    assert checker.failures == []


def test_corrupted_expected_answer_counts_as_failed():
    corrupted = {**CUBES, "expect": {"values": [1, 153, 370, 371, 408]}}
    checker, _ = _checked_pass([CUBES, corrupted])
    assert checker.attempted == 2
    assert len(checker.failures) == 1
    assert "differs from the frozen" in checker.failures[0]


def test_job_killed_by_timeout_counts_as_failed():
    checker, outcomes = _checked_pass([CUBES], job_timeout=0.01)
    assert outcomes[0].rc is None
    assert checker.attempted == 1
    assert checker.failures == [" ".join(CUBES["argv"]) + ": killed by the timeout"]


def test_reverification_rejects_a_tampered_record():
    hardy = {"family": "hardy", "base": 10, "k": 1, "fn": "pow:3", "value": 153,
             "decomposition": [27, 125, 1]}
    assert verify_record(hardy)
    assert not verify_record({**hardy, "decomposition": [27, 124, 2]})  # same sum, wrong images
    reversal = {"family": "reversal", "base": 10, "k": 1, "fn": None, "value": 8712,
                "decomposition": [4, 2178]}
    assert verify_record(reversal)
    assert not verify_record({**reversal, "value": 8710, "decomposition": [5, 1742]})


def test_self_times_of_a_synthetic_span_tree():
    def span(job, sid, parent, layer, start, end):
        return {"job": job, "id": sid, "parent": parent, "layer": layer, "start": start, "end": end}

    spans = [
        span(0, 0, None, "cli", 0.0, 10.0),
        span(0, 1, 0, "search.scan", 1.0, 7.0),
        span(0, 2, 1, "bounds", 2.0, 3.0),
        span(0, 3, 1, "verify", 4.0, 5.0),
        span(0, 4, 0, "verify", 8.0, 9.0),
        # a second job reuses the ids; its spans must not mix with the first job's
        span(1, 0, None, "cli", 0.0, 2.0),
        span(1, 1, 0, "bounds", 0.5, 1.0),
    ]
    assert run.self_times(spans) == {
        "cli": (10.0 - 6.0 - 1.0) + (2.0 - 0.5),
        "search.scan": 6.0 - 1.0 - 1.0,
        "bounds": 1.0 + 0.5,
        "verify": 2.0,
    }
    # overlapping children cover their union, once
    overlapping = [span(0, 0, None, "cli", 0.0, 10.0), span(0, 1, 0, "a", 1.0, 4.0),
                   span(0, 2, 0, "a", 3.0, 6.0)]
    assert run.self_times(overlapping)["cli"] == 5.0


def test_traced_counts_repeat_exactly():
    checker, first = _checked_pass([CUBES], cmd_for=run.traced_cmd)
    _, second = _checked_pass([CUBES], cmd_for=run.traced_cmd)
    assert checker.failures == []
    a, b = run.layer_metrics(first), run.layer_metrics(second)
    counted = ("bounds.calls", "verify.calls", "funcatalog.evaluate_calls", "digitops.calls",
               "search.pool.count", "search.scan.space")
    assert {k: a[k] for k in counted} == {k: b[k] for k in counted}
    assert a["bounds.calls"] == 2  # the CLI and the search each derive the ceiling
    assert a["verify.calls"] == 5
    assert a["search.scan.space"] > 407
    assert 0 < a["search.scan.self_share"] < 1


def test_seed_fixes_the_drawn_jobs():
    workload = run.load_workloads()["many-small"]
    first = run.draw_jobs(workload, random.Random(7))
    assert first == run.draw_jobs(workload, random.Random(7))
    assert len(first) == 20


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.load_workloads())
