"""Tests of the benchmark itself: seeded plans, the correctness gate, metric names.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import itertools
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hostspeed  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402


def passes(pool, seed, count):
    return list(itertools.islice(jobs.plan(pool, seed), count))


def declared(group):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[group]}


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_job_list(workload):
    pool = jobs.load_pool(workload)
    assert passes(pool, 7, 3) == passes(pool, 7, 3)
    assert passes(pool, 7, 3) != passes(pool, 8, 3)
    # every pass takes one unit from each bucket, and every job has a reference
    units = [len(u) for b in pool["buckets"] for u in b["units"][:1]]
    for p in passes(pool, 7, 3):
        assert len(p) == sum(units)
        assert all(pool["jobs"][j]["ref"]["digest"] for j in p)


def test_corrupted_reference_counts_as_failed(monkeypatch):
    load = jobs.load_pool

    def corrupted(workload):
        pool = load(workload)
        first, second = pool["buckets"][0]["units"], pool["buckets"][1]["units"]
        for unit in first:  # one job per pass with a wrong verdict digest
            pool["jobs"][unit[0]]["ref"]["digest"] = "0" * 32
        for unit in second:  # and one with a wrong exit code
            pool["jobs"][unit[0]]["ref"]["exit"] = 3 - pool["jobs"][unit[0]]["ref"]["exit"]
        return pool

    monkeypatch.setattr(jobs, "load_pool", corrupted)
    report, result = run_main(["--workload", "tensor", "--seed", "3", "--seconds", "0.1"])
    assert result["correct"] is False
    assert result["failed"] == 2 * report["passes"]
    assert report["failed_frac"] == result["failed"] / result["attempted"]


def test_untraced_run_reports_end_to_end_metrics():
    report, result = run_main(["--workload", "tensor", "--seed", "1", "--seconds", "0.1"])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == declared("end_to_end")
    assert report["failed_frac"] == 0


def test_traced_run_emits_only_declared_metrics():
    _, result = run_main(["--workload", "tensor", "--seed", "1", "--seconds", "0.1",
                          "--trace", "1"])
    assert result["correct"] is True
    assert set(result["metrics"]) == declared("per_layer")
    assert result["metrics"]["yangian_tensor.t_coefficient.calls"]["value"] > 0


def test_host_speed_adjustment(tmp_path):
    host = hostspeed.HostSpeed(str(tmp_path))
    ref = hostspeed.REFERENCE_S
    # loop samples of 2*ref around t=10 (a host at half speed), and one inside the job
    host.starts = [9.9, 10.0, 10.05, 10.3, 20.0]
    host.ends = [s + 2 * ref for s in host.starts]
    raw, adjusted = host.adjust(10.02, 0.1)
    assert raw == pytest.approx(0.1 - 2 * ref)
    assert adjusted == pytest.approx(raw / 2)
    # a job with no sample near it goes by the median of all samples
    assert host.adjust(15.0, 0.01) == pytest.approx((0.01, 0.005))


def test_pass_count_is_fixed_by_seconds():
    pool = jobs.load_pool("module")
    assert run.pass_count(pool, 25) == run.pass_count(pool, 25) > run.pass_count(pool, 12.5)
    size = sum(len(b["units"][0]) for b in pool["buckets"])
    assert run.pass_count(pool, 0.1) * size >= run.MIN_JOBS
