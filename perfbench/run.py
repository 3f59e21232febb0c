"""wpimod benchmark: seeded job batches through the library's public surface.

    python3 perfbench/run.py --workload admissibility --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One process, one thread, jobs issued back
to back (a closed loop with one client).  The run executes whole passes of
the workload's job mix (see ``jobs.py``): as many as fit in ``--seconds`` at
the pool's recorded job costs, and enough for MIN_JOBS jobs.  The pass count
depends only on the pool and ``--seconds``, so a parent and a child run the
same jobs for a seed, however fast each is.  It checks every job's exit code
and verdict against the recorded reference, and prints, as its last stdout
line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
Job times are adjusted for the shared host's speed drift by a reference loop
sampled all through the run (see ``hostspeed.py``); the line before the
result states the unadjusted figures too.
With ``--trace 1`` the run first measures an untraced half-length run, then
repeats the same jobs with the layer tracer installed, and reports the
per-layer metrics plus ``trace.overhead_frac``, from adjusted times of both
halves; spans are written to
``.perfbench_out/``.  Metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from hostspeed import INTERPRETER_PROBE, INTERPRETER_START_S, HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
# The tail is p90 on every workload, and a run has at least MIN_JOBS jobs, so
# at least 15 jobs lie beyond it.
TAIL_PERCENTILE = 90
MIN_JOBS = 150


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("admissibility", "oracle", "module", "tensor"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def bootstrap():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wpimod", "__init__.py")):
        sys.exit("perfbench: src/wpimod not found; run from the root of a wpimod checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def declared_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def setup(workload: str, seed: int, workdir: str):
    """Fresh process to first job ready: import wpimod, load the pool, plan, write inputs."""
    import wpimod  # noqa: F401
    import wpimod.cli  # noqa: F401

    import jobs

    pool = jobs.load_pool(workload)
    runner = jobs.Runner(pool, workdir)
    passes = jobs.plan(pool, seed)
    first = next(passes)
    runner.prepare(first[0])
    return pool, runner, itertools.chain([first], passes)


def time_to_ready(cmd) -> float:
    """Wall time from starting `cmd` until it prints 'ready'; waits for its end."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} failed with exit {proc.returncode}")
    return seconds


def measure_setup(args) -> tuple[float, float]:
    """Medians, over fresh processes, of the time until set-up reports ready.

    Returns (unadjusted, adjusted).  Each probe is adjusted by the start time
    of a bare interpreter, timed just before and just after it (see
    ``hostspeed.py``).
    """
    probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    bare = [sys.executable, "-c", INTERPRETER_PROBE]
    times, adjusted = [], []
    for _ in range(SETUP_PROBES):
        before = time_to_ready(bare)
        times.append(time_to_ready(probe))
        after = time_to_ready(bare)
        adjusted.append(times[-1] * 2 * INTERPRETER_START_S / (before + after))
    return statistics.median(times), statistics.median(adjusted)


def warm_up(pool, runner):
    """Run the cheapest job of each command once, untimed, so lazy set-up is done."""
    cheapest: dict = {}
    for jid, job in pool["jobs"].items():
        kind = job["argv"][0] if job["kind"] == "cli" else job["kind"]
        if kind not in cheapest or job["cost_ms"] < pool["jobs"][cheapest[kind]]["cost_ms"]:
            cheapest[kind] = jid
    for jid in cheapest.values():
        runner.run(jid, time.perf_counter)


def pass_count(pool, seconds) -> int:
    """Whole passes that fit in `seconds` at the recorded costs, and MIN_JOBS jobs."""
    size = sum(len(b["units"][0]) for b in pool["buckets"])
    cost_s = sum(
        sum(pool["jobs"][j]["cost_ms"] for u in b["units"] for j in u) / len(b["units"])
        for b in pool["buckets"]) / 1000
    return max(round(seconds / cost_s), math.ceil(MIN_JOBS / size))


def run_passes(runner, passes, count):
    """Run `count` passes.

    Returns job ids, (start, wall seconds) per job, verdict checks and the
    number of jobs in each pass.
    """
    ids, spans, oks, sizes = [], [], [], []
    for pass_ids in itertools.islice(passes, count):
        for jid in pass_ids:
            t0, dt, ok = runner.run(jid, time.perf_counter)
            ids.append(jid)
            spans.append((t0, dt))
            oks.append(ok)
        sizes.append(len(pass_ids))
    return ids, spans, oks, sizes


def pass_rates(times, sizes):
    """Jobs per second of job time, for each pass."""
    rates, i = [], 0
    for n in sizes:
        rates.append(n / sum(times[i:i + n]))
        i += n
    return rates


def time_metrics(times, sizes) -> dict:
    return {
        # every pass has the same mix, so the median pass damps what drift is left
        "jobs_per_s": statistics.median(pass_rates(times, sizes)),
        "job_p50_ms": statistics.median(times) * 1000,
        "job_tail_ms": tail(times) * 1000,
    }


def tail(times) -> float:
    """The TAIL_PERCENTILE-th percentile, nearest rank."""
    ordered = sorted(times)
    return ordered[math.ceil(len(ordered) * TAIL_PERCENTILE / 100) - 1]


def properties(pool, ids) -> dict:
    """Shares of the input properties the ROADMAP's optimisations depend on."""
    jobs = [pool["jobs"][j] for j in ids]
    props = [j["props"] for j in jobs]
    n = len(ids)
    out = {}
    seen, repeats = set(), 0
    for jid, p in zip(ids, props):
        key = p.get("orbit", jid)
        repeats += key in seen
        seen.add(key)
    out["repeat_share"] = repeats / n
    verdicts = [p["admissible"] for p in props if "admissible" in p]
    if verdicts:
        out["nonadmissible_share"] = verdicts.count(False) / len(verdicts)
        out["relabelings_ge_34560_share"] = sum(
            p["relabelings"] >= 34560 for p in props) / n
    box = sum(p.get("box_points", 0) for p in props)
    if box:
        out["window_keep_ratio"] = sum(p.get("members", 0) for p in props) / box
    oracle = [p["passes"] for p in props if "passes" in p]
    if oracle:
        # the oracle stops at its first violation (max_violations=1)
        out["first_violation_stop_share"] = oracle.count(False) / len(oracle)
    mix = Counter(f"gl_{p['rank']} x{p['factors']} depth {p['depth']}"
                  for p in props if "rank" in p)
    if mix:
        out["rank_factors_depth_mix"] = {k: v / n for k, v in sorted(mix.items())}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_sampled(runner, ids, workdir, wrap=None):
    """Run jobs, sampling the host's speed between them (no timer, so spans hold
    no reference-loop time); returns each job's (seconds, adjusted seconds, ok)."""
    host = HostSpeed(workdir)
    runs = []
    for jid in ids:
        host.sample()
        runs.append(runner.run(jid, time.perf_counter, wrap))
    host.sample()
    return [(dt, host.adjust(t0, dt)[1], ok) for t0, dt, ok in runs]


def measure_traced(args, pool, runner, passes, workdir):
    """Half-length plain run, then the same jobs traced; (values, ids, oks, passes)."""
    from tracer import Tracer

    count = pass_count(pool, args.seconds / 2)
    ids = [jid for pass_ids in itertools.islice(passes, count) for jid in pass_ids]
    plain = run_sampled(runner, ids, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_sampled(runner, ids, workdir, tracer.job_span)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    # both halves sample the host the same way, so the sampling's bias cancels
    values["trace.overhead_frac"] = 1 - sum(a for _, a, _ in plain) / sum(a for _, a, _ in traced)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return values, ids, [ok for _, _, ok in plain + traced], count


def measure(args, workdir) -> int:
    units = declared_units()
    pool, runner, passes = setup(args.workload, args.seed, workdir)
    warm_up(pool, runner)
    extra = {}
    if args.trace:
        values, ids, oks, npasses = measure_traced(args, pool, runner, passes, workdir)
    else:
        host = HostSpeed(workdir)
        with host:
            ids, spans, oks, sizes = run_passes(runner, passes, pass_count(pool, args.seconds))
        times, adjusted = zip(*(host.adjust(t0, dt) for t0, dt in spans))
        setup_raw, setup_s = measure_setup(args)
        values = {
            **time_metrics(adjusted, sizes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        npasses = len(sizes)
        loop = host.loop_times()
        extra = {
            "job_tail_percentile": TAIL_PERCENTILE,
            "job_tail_beyond": len(times) - math.ceil(len(times) * TAIL_PERCENTILE / 100),
            "unadjusted": {**time_metrics(times, sizes), "setup_s": setup_raw},
            "reference_loop": {"samples": len(loop), "median_ms": statistics.median(loop) * 1000},
        }
    failed = oks.count(False)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": len(ids),
        "passes": npasses,
        "failed_frac": failed / len(oks),
        "properties": properties(pool, ids),
        **extra,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(oks),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
