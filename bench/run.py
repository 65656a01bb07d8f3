"""bentvec benchmark: one seeded CLI workload, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports bentvec from its
src/.  Each job is one CLI command in a fresh process, because users pay
the interpreter start, the imports and the lazy field tables on every
command; only one job process runs at a time.  Jobs repeat until the
next one would end after S seconds (at least MIN_JOBS are run).

Every job's output is checked, and stdout plus every written file must be
byte-identical across the jobs of a run.  A job that exits non-zero,
fails a check or differs counts as failed; nothing is retried.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: median
set-up time (spawn until bentvec.cli is imported), median job time,
median peak RSS.  --trace 1 alternates untraced and traced jobs and
reports the per-layer metrics from the traced ones, plus the tracing
overhead.  The last stdout line is the JSON result; earlier lines and
.bench_work/<workload>-seed<N>-trace<T>/result.json give the
environment and every sample.

The shared host this was built on changes speed by up to 40% from one
minute to the next, and fresh processes slow alike.  So between jobs the
benchmark times reference starts (a process that imports only numpy and
no bentvec), and job_s and setup_s are reported at reference host speed:
each sample is scaled by REFERENCE_S over the mean reference start just
before and just after it.  The raw medians are printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, SetupError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_JOBS = 2            # per run; a traced run needs one untraced and one traced
MIN_SETUP_SAMPLES = 10  # import-only probes top up the per-job set-up samples
HARD_LIMIT_S = 150      # no job starts that could end after this
# Median reference start on an Intel Xeon box with 2 vCPUs at 2.0 GHz,
# 8 GB, Python 3.11.7, NumPy 2.4.6; it only sets the unit of the scaled times.
REFERENCE_S = 0.15
REFERENCE_STARTS = 3    # reference processes timed between two jobs


def spawn(mode, cwd, timeout=HARD_LIMIT_S):
    """Run job.py with `mode` arguments in a fresh process; return its record."""
    result_path = cwd / ".job-result.json"
    for path in (result_path, cwd / ".job-stdout", cwd / ".job-stderr"):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "job.py"), str(result_path), str(SRC), *mode]
    with open(cwd / ".job-stdout", "wb") as out, open(cwd / ".job-stderr", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
        wall = time.monotonic() - spawned
    record = {"code": code, "wall_s": wall}
    if code == 0 and result_path.exists():
        result = json.loads(result_path.read_text())
        record.update(setup_s=result["ready"] - spawned, job_s=result["job_s"],
                      peak_rss_mb=result["rss_kb"] / 1024)
    record["stdout"] = (cwd / ".job-stdout").read_bytes()
    record["stderr"] = (cwd / ".job-stderr").read_bytes()[-2000:].decode(errors="replace")
    return record


def probe(mode, cwd):
    """Start-up seconds of an --import-only or --reference process."""
    record = spawn([mode], cwd)
    if "setup_s" not in record:
        sys.exit(f"error: {mode} process failed: {record['stderr']}")
    return record["setup_s"]


def run_job(job, job_dir, trace_path=None, timeout=HARD_LIMIT_S):
    """One checked job in an emptied directory; record["problems"] lists failures."""
    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir(parents=True)
    mode = ["--trace", str(trace_path)] if trace_path is not None else []
    record = spawn(mode + ["--", *job.argv], job_dir, timeout)
    record["traced"] = trace_path is not None
    if record["code"] != 0 or "job_s" not in record:
        record["problems"] = [f"exit {record['code']}: {record['stderr'][-400:]!r}"]
        return record
    try:
        files = {name: (job_dir / name).read_bytes() for name in job.outputs}
        stdout = record["stdout"].decode()
        record["problems"] = job.check(stdout, files)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        record["problems"] = [f"output unreadable: {exc!r}"]
        return record
    digest = hashlib.sha256(record["stdout"])
    for name in job.outputs:
        digest.update(b"\0" + name.encode() + b"\0" + files[name])
    record["digest"] = digest.hexdigest()
    return record


def reference_s(probe_dir, count):
    """Median start-up seconds of `count` reference processes."""
    return statistics.median(probe("--reference", probe_dir) for _ in range(count))


def measure(job, work, seconds, trace, started):
    """Run jobs until the next would end after `seconds`; traced runs alternate.

    Each record's "speed" scales its times to reference host speed, from
    the median of REFERENCE_STARTS reference starts before and after it.
    """
    records = []
    probe_dir = work / "probe"
    probe_dir.mkdir(exist_ok=True)
    end = time.monotonic() + seconds
    before = reference_s(probe_dir, REFERENCE_STARTS)
    while True:
        traced = trace and len(records) % 2 == 1
        same = [r["loop_s"] for r in records if r["traced"] == traced]
        estimate = statistics.median(same) if same else 0.0
        now = time.monotonic()
        if len(records) >= MIN_JOBS and now + estimate > end:
            break
        if now - started + 2 * estimate > HARD_LIMIT_S:
            break
        trace_path = work / f"spans-{len(records)}.json" if traced else None
        loop_start = now
        remaining = max(HARD_LIMIT_S - (now - started), 1.0)
        record = run_job(job, work / "job", trace_path, timeout=remaining)
        record["trace_path"] = trace_path
        first = next((r["digest"] for r in records if "digest" in r), None)
        if first is not None and record.get("digest", first) != first:
            record["problems"].append("output differs from the first job of this run")
        after = reference_s(probe_dir, REFERENCE_STARTS)
        record["speed"] = 2 * REFERENCE_S / (before + after)
        before = after
        record["loop_s"] = time.monotonic() - loop_start
        records.append(record)
    return records


def environment():
    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "job_processes_at_once": 1}
    for path, key, field in (("/proc/cpuinfo", "cpu_model", "model name"),
                             ("/proc/meminfo", "mem_total", "MemTotal")):
        try:
            with open(path) as handle:
                line = next((ln for ln in handle if ln.startswith(field)), "")
            info[key] = line.split(":", 1)[1].strip() if line else "unknown"
        except OSError:
            info[key] = "unknown"
    return info


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not (SRC / "bentvec" / "cli.py").is_file():
        sys.exit(f"error: no bentvec sources at {SRC}; run from a bentvec checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def run_setup_command(argv, cwd):
        return spawn(["--", *argv], cwd)["code"]

    try:
        job = WORKLOADS[args.workload](args.seed, work, run_setup_command)
    except SetupError as exc:
        sys.exit(f"error: workload set-up failed: {exc}")
    records = measure(job, work, args.seconds, args.trace, started)
    untraced = [r for r in records if not r["traced"] and "job_s" in r]
    traced = [r for r in records if r["traced"] and "job_s" in r]
    if not untraced or (args.trace and not traced):
        sys.exit("error: no successful job to measure")
    setups = [(r["setup_s"], r["speed"]) for r in untraced]
    before = reference_s(work / "probe", REFERENCE_STARTS)
    while len(setups) < MIN_SETUP_SAMPLES:
        setup = probe("--import-only", work / "probe")
        after = reference_s(work / "probe", REFERENCE_STARTS)
        setups.append((setup, 2 * REFERENCE_S / (before + after)))
        before = after

    failed = sum(1 for r in records if r["problems"])
    samples = {
        "job_s": [r["job_s"] * r["speed"] for r in untraced],
        "setup_s": [s * speed for s, speed in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "raw_job_s": [r["job_s"] for r in untraced],
        "raw_setup_s": [s for s, _ in setups],
        "speed": [speed for _, speed in setups],
    }
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    layer_detail = {}
    if args.trace:
        per_job = []
        for r in traced:
            dumped = json.loads(r["trace_path"].read_text())
            per_job.append(spans.layer_metrics(dumped["spans"], dumped["counts"]))
            layer_detail = spans.summarize(dumped["spans"])
        for name in per_job[0]:
            values[name] = statistics.median(m[name] for m in per_job)
        samples["traced_job_s"] = [r["job_s"] * r["speed"] for r in traced]
        values["trace.overhead_ratio"] = statistics.median(samples["traced_job_s"]) / values["job_s"]

    env = environment()
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} jobs, {failed} failed (fail_ratio {failed}/{len(records)})")
    for name, xs in samples.items():
        q1, med, q3 = quartiles(xs)
        print(f"# {name}: median {med:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(xs)})")
    for r in records:
        for problem in r["problems"]:
            print(f"# FAILED job: {problem[:300]}")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "samples": samples, "values": values,
              "failures": [r["problems"] for r in records if r["problems"]],
              "last_traced_job_spans": layer_detail}
    (work / "result.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
