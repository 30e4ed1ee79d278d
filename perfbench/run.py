"""absaudit benchmark: one workload per run, every job's output checked.

    python3 perfbench/run.py --workload structural --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

Run it from the root of a source checkout; it imports absaudit from `src/`.
A run generates its inputs from the seed, warms up on the smallest inputs,
then repeats passes of jobs (see workloads.py) in a closed loop with one
client and one thread, finishing the pass in progress once `--seconds` have
elapsed and at least two passes have run.  Each job calls `absaudit.cli.main(argv)` in-process, or a library
function, and is checked against an answer computed without absaudit.
Between two jobs the reference kernel of reference.py runs, and each job's
time is scaled to the reference speed (see there).

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end ones of BENCHMARK.json.  With `--trace 1` the run measures one
pass untraced, then the same pass twice with spans on every module entry
function; it reports the per-layer metrics, fails if the two traced passes
count different work, and writes the spans plus the median job time per
(family, n) to `.bench_work/trace-<workload>-seed<seed>.json`.

Exit status: 0 with a result line; 2 without one (bad arguments, or no
absaudit sources to run).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("structural", "distribution", "corpus")
# Every job runs at least twice, so its latency is a median of two or more.
MIN_PASSES = 2

# Known-defect jobs the corpus runs; see workloads.DEFECT_ROW.
KNOWN_DEFECTS = {f"corpus-defect:identity-zero-weight:{cmd}"
                 for cmd in ("validate", "audit", "classify")}

END_TO_END = {"jobs_per_s": "jobs/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "freecat.hom_set": ("calls", "self_s", "morphisms_out"),
    "audit.audit_functor": ("calls", "self_s", "edge_entries"),
    "taxonomy.detect_types": ("calls", "self_s"),
    "scm.joint_distribution": ("calls", "self_s", "dense_assignments", "support_rows",
                               "support_ratio"),
    "scm.validate_scm": ("self_s",),
    "scm.marginal": ("self_s",),
    "scm.intervene": ("self_s",),
    "scm.mechanism_kernel": ("self_s",),
    "abstraction.pushforward": ("self_s", "support_in", "support_out"),
    "abstraction.validate_abstraction": ("self_s",),
    "audit.audit_outcome_map": ("self_s", "rows_in"),
    "textfmt.parse_document": ("calls", "self_s", "bytes_in"),
    "textfmt.parse_path": ("self_s",),
    "textfmt.emit_document": ("self_s", "bytes_out"),
    "audit.audit_abstraction": ("self_s",),
    "audit.audit_node_map": ("self_s",),
    "taxonomy.structural_matrix": ("total_s",),
    "taxonomy.distributional_matrix": ("total_s",),
    "cli.main": ("calls", "self_s", "exit_nonzero"),
    "cli._dist_rows": ("self_s",),
    "dot.model_dot": ("self_s",),
    "dot.abstraction_dot": ("self_s",),
}
STAT_UNITS = {"self_s": "s", "total_s": "s", "support_ratio": "ratio",
              "bytes_in": "B", "bytes_out": "B"}


def per_layer_units() -> dict[str, str]:
    units = {f"{fn}.{stat}": STAT_UNITS.get(stat, "count")
             for fn, stats in PER_LAYER.items() for stat in stats}
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------

@dataclass
class Timing:
    seconds: float  # scaled to the reference speed
    raw: float  # as measured
    failure: "str | None"


def run_jobs(jobs, tracer=None) -> list[Timing]:
    """Run each job once, timed between two reference-kernel runs."""
    out = []
    clock = time.perf_counter
    before = reference.seconds()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        failure = None
        start = clock()
        try:
            result = job.call()
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            failure = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = clock() - start
        after = reference.seconds()
        if failure is None:
            try:
                failure = job.check(result)
            except Exception as exc:  # unreadable output
                failure = f"output not understood: {type(exc).__name__}: {exc}"
        speed = reference.REFERENCE_S / ((before + after) / 2)
        out.append(Timing(elapsed * speed, elapsed, failure))
        before = after
    return out


SETUP_CODE = """\
import statistics, sys, time
sys.path[:0] = [{src!r}, {here!r}]
import reference
before = statistics.median(reference.seconds() for _ in range(5))
start = time.perf_counter()
import absaudit.cli
elapsed = time.perf_counter() - start
after = statistics.median(reference.seconds() for _ in range(5))
print(elapsed, elapsed * reference.REFERENCE_S / ((before + after) / 2))
"""


def setup_seconds(repeats: int) -> tuple[float, float]:
    """Median time of `import absaudit.cli` in fresh interpreters: (scaled, raw)."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE))
    raw, scaled = [], []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, cwd=ROOT, check=True)
        r, s = map(float, done.stdout.split()[-2:])
        raw.append(r)
        scaled.append(s)
    return statistics.median(scaled), statistics.median(raw)


class Tally:
    """Attempted and failed jobs of a run, and whether any failure was unexpected."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.unexpected = False

    def add(self, jobs, timings) -> None:
        for job, t in zip(jobs, timings):
            self.attempted += 1
            if t.failure is not None:
                self.failed += 1
                self.failures.setdefault(job.id, " | ".join(t.failure.splitlines()))
                self.unexpected |= not job.known_defect


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool) -> dict:
    import workloads

    data = SRC / "absaudit" / "data"
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    tally = Tally()
    try:
        if not trace:
            setup = setup_seconds(3 if small else 7)
        warm = workloads.build_pass(workload, pass_rng(workload, seed, -1), work, data, True)
        tally.add(warm, run_jobs(warm))
        if trace:
            metrics = traced_run(workload, seed, work, data, small, tally)
        else:
            metrics = timed_run(workload, seed, seconds, work, data, small, tally, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for job_id, failure in sorted(tally.failures.items()):
        tag = "known defect" if job_id in KNOWN_DEFECTS else "FAILED"
        print(f"{tag} {job_id}: {failure}")
    print(f"failed_ratio: {tally.failed / tally.attempted:.6f} ratio "
          f"({tally.failed}/{tally.attempted} jobs)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return {"correct": not tally.unexpected, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def timed_run(workload, seed, seconds, work, data, small, tally, setup) -> dict:
    import workloads

    timings: list[Timing] = []
    by_job: dict[str, list[float]] = {}
    by_key: dict[tuple, list[float]] = {}
    start = time.perf_counter()
    index = 0
    while True:
        jobs = workloads.build_pass(workload, pass_rng(workload, seed, index), work, data, small)
        results = run_jobs(jobs)
        tally.add(jobs, results)
        timings += results
        for job, t in zip(jobs, results):
            by_job.setdefault(job.id, []).append(t.seconds)
            by_key.setdefault((job.family, job.n), []).append(t.seconds)
        index += 1
        jobs = results = None  # let the pass's inputs go before the next is built
        if index >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = sum(t.seconds for t in timings)
    raw = sum(t.raw for t in timings)
    print(f"{workload}: {index} pass(es), {len(timings)} jobs, "
          f"{time.perf_counter() - start:.1f} s wall")
    print(f"as measured: {len(timings) / raw:.6g} jobs/s, setup {setup[1]:.6g} s; "
          f"the machine ran at {scaled / raw:.3f} of the reference speed")
    report_by_key(by_key)
    # A job's latency is the median of its runs (one per pass), which keeps
    # single hiccups of a shared machine out of the percentiles.
    per_job = [statistics.median(times) for times in by_job.values()]
    print(f"percentiles over {len(per_job)} jobs")
    values = {
        "jobs_per_s": len(timings) / scaled,
        "job_p50_ms": harrell_davis(per_job, 0.5) * 1e3,
        "job_p90_ms": harrell_davis(per_job, 0.9) * 1e3,
        "setup_s": setup[0],
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
    density, rather than one order statistic.  Where the jobs near the
    quantile are few and far apart in cost (the long chain audits near p90
    of `structural`), one order statistic jumps with every job's noise; in a
    simulation with 12 % noise per job the quartile spread of p90 fell from
    0.10 to 0.04.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cells = 100  # integration cells per order statistic
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((i + 0.5) / (cells * n) for i in range(cells * n))]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * cells:(i + 1) * cells]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def traced_run(workload, seed, work, data, small, tally) -> dict:
    """One pass untraced, then twice traced; per-layer metrics of the pass."""
    import workloads
    from tracer import Tracer

    jobs = workloads.build_pass(workload, pass_rng(workload, seed, 0), work, data, small)
    plain = run_jobs(jobs)
    tally.add(jobs, plain)
    tracer = Tracer()
    traced = []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            results = run_jobs(jobs, tracer)
            tally.add(jobs, results)
            traced.append((results, tracer.counts, tracer.spans))
    finally:
        tracer.uninstall()
    if traced[0][1] != traced[1][1]:
        tally.unexpected = True
        print("FAILED trace: the two traced passes counted different work")
    write_trace(workload, seed, jobs, traced[0])

    values: dict[str, float] = {}
    times = [span_times(results, spans) for results, _, spans in traced]
    counts = traced[0][1]
    for fn, stats in PER_LAYER.items():
        for stat in stats:
            if stat in ("self_s", "total_s"):
                value = statistics.mean(t.get((fn, stat), 0.0) for t in times)
            elif stat == "support_ratio":
                dense = counts.get(fn, {}).get("dense_assignments", 0)
                value = counts[fn]["support_rows"] / dense if dense else 0.0
            else:
                value = counts.get(fn, {}).get(stat, 0)
            values[f"{fn}.{stat}"] = value
    untraced = sum(t.seconds for t in plain)
    values["trace.overhead_ratio"] = statistics.mean(
        sum(t.seconds for t in results) for results, _, _ in traced) / untraced - 1
    return {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}


def span_times(results: list[Timing], spans) -> dict[tuple, float]:
    """Total and self seconds per span name, each scaled like its job."""
    out: dict[tuple, float] = {}
    for name, start, end, own, _, job in spans:
        speed = results[job].seconds / results[job].raw if results[job].raw else 1.0
        out[(name, "total_s")] = out.get((name, "total_s"), 0.0) + (end - start) * speed
        out[(name, "self_s")] = out.get((name, "self_s"), 0.0) + own * speed
    return out


def report_by_key(by_key: dict) -> list[dict]:
    rows = []
    for (family, n), times in sorted(by_key.items()):
        rows.append({"family": family, "n": n, "jobs": len(times),
                     "median_ms": statistics.median(times) * 1e3})
        print(f"  {family:<22} n={n:<3} jobs={len(times):<4} "
              f"median {rows[-1]['median_ms']:10.3f} ms")
    return rows


def write_trace(workload: str, seed: int, jobs, traced_pass) -> None:
    results, _, spans = traced_pass
    by_key: dict[tuple, list[float]] = {}
    for job, t in zip(jobs, results):
        by_key.setdefault((job.family, job.n), []).append(t.seconds)
    print(f"{workload}: traced pass of {len(jobs)} jobs, {len(spans)} spans")
    rows = report_by_key(by_key)
    origin = spans[0][1] if spans else 0.0
    payload = {
        "workload": workload,
        "seed": seed,
        "median_job_ms_by_family_n": rows,
        "jobs": [{"id": j.id, "family": j.family, "n": j.n, "seconds": t.seconds,
                  "raw_seconds": t.raw} for j, t in zip(jobs, results)],
        "span_fields": ["name", "start_s", "end_s", "self_s", "parent", "job"],
        "spans": [[name, start - origin, end - origin, own, parent, job]
                  for name, start, end, own, parent, job in spans],
    }
    path = WORK / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------------

def self_check() -> int:
    """Every workload at its smallest sizes, traced and untraced, in fresh
    processes: every metric is printed with its unit, only the known-defect
    jobs fail, and two traced runs with one seed count the same work."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems: list[str] = []
    for workload in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--small"],
                capture_output=True, text=True, timeout=300, cwd=ROOT)
            lines = done.stdout.splitlines()
            where = f"{workload} trace={trace}"
            if done.returncode != 0 or not lines:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            for name, m in result["metrics"].items():
                if f"{name}: {m['value']:.6g} {m['unit']}" not in lines:
                    problems.append(f"{where}: {name} not printed with its unit")
            failed = {line.split(": ", 1)[0].split(" ")[-1] for line in lines
                      if line.startswith(("FAILED ", "known defect "))}
            expected = KNOWN_DEFECTS if workload == "corpus" else set()
            if failed != expected or not result["correct"]:
                problems.append(f"{where}: failed jobs {sorted(failed)}, "
                                f"want {sorted(expected)}")
            if trace:
                counts.append({k: m["value"] for k, m in result["metrics"].items()
                               if m["unit"] in ("count", "B")})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: two traced runs counted different work")
        print(f"self-check {workload}: done")
    for p in problems:
        print(f"  {p}")
    print("self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="every family at its smallest n (used by --self-check)")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload small and check the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "absaudit" / "__init__.py").is_file():
        print(f"no absaudit sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    import absaudit
    if Path(absaudit.__file__).resolve().parent != SRC / "absaudit":
        print(f"imported absaudit from {absaudit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
