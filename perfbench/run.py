"""symchaos benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload points --seed 1 --seconds 55 --trace 0

Every repetition is a new interpreter (`worker.py`), because each `symchaos`
invocation starts with cold caches.  Repetitions run one at a time; their
number is fixed by the workload and `--seconds`, so a seed always does the
same work.  Each result is the median over repetitions; workload times are
taken at reference host speed (see worker.py).  With `--trace 0` the last
line of output carries the end-to-end metrics; with `--trace 1` traced and
untraced repetitions alternate and it carries the per-layer metrics.  See
README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import SPAN_NAMES
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

# Wall time of one untraced workload process on the 2-core x86-64 VM the
# benchmark was written on; a run makes --seconds / PROCESS_S of them.
PROCESS_S = {"points": 5.0, "verify": 12.5}
MIN_REPS = 3  # least workload processes per untraced run
MIN_TRACED = 2  # traced processes per traced run, so call counts can be compared
SETUP_PROCESSES = 10  # extra set-up-only processes per untraced run
RUN_LIMIT_S = 170  # a run that needs longer stops with an error


class BenchError(RuntimeError):
    pass


def spawn(args, started: float) -> dict:
    """Run one worker to completion; set-up time is spawn to `ready`."""
    left = RUN_LIMIT_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("run time limit reached")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *map(str, args)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - t0
    return result


def repetitions(workload: str, seconds: int) -> int:
    """Workload processes of an untraced run: a fixed number, so that the
    same seed and --seconds always attempt the same ops."""
    return max(MIN_REPS, int(seconds / PROCESS_S[workload]))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def outcome(reps) -> tuple:
    """(correct, attempted, failed) over repetitions of the same inputs."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    same = all(r["failed"] == reps[0]["failed"] for r in reps)
    correct = same and not any(r["unexplained"] for r in reps)
    return correct, attempted, failed


def end_to_end_metrics(setups, reps) -> dict:
    """name -> (value, unit) from set-up-only and workload processes."""
    med = statistics.median
    # per op: median over repetitions (same inputs each time); then
    # percentiles over the ops
    per_op = sorted(med(lat) for lat in zip(*(r["op_ref_s"] for r in reps)))
    return {
        "setup_s": (med(r["setup_s"] for r in setups + reps), "s"),
        "wall_ref_s": (med(r["wall_ref_s"] for r in reps), "s"),
        "cpu_ref_s": (med(r["cpu_ref_s"] for r in reps), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB"),
        "op_p50_ref_ms": (med(per_op) * 1e3, "ms"),
        "op_p99_ref_ms": (percentile(per_op, 99) * 1e3, "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: int, started: float) -> tuple:
    setups = [spawn(["setup", seed, 0], started) for _ in range(SETUP_PROCESSES)]
    reps = [spawn([workload, seed, 0], started)
            for _ in range(repetitions(workload, seconds))]
    med = statistics.median
    info = {"processes": len(reps), "setup_samples": len(setups) + len(reps),
            "latency_samples": reps[0]["attempted"],
            "wall_s": med(r["wall_s"] for r in reps), "cpu_s": med(r["cpu_s"] for r in reps),
            "process_wall_s": [r["wall_s"] for r in reps],
            "process_slowdown": [med(r["slowdowns"]) for r in reps]}
    return end_to_end_metrics(setups, reps), reps, info, True


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counts_repeat(traced) -> bool:
    """Are call counts, counters and span counts identical in every traced process?"""
    first = traced[0]["trace"]
    return all(r["trace"][key] == first[key]
               for r in traced for key in ("calls", "counters", "spans"))


def layer_metrics(plain, traced) -> dict:
    """name -> (value, unit) from untraced and traced processes of one run
    (see README.md for each metric)."""
    summaries = [r["trace"] for r in traced]
    calls, counters = summaries[0]["calls"], summaries[0]["counters"]
    med = statistics.median
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (med(s["self_s"][name] for s in summaries), "s")
    steps = calls["streams.stream_c_step"] + calls["streams.stream_shift"]
    stream_checks = counters["decomposition.semiconjugacy_check.stream_checks"]
    metrics.update({
        "words.bits_of.period_bits": (counters["words.bits_of.period_bits"], "bits"),
        "words.word_value.period_bits": (counters["words.word_value.period_bits"], "bits"),
        "streams.bits_copied": (counters["streams.bits_copied"], "bits"),
        "streams.bits_copied_per_step": (
            _ratio(counters["streams.bits_copied"], steps), "bits/step"),
        "decomposition.star_check.violation_ratio": (
            _ratio(counters["decomposition.star_check.violations"],
                   calls["decomposition.star_check"]), "ratio"),
        "decomposition.semiconjugacy_check.stream_refinements": (
            _ratio(counters["decomposition.semiconjugacy_check.stream_excludes_all"],
                   stream_checks), "calls/check"),
        "verifier.periodic_density.words_enumerated": (
            counters["verifier.periodic_density.words_enumerated"], "count"),
        "verifier.periodic_density.words_distinct": (
            counters["verifier.periodic_density.words_distinct"], "count"),
        "verifier.periodic_density.kept": (counters["verifier.periodic_density.kept"], "count"),
        "verifier.dense_orbit_coverage.steps_used": (
            counters["verifier.dense_orbit_coverage.steps_used"], "steps"),
        "trace.spans": (summaries[0]["spans"], "count"),
        "trace.overhead_s": (med(r["wall_ref_s"] for r in traced)
                             - med(r["wall_ref_s"] for r in plain), "s"),
    })
    return metrics


def per_layer(workload: str, seed: int, seconds: int, started: float) -> tuple:
    spans_file = os.path.join(OUT, f"spans-{workload}.bin")
    plain, traced = [], []
    for _ in range(max(MIN_TRACED, repetitions(workload, seconds) // 3)):
        plain.append(spawn([workload, seed, 0], started))
        traced.append(spawn([workload, seed, 1, spans_file], started))
    repeatable = counts_repeat(traced)
    info = {"traced_processes": len(traced), "untraced_processes": len(plain),
            "counts_repeat": repeatable, "spans_file": os.path.relpath(spans_file, ROOT)}
    return layer_metrics(plain, traced), plain + traced, info, repeatable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "symchaos", "__init__.py")):
        print(f"error: no symchaos package under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    compileall.compile_dir(os.path.join(SRC, "symchaos"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, reps, info, repeatable = measure(
            args.workload, args.seed, args.seconds, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct, attempted, failed = outcome(reps)
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "failed_share": failed / attempted,
        "failed_examples": reps[0]["failed_examples"],
        "unexplained_failures": reps[0]["unexplained"],
    })
    for name, (value, unit) in metrics.items():
        print(f"{name:<58} {value:>16.6g} {unit}")
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
