"""One fresh benchmark process: a cold start, one pass of a workload's fixed
work, and a JSON result as the last line of standard output.

    python3 perfbench/worker.py <workload|setup> <seed> <traced 0|1> [spans-file]

`ready` is the CLOCK_MONOTONIC reading taken once the package is imported,
the example graphs are parsed and every target is built; the parent turns it
into set-up time.  Everything after that (input generation, the timed work,
checking outputs) is outside the set-up figure.

Between ops the worker times two fixed calibration loops.  The host is
shared and its speed changes within seconds; dividing each op's time by the
slowdown of the loops measured around it, against their usual time on the
reference VM, gives the op's time at reference speed (`*_ref_*`).
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

CAL_EVERY_S = 0.5  # op time between two calibrations


def _bigint_work() -> int:
    """Linear passes over an 800000-bit integer, the arithmetic of `bits_of`
    and `word_value` on long periods."""
    big = (1 << 800000) // 7
    acc = 0
    for i in range(12):
        q, r = divmod(big * (1000003 + i), 999983 + i)
        acc ^= ((q >> 7) & 0xFFFF) + r
    return acc


def _interpreted_work() -> int:
    """Interpreted work on small objects: list slices, bits parsed into
    ints, Fraction arithmetic."""
    from fractions import Fraction

    acc = 0
    xs = list(range(3000))
    for i in range(200):
        acc += sum(xs[i:i + 40])
        acc += int("".join("1" if j & 1 else "0" for j in range(i, i + 60)), 2) & 255
        acc += (Fraction(i + 1, 7) * Fraction(3, i + 2) + Fraction(1, i + 5)).numerator
    return acc


# The calibration loops and their median time (wall and CPU alike) on the
# reference VM (2-core x86-64, Python 3.11) in its usual state.
CALIBRATION_LOOPS = ((_bigint_work, 0.0042), (_interpreted_work, 0.0034))


def calibrate() -> tuple:
    """(wall, cpu) slowdown of the host against the reference VM: the
    geometric mean over the calibration loops of time / reference time,
    each time the median of three runs.  The cyclic garbage collector is
    off meanwhile, so that the program's heap does not change the loops."""
    import gc

    clock, cpu_clock = time.perf_counter, time.process_time
    wall = cpu = 1.0
    gc.disable()
    try:
        for work, reference in CALIBRATION_LOOPS:
            runs = []
            for _ in range(3):
                t, c = clock(), cpu_clock()
                work()
                runs.append((clock() - t, cpu_clock() - c))
            wall *= sorted(r[0] for r in runs)[1] / reference
            cpu *= sorted(r[1] for r in runs)[1] / reference
    finally:
        gc.enable()
    root = 1 / len(CALIBRATION_LOOPS)
    return wall ** root, cpu ** root


def setup(traced: bool):
    """What every `symchaos` invocation pays before its first op."""
    sys.path.insert(0, SRC)
    import symchaos
    import symchaos.cli

    if not os.path.abspath(symchaos.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported symchaos from {symchaos.__file__}, not from {SRC}")
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(symchaos)
    g = symchaos.graphs
    systems = {name: g.graph_system(g.parse_graph(text))
               for name, text in g.EXAMPLE_GRAPHS.items()}
    targets = [symchaos.tent_target(), symchaos.baker_target()]
    targets += [symchaos.graph_target(s, name) for name, s in systems.items()]
    if tracer is not None:
        _check_capture(tracer, targets)
    return symchaos, systems, tracer


def _check_capture(tracer, targets) -> None:
    """The functions captured by built systems must be the wrappers."""
    w = tracer.wrapped
    expect = {"tent": ("words.c_map", "streams.stream_c_step"),
              "baker": ("words.shift_map", "streams.stream_shift")}
    for target in targets:
        sym, step = expect.get(target.name, ("words.shift_map", "streams.stream_shift"))
        if target.induced.symbolic_map is not w[sym] or target.stream_step is not w[step]:
            raise SystemExit(f"tracer missed a captured function of {target.name!r}")


def rescale(times, slowdowns, segment_start) -> list:
    """Op times at reference speed: each op's time divided by the median of
    the four slowdowns measured nearest to its segment (two before, two
    after).  One calibration samples the host for a few milliseconds; the
    median of four follows its changes without its jitter."""
    import statistics

    out = []
    for k in range(len(slowdowns) - 1):
        factor = statistics.median(slowdowns[max(0, k - 1):k + 3])
        out += [t / factor for t in times[segment_start[k]:segment_start[k + 1]]]
    return out


def run_workload(sc, systems, workload: str, seed: int) -> dict:
    import workloads as wl

    if workload == "points":
        ops = wl.points_ops(seed)
        goldens = {}
    else:
        graph_file = os.path.join(OUT, "k3.graph")
        with open(graph_file, "w", encoding="utf-8") as fh:
            fh.write(sc.graphs.EXAMPLE_GRAPHS["k3"])
        ops = wl.verify_ops(graph_file)
        goldens = wl.load_goldens()

    clock, cpu_clock = time.perf_counter, time.process_time
    results, latencies, cpu_times = [], [], []
    # ops[segment_start[k]:segment_start[k + 1]] ran between calibrations k and k + 1
    cals, segment_start, since_cal = [calibrate()], [0], 0.0
    for op in ops:
        t, c = clock(), cpu_clock()
        try:
            out = wl.run_op(sc, systems, op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = exc.with_traceback(None)  # frames would pin the op's big ints
        latencies.append(clock() - t)
        cpu_times.append(cpu_clock() - c)
        results.append(out)
        since_cal += latencies[-1]
        if since_cal >= CAL_EVERY_S or len(results) == len(ops):
            cals.append(calibrate())
            segment_start.append(len(results))
            since_cal = 0.0
    op_ref = rescale(latencies, [w for w, _ in cals], segment_start)
    op_cpu_ref = rescale(cpu_times, [c for _, c in cals], segment_start)

    failed = [i for i, (op, out) in enumerate(zip(ops, results))
              if isinstance(out, Exception) or not wl.check_op(sc, op, out, goldens)]
    unexplained = [i for i in failed
                   if not (ops[i][0] in ("tent", "baker") and wl.factorize_exposed(ops[i][1]))]
    return {
        "wall_s": sum(latencies),
        "cpu_s": sum(cpu_times),
        "wall_ref_s": sum(op_ref),
        "cpu_ref_s": sum(op_cpu_ref),
        "op_ref_s": op_ref,
        "slowdowns": [w for w, _ in cals],
        "attempted": len(ops),
        "failed": failed,
        "unexplained": [_describe(ops[i], results[i]) for i in unexplained],
        "failed_examples": [_describe(ops[i], results[i]) for i in failed[:8]],
    }


def _describe(op, out) -> str:
    shown = f"{type(out).__name__}: {out}" if isinstance(out, Exception) else str(out)[:200]
    label = op[1] if op[0] in ("cli", "lib") else f"{op[0]}({op[1]})"
    return f"{label} -> {shown}"


def main(argv) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    sc, systems, tracer = setup(traced)
    ready = time.monotonic()

    import json
    import resource

    result = {"ready": ready}
    if workload != "setup":
        result.update(run_workload(sc, systems, workload, seed))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
        if len(argv) > 3:
            tracer.write(argv[3])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
