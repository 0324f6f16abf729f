"""Self-tests of the benchmark itself: `python3 -m pytest -q perfbench`.

They check the correctness gate, the repeatability of traced counts, the
seeding of inputs, and that BENCHMARK.json, the printed metrics and the
interaction table in README.md agree.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.fixture(scope="module")
def package():
    sc, systems, _ = worker.setup(traced=False)
    return sc, systems


@pytest.fixture(scope="module")
def traced_verify():
    started = time.monotonic()
    return [run.spawn(["verify", 1, 1], started) for _ in range(2)]


def test_inputs_are_a_pure_function_of_the_seed():
    assert wl.points_ops(7) == wl.points_ops(7)
    assert wl.points_ops(7) != wl.points_ops(8)
    assert wl.verify_ops("g") == wl.verify_ops("g")


def test_work_per_run_is_fixed_by_seconds():
    assert run.repetitions("points", 55) == 11 and run.repetitions("verify", 55) == 4
    assert run.repetitions("verify", 1) == run.MIN_REPS


def test_rescaling_cancels_a_host_slowdown():
    ops = [0.2, 0.4, 0.1]
    assert worker.rescale(ops, [1.0, 1.0, 1.0], [0, 2, 3]) == ops
    # a host 1.5 times slower: ops and calibrations alike
    slow = worker.rescale([1.5 * t for t in ops], [1.5] * 3, [0, 2, 3])
    assert slow == pytest.approx(ops)
    # the program twice as slow on an unchanged host
    assert worker.rescale([2 * t for t in ops], [1.0] * 3, [0, 2, 3]) == [2 * t for t in ops]
    wall, cpu = worker.calibrate()
    assert 0.2 < wall < 5 and 0.2 < cpu < 5


def test_failures_at_seed_are_exactly_the_known_defect(package):
    sc, systems = package
    result = worker.run_workload(sc, systems, "points", 1)
    ops = wl.points_ops(1)
    exposed = [i for i, op in enumerate(ops)
               if op[0] in ("tent", "baker") and wl.factorize_exposed(op[1])]
    assert result["failed"] == exposed and len(exposed) > 0
    assert result["unexplained"] == []
    assert run.outcome([result, result])[0]


def test_a_wrong_map_raises_failed_share(package, monkeypatch):
    sc, systems = package
    monkeypatch.setattr(wl, "RATIONALS", 200)
    before = worker.run_workload(sc, systems, "points", 3)
    real = sc.induced_tent
    monkeypatch.setattr(sc, "induced_tent", lambda y: real(y) + Fraction(1, 1 << 40))
    after = worker.run_workload(sc, systems, "points", 3)
    tent_ops = {i for i, op in enumerate(wl.points_ops(3)) if op[0] == "tent"}
    assert set(after["failed"]) == tent_ops | set(before["failed"])
    assert len(after["failed"]) > len(before["failed"]) and after["unexplained"]
    assert not run.outcome([after])[0]


def test_a_wrong_report_fails_its_golden(package, monkeypatch):
    sc, systems = package
    real = sc.verifier.sensitivity_probe

    def flipped(*args):
        report = real(*args)
        report.verdict = "fail" if report.passed() else "pass"
        return report

    monkeypatch.setattr(sc.verifier, "sensitivity_probe", flipped)
    result = worker.run_workload(sc, systems, "verify", 1)
    assert len(result["failed"]) == 4 and result["unexplained"]


def test_traced_counts_repeat_exactly(traced_verify):
    assert run.counts_repeat(traced_verify)
    calls = traced_verify[0]["trace"]["calls"]
    assert calls["cli.main"] == 11 and calls["graphs.graph_metric"] > 0
    assert calls["streams.stream_c_step"] == 35320


def test_traced_points_never_touch_streams_or_verifier():
    result = run.spawn(["points", 2, 1], time.monotonic())
    calls = result["trace"]["calls"]
    assert calls["interval.induced_tent"] > 0
    assert all(calls[n] == 0 for n in calls if n.startswith(("streams.", "verifier.")))


def test_metrics_match_benchmark_json(traced_verify):
    rep = traced_verify[0]
    e2e = run.end_to_end_metrics([rep], [rep])
    layer = run.layer_metrics(traced_verify, traced_verify)
    for declared, produced in ((BENCHMARK["end_to_end"], e2e),
                               (BENCHMARK["per_layer"], layer)):
        assert [m["name"] for m in declared] == list(produced)
        assert all(m["unit"] == produced[m["name"]][1] for m in declared)
    assert all(value > 0 for value, _ in e2e.values())


def test_every_layer_metric_has_an_interaction_row():
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        rows = re.findall(r"^\| `([A-Za-z0-9_.]+)` \|", fh.read(), re.MULTILINE)
    other = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["workloads"]}
    layer_rows = [r for r in rows if r not in other]
    assert sorted(layer_rows) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "points",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
