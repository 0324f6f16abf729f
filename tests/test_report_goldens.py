"""Replay a fixed grid of verifier runs against recorded reports.

Every report must match `tests/data/verify_reports.json` byte for byte,
apart from `elapsed_ms`; a run that raises `ValueError` must raise the
recorded message.  To re-record (only when a report is meant to change):

    PYTHONPATH=src python tests/test_report_goldens.py --record
"""

import copy
import json
import os
import sys
from fractions import Fraction

import pytest

from symchaos import verifier
from symchaos.verifier import ChaosReport
from symchaos.graphs import EXAMPLE_GRAPHS, graph_system, parse_graph

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "verify_reports.json")

GRID = (
    ("periodic_density", (8, 4)),
    ("dense_orbit_coverage", (3000, 4)),
    ("transitivity_witness", (3, 20)),
    ("sensitivity_probe", (Fraction(1, 8), Fraction(1, 64), 16, 20)),
    ("lemma6_commute_check", (6, 300)),
)


def _targets():
    targets = [verifier.tent_target(), verifier.baker_target(),
               verifier.identity_target(), verifier.constant_target(),
               verifier.rotation_target()]
    targets += [verifier.graph_target(graph_system(parse_graph(text)), name)
                for name, text in EXAMPLE_GRAPHS.items()]
    return targets


def _run(target, func: str, args) -> dict:
    try:
        report = getattr(verifier, func)(target, *args).to_json()
    except ValueError as exc:
        return {"error": str(exc)}
    del report["elapsed_ms"]
    return report


def record() -> dict:
    return {f"{target.name} {func}": _run(target, func, args)
            for target in _targets() for func, args in GRID}


def _load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


CASES = [(target, func, args) for target in _targets() for func, args in GRID]


def test_golden_grid_is_complete():
    assert sorted(_load()) == sorted(f"{t.name} {f}" for t, f, _ in CASES)


@pytest.mark.parametrize("target,func,args", CASES,
                         ids=[f"{t.name}-{f}" for t, f, _ in CASES])
def test_report_matches_golden(target, func, args):
    got = json.dumps(_run(target, func, args), indent=2, sort_keys=True)
    want = json.dumps(_load()[f"{target.name} {func}"], indent=2, sort_keys=True)
    assert got == want


# -- to_json copies by hand what copy.deepcopy copies ------------------------


def _containers(value) -> list:
    """Every dict and list in value, value itself included."""
    if isinstance(value, dict):
        value, items = [value], value.values()
    elif isinstance(value, list):
        value, items = [value], value
    else:
        return []
    return value + [c for item in items for c in _containers(item)]


def _assert_copied(report: ChaosReport) -> None:
    got = report.to_json()
    assert got == copy.deepcopy(report._asdict())
    held = {id(c) for field in report for c in _containers(field)}
    assert held and not held & {id(c) for c in _containers(got)}


@pytest.mark.parametrize("target,func,args", CASES,
                         ids=[f"{t.name}-{f}" for t, f, _ in CASES])
def test_to_json_is_a_deep_copy_of_each_golden_report(target, func, args):
    try:
        report = getattr(verifier, func)(target, *args)
    except ValueError:
        return  # a recorded error: no report
    _assert_copied(report)


def test_to_json_is_a_deep_copy_of_each_recorded_report():
    recorded = [fields for fields in _load().values() if "error" not in fields]
    assert len(recorded) > 40
    for fields in recorded:
        _assert_copied(ChaosReport(**fields, elapsed_ms=7))


def test_to_json_copies_dicts_inside_lists_inside_dicts():
    leaf = {"t": "1/3"}
    report = ChaosReport("hand", "nested", {"cells": [{"arc": [leaf, 2]}, []]}, "fail",
                         [{"from": [leaf], "to": {"deep": [[{"x": leaf}]]}}], 3)
    _assert_copied(report)
    report.to_json()["witnesses"][0]["from"][0]["t"] = "changed"
    assert leaf == {"t": "1/3"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
