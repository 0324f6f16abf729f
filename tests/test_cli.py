import argparse
import contextlib
import csv
import io
import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symchaos import cli, graphs, interval, verifier
from symchaos.cli import main
from symchaos.graphs import EXAMPLE_GRAPHS, graph_map
from symchaos.verifier import ChaosReport
from symchaos.words import _quote, parse_word

import measured


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.graph"
    path.write_text(EXAMPLE_GRAPHS["k3"])
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ eval

def test_eval_tent(capsys):
    code, out, _ = run(capsys, "eval", "--system", "tent", "--x", "1/4")
    assert code == 0
    assert out == "1/2\n"


def test_eval_induced_variants(capsys):
    for system, expected in (("induced-tent", "3/4\n"), ("induced-baker", "1/4\n")):
        code, out, _ = run(capsys, "eval", "--system", system, "--x", "5/8")
        assert code == 0
        assert out == expected


def test_eval_bad_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--system", "tent", "--x", "five"])
    assert exc.value.code == 2


def test_eval_out_of_range_is_error(capsys):
    code, _, err = run(capsys, "eval", "--system", "tent", "--x", "3/2")
    assert code == 2
    assert "error" in err


def test_eval_internal_invariant_failure_exits_three(capsys, monkeypatch):
    import symchaos.interval

    monkeypatch.setattr(symchaos.interval, "_tent", lambda n, d: (0, 1))
    code, out, err = run(capsys, "eval", "--system", "induced-tent", "--x", "1/3")
    assert code == 3
    assert out == ""
    assert err == ("error: internal invariant failed: induced tent map at 1/3 "
                   "gave 2/3, closed form gives 0\n")


def test_eval_invariant_failure_with_a_huge_value_exits_three(capsys, monkeypatch):
    # a value whose numerator or denominator has over 4300 digits cannot go
    # through str(); the failure must still be reported as an invariant
    import symchaos.interval

    huge = Fraction(1, 10 ** 4400)
    monkeypatch.setattr(symchaos.interval, "_tent", lambda n, d: huge.as_integer_ratio())
    code, out, err = run(capsys, "eval", "--system", "induced-tent", "--x", "1/3")
    assert code == 3
    assert out == ""
    assert err == ("error: internal invariant failed: induced tent map at 1/3 gave 2/3, "
                   "closed form gives a fraction with a 1-bit numerator and a "
                   f"{huge.denominator.bit_length()}-bit denominator\n")


@pytest.mark.parametrize("system", ["induced-tent", "induced-baker"])
def test_eval_denominator_with_composite_cofactor_golden(capsys, system):
    # 1022117 = 1009·1013: the odd part is composite with no factor below 1000
    code, out, err = run(capsys, "eval", "--system", system, "--x", "1/1022117")
    assert (code, out, err) == (0, "2/1022117\n", "")


# ----------------------------------------------------------------- orbit

GOLDEN_ORBIT = """step,num,den,approx
0,2,3,0.6666666666666666
1,1,3,0.3333333333333333
2,2,3,0.6666666666666666
"""


def test_orbit_csv_golden(capsys):
    code, out, _ = run(capsys, "orbit", "--system", "baker", "--x", "2/3",
                       "--steps", "2")
    assert code == 0
    assert out == GOLDEN_ORBIT


def test_orbit_negative_steps_is_usage_error(capsys):
    code, out, err = run(capsys, "orbit", "--system", "tent", "--x", "1/3",
                         "--steps", "-2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--steps" in err


@pytest.mark.parametrize("steps,message", [
    (10 ** 6 + 1, "error: --steps 1000001 exceeds bound 10^6\n"),
    (-2, "error: --steps must be at least 0, got -2\n"),
])
def test_orbit_steps_out_of_range_exit_two(capsys, k3_file, steps, message):
    # the step count is capped at 10^6, and checked before any row is printed
    for argv in (("orbit", "--system", "tent", "--x", "1/3"),
                 ("graph-orbit", "--file", k3_file, "--start", "E2:1/3")):
        code, out, err = run(capsys, *argv, "--steps", str(steps))
        assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("steps", ["0", "2"])
def test_orbit_start_outside_the_interval_prints_no_row(capsys, steps):
    # the start is checked before any row is printed, at every step count
    assert run(capsys, "orbit", "--system", "tent", "--x", "3/2", "--steps", steps) == (
        2, "", "error: point 3/2 outside [0, 1]\n")


def test_orbit_json(capsys):
    code, out, _ = run(capsys, "orbit", "--system", "tent", "--x", "1/2",
                       "--steps", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"step": 0, "num": 1, "den": 2, "approx": 0.5},
        {"step": 1, "num": 1, "den": 1, "approx": 1.0},
        {"step": 2, "num": 0, "den": 1, "approx": 0.0},
    ]


def _held_print_rows(rows, fmt):
    """The orbit printer before rows streamed, kept as the oracle: every row
    is held, then printed at once."""
    if fmt == "json":
        print(json.dumps(rows, indent=2))
        return
    print(",".join(rows[0]))
    for row in rows:
        print(",".join("" if v is None else str(v) for v in row.values()))


def _held_orbit_rows(system, x, steps):
    fmap = cli.EVAL_SYSTEMS[system]
    rows = []
    for step in range(steps + 1):
        rows.append({"step": step, "num": x.numerator, "den": x.denominator,
                     "approx": float(x)})
        if step < steps:
            x = fmap(x)
    return rows


def _held_graph_rows(sys_, pt, steps):
    rows = []
    for step in range(steps + 1):
        if isinstance(pt, graphs.Interior):
            rows.append({"step": step, "arc_or_node": sys_.spec.arc(pt.arc).id,
                         "t_num": pt.t.numerator, "t_den": pt.t.denominator,
                         "approx": float(pt.t)})
        else:
            rows.append({"step": step, "arc_or_node": pt.id,
                         "t_num": None, "t_den": None, "approx": None})
        if step < steps:
            pt = graph_map(sys_, pt)
    return rows


def _held_text(capsys, rows, fmt):
    _held_print_rows(rows, fmt)
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("steps", [0, 1, 10, 1000])
def test_streamed_orbit_rows_match_the_held_rows(capsys, k3_file, steps, fmt):
    for system, x in (("tent", "3/11"), ("baker", "1/3"), ("induced-baker", "5/7")):
        held = _held_text(capsys, _held_orbit_rows(system, Fraction(x), steps), fmt)
        assert run(capsys, "orbit", "--system", system, "--x", x, "--steps", str(steps),
                   "--format", fmt) == (0, held, "")
    sys_ = cli._load_graph(k3_file)
    for start in ("E2:1/3", "node:b", "E3:3/8", "E1:5/13"):
        rows = _held_graph_rows(sys_, cli._parse_start(sys_, start), steps)
        held = _held_text(capsys, rows, fmt)
        assert run(capsys, "graph-orbit", "--file", k3_file, "--start", start,
                   "--steps", str(steps), "--format", fmt) == (0, held, "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_orbit_of_no_steps_prints_its_start_alone(capsys, k3_file, fmt):
    for system in sorted(cli.EVAL_SYSTEMS):
        held = _held_text(capsys, _held_orbit_rows(system, Fraction(3, 8), 0), fmt)
        assert run(capsys, "orbit", "--system", system, "--x", "3/8", "--steps", "0",
                   "--format", fmt) == (0, held, "")
    sys_ = cli._load_graph(k3_file)
    for start in ("E2:1/3", "node:b"):
        held = _held_text(capsys, _held_graph_rows(sys_, cli._parse_start(sys_, start), 0), fmt)
        assert run(capsys, "graph-orbit", "--file", k3_file, "--start", start, "--steps", "0",
                   "--format", fmt) == (0, held, "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("steps", ["0", "2"])
def test_an_orbit_from_off_its_space_exits_two_before_any_row(capsys, k3_file, fmt, steps):
    for system in sorted(cli.EVAL_SYSTEMS):
        assert run(capsys, "orbit", "--system", system, "--x", "3/2", "--steps", steps,
                   "--format", fmt) == (2, "", "error: point 3/2 outside [0, 1]\n")
    assert run(capsys, "graph-orbit", "--file", k3_file, "--start", "E1:3/2", "--steps", steps,
               "--format", fmt) == (2, "", "error: point 3/2 outside [0, 1]\n")


def _failing_at(call: int, fmap):
    calls = []

    def step(*args):
        calls.append(args)
        if len(calls) == call:
            raise ArithmeticError(f"step {call} failed")
        return fmap(*args)

    return step


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failure_mid_orbit_keeps_the_rows_before_it(capsys, monkeypatch, k3_file, fmt):
    # rows 0-4 are printed before step 5 fails; a JSON list is left open
    sys_ = cli._load_graph(k3_file)
    held = [_held_text(capsys, rows, fmt) for rows in (
        _held_orbit_rows("tent", Fraction(3, 11), 4),
        _held_graph_rows(sys_, graphs.Interior(1, Fraction(5, 13)), 4))]
    if fmt == "json":
        held = [text[:-len("\n]\n")] for text in held]
    monkeypatch.setattr(interval, "_tent", _failing_at(5, interval._tent))
    monkeypatch.setattr(graphs, "lattice_step", _failing_at(5, graphs.lattice_step))
    error = "error: internal invariant failed: step 5 failed\n"
    assert run(capsys, "orbit", "--system", "tent", "--x", "3/11", "--steps", "10",
               "--format", fmt) == (3, held[0], error)
    assert run(capsys, "graph-orbit", "--file", k3_file, "--start", "E1:5/13",
               "--steps", "10", "--format", fmt) == (3, held[1], error)


# ----------------------------------------------------------- graph orbit

GOLDEN_GRAPH_ORBIT = """step,arc_or_node,t_num,t_den,approx
0,E2,1,3,0.3333333333333333
1,E1,1,3,0.3333333333333333
2,E1,2,3,0.6666666666666666
3,E2,2,3,0.6666666666666666
"""


def test_graph_orbit_csv_golden(capsys, k3_file):
    code, out, _ = run(capsys, "graph-orbit", "--file", k3_file,
                       "--start", "E2:1/3", "--steps", "3")
    assert code == 0
    assert out == GOLDEN_GRAPH_ORBIT


def test_graph_orbit_node_rows(capsys, k3_file):
    code, out, _ = run(capsys, "graph-orbit", "--file", k3_file,
                       "--start", "node:b", "--steps", "1")
    assert code == 0
    assert out == "step,arc_or_node,t_num,t_den,approx\n0,b,,,\n1,b,,,\n"


def test_graph_orbit_numeric_arc_and_json(capsys, k3_file):
    code, out, _ = run(capsys, "graph-orbit", "--file", k3_file,
                       "--start", "2:1/3", "--steps", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"step": 0, "arc_or_node": "E2", "t_num": 1, "t_den": 3,
         "approx": 0.3333333333333333},
        {"step": 1, "arc_or_node": "E1", "t_num": 1, "t_den": 3,
         "approx": 0.3333333333333333},
    ]


# ------------------------------------------------- JSON rows, byte for byte

def _per_row_json(header, rows):
    """The JSON orbit text as cli printed it before each row kind had one
    format string, kept as the oracle: json.dumps of each row's dict,
    indent=2, indented once more inside the list."""
    keys = header.split(",")
    texts = [json.dumps(dict(zip(keys, row)), indent=2).replace("\n", "\n  ") for row in rows]
    return "[\n  " + ",\n  ".join(texts) + "\n]\n"


def _golden_rows(text):
    """A CSV golden's header and rows, each field read back as the orbit
    made it: an int, a float, an id, or None where CSV left it blank."""
    def value(field):
        for kind in (int, float):
            try:
                return kind(field)
            except ValueError:
                pass
        return field or None

    header, *lines = text.splitlines()
    return header, [tuple(map(value, line.split(","))) for line in lines]


GOLDEN_ORBIT_JSON = """[
  {
    "step": 0,
    "num": 1,
    "den": 3,
    "approx": 0.3333333333333333
  },
  {
    "step": 1,
    "num": 2,
    "den": 3,
    "approx": 0.6666666666666666
  },
  {
    "step": 2,
    "num": 2,
    "den": 3,
    "approx": 0.6666666666666666
  }
]
"""


def test_orbit_json_golden(capsys):
    # the CI step prints this text from the installed console script
    argv = ("orbit", "--system", "tent", "--x", "1/3", "--steps", "2", "--format", "json")
    assert run(capsys, *argv) == (0, GOLDEN_ORBIT_JSON, "")
    assert GOLDEN_ORBIT_JSON == _per_row_json("step,num,den,approx", [
        (k, *Fraction(n, 3).as_integer_ratio(), n / 3) for k, n in enumerate((1, 2, 2))])


@pytest.mark.parametrize("golden,argv", [
    (GOLDEN_ORBIT, ("orbit", "--system", "baker", "--x", "2/3", "--steps", "2")),
    (GOLDEN_GRAPH_ORBIT, ("graph-orbit", "--file", "K3", "--start", "E2:1/3", "--steps", "3")),
    ("step,arc_or_node,t_num,t_den,approx\n0,b,,,\n1,b,,,\n",
     ("graph-orbit", "--file", "K3", "--start", "node:b", "--steps", "1")),
], ids=["orbit", "graph-orbit", "graph-orbit-node"])
def test_every_csv_golden_prints_the_per_row_json_text(capsys, k3_file, golden, argv):
    argv = [k3_file if a == "K3" else a for a in argv]
    assert run(capsys, *argv) == (0, golden, "")
    assert run(capsys, *argv, "--format", "json") == (0, _per_row_json(*_golden_rows(golden)), "")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(cli.EVAL_SYSTEMS)),
       st.fractions(0, 1, max_denominator=10 ** 6), st.integers(0, 60))
def test_drawn_interval_orbits_print_the_per_row_json_text(system, x, steps):
    rows = [tuple(row.values()) for row in _held_orbit_rows(system, x, steps)]
    assert _run_command(["orbit", "--system", system, "--x", str(x), "--steps", str(steps),
                         "--format", "json"]) == (0, _per_row_json("step,num,den,approx", rows), "")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(EXAMPLE_GRAPHS)), st.data(), st.integers(0, 40))
def test_drawn_graph_orbits_print_the_per_row_json_text(tmp_path_factory, name, data, steps):
    path = tmp_path_factory.getbasetemp() / f"{name}.graph"
    path.write_text(EXAMPLE_GRAPHS[name])
    sys_ = cli._load_graph(str(path))
    arc = st.integers(1, sys_.r)
    start = data.draw(st.one_of(
        st.sampled_from(sys_.spec.nodes).map("node:{}".format),
        st.tuples(arc, st.fractions(0, 1, max_denominator=10 ** 4)).map("{0[0]}:{0[1]}".format),
        st.tuples(arc, st.integers(0, 64)).map("{0[0]}:{0[1]}/64".format)))
    assert _graph_orbit_json(path, start, steps) == (0, _held_graph_json(sys_, start, steps), "")


def test_a_graph_orbit_into_a_node_prints_the_per_row_json_text(k3_file):
    # E1:3/8 reaches node c at step 2: arc rows, then node rows of nulls
    sys_ = cli._load_graph(k3_file)
    held = _held_graph_json(sys_, "E1:3/8", 4)
    assert '"arc_or_node": "E1"' in held and '"t_num": null' in held
    assert _graph_orbit_json(k3_file, "E1:3/8", 4) == (0, held, "")


def _graph_orbit_json(path, start, steps):
    return _run_command(["graph-orbit", "--file", str(path), "--start", start,
                         "--steps", str(steps), "--format", "json"])


def _held_graph_json(sys_, start, steps):
    """The per-row JSON text of the held graph rows from `start`."""
    rows = _held_graph_rows(sys_, cli._parse_start(sys_, start), steps)
    return _per_row_json("step,arc_or_node,t_num,t_den,approx", [tuple(r.values()) for r in rows])


@pytest.mark.parametrize("start", ["E1:3/2", "2:-1/4"])
def test_graph_orbit_start_outside_the_arc_names_the_point(capsys, k3_file, start):
    code, out, err = run(capsys, "graph-orbit", "--file", k3_file, "--start", start,
                         "--steps", "1")
    assert (code, out) == (2, "")
    assert err == f"error: point {start.split(':')[1]} outside [0, 1]\n"


def test_graph_orbit_bad_start(capsys, k3_file):
    code, _, err = run(capsys, "graph-orbit", "--file", k3_file,
                       "--start", "nope", "--steps", "1")
    assert code == 2
    assert "error" in err


def test_graph_orbit_start_with_a_zero_denominator_is_usage_error(capsys, k3_file):
    code, out, err = run(capsys, "graph-orbit", "--file", k3_file,
                         "--start", "E1:1/0", "--steps", "1")
    assert (code, out) == (2, "")
    assert err == "error: not a rational: '1/0'\n"


def test_graph_orbit_closed_form_mismatch_exits_three(capsys, monkeypatch, k3_file):
    import symchaos.graphs

    monkeypatch.setattr(symchaos.graphs, "lattice_step", lambda sys, key, q: key)
    code, out, err = run(capsys, "graph-orbit", "--file", k3_file,
                         "--start", "E2:1/3", "--steps", "2")
    # the rows made before the failing step are already printed
    assert (code, out) == (3, "step,arc_or_node,t_num,t_den,approx\n"
                              "0,E2,1,3,0.3333333333333333\n")
    assert err == ("error: internal invariant failed: induced graph map at "
                   "Interior(2, 1/3) gave Interior(1, 1/3), closed form gives "
                   "Interior(2, 1/3)\n")


def test_graph_orbit_missing_file(capsys):
    code, out, err = run(capsys, "graph-orbit", "--file", "/nonexistent.graph",
                         "--start", "node:a", "--steps", "1")
    assert (code, out, err) == (
        2, "", "error: cannot read '/nonexistent.graph': No such file or directory\n")


def test_a_graph_file_that_is_not_utf8_is_named(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"node a\n\xff")
    code, out, err = run(capsys, "graph-orbit", "--file", str(path), "--start", "node:a",
                         "--steps", "1")
    assert (code, out, err) == (2, "", f"error: cannot read {str(path)!r}: not UTF-8 at byte 7\n")


@pytest.mark.parametrize("name,strerror", [
    ("no\nsuch.graph", "No such file or directory"),
    ("x" * 300, "File name too long"),
    ("é" * 200, "File name too long"),  # 400 UTF-8 bytes
    (".", "Is a directory")], ids=["line-break", "300-characters", "non-ascii", "directory"])
def test_a_graph_file_that_cannot_be_read_is_named_on_one_line(capsys, tmp_path, name,
                                                               strerror):
    # the path is quoted, and only the error's own text follows it: the
    # OSError's text, which repeats the path, made a 300-character path's
    # message 665 bytes, and a line break in the path broke it in two
    path = os.path.join(tmp_path, name)
    code, out, err = run(capsys, "graph-orbit", "--file", path, "--start", "node:a",
                         "--steps", "1")
    assert (code, out, err) == (2, "", f"error: cannot read {_quote(path)}: {strerror}\n")
    assert len(err.encode()) < 400


# ---------------------------------------------------------------- verify

def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--system", "baker",
                       "--property", "periodic-density",
                       "--max-period", "12", "--resolution", "7")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["params"]["covered"] == 128


def test_verify_fail_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--system", "tent",
                       "--property", "periodic-density",
                       "--max-period", "2", "--resolution", "7")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_verify_transitivity_witness_missed_by_the_map_exits_three(capsys, monkeypatch):
    # the tent's branches with the identity as its map: the laps carry 3/512
    # from cell 0 into cell 1, where the identity leaves it in cell 0
    monkeypatch.setattr(verifier, "_tent", lambda n, d: (n, d))
    code, out, err = run(capsys, "verify", "--system", "tent", "--property", "transitivity")
    assert (code, out) == (3, "")
    assert err == ("error: internal invariant failed: transitivity of 'tent' at resolution 7: "
                   "the laps carry 3/512 from U = cell 0 into V = cell 1 at step 1, but fmap "
                   "takes it to 3/512\n")


def test_verify_graph_lemma6(capsys, k3_file):
    code, out, _ = run(capsys, "verify", "--system", "graph", "--file", k3_file,
                       "--property", "lemma6", "--max-period", "8",
                       "--steps", "2000")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_graph_requires_file(capsys):
    code, _, err = run(capsys, "verify", "--system", "graph",
                       "--property", "sensitivity")
    assert code == 2


@pytest.mark.parametrize("system", ["tent", "baker"])
def test_verify_file_requires_system_graph(capsys, k3_file, system):
    code, out, err = run(capsys, "verify", "--system", system, "--file", k3_file,
                         "--property", "sensitivity")
    assert (code, out) == (2, "")
    assert err == "error: --file requires --system graph\n"


@pytest.mark.parametrize("argv", [
    ("--system", "tent", "--property", "sensitivity", "--grid", "0"),
    ("--system", "baker", "--property", "lemma6", "--max-period", "0", "--steps", "-1"),
    ("--system", "baker", "--property", "dense-orbit", "--steps", "-5"),
    ("--system", "tent", "--property", "periodic-density", "--resolution", "-1"),
], ids=["grid-0", "max-period-0", "steps-negative", "resolution-negative"])
def test_verify_out_of_range_parameter_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be at least" in err


@pytest.mark.parametrize("argv", [
    ("--property", "dense-orbit", "--resolution", "17"),
    ("--property", "dense-orbit", "--resolution", "40"),
    ("--property", "lemma6", "--steps", str(10 ** 6 + 1)),
    ("--property", "sensitivity", "--grid", "1", "--eta", "100",
     "--horizon", str(10 ** 6 + 1)),
    ("--property", "transitivity", "--resolution", "1", "--horizon", str(10 ** 6 + 1)),
], ids=["resolution-17", "resolution-40", "lemma6-steps-above-10^6",
        "sensitivity-horizon-above-10^6", "transitivity-horizon-above-10^6"])
def test_verify_parameter_above_its_cap_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", "--system", "tent", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds bound" in err
    assert argv[-2].lstrip("-") in err  # the message names the parameter


@pytest.mark.parametrize("prop", ["sensitivity", "transitivity"])
def test_verify_graph_horizon_above_its_cap_names_horizon(capsys, k3_file, prop):
    # the dense-orbit route of graph transitivity used to report it as `steps`
    code, out, err = run(capsys, "verify", "--system", "graph", "--file", k3_file,
                         "--property", prop, "--resolution", "1",
                         "--horizon", str(10 ** 6 + 1))
    assert (code, out) == (2, "")
    assert err == "error: horizon 1000001 exceeds bound 10^6\n"


@pytest.mark.parametrize("name,value", [
    ("eta", "-1"), ("eta", "0"), ("delta", "0"), ("delta", "1"), ("delta", "-1/8"),
])
def test_verify_sensitivity_eta_delta_out_of_range_is_usage_error(capsys, name, value):
    code, out, err = run(capsys, "verify", "--system", "tent",
                         "--property", "sensitivity", "--grid", "4",
                         f"--{name}={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("prop,name,params", [
    ("periodic-density", "periodic_density", (12, 7)),
    ("dense-orbit", "dense_orbit_coverage", (25000, 7)),
    ("transitivity", "transitivity_witness", (7, 40)),
    ("sensitivity", "sensitivity_probe", (Fraction(1, 4), Fraction(1, 4096), 256, 40)),
    ("lemma6", "lemma6_commute_check", (12, 25000)),
])
def test_verify_calls_the_check_bound_on_the_verifier_module(capsys, monkeypatch, prop,
                                                              name, params):
    # looked up when it runs, so a function rebound there (a tracer's
    # wrapper) is the one called
    calls = []

    def stand_in(target, *args):
        calls.append((target.name, args))
        return ChaosReport(target.name, prop, {}, "fail", [{"stand-in": True}])

    monkeypatch.setattr(verifier, name, stand_in)
    code, out, _ = run(capsys, "verify", "--system", "tent", "--property", prop)
    assert (code, calls) == (1, [("tent", params)])
    assert json.loads(out)["witnesses"] == [{"stand-in": True}]


def test_verify_property_text_is_that_of_a_tuple_of_choices(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for choices in (cli.VERIFY_PROPERTIES, tuple(cli.VERIFY_PROPERTIES)):
        monkeypatch.setattr(cli, "VERIFY_PROPERTIES", choices)
        for argv in (["verify", "--system", "tent", "--property", "bogus"], ["verify", "-h"]):
            with pytest.raises(SystemExit):
                cli._parser.__wrapped__().parse_args(argv)
            texts.append(capsys.readouterr())
    assert texts[:2] == texts[2:]
    assert "{periodic-density,dense-orbit,transitivity,sensitivity,lemma6}" in texts[0].err


def test_verify_output_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--system", "tent",
                     "--property", "sensitivity", "--grid", "16")
    _, out2, _ = run(capsys, "verify", "--system", "tent",
                     "--property", "sensitivity", "--grid", "16")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert r1 == r2


# ------------------------------------------------------------- conjugacy

def test_conjugacy_golden(capsys):
    code, out, _ = run(capsys, "conjugacy", "--length", "8")
    assert code == 0
    assert out == ("length 8: 256 prefixes checked, 256 agree on 7 bits, "
                   "0 mismatches\n")


def test_conjugacy_respects_length_cap(capsys, monkeypatch):
    # the cap is checked before any prefix is mapped
    mapped = []
    monkeypatch.setattr(cli, "r_map", mapped.append)
    code, out, err = run(capsys, "conjugacy", "--length", "25")
    assert (code, out, mapped) == (2, "", [])
    assert err == "error: --length 25 exceeds bound 24\n"


# ----------------------------------------------------------------- fiber

def test_fiber_golden(capsys):
    code, out, _ = run(capsys, "fiber", "--x", "1/2")
    assert code == 0
    assert out == "1:0\n0:1\n"


def test_fiber_non_dyadic(capsys):
    code, out, _ = run(capsys, "fiber", "--x", "1/3")
    assert code == 0
    assert out == ":01\n"


def test_fiber_outside_the_interval_names_the_point(capsys):
    code, out, err = run(capsys, "fiber", "--x", "3/2")
    assert (code, out) == (2, "")
    assert err == "error: point 3/2 outside [0, 1]\n"


def test_fiber_period_above_its_bound_is_usage_error(capsys):
    code, out, err = run(capsys, "fiber", "--x", "1/33554467")
    assert (code, out) == (2, "")
    assert err == "error: bits_of: the expansion's period exceeds bound 2^24\n"


@pytest.mark.parametrize("argv", [["fiber"], ["eval", "--system", "induced-tent"],
                                  ["orbit", "--system", "induced-baker", "--steps", "1"]])
def test_a_power_of_5_period_past_its_bound_is_refused_before_any_output(capsys, argv):
    # the period of 10^-10000 is 4 * 5^9999, refused from the order of 5
    code, out, err = run(capsys, *argv, "--x", "1e-10000")
    assert (code, out) == (2, "")
    assert err == "error: bits_of: the expansion's period exceeds bound 2^24\n"


def test_sensitivity_on_a_lattice_past_the_period_bound_prints_no_report(capsys, k3_file):
    code, out, err = run(capsys, "verify", "--system", "graph", "--file", k3_file,
                         "--property", "sensitivity", "--delta", "1/67108879", "--grid", "8")
    assert (code, out) == (2, "")
    assert err == "error: bits_of: the expansion's period exceeds bound 2^24\n"


def test_fiber_graph(capsys, k3_file):
    code, out, _ = run(capsys, "fiber", "--x", "1/2", "--file", k3_file,
                       "--arc", "3")
    assert code == 0
    assert out == "110:1\n111:0\n"  # in (preperiod, period) order
    code, out, _ = run(capsys, "fiber", "--x", "0", "--file", k3_file,
                       "--arc", "E1")
    assert code == 0
    assert out == ":0\n:1\n"  # node a's fiber


def test_fiber_arc_requires_file(capsys):
    code, out, err = run(capsys, "fiber", "--x", "1/2", "--arc", "1")
    assert (code, out) == (2, "")
    assert err == "error: --arc requires --file\n"


def test_fiber_file_requires_arc(capsys, k3_file):
    code, out, err = run(capsys, "fiber", "--x", "1/2", "--file", k3_file)
    assert (code, out) == (2, "")
    assert err == "error: --file requires --arc\n"


# ------------------------------------------------------------ huge values

SIZED = "a fraction with a 16607-bit numerator and a 1-bit denominator"  # 10^4999
SIZED_5000 = "a fraction with a 16610-bit numerator and a 1-bit denominator"  # 10^5000
NEGATIVE, NEGATIVE_5000 = ("a negative " + sized[2:] for sized in (SIZED, SIZED_5000))


@pytest.mark.parametrize("argv,message", [
    (["fiber", "--x", "1e4999"], f"point {SIZED} outside [0, 1]"),
    (["fiber", "--x", "1e5000"], f"point {SIZED_5000} outside [0, 1]"),
    (["fiber", "--file", "K3", "--arc", "1", "--x", "1e4999"], f"point {SIZED} outside [0, 1]"),
    (["graph-orbit", "--file", "K3", "--start", "E1:1e4999", "--steps", "1"],
     f"point {SIZED} outside [0, 1]"),
    (["verify", "--system", "tent", "--property", "sensitivity", "--eta=-1e4999"],
     f"eta must be positive, got {NEGATIVE}"),
    (["verify", "--system", "tent", "--property", "sensitivity", "--eta=-1e5000"],
     f"eta must be positive, got {NEGATIVE_5000}"),
    (["verify", "--system", "tent", "--property", "sensitivity", "--delta=1e4999"],
     f"delta must lie strictly between 0 and 1, got {SIZED}"),
], ids=["fiber", "fiber-1e5000", "graph-fiber", "graph-orbit", "eta", "eta-1e5000", "delta"])
def test_a_huge_number_is_named_by_its_size(capsys, k3_file, argv, message):
    code, out, err = run(capsys, *(k3_file if a == "K3" else a for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("option,value,sized", [
    ("--eta", "1e4999", SIZED),
    ("--delta", "1e-4999", "a fraction with a 1-bit numerator and a 16607-bit denominator"),
], ids=["eta", "delta"])
def test_sensitivity_rejects_a_value_too_long_to_print_before_any_walk(
        capsys, monkeypatch, option, value, sized):
    def walked(*args):
        raise AssertionError("a walk ran")

    monkeypatch.setattr(verifier, "_separates", walked)
    code, out, err = run(capsys, "verify", "--system", "tent", "--property", "sensitivity",
                         f"{option}={value}")
    assert (code, out) == (2, "")
    assert err == f"error: {option[2:]} {sized} is too long to print in the report\n"
    assert "int_max_str_digits" not in err


def test_eval_and_orbit_print_a_result_past_the_digit_limit_exactly(capsys):
    # 1/10^5000 maps exactly; printing the image takes more digits than
    # int() prints by default, so the limit is lifted around the print
    # alone and restored afterwards
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "eval", "--system", "tent", "--x", "1e-5000")
    assert (code, out, err) == (0, "1/5" + "0" * 4999 + "\n", "")
    code, out, err = run(capsys, "orbit", "--system", "tent", "--x", "1e-5000", "--steps", "2")
    assert (code, err) == (0, "")
    assert out.split("\n") == ["step,num,den,approx", "0,1,1" + "0" * 5000 + ",0.0",
                               "1,1,5" + "0" * 4999 + ",0.0", "2,1,25" + "0" * 4998 + ",0.0", ""]
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("command", [
    ["graph-orbit", "--steps", "1", "--start", "{}:1/2"],
    ["fiber", "--x", "1/2", "--arc", "{}"],
], ids=["graph-orbit", "fiber"])
@pytest.mark.parametrize("index,message", [
    ("\u00b2", "unknown arc '\u00b2'"),  # a superscript two: str.isdigit, but no ASCII digit
    ("1" + "0" * 4999, f"arc index {SIZED} out of range 1..3"),
], ids=["superscript", "past-the-digit-limit"])
def test_an_arc_index_is_read_from_ascii_digits_of_any_length(capsys, k3_file, command,
                                                              index, message):
    argv = [a.format(index) for a in command]
    code, out, err = run(capsys, *argv, "--file", k3_file)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text,token,arc", [
    ("node a\nnode b\narc 7 a b\n", "7", 1),
    ("node a\nnode b\narc 7 a b\n", "1", 1),
    ("node a\nnode b\narc 2 a b\narc 1 b a\n", "1", 2),
    ("node a\nnode b\narc 2 a b\narc 1 b a\n", "2", 1),
], ids=["id-7", "index-1", "id-1-of-arcs-2-1", "id-2-of-arcs-2-1"])
def test_an_arc_whose_id_is_all_digits_is_named_by_it(capsys, tmp_path, text, token, arc):
    # an exact arc id wins over the index of the same digits; other digits
    # are still an index
    path = tmp_path / "digits.graph"
    path.write_text(text)
    sys_ = graphs.graph_system(graphs.parse_graph(text))
    start = graphs.Interior(arc, Fraction(1, 3))
    rows = [(0, start), (1, graphs.graph_step(sys_, start))]
    orbit = "step,arc_or_node,t_num,t_den,approx\n" + "".join(
        f"{k},{sys_.spec.arc(p.arc).id},{p.t.numerator},{p.t.denominator},{float(p.t)!r}\n"
        for k, p in rows)
    assert run(capsys, "graph-orbit", "--file", str(path), "--start", f"{token}:1/3",
               "--steps", "1") == (0, orbit, "")
    fiber = "".join(f"{w}\n" for w in sys_.encode(start))
    assert run(capsys, "fiber", "--file", str(path), "--arc", token, "--x", "1/3") == (0, fiber, "")
    index = len(sys_.spec.arcs) + 1  # digits that name no arc are an index
    for argv in (["graph-orbit", "--steps", "1", "--start", f"{index}:1/3"],
                 ["fiber", "--x", "1/3", "--arc", str(index)]):
        assert run(capsys, *argv, "--file", str(path)) == (
            2, "", f"error: arc index {index} out of range 1..{index - 1}\n")


def test_an_arc_index_with_leading_zeros_is_read(capsys, k3_file):
    assert cli._resolve_arc(cli._load_graph(k3_file), "0" * 600 + "2") == 2


LONG = "1" + "0" * 5000  # an integer past int()'s 4300-digit limit
PAST_LIMIT = "a 5001-character number exceeds the 4,300-digit limit"


@pytest.mark.parametrize("text,message", [
    (LONG, PAST_LIMIT),
    ("x" * 300, f"not a rational: {'x' * 256!r}... (300 characters)"),
], ids=["past-the-digit-limit", "long-text"])
def test_a_long_text_is_named_by_its_length(capsys, text, message):
    with pytest.raises(SystemExit) as exc:
        main(["fiber", "--x", text])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"\nsymchaos fiber: error: argument --x: {message}\n")


def test_a_start_past_the_digit_limit_is_named_by_its_length(capsys, k3_file):
    code, out, err = run(capsys, "graph-orbit", "--file", k3_file, "--start", f"E1:{LONG}",
                         "--steps", "1")
    assert (code, out, err) == (2, "", f"error: {PAST_LIMIT}\n")


LONG_START = f"{'x' * 256!r}... (5000 characters)"


@pytest.mark.parametrize("start,message", [
    ("x" * 5000, f"malformed start {LONG_START}; expected ARC:p/q or node:ID"),
    ("node:" + "x" * 5000, f"unknown node {LONG_START}"),
    ("x" * 5000 + ":1/2", f"unknown arc {LONG_START}"),
], ids=["malformed", "node", "arc"])
def test_a_long_start_is_quoted_by_its_length(capsys, k3_file, start, message):
    code, out, err = run(capsys, "graph-orbit", "--file", k3_file, "--start", start,
                         "--steps", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err.encode()) < 400


# each integer option with a command that reads it, and the name its bound check gives it
INTEGER_OPTIONS = [
    (("orbit", "--system", "tent", "--x", "1/3", "--steps"), "--steps"),
    (("graph-orbit", "--file", "K3", "--start", "E1:1/3", "--steps"), "--steps"),
    (("verify", "--system", "tent", "--property", "lemma6", "--max-period"), "max_period"),
    (("verify", "--system", "tent", "--property", "dense-orbit", "--resolution"), "resolution"),
    (("verify", "--system", "tent", "--property", "dense-orbit", "--steps"), "steps"),
    (("verify", "--system", "tent", "--property", "transitivity", "--horizon"), "horizon"),
    (("verify", "--system", "tent", "--property", "sensitivity", "--grid"), "grid"),
    (("conjugacy", "--length"), "--length"),
]


@pytest.mark.parametrize("argv,name", INTEGER_OPTIONS,
                         ids=[f"{argv[0]}{argv[-1]}" for argv, _ in INTEGER_OPTIONS])
def test_an_integer_option_is_read_from_ascii_digits_of_any_length(capsys, k3_file, argv, name):
    # a value past int()'s digit limit reaches its bound check, named by its size
    argv = [k3_file if a == "K3" else a for a in argv]
    code, out, err = run(capsys, *argv, "9" * 5000)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name} a fraction with a 16610-bit numerator")
    assert err.count("\n") == 1 and len(err.encode()) < 400
    # a sign, a space, an underscore or a digit outside ASCII is no integer
    for text in ("\u0663", "+5", " 8", "1_0", "x" * 300):
        with pytest.raises(SystemExit) as exc:
            main([*argv, text])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f": error: argument {argv[-1]}: invalid int value: "
                            f"{cli._quote(text)}\n")


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # every in-process call used to build the seven parsers again; then the
    # first call built all seven to run one command
    # (the full parser is the one whose prog is "symchaos")
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    cli._command_parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as first:
            main(["eval", "--system", "tent", "--x", "five"])
        usage = capsys.readouterr()
        for _ in range(3):
            assert run(capsys, "eval", "--system", "tent", "--x", "1/4") == (0, "1/2\n", "")
            assert run(capsys, "conjugacy", "--length", "2") == (
                0, "length 2: 4 prefixes checked, 4 agree on 1 bits, 0 mismatches\n", "")
        with pytest.raises(SystemExit) as again:
            main(["eval", "--system", "tent", "--x", "five"])
        assert (first.value.code, again.value.code) == (2, 2)
        assert capsys.readouterr() == usage
        assert usage.err.startswith("usage: symchaos eval [-h]")
        # a well-formed command builds its own parser alone, once
        assert built == ["symchaos eval", "symchaos conjugacy"]
        # arguments left over are named by the full parser, built once
        for _ in range(2):
            with pytest.raises(SystemExit) as leftover:
                main(["eval", "--system", "tent", "--x", "1/4", "--bogus"])
            out, err = capsys.readouterr()
            assert (leftover.value.code, out) == (2, "")
            assert err.startswith("usage: symchaos [-h] {eval,orbit,")
            assert err.endswith("\nsymchaos: error: unrecognized arguments: --bogus\n")
        assert built.count("symchaos") == 1
        assert built[2:] == ["symchaos", *(f"symchaos {c}" for c in cli._COMMANDS)]
    finally:
        cli._parser.cache_clear()
        cli._command_parser.cache_clear()


def test_a_verify_call_builds_one_parser_and_imports_no_copy():
    # in a fresh interpreter: the verify parser alone is built, and printing
    # the report deep-copies it without the copy module
    import os
    import subprocess

    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import argparse, contextlib, io, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "built, init = [], argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(kwargs['prog'])\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from symchaos import cli\n"
            "argv = ['verify', '--system', 'tent', '--property', 'periodic-density',\n"
            "        '--max-period', '6', '--resolution', '3']\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(argv)\n"
            "assert '\"verdict\": \"pass\"' in out.getvalue(), out.getvalue()\n"
            "print(code, built, 'copy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "0 ['symchaos verify'] False\n"


# ------------------------------------------------------------ parse path

# option values that most options refuse: huge, Unicode, non-finite or no number
ODD = st.sampled_from(["1e5000", "-1e5000", "1e-5000", "9" * 5000, "1" + "0" * 5000, "\u0663",
                       "\u00b2", "nan", "inf", "-inf", "1/0", "+5", " 8", "1_0", "0.25", "abc",
                       "", "x" * 300, "-", "--", "-h", "--x", "bogus", "E1:1/3"])
# unknown, abbreviated and ambiguous options, help, the end of options, and
# extra positionals
NOISE = st.sampled_from(["--bogus", "--sys", "--s", "--e", "--f", "--st", "--max", "-x", "-h",
                         "--help", "--", "extra", "--x", "--steps=3", "--eta=-1e5000"]) | ODD
ODD_COMMAND = st.sampled_from(["evl", "Eval", "", "-h", "--help", "--", "--bogus", "--system"])
INTEGER = st.integers(-10 ** 6, 10 ** 6).map(str)
RATIONAL = st.fractions(max_denominator=10 ** 6).map(str)
TEXT = st.sampled_from(["k3.graph", "E1:1/3", "node:a", "2", "E2"])
EVAL_SYSTEM = st.sampled_from(sorted(cli.EVAL_SYSTEMS))
FORMAT = st.sampled_from(["csv", "json"])
# each command's options: (a value it takes, whether it is required)
PARSE_OPTIONS = {
    "eval": {"--system": (EVAL_SYSTEM, True), "--x": (RATIONAL, True)},
    "orbit": {"--system": (EVAL_SYSTEM, True), "--x": (RATIONAL, True),
              "--steps": (INTEGER, True), "--format": (FORMAT, False)},
    "graph-orbit": {"--file": (TEXT, True), "--start": (TEXT, True),
                    "--steps": (INTEGER, True), "--format": (FORMAT, False)},
    "verify": {"--system": (st.sampled_from(["tent", "baker", "graph"]), True),
               "--file": (TEXT, False),
               "--property": (st.sampled_from(list(cli.VERIFY_PROPERTIES)), True),
               **{name: (INTEGER, False) for name in ("--max-period", "--resolution",
                                                      "--steps", "--horizon", "--grid")},
               "--eta": (RATIONAL, False), "--delta": (RATIONAL, False)},
    "conjugacy": {"--length": (INTEGER, True)},
    "fiber": {"--x": (RATIONAL, True), "--file": (TEXT, False), "--arc": (TEXT, False)},
}


@st.composite
def argvs(draw):
    """argv for a command: its required options and some others, in any
    order, each as two words or joined by '='.  Half the time it is also
    odd: an unknown command, a value the option refuses, a required option
    left out, or noise words anywhere."""
    odd = draw(st.booleans())

    def sometimes() -> bool:  # true at one draw in four when odd
        return odd and draw(st.integers(0, 3)) == 0

    command = draw(ODD_COMMAND if sometimes() else st.sampled_from(list(cli._COMMANDS)))
    options = PARSE_OPTIONS.get(command, PARSE_OPTIONS["verify"])
    names = [name for name, (_, required) in options.items()
             if (required and not sometimes()) or (not required and draw(st.booleans()))]
    argv = [command]
    for name in draw(st.permutations(names)):
        value = draw(ODD if sometimes() else options[name][0])
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    for _ in range(draw(st.integers(0, 2)) if odd else 0):
        argv.insert(draw(st.integers(0, len(argv))), draw(NOISE))
    return argv


def _parsed(parse, argv):
    """What parse(argv) returns or its exit code, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


FULL_PARSER = cli._parser.__wrapped__()


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_the_one_command_parse_is_that_of_the_full_parser(argv):
    # parse only: no command runs; main parses argv as cli._signed leaves it
    for words in (argv, cli._signed(argv)):
        assert _parsed(cli._parse, words) == _parsed(FULL_PARSER.parse_args, words)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["evl"], ["--", "eval"], ["eval", "-h"], ["verify", "--s", "3"],
    ["eval", "--system", "tent", "--x", "1/3", "extra"], ["eval", "--sys", "tent", "--x=1/3"],
    ["eval", "--system", "tent", "--", "--x", "1/3"], ["conjugacy", "--length", "\u0663"],
    ["verify", "--system", "tent", "--property", "sensitivity", "--eta=-1e5000"],
], ids=repr)
def test_the_one_command_parse_on_the_usage_paths(argv):
    assert _parsed(cli._parse, argv) == _parsed(FULL_PARSER.parse_args, argv)


NEGATIVE_VALUES = [
    ("eval", "--system", "tent", "--x", "-1/3"),
    ("orbit", "--system", "tent", "--steps", "2", "--x", "-0.5"),
    ("fiber", "--x", "-1e3"),
    ("verify", "--system", "tent", "--property", "sensitivity", "--eta", "-1/3"),
    ("verify", "--system", "tent", "--property", "sensitivity", "--delta", "-1/3"),
    # a unique '--' abbreviation names its option, as argparse reads it
    ("verify", "--system", "tent", "--property", "sensitivity", "--e", "-1/3"),
    ("verify", "--system", "tent", "--property", "sensitivity", "--del", "-1/3"),
]


@pytest.mark.parametrize("argv", NEGATIVE_VALUES, ids=" ".join)
def test_a_negative_rational_value_reads_as_its_joined_form(capsys, argv):
    # argparse takes a lone '-1/3' for an option ("expected one argument");
    # '--x=-1/3' was always read as a value, and refused by the command
    joined = run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert joined[0] == 2 and joined[1] == "" and joined[2].startswith("error: ")
    assert run(capsys, *argv) == joined


@pytest.mark.parametrize("argv", [
    [], ["--x", "-1/3"], ["evl", "--x", "-1/3"], ["eval", "--x", "-h"],
    ["eval", "--x", "--system"], ["eval", "--x", "-"], ["eval", "--x", "-x"],
    ["eval", "--system", "tent", "--", "--x", "-1/3"], ["orbit", "--eta", "-1/3"],
    ["verify", "--steps", "-5"], ["verify", "--x", "-1/3"],
    ["eval", "--system", "-1/3"], ["fiber", "--x=-1/3", "-1/3"], ["verify", "--s", "-1/3"],
], ids=repr)
def test_only_a_rational_option_takes_a_negative_value_joined(argv):
    assert cli._signed(argv) == argv


# ------------------------------------------------------------ CI twins

def test_graph_sensitivity_at_grid_4096_exits_one(capsys, k3_file):
    # fails at the three grid points next to the arc tails
    code, out, err = run(capsys, "verify", "--system", "graph", "--file", k3_file,
                         "--property", "sensitivity", "--grid", "4096", "--horizon", "40",
                         "--eta", "1/2")
    assert (code, err) == (1, "")
    assert json.loads(out)["witnesses"] == [{"arc": a, "t": "1/8192"} for a in ("E1", "E2", "E3")]


def test_interval_transitivity_at_its_resolution_cap_in_bounded_memory():
    # the CLI in a fresh interpreter, measured by a parent of its own so no
    # other child of this process counts: each distinct point is mapped once
    # as a lowest-terms pair, and the memo of the 65,536 points peaked at
    # 29-38 MB
    import os
    import subprocess

    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import resource, subprocess, sys\n"
            "argv = [sys.executable, '-m', 'symchaos.cli', 'verify', '--system', 'tent',\n"
            "        '--property', 'transitivity', '--resolution', '8', '--horizon', '40']\n"
            "out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout\n"
            "assert '\"witnessed\": 65536' in out, out\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stderr) == (0, "")
    assert float(done.stdout) < 64, done.stdout


@pytest.mark.parametrize("system", [["graph", "--file", "K3"], ["baker"]], ids=["k3", "baker"])
def test_lemma6_at_its_caps_in_a_fresh_interpreter(k3_file, system):
    # from the command line in a fresh interpreter, within 10 s: only the
    # constant and pinned words are checked, and the orbit reads no bit of
    # the dense word
    import os
    import subprocess

    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = [sys.executable, "-m", "symchaos.cli", "verify", "--system",
            *(k3_file if a == "K3" else a for a in system),
            "--property", "lemma6", "--max-period", "24", "--steps", "1000000"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stderr) == (0, "")
    assert '"periodic_words": 33545716\n' in done.stdout


def _fresh_python(*argv, timeout, stdin=None):
    """python with these arguments in a fresh interpreter that imports this
    symchaos: its exit code, stdout and stderr."""
    import os
    import subprocess

    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, *argv], input=stdin,
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=src))
    return done.returncode, done.stdout, done.stderr


def _fresh_cli(*argv, timeout, stdin=None):
    """One symchaos command in a fresh interpreter: its exit code, stdout
    and stderr."""
    return _fresh_python("-m", "symchaos.cli", *argv, timeout=timeout, stdin=stdin)


@pytest.mark.parametrize("argv", [
    ["orbit", "--system", "tent", "--x", "1/3", "--steps", "100000"],
    ["orbit", "--system", "induced-baker", "--x", "1/3", "--steps", "100000",
     "--format", "json"],
    ["graph-orbit", "--file", "K3", "--start", "E2:1/3", "--steps", "100000"],
    ["graph-orbit", "--file", "K3", "--start", "E2:1/3", "--steps", "100000",
     "--format", "json"],
    ["verify", "--system", "tent", "--property", "dense-orbit", "--steps", "1",
     "--resolution", "16"],
], ids=["orbit-csv", "orbit-json", "graph-orbit-csv", "graph-orbit-json", "verify"])
def test_a_closed_stdout_exits_2_without_a_traceback(k3_file, argv):
    # the reader leaves after the first line, as `| head -1` does: the
    # command cannot write the rest, which is an output error, exit 2, and
    # the rows or report still buffered are not written at exit
    import subprocess

    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = [k3_file if a == "K3" else a for a in argv]
    child = subprocess.Popen([sys.executable, "-m", "symchaos.cli", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
    first = child.stdout.readline()
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert first in ("step,num,den,approx\n", "step,arc_or_node,t_num,t_den,approx\n",
                     "[\n", "{\n")
    assert (child.returncode, err) == (2, "error: stdout closed\n")


def test_graph_periodic_density_at_the_max_period_bound(k3_file):
    # counted, not enumerated: 2^25 words would not finish in a minute
    code, out, err = _fresh_cli("verify", "--system", "graph", "--file", k3_file,
                                "--property", "periodic-density", "--max-period", "24",
                                "--resolution", "16", timeout=60)
    assert (code, err) == (0, "")
    assert '"periodic_points": 33545716,' in out


def test_control_periodic_density_at_its_cap_in_a_fresh_interpreter():
    # the rotation decodes each primitive block once, and its cells are
    # searched as the induced systems' are
    code = ("from symchaos.verifier import periodic_density, rotation_target\n"
            "report = periodic_density(rotation_target(), 16, 8)\n"
            "assert report.params['periodic_points'] == 130485 and report.passed(), "
            "report.params\n")
    assert _fresh_python("-c", code, timeout=60) == (0, "", "")


def test_conjugacy_at_length_16():
    # every prefix of twice the golden's length, with the exact summary
    assert _fresh_cli("conjugacy", "--length", "16", timeout=60) == (
        0, "length 16: 65536 prefixes checked, 65536 agree on 15 bits, 0 mismatches\n", "")


def test_graph_orbit_at_scale_ends_where_the_closed_form_does(k3_file):
    # at the step cap within 120 s and in flat memory: every step goes
    # through the fibers, and the last row must be that of the closed form
    # graph_step, iterated as many times
    line, peak_mb = measured.last_line_and_peak(measured.cli(
        "graph-orbit", "--file", k3_file, "--start", "E1:5/13", "--steps", "1000000"), 120)
    assert line == "1000000,E1,2,13,0.15384615384615385"
    sys_, pt = cli._load_graph(k3_file), graphs.Interior(1, Fraction(5, 13))
    for _ in range(1000000):
        pt = graphs.graph_step(sys_, pt)
    assert line == (f"1000000,{sys_.spec.arc(pt.arc).id},{pt.t.numerator},{pt.t.denominator},"
                    f"{float(pt.t)}")
    assert peak_mb < 64, peak_mb


@pytest.mark.parametrize("system", ["tent", "baker"])
def test_induced_orbit_on_a_499991_bit_period_ends_on_the_closed_form_row(system):
    # each step maps the tail s/999983 in closed form and never builds the
    # period block (baker's tests for its pinned fiber at each step); the
    # last row must equal the closed form's, each run within 60 s
    rows = [measured.last_line_and_peak(
        measured.cli("orbit", "--system", name, "--x", "1/999983", "--steps", "200000"), 60)
        for name in (f"induced-{system}", system)]
    assert [line for line, _ in rows] == ["200000,7568,999983,0.007568128658187189"] * 2
    assert max(peak_mb for _, peak_mb in rows) < 64, rows


def test_orbit_at_its_step_cap_in_flat_memory():
    # each row is printed as it is made, within 60 s; holding every row took
    # 269 MB
    line, peak_mb = measured.last_line_and_peak(measured.cli(
        "orbit", "--system", "tent", "--x", "1/3", "--steps", "1000000"), 60)
    assert line == "1000000,2,3,0.6666666666666666"
    assert peak_mb < 64, peak_mb


def test_fiber_of_a_million_bit_period_prints_and_reads_back():
    # the one printed word is ':' and the period block of 999999/1000003,
    # written out in one pass; unpacking it bit by bit took 15-24 s
    import os
    import subprocess

    code, out, err = _fresh_cli("fiber", "--x", "999999/1000003", timeout=10)
    assert (code, err) == (0, "")
    assert out.count("\n") == 1 and out.endswith("\n")
    assert out[0] == ":" and len(out) == 1000004
    assert set(out[1:-1]) <= {"0", "1"}
    # and read back by parse_word in one int conversion; the word from bits
    # (q = 2^1000002 - 1) and the word from the value (q = 1000003) are one
    # set member under the one hash rule
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "from symchaos.words import bits_of, parse_word\n"
            "a = parse_word(sys.stdin.read())\n"
            "b = bits_of(Fraction(999999, 1000003))[0]\n"
            "assert (a.q, b.q) == ((1 << 1000002) - 1, 1000003)\n"
            "assert a == b and hash(a) == hash(b) and len({a, b}) == 1\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", code], input=out, capture_output=True,
                          text=True, timeout=10, env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_periods_past_any_factoring_bound():
    # the order of 2 is one search bounded by 2^24: 2^89 - 1 is a prime that
    # Miller-Rabin with fixed bases cannot prove, and the period of
    # 1/((2^89 - 1)(2^61 - 1)) is 5,429 bits
    assert _fresh_cli("fiber", "--x", "1/618970019642690137449562111", timeout=10) == (
        0, ":" + "0" * 88 + "1\n", "")
    den = "1427247692705959880439315947500961989719490561"
    assert _fresh_cli("eval", "--system", "induced-tent", "--x", f"1/{den}", timeout=10) == (
        0, f"2/{den}\n", "")


def test_dense_orbit_at_the_step_bound_in_a_fresh_interpreter():
    # the windows of each chunk of the dense word at once, and a search of
    # the rest of it for the last cells
    code, out, err = _fresh_cli("verify", "--system", "tent", "--property", "dense-orbit",
                                "--steps", "1000000", "--resolution", "16", timeout=60)
    assert (code, err) == (0, "")
    assert '"full_coverage_step": 794612,' in out


def test_graph_orbit_into_a_two_word_node_fiber(capsys, k3_file):
    # E1:3/4 shifts to 110^inf on E3 and 101^inf on E2, both node c
    code, out, err = run(capsys, "graph-orbit", "--file", k3_file, "--start", "E3:3/8",
                         "--steps", "4")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "4,c,,,"


# ------------------------------------------------------------ cold start

def test_import_loads_no_dataclasses_or_inspect():
    # every symchaos run pays its import; dataclasses alone pulled in
    # inspect, ast, dis and tokenize, about a third of it
    import os
    import subprocess

    import symchaos

    src = os.path.dirname(symchaos.__path__[0])
    code = ("import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import symchaos, symchaos.cli\n"
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
            "               if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")


# ------------------------------------------------- commands run on drawn input

# ASCII digits and other Unicode decimal digits, which Fraction reads too
DIGIT = st.sampled_from("0123456789٣٧३１")
# exponents inside the bound, at it, past it, and past int()'s digit limit
# (a point at 10^-10000 takes fiber about a second to refuse, and
# test_a_decimal_exponent_is_read_up_to_its_bound reads it)
EXPONENT = st.sampled_from(["0", "1", "-1", "+7", "-30", "-300", "5000", "10000", "10001",
                            "-10001", "-999999999", "1" + "0" * 40, "-" + "9" * 5000, "1_0", ""])
SPECIAL_NUMBERS = st.sampled_from(["nan", "-inf", "inf", "Infinity", "1/0", "0/0", " 1/2 ", "",
                                   "e5", ".", "/", "½", "1/-2", "0x10", "1__0", "-0"])
# text a message quotes, with no whitespace to split it: printable, escaped
# and multi-byte characters, mixed or in runs up to past the quoted length
QUOTED_CHAR = st.sampled_from("a_1\x00\x01é€😀\U000e0001'\"\\")
QUOTED_TEXT = st.text(QUOTED_CHAR, max_size=300) | st.builds(
    str.__mul__, QUOTED_CHAR, st.sampled_from([60, 120, 256, 257, 300]))
POINT_TEXT = st.fractions(0, 1, max_denominator=10 ** 4).map(str)


@st.composite
def number_texts(draw):
    """A rational as text in every form: p/q, a decimal, with an exponent
    or both, signed or not, of short or long digit runs (at and past
    int()'s digit limit), a special word, any text, or a point of [0, 1]."""
    def digits():
        if draw(st.integers(0, 5)) == 0:
            return draw(DIGIT) * draw(st.sampled_from([300, 4301, 5000]))
        return draw(st.text(DIGIT, min_size=1, max_size=6))

    sign = draw(st.sampled_from(["", "-", "+"]))
    form = draw(st.integers(0, 6))
    if form == 0:
        return f"{sign}{digits()}/{digits()}"
    if form == 1:
        return f"{sign}{digits()}.{digits()}"
    if form in (2, 3):
        mantissa = digits() if form == 2 else f"{digits()}.{digits()}"
        return f"{sign}{mantissa}{draw(st.sampled_from('eE'))}{draw(EXPONENT)}"
    return draw([SPECIAL_NUMBERS, st.text(max_size=12) | QUOTED_TEXT, POINT_TEXT][form - 4])


GRAPH_LINE = st.one_of(
    st.sampled_from(["node a", "node b", "node c", "arc E1 a b", "arc E2 b c", "arc E3 c a",
                     "arc E4 a a", "arc E5 b a", "# a comment", "", "node", "arc E1 a",
                     "node a b", "nod a", "node a # b", "arc E6 a z"]),
    st.builds("{} {}".format, st.sampled_from(["node", "arc E9 a", "#", ""]), QUOTED_TEXT),
    st.text(max_size=20))


@st.composite
def graph_files(draw):
    """A graph file: an example graph with a few drawn lines put in, or
    drawn lines alone, mostly well formed, joined by a line break; or any
    bytes."""
    form = draw(st.integers(0, 3))
    if form == 0:
        return draw(st.binary(max_size=64))
    lines = draw(st.lists(GRAPH_LINE, max_size=10 if form == 1 else 1))
    if form > 1:
        example = EXAMPLE_GRAPHS[draw(st.sampled_from(sorted(EXAMPLE_GRAPHS)))].splitlines()
        lines = example + lines if form == 2 else lines + example
    return draw(st.sampled_from(["\n", "\r\n", "\x85"])).join(lines).encode()


STEPS = st.sampled_from(["0", "1", "2", "3"])
ARC = st.sampled_from(["E1", "E2", "E5", "E9", "1", "2", "3", "0", ""])
# settings whose names a message must not pass on to a user
INTERPRETER_SETTINGS = ("int_max_str_digits", "INTMAXSTRDIGITS", "sys.set_", "recursion")


def _run_command(argv, graph=None, path=None):
    """main(argv) in-process, after writing the graph file where its path
    can hold one: its exit code (argparse's SystemExit too), stdout and
    stderr."""
    if graph is not None:
        with contextlib.suppress(OSError), open(path, "wb") as fh:
            fh.write(graph)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_message(argv, err):
    """stderr empty, or one line of under 400 bytes that names no
    interpreter setting, after argparse's usage when it reports."""
    usage = cli._command_parser(argv[0]).format_usage()
    message = err[len(usage):] if err.startswith(usage) else err
    assert message == "" or (message.endswith("\n") and message.count("\n") == 1), (argv, err)
    assert len(message.encode()) < 400, (argv, message)
    assert not any(name in message for name in INTERPRETER_SETTINGS), (argv, message)


def _check_run(argv, code, out, err):
    """Exit 0, 1 or 2, stderr as _check_message reads it, and empty exactly
    on exit 0."""
    assert code in (0, 1, 2), (argv, code, err)
    _check_message(argv, err)
    assert (code == 0) == (err == ""), (argv, code, err)


@contextlib.contextmanager
def _no_digit_limit():
    """int()'s digit limit lifted: the CLI prints an exact result of any length."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _rows(out, fmt):
    """Orbit rows as the format reads them back."""
    return json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(cli.EVAL_SYSTEMS)), number_texts(), st.booleans(), STEPS, FORMAT)
def test_eval_and_orbit_on_drawn_numbers_exit_as_documented(system, x, orbit, steps, fmt):
    argv = (["orbit", "--system", system, "--x", x, "--steps", steps, "--format", fmt] if orbit
            else ["eval", "--system", system, "--x", x])
    code, out, err = _run_command(argv)
    _check_run(argv, code, out, err)
    with _no_digit_limit():
        if code == 0 and orbit:
            rows = _rows(out, fmt)
            assert [int(row["step"]) for row in rows] == list(range(int(steps) + 1))
            assert all(0 <= Fraction(int(row["num"]), int(row["den"])) <= 1 for row in rows)
        elif code == 0:
            assert 0 <= Fraction(out.strip()) <= 1 and out.count("\n") == 1


@pytest.fixture(scope="module")
def drawn_graph_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("drawn") / "drawn.graph")


# a graph file's name, drawn beside drawn.graph: line breaks, escaped and
# multi-byte characters, a directory, and runs past the 255-byte name limit
PATH_CHAR = st.sampled_from("a_.\n\x01 é😀'\\/")
FILE_NAME = st.none() | st.text(PATH_CHAR, min_size=1, max_size=12) | st.builds(
    str.__mul__, PATH_CHAR, st.sampled_from([120, 300]))


def _drawn_path(drawn_graph_path, name):
    return drawn_graph_path if name is None else os.path.join(
        os.path.dirname(drawn_graph_path), name)


@settings(max_examples=150, deadline=None)
@given(number_texts() | POINT_TEXT, st.one_of(st.none(), graph_files()), ARC, FILE_NAME)
def test_fiber_on_drawn_numbers_and_graph_files_exits_as_documented(drawn_graph_path, x,
                                                                     graph, arc, name):
    path = _drawn_path(drawn_graph_path, name)
    argv = ["fiber", "--x", x]
    if graph is not None:
        argv += ["--file", path, "--arc", arc]
    code, out, err = _run_command(argv, graph, path)
    _check_run(argv, code, out, err)
    if code == 0:
        words = [parse_word(line) for line in out.splitlines()]
        assert words and len(set(words)) == len(words)


@settings(max_examples=150, deadline=None)
@given(graph_files(), st.one_of(st.builds("{}:{}".format, ARC, number_texts() | POINT_TEXT),
                                st.sampled_from(["node:a", "node:c", "node:z", "node:", "a"])),
       STEPS, FORMAT, FILE_NAME)
def test_graph_orbit_on_drawn_graph_files_exits_as_documented(drawn_graph_path, graph, start,
                                                               steps, fmt, name):
    path = _drawn_path(drawn_graph_path, name)
    argv = ["graph-orbit", "--file", path, "--start", start, "--steps", steps, "--format", fmt]
    code, out, err = _run_command(argv, graph, path)
    _check_run(argv, code, out, err)
    if code == 0:
        with _no_digit_limit():
            rows = _rows(out, fmt)
        assert [int(row["step"]) for row in rows] == list(range(int(steps) + 1))


def _a_slow_length(text):
    """Does text read as a length past 12, whose run takes seconds or more?"""
    try:
        return cli._integer(text) > 12
    except argparse.ArgumentTypeError:
        return False


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(-3, 12).map(str), number_texts(),
                 st.sampled_from(["25", "1" + "0" * 40, "9" * 5000, "-" + "9" * 5000, "1_0",
                                  "+5", " 5", "5 ", "0x5", "٣", "１２", "-", "--", "5.0"]))
       .filter(lambda text: not _a_slow_length(text)))
def test_conjugacy_on_drawn_lengths_exits_as_documented(length):
    argv = ["conjugacy", "--length", length]
    code, out, err = _run_command(argv)
    _check_run(argv, code, out, err)
    assert "Traceback" not in out + err
    if code == 0:
        n = int(length)
        assert out == (f"length {n}: {1 << n} prefixes checked, {1 << n} agree on {n - 1} bits, "
                       "0 mismatches\n")


# an integer option's text: small values, values past a bound, runs of
# digits past int()'s digit limit, Unicode digits, and the texts of rationals
INT_TEXT = st.one_of(
    st.integers(-2, 12).map(str), number_texts(),
    st.sampled_from(["17", "25", "1000001", "1" + "0" * 40, "9" * 5000, "-" + "9" * 5000,
                     "٣", "１２", "+5", " 5", "5.0", "1_0", ""]))
# an integer option: (the largest value drawn runs take, the largest any check takes)
QUICK_AND_BOUND = {"--max-period": (8, 24), "--resolution": (5, 16), "--steps": (2000, 10 ** 6)}


def _a_slow_value(option, text):
    """Does text read as a value of option that a check takes, but which
    takes it a second or more?"""
    if option not in QUICK_AND_BOUND:
        return False
    quick, bound = QUICK_AND_BOUND[option]
    try:
        return quick < cli._integer(text) <= bound
    except argparse.ArgumentTypeError:
        return False


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["tent", "baker", "graph"]), graph_files(),
       st.sampled_from(sorted(cli.VERIFY_PROPERTIES)),
       st.fixed_dictionaries({}, optional={
           "--eta": number_texts(), "--delta": number_texts(), "--max-period": INT_TEXT,
           "--resolution": INT_TEXT, "--steps": INT_TEXT}).filter(
           lambda options: not any(map(_a_slow_value, options, options.values()))),
       st.sampled_from(["1", "2", "4", "16"]), st.sampled_from(["1", "3", "40"]))
def test_verify_on_drawn_values_and_graph_files_exits_as_documented(
        drawn_graph_path, system, graph, prop, options, grid, horizon):
    # a failing check exits 1 with stderr empty, so _check_run's rule that
    # stderr is empty exactly on exit 0 is here: empty exactly below exit 2
    argv = ["verify", "--system", system, "--property", prop, "--grid", grid,
            "--horizon", horizon, *(f"{option}={text}" for option, text in options.items())]
    if system == "graph":
        argv += ["--file", drawn_graph_path]
    code, out, err = _run_command(argv, graph if system == "graph" else None, drawn_graph_path)
    assert code in (0, 1, 2), (argv, code, err)
    _check_message(argv, err)
    assert (code == 2) == (err != ""), (argv, code, err)
    if code == 2:
        assert out == "", (argv, out)
    else:
        report = json.loads(out)
        assert sorted(report) == ["elapsed_ms", "params", "property", "system", "verdict",
                                  "witnesses"], (argv, out)
        assert (report["property"], report["verdict"]) == (prop, ("pass", "fail")[code]), argv


@pytest.mark.parametrize("exponent,read", [("10000", True), ("-10000", True), ("+1_0000", True),
                                           ("10001", False), ("-10001", False),
                                           ("-999999999", False)])
def test_a_decimal_exponent_is_read_up_to_its_bound(exponent, read):
    text = f"0.5e{exponent}"
    if read:
        assert cli._fraction(text) == Fraction(1, 2) * Fraction(10) ** int(exponent)
    else:
        with pytest.raises(argparse.ArgumentTypeError) as err:
            cli._fraction(text)
        assert str(err.value) == f"exponent {int(exponent)} outside [-10^4, 10^4]"
    # a text that is no rational is named as one, whatever its exponent
    with pytest.raises(argparse.ArgumentTypeError, match="^not a rational: "):
        cli._fraction(f"0.5x{text}")
