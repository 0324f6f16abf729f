"""Every resource bound declared through words._within, in the library and
on the command line: one below the least value and one above the bound each
give the exact usage error before any work starts, and an input that breaks
both bounds reports its first value below a least, else its first value above
a bound."""

from fractions import Fraction

import pytest

from symchaos import cli, graphs, interval, streams, verifier, words
from symchaos.graphs import EXAMPLE_GRAPHS, GraphSystem
from symchaos.interval import IntervalCodec
from symchaos.verifier import (
    dense_orbit_coverage,
    lemma6_commute_check,
    periodic_density,
    rotation_target,
    sensitivity_probe,
    tent_target,
    transitivity_witness,
)
from symchaos.words import periodic_words

F = Fraction
TENT = tent_target()
ETA, DELTA = F(1, 4), F(1, 4096)

LIBRARY = [
    (lambda: periodic_density(TENT, 0, 4), "max_period must be at least 1, got 0"),
    (lambda: periodic_density(TENT, 25, 4), "max_period 25 exceeds bound 24"),
    (lambda: periodic_density(TENT, 4, 0), "resolution must be at least 1, got 0"),
    (lambda: periodic_density(TENT, 4, 17), "resolution 17 exceeds bound 16"),
    # a control decodes every block of at most max_period bits
    (lambda: periodic_density(rotation_target(), 17, 4), "max_period 17 exceeds bound 16"),
    (lambda: dense_orbit_coverage(TENT, 0, 4), "steps must be at least 1, got 0"),
    (lambda: dense_orbit_coverage(TENT, 10 ** 6 + 1, 4), "steps 1000001 exceeds bound 10^6"),
    (lambda: dense_orbit_coverage(TENT, 100, 0), "resolution must be at least 1, got 0"),
    (lambda: dense_orbit_coverage(TENT, 100, 17), "resolution 17 exceeds bound 16"),
    (lambda: transitivity_witness(TENT, 0, 10), "resolution must be at least 1, got 0"),
    (lambda: transitivity_witness(TENT, 9, 10), "resolution 9 exceeds bound 8"),
    (lambda: transitivity_witness(TENT, 2, 0), "horizon must be at least 1, got 0"),
    (lambda: transitivity_witness(TENT, 2, 10 ** 6 + 1), "horizon 1000001 exceeds bound 10^6"),
    (lambda: sensitivity_probe(TENT, ETA, DELTA, 0, 10), "grid must be at least 1, got 0"),
    (lambda: sensitivity_probe(TENT, ETA, DELTA, 4097, 10), "grid 4097 exceeds bound 2^12"),
    (lambda: sensitivity_probe(TENT, ETA, DELTA, 8, 0), "horizon must be at least 1, got 0"),
    (lambda: sensitivity_probe(TENT, ETA, DELTA, 8, 10 ** 6 + 1),
     "horizon 1000001 exceeds bound 10^6"),
    (lambda: lemma6_commute_check(TENT, 0, 10), "max_period must be at least 1, got 0"),
    (lambda: lemma6_commute_check(TENT, 25, 10), "max_period 25 exceeds bound 24"),
    (lambda: lemma6_commute_check(TENT, 4, -1), "orbit_steps must be at least 0, got -1"),
    (lambda: lemma6_commute_check(TENT, 4, 10 ** 6 + 1),
     "orbit_steps 1000001 exceeds bound 10^6"),
    (lambda: periodic_words(0), "n must be at least 1, got 0"),
    (lambda: periodic_words(25), "n 25 exceeds bound 24"),
    # two bad values: every least comes before every bound, each in argument order
    (lambda: periodic_density(TENT, 25, 0), "resolution must be at least 1, got 0"),
    (lambda: periodic_density(TENT, 0, 0), "max_period must be at least 1, got 0"),
    (lambda: periodic_density(rotation_target(), 17, 17), "max_period 17 exceeds bound 16"),
    (lambda: sensitivity_probe(TENT, ETA, DELTA, 4097, 10 ** 6 + 1),
     "grid 4097 exceeds bound 2^12"),
    (lambda: lemma6_commute_check(TENT, 25, -1), "orbit_steps must be at least 0, got -1"),
]

VERIFY = ("verify", "--system", "tent", "--property")
CLI = [
    (("orbit", "--system", "tent", "--x", "1/3", "--steps", "-1"),
     "--steps must be at least 0, got -1"),
    (("orbit", "--system", "tent", "--x", "1/3", "--steps", "1000001"),
     "--steps 1000001 exceeds bound 10^6"),
    (("graph-orbit", "--file", "K3", "--start", "E2:1/3", "--steps", "-1"),
     "--steps must be at least 0, got -1"),
    (("graph-orbit", "--file", "K3", "--start", "E2:1/3", "--steps", "1000001"),
     "--steps 1000001 exceeds bound 10^6"),
    (("conjugacy", "--length", "1"), "--length must be at least 2, got 1"),
    (("conjugacy", "--length", "25"), "--length 25 exceeds bound 24"),
    ((*VERIFY, "periodic-density", "--max-period", "0"), "max_period must be at least 1, got 0"),
    ((*VERIFY, "periodic-density", "--max-period", "25"), "max_period 25 exceeds bound 24"),
    ((*VERIFY, "periodic-density", "--resolution", "0"), "resolution must be at least 1, got 0"),
    ((*VERIFY, "periodic-density", "--resolution", "17"), "resolution 17 exceeds bound 16"),
    ((*VERIFY, "dense-orbit", "--steps", "0"), "steps must be at least 1, got 0"),
    ((*VERIFY, "dense-orbit", "--steps", "1000001"), "steps 1000001 exceeds bound 10^6"),
    ((*VERIFY, "dense-orbit", "--resolution", "0"), "resolution must be at least 1, got 0"),
    ((*VERIFY, "dense-orbit", "--resolution", "17"), "resolution 17 exceeds bound 16"),
    ((*VERIFY, "transitivity", "--resolution", "0"), "resolution must be at least 1, got 0"),
    ((*VERIFY, "transitivity", "--resolution", "9"), "resolution 9 exceeds bound 8"),
    ((*VERIFY, "transitivity", "--horizon", "0"), "horizon must be at least 1, got 0"),
    ((*VERIFY, "transitivity", "--horizon", "1000001"), "horizon 1000001 exceeds bound 10^6"),
    ((*VERIFY, "sensitivity", "--grid", "0"), "grid must be at least 1, got 0"),
    ((*VERIFY, "sensitivity", "--grid", "4097"), "grid 4097 exceeds bound 2^12"),
    ((*VERIFY, "sensitivity", "--horizon", "0"), "horizon must be at least 1, got 0"),
    ((*VERIFY, "sensitivity", "--horizon", "1000001"), "horizon 1000001 exceeds bound 10^6"),
    ((*VERIFY, "lemma6", "--max-period", "0"), "max_period must be at least 1, got 0"),
    ((*VERIFY, "lemma6", "--max-period", "25"), "max_period 25 exceeds bound 24"),
    ((*VERIFY, "lemma6", "--steps", "-1"), "orbit_steps must be at least 0, got -1"),
    ((*VERIFY, "lemma6", "--steps", "1000001"), "orbit_steps 1000001 exceeds bound 10^6"),
    # two bad values
    ((*VERIFY, "periodic-density", "--max-period", "25", "--resolution", "0"),
     "resolution must be at least 1, got 0"),
    ((*VERIFY, "lemma6", "--max-period", "25", "--steps", "1000001"),
     "max_period 25 exceeds bound 24"),
]


# each bounded parameter of each check: (check and parameter, the call with
# that parameter set to v, least, bound as printed)
BOUNDED = [
    ("periodic_density max_period", lambda v: periodic_density(TENT, v, 4), 1, "24"),
    ("periodic_density resolution", lambda v: periodic_density(TENT, 4, v), 1, "16"),
    ("dense_orbit_coverage steps", lambda v: dense_orbit_coverage(TENT, v, 4), 1, "10^6"),
    ("dense_orbit_coverage resolution", lambda v: dense_orbit_coverage(TENT, 100, v), 1, "16"),
    ("transitivity_witness resolution", lambda v: transitivity_witness(TENT, v, 10), 1, "8"),
    ("transitivity_witness horizon", lambda v: transitivity_witness(TENT, 2, v), 1, "10^6"),
    ("sensitivity_probe grid", lambda v: sensitivity_probe(TENT, ETA, DELTA, v, 10), 1, "2^12"),
    ("sensitivity_probe horizon", lambda v: sensitivity_probe(TENT, ETA, DELTA, 8, v), 1,
     "10^6"),
    ("lemma6_commute_check max_period", lambda v: lemma6_commute_check(TENT, v, 10), 1, "24"),
    ("lemma6_commute_check orbit_steps", lambda v: lemma6_commute_check(TENT, 4, v), 0,
     "10^6"),
    ("periodic_words n", periodic_words, 1, "24"),
]
NAN, INF = float("nan"), float("inf")
# NaN compares false with everything, so it fails its least; inf breaks the
# bound and -inf the least, each printed as str
NON_FINITE = [(f"{where}={value}", call, value,
               f"{where.split()[1]} inf exceeds bound {bound}" if value == INF
               else f"{where.split()[1]} must be at least {least}, got {value}")
              for where, call, least, bound in BOUNDED for value in (NAN, INF, -INF)]
NON_FINITE += [
    ("sensitivity_probe eta=nan", lambda v: sensitivity_probe(TENT, v, DELTA, 8, 10), NAN,
     "eta must be positive, got nan"),
    ("sensitivity_probe eta=-inf", lambda v: sensitivity_probe(TENT, v, DELTA, 8, 10), -INF,
     "eta must be positive, got -inf"),
    ("sensitivity_probe delta=nan", lambda v: sensitivity_probe(TENT, ETA, v, 8, 10), NAN,
     "delta must lie strictly between 0 and 1, got nan"),
    ("sensitivity_probe delta=inf", lambda v: sensitivity_probe(TENT, ETA, v, 8, 10), INF,
     "delta must lie strictly between 0 and 1, got inf"),
]


# past 256 bits a value is named by its size: a huge int, float or
# non-integer breaks the bound of every bounded parameter, its negative the
# least; and eta or delta too long to print in the report is named so
SIZED = "a fraction with a {}-bit numerator and a {}-bit denominator"
NEGATIVE = "a negative " + SIZED[2:]
HUGE = [("10^100", 10 ** 100, 333, 1), ("1e300", 1e300, 997, 1),
        ("10^100/3", F(10 ** 100, 3), 333, 2)]
HUGE_VALUES = [(f"{where}={name}", call, value,
                f"{where.split()[1]} {SIZED.format(n, d)} exceeds bound {bound}")
               for where, call, least, bound in BOUNDED for name, value, n, d in HUGE]
HUGE_VALUES += [(f"{where}=-10^100", call, -10 ** 100,
                 f"{where.split()[1]} must be at least {least}, got {NEGATIVE.format(333, 1)}")
                for where, call, least, bound in BOUNDED]
HUGE_VALUES += [
    ("sensitivity_probe eta=-10^100", lambda v: sensitivity_probe(TENT, v, DELTA, 8, 10),
     -10 ** 100, f"eta must be positive, got {NEGATIVE.format(333, 1)}"),
    ("sensitivity_probe eta=10^-5000", lambda v: sensitivity_probe(TENT, v, DELTA, 8, 10),
     F(1, 10 ** 5000), f"eta {SIZED.format(1, 16610)} is too long to print in the report"),
    ("sensitivity_probe delta=10^100", lambda v: sensitivity_probe(TENT, ETA, v, 8, 10),
     10 ** 100, f"delta must lie strictly between 0 and 1, got {SIZED.format(333, 1)}"),
    ("sensitivity_probe delta=10^-5000", lambda v: sensitivity_probe(TENT, ETA, v, 8, 10),
     F(1, 10 ** 5000), f"delta {SIZED.format(1, 16610)} is too long to print in the report"),
]


def _work(*args, **kwargs):
    raise AssertionError("work began before the bounds were checked")


@pytest.fixture
def no_work(monkeypatch):
    """Every place a check, an orbit or an enumeration starts its work
    raises instead."""
    for codec in (IntervalCodec, GraphSystem):
        for name in ("decode", "split_windows", "lattice"):
            monkeypatch.setattr(codec, name, _work)
    for name in ("_kept_blocks", "_returning_blocks", "_integer_branches", "_pinned_periodic",
                 "semiconjugacy_check"):
        monkeypatch.setattr(verifier, name, _work)
    monkeypatch.setattr(streams, "orbit_text", _work)
    for name in ("_tent", "_baker"):
        monkeypatch.setattr(interval, name, _work)
    monkeypatch.setattr(graphs, "lattice_step", _work)
    monkeypatch.setattr(cli, "r_map", _work)
    for name in cli.EVAL_SYSTEMS:
        monkeypatch.setitem(cli.EVAL_SYSTEMS, name, _work)
    return monkeypatch


@pytest.mark.parametrize("call,message", LIBRARY, ids=[m for _, m in LIBRARY])
def test_library_bounds(no_work, call, message):
    no_work.setattr(words.Word, "_from_packed", _work)
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call,value,message", [c[1:] for c in NON_FINITE],
                         ids=[c[0] for c in NON_FINITE])
def test_library_bounds_reject_nan_and_infinity(no_work, call, value, message):
    no_work.setattr(words.Word, "_from_packed", _work)
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == message


@pytest.mark.parametrize("call,value,message", [c[1:] for c in HUGE_VALUES],
                         ids=[c[0] for c in HUGE_VALUES])
def test_library_bounds_reject_huge_values(no_work, call, value, message):
    # a usage error, never an OverflowError, before any work starts
    no_work.setattr(words.Word, "_from_packed", _work)
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == message


@pytest.mark.parametrize("argv,message", CLI, ids=[" ".join(a) for a, _ in CLI])
def test_cli_bounds(no_work, capsys, tmp_path, argv, message):
    k3_file = tmp_path / "k3.graph"
    k3_file.write_text(EXAMPLE_GRAPHS["k3"])
    code = cli.main([str(k3_file) if a == "K3" else a for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

