import functools
import hashlib
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symchaos.graphs
from symchaos import streams, verifier
from symchaos.decomposition import InducedSystem, semiconjugacy_check, word_cells
from symchaos.graphs import (
    EXAMPLE_GRAPHS,
    GraphSystem,
    Interior,
    Node,
    graph_map,
    graph_metric,
    graph_system,
    lattice_step,
    parse_graph,
)
from symchaos.interval import INTERVAL_CODEC, _baker, _tent, baker, tent
from symchaos.streams import StreamWord
from symchaos.words import Word, periodic_words, shift_map
from symchaos.verifier import (
    ChaosReport,
    Target,
    baker_target,
    constant_target,
    dense_orbit_coverage,
    graph_target,
    identity_target,
    lemma6_commute_check,
    periodic_density,
    rotation_target,
    sensitivity_probe,
    tent_target,
    transitivity_witness,
)

import text_reader
from measured import last_line_and_peak
from tuple_cells import all_pairs, as_int, as_pair, pair_json, split_pair
from tuple_lattice import tuple_lattice
from value_cells import point_cells

F = Fraction


def _on_fractions(fmap):
    """A Target.fmap, a map on lowest-terms pairs, as a map on Fractions for
    the Fraction oracles: the tent's and the baker's are the public tent and
    baker, and any other pair map is read on a Fraction's own pair."""
    public = {_tent: tent, _baker: baker}.get(fmap)
    return public or (lambda y: F(*fmap(*y.as_integer_ratio())))


# ------------------------------------------------------------- reports

def test_report_json_round_trip():
    report = periodic_density(tent_target(), 4, 3)
    data = report.to_json()
    assert set(data) == {"system", "property", "params", "verdict",
                        "witnesses", "elapsed_ms"}
    again = ChaosReport(**json.loads(json.dumps(data)))
    assert again.to_json() == data


def test_report_json_is_a_copy():
    report = periodic_density(tent_target(), 2, 7)
    data = report.to_json()
    assert data == dict(zip(ChaosReport._fields, report))
    data["params"]["covered"] = -1
    data["witnesses"][0]["cell"] = -1
    data["witnesses"].clear()
    assert report.params["covered"] == 2 and len(report.witnesses) == 126
    assert report.witnesses[0]["cell"] != -1


def test_pass_reports_have_no_witnesses():
    report = periodic_density(baker_target(), 8, 5)
    assert report.verdict == "pass"
    assert report.witnesses == []


def test_fail_reports_carry_witnesses():
    report = periodic_density(tent_target(), 2, 7)
    assert report.verdict == "fail"
    assert len(report.witnesses) == 126  # only the cells of 0 and 2/3 covered
    assert report.params["covered"] == 2


def test_reports_are_deterministic():
    a = periodic_density(tent_target(), 6, 4).to_json()
    b = periodic_density(tent_target(), 6, 4).to_json()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


# ------------------------------------------------------ periodic density

def test_periodic_density_passes_at_scale():
    assert periodic_density(tent_target(), 12, 7).verdict == "pass"
    assert periodic_density(baker_target(), 12, 7).verdict == "pass"


def test_periodic_density_rotation_control_fails():
    # the rotation has no point of period 1 or 2, so nothing survives
    report = periodic_density(rotation_target(), 2, 4)
    assert report.verdict == "fail"
    assert report.params["periodic_points"] == 0


def test_periodic_density_validates_bounds():
    with pytest.raises(ValueError):
        periodic_density(tent_target(), 30, 4)
    with pytest.raises(ValueError):
        periodic_density(tent_target(), 4, 20)


# ----------------------------------------------------------- dense orbit

def test_dense_orbit_baker():
    report = dense_orbit_coverage(baker_target(), 25000, 8)
    assert report.verdict == "pass"
    assert report.params["covered"] == 256


def test_dense_orbit_too_few_steps_fails():
    report = dense_orbit_coverage(baker_target(), 100, 8)
    assert report.verdict == "fail"
    assert report.params["covered"] < 256
    assert report.witnesses


def test_dense_orbit_requires_symbolic_orbit():
    with pytest.raises(ValueError):
        dense_orbit_coverage(identity_target(), 100, 4)


def test_generator_orbit_is_read_only_under_shift_or_complementing_shift():
    from symchaos.words import r_map

    sys = InducedSystem("r", r_map, INTERVAL_CODEC, pinned_points=(F(1, 2),))
    target = Target("r", tent_target().fmap, INTERVAL_CODEC, tent_target().branches, sys)
    with pytest.raises(ValueError, match="complementing shift"):
        dense_orbit_coverage(target, 100, 4)
    with pytest.raises(ValueError, match="complementing shift"):
        lemma6_commute_check(target, 1, 100)
    # lemma6 decides the orbit by an argument that needs S or C, so it
    # rejects another map with no pinned point too, even at 0 steps
    no_pins = target._replace(induced=InducedSystem("r", r_map, INTERVAL_CODEC))
    with pytest.raises(ValueError, match="complementing shift"):
        lemma6_commute_check(no_pins, 1, 0)


def test_dense_orbit_tent_uses_complementing_iterates():
    report = dense_orbit_coverage(tent_target(), 25000, 6)
    assert report.verdict == "pass"


def test_dense_orbit_graph(k3):
    report = dense_orbit_coverage(graph_target(k3, "k3"), 60000, 5)
    assert report.verdict == "pass"
    assert report.params["cells"] == 96


# ---------------------------------------------------------- transitivity

def test_transitivity_tent_and_baker():
    for target in (tent_target(), baker_target()):
        report = transitivity_witness(target, 4, 20)
        assert report.verdict == "pass"
        assert report.params["witnessed"] == 256


def test_transitivity_identity_control_fails():
    report = transitivity_witness(identity_target(), 2, 10)
    assert report.verdict == "fail"
    # every off-diagonal pair is unwitnessed
    assert len(report.witnesses) == 12


def test_transitivity_graph_routes_through_dense_orbit(k3):
    report = transitivity_witness(graph_target(k3, "k3"), 5, 60000)
    assert report.verdict == "pass"
    assert report.params["route"] == "dense-orbit"


# ----------------------------------------------------------- sensitivity

def test_sensitivity_tent_baker_pass():
    for target in (tent_target(), baker_target()):
        report = sensitivity_probe(target, F(1, 4), F(1, 4096), 64, 40)
        assert report.verdict == "pass"


def test_sensitivity_constant_control_fails():
    report = sensitivity_probe(constant_target(), F(1, 100), F(1, 4096), 16, 10)
    assert report.verdict == "fail"
    assert len(report.witnesses) == 16


def test_sensitivity_identity_control_fails():
    report = sensitivity_probe(identity_target(), F(1, 4), F(1, 4096), 8, 10)
    assert report.verdict == "fail"


def test_sensitivity_graph(k3):
    report = sensitivity_probe(graph_target(k3, "k3"), F(1, 8), F(1, 4096), 16, 40)
    assert report.verdict == "pass"


def test_sensitivity_skips_neighbours_outside_the_interval():
    # from 1/4 and 3/4, the neighbours -1/4 and 5/4 lie outside [0, 1],
    # where the tent map raises; only 3/4 and 1/4 are probed
    report = sensitivity_probe(tent_target(), F(1, 4), F(1, 2), 2, 10)
    assert report.verdict == "pass" and report.params["points"] == 2
    report = sensitivity_probe(tent_target(), F(1, 2), F(1, 2), 2, 10)
    assert report.witnesses == ["1/4", "3/4"]


def test_sensitivity_skips_graph_neighbours_outside_the_arc(k3):
    # t = 1/4 and 3/4 on each arc: t - 1/2 and t + 1/2 leave (0, 1)
    report = sensitivity_probe(graph_target(k3, "k3"), F(1, 8), F(1, 2), 2, 10)
    assert report.verdict == "pass" and report.params["points"] == 6


@pytest.mark.parametrize("delta,grid", [(F(1, 67108879), 8), (F(33554440, 67108879), 1)],
                         ids=["pairs", "no-pair"])
def test_graph_sensitivity_rejects_a_lattice_past_the_period_bound(k3, delta, grid):
    # 2 has order above 2^24 modulo 67108879: the lattice is refused when
    # it is built, even where no neighbour lies on the arc (grid 1, delta
    # above 1/2) and no pair would be measured
    with pytest.raises(ValueError, match=r"^bits_of: the expansion's period exceeds bound 2\^24$"):
        sensitivity_probe(graph_target(k3, "k3"), F(1, 8), delta, grid, 40)


# -------------------------------------------------------------- lemma 6

def test_lemma6_baker():
    report = lemma6_commute_check(baker_target(), 12, 20000)
    assert report.verdict == "pass"
    assert report.params["periodic_in_redirected_fibers"] == 0


def test_lemma6_tent_vacuous():
    report = lemma6_commute_check(tent_target(), 12, 500)
    assert report.verdict == "pass"


def test_lemma6_graph(k3, two_segments):
    for sys, name in ((k3, "k3"), (two_segments, "two-segments")):
        report = lemma6_commute_check(graph_target(sys, name), 8, 2000)
        assert report.verdict == "pass"


def test_lemma6_requires_induced_system():
    with pytest.raises(ValueError):
        lemma6_commute_check(identity_target(), 4, 10)


# ------------------------------------------------ parameter ranges

@pytest.mark.parametrize("call", [
    lambda: periodic_density(tent_target(), 0, 4),
    lambda: periodic_density(tent_target(), 4, 0),
    lambda: dense_orbit_coverage(baker_target(), 0, 4),
    lambda: dense_orbit_coverage(baker_target(), 100, -1),
    lambda: transitivity_witness(tent_target(), 0, 10),
    lambda: transitivity_witness(tent_target(), 2, 0),
    lambda: sensitivity_probe(tent_target(), F(1, 4), F(1, 4096), 0, 10),
    lambda: sensitivity_probe(tent_target(), F(1, 4), F(1, 4096), 8, 0),
    lambda: lemma6_commute_check(baker_target(), 0, 10),
    lambda: lemma6_commute_check(baker_target(), 4, -1),
])
def test_out_of_range_parameters_raise(call):
    with pytest.raises(ValueError, match="must be at least"):
        call()


@pytest.mark.parametrize("call,name", [
    (lambda: dense_orbit_coverage(tent_target(), 100, 17), "resolution"),
    (lambda: dense_orbit_coverage(baker_target(), 100, 40), "resolution"),
    (lambda: lemma6_commute_check(tent_target(), 4, 10 ** 6 + 1), "orbit_steps"),
    (lambda: transitivity_witness(tent_target(), 1, 10 ** 6 + 1), "horizon"),
    (lambda: transitivity_witness(GRAPH_TARGETS[0], 1, 10 ** 6 + 1), "horizon"),
    (lambda: sensitivity_probe(tent_target(), F(1, 4), F(1, 4096), 1, 10 ** 6 + 1),
     "horizon"),
    (lambda: sensitivity_probe(GRAPH_TARGETS[0], F(1, 8), F(1, 4096), 1, 10 ** 6 + 1),
     "horizon"),
    (lambda: periodic_density(tent_target(), 25, 4), "max_period"),
    (lambda: periodic_density(rotation_target(), 17, 4), "max_period"),
    (lambda: periodic_density(identity_target(), 17, 4), "max_period"),
], ids=["dense-orbit-resolution-17", "dense-orbit-resolution-40",
        "lemma6-orbit-steps-above-10^6", "transitivity-horizon-above-10^6",
        "graph-transitivity-horizon-above-10^6", "sensitivity-horizon-above-10^6",
        "graph-sensitivity-horizon-above-10^6", "periodic-density-max-period-25",
        "rotation-max-period-17", "identity-max-period-17"])
def test_parameters_above_their_caps_raise(monkeypatch, call, name):
    # rejected before any cell, orbit step or word is built: without the
    # check, a horizon probe would finish (its pairs separate, or every
    # witness turns up, at once) and raise nothing, the graph transitivity
    # route would name `steps`, and a control would decode 2^17 words
    def no_decoding(self, word):
        raise AssertionError("words decoded before the cap was checked")

    for codec in (type(INTERVAL_CODEC), GraphSystem):
        monkeypatch.setattr(codec, "decode", no_decoding)
    with pytest.raises(ValueError, match=f"^{name} .*exceeds bound"):
        call()


@pytest.mark.parametrize("eta,delta", [
    (F(-1), F(1, 4096)), (F(0), F(1, 4096)),
    (F(1, 4), F(0)), (F(1, 4), F(-1, 8)), (F(1, 4), F(1)), (F(1, 4), F(3, 2)),
], ids=["eta-negative", "eta-0", "delta-0", "delta-negative", "delta-1",
        "delta-above-1"])
def test_sensitivity_rejects_eta_and_delta_out_of_range(k3, eta, delta):
    for target in (tent_target(), graph_target(k3, "k3")):
        with pytest.raises(ValueError, match="eta must be positive|delta must lie"):
            sensitivity_probe(target, eta, delta, 4, 10)


@pytest.mark.parametrize("eta,delta", [(0.25, 0.5), (0.25, F(1, 2)), (F(1, 4), 0.5), (1, 0.5)],
                         ids=["floats", "float-eta", "float-delta", "int-eta"])
def test_sensitivity_reads_eta_and_delta_as_fractions(k3, eta, delta):
    # a finite float is read exactly, as as_unit reads a point
    for target in (tent_target(), graph_target(k3, "k3")):
        report = sensitivity_probe(target, eta, delta, 4, 4)
        expected = sensitivity_probe(target, F(eta), F(delta), 4, 4)
        assert report._replace(elapsed_ms=0) == expected._replace(elapsed_ms=0)
        assert (report.params["eta"], report.params["delta"]) == (str(F(eta)), "1/2")


def test_sensitivity_rejects_an_infinite_eta():
    with pytest.raises(ValueError, match="^eta must be finite, got inf$"):
        sensitivity_probe(tent_target(), float("inf"), F(1, 2), 4, 4)


def test_lemma6_accepts_empty_orbit():
    assert lemma6_commute_check(baker_target(), 4, 0).verdict == "pass"


# ------------------------- oracles for the word-level and rolling-window fast paths

GRAPH_TARGETS = [graph_target(graph_system(parse_graph(text)), name)
                 for name, text in EXAMPLE_GRAPHS.items()]


def _collect_periodic(max_period):
    """Every distinct word of period at most max_period, in enumeration order."""
    return list(dict.fromkeys(w for k in range(1, max_period + 1)
                              for w in periodic_words(k)))


def _pinned_target(base, point):
    """`base` with one purely periodic expansion pinned, so that the
    pinned-fiber branch of the periodicity test has work to do."""
    sys = InducedSystem(f"{base.name}-pinned", base.induced.symbolic_map,
                        INTERVAL_CODEC, pinned_points=(point,))
    return Target(f"{base.name}-pinned-{point}", base.fmap, base.space, base.branches, sys)


def _interval_targets():
    return [tent_target(), baker_target(),
            _pinned_target(baker_target(), F(1, 3)),
            _pinned_target(tent_target(), F(2, 5)),
            _pinned_target(tent_target(), F(1, 3))]


def _word_returns(sys, horizon):
    """The per-word periodicity test the count and the per-cell search
    replaced: iterate the word's block, rotating (and complementing under
    C), until it comes back within `horizon` steps or meets a pinned word."""
    complementing = sys.symbolic_map is verifier.c_map
    pinned = {(w.period_len, w.period) for fib in sys.pinned_fibers for w in fib
              if w.pre_len == 0}

    def returns(w):
        k, q = w.period_len, w.period
        if (k, q) in pinned:
            return True
        mask, cur = (1 << k) - 1, q
        for _ in range(horizon):
            lead = cur >> (k - 1)
            cur = ((cur << 1) & mask) | lead
            if complementing and lead:
                cur ^= mask
            if cur == q:
                return True
            if (k, cur) in pinned:
                return False
        return False

    return returns


def _kept_set(target, max_period):
    """(count, every block (k, q) the integer predicate keeps)."""
    count, kept = verifier._kept_blocks(target.induced, max_period)
    return count, {(k, q) for k in range(1, max_period + 1)
                   for q in range(1 << k) if kept(k, q)}


@pytest.mark.parametrize("max_period", [4, 12])
@pytest.mark.parametrize("target", _interval_targets() + GRAPH_TARGETS,
                         ids=lambda t: t.name)
def test_kept_predicate_matches_word_returns_oracle(target, max_period):
    # every block of length <= max_period: the primitive ones against the
    # per-word loop, the others (a shorter word's block repeated) never kept
    returns = _word_returns(target.induced, max_period)
    expected = {(w.period_len, w.period) for w in _collect_periodic(max_period)
                if returns(w)}
    assert _kept_set(target, max_period) == (len(expected), expected)


def _old_is_f_periodic(target, w, pt, horizon, pinned):
    # the decode-every-iterate loop the word-level test replaced
    if pt in pinned:
        return True
    cur = w
    for _ in range(horizon):
        cur = target.induced.symbolic_map(cur)
        cpt = target.space.decode(cur)
        if cpt == pt:
            return True
        if cpt in pinned:
            return False
    return False


def _old_periodic_density(target, max_period, resolution):
    """(params, witnesses, kept words) as the decode-every-iterate loop gives them."""
    pinned = frozenset(target.induced.pinned_points)
    covered, kept = set(), set()
    for w in _collect_periodic(max_period):
        pt = target.space.decode(w)
        if _old_is_f_periodic(target, w, pt, max_period, pinned):
            kept.add(w)
            covered.update(point_cells(target.space, pt, resolution))
    cells = all_pairs(target.space, resolution)
    missing = [c for c in cells if c not in covered]
    params = {"max_period": max_period, "resolution": resolution,
              "periodic_points": len(kept), "covered": len(cells) - len(missing),
              "cells": len(cells)}
    return params, [pair_json(target.space, c) for c in missing], kept


def _count_decodes(monkeypatch, target):
    """Wrap the decode of the target's space; returns the Counter of decoded words."""
    seen = Counter()
    codec = type(target.space)
    original = codec.decode

    def counting(self, word, *args):
        seen[word] += 1
        return original(self, word, *args)

    monkeypatch.setattr(codec, "decode", counting)
    return seen


ORACLE_CASES = ([(t, mp, res) for t in _interval_targets()
                 for mp, res in ((1, 2), (3, 3), (7, 5), (12, 7))]
                + [(t, mp, res) for t in GRAPH_TARGETS
                   for mp, res in ((1, 2), (3, 3), (7, 4), (10, 5))]
                # cells without a short periodic point (max_period < resolution),
                # and the longest words the oracle enumerates here
                + [(t, mp, res) for t in _interval_targets()[:2] + GRAPH_TARGETS[:1]
                   for mp, res in ((4, 6), (6, 8), (14, 7))])


@pytest.mark.parametrize("target,max_period,resolution", ORACLE_CASES,
                         ids=[f"{t.name}-{mp}/{res}" for t, mp, res in ORACLE_CASES])
def test_periodic_density_matches_decode_every_iterate_oracle(
        target, max_period, resolution):
    params, witnesses, kept = _old_periodic_density(target, max_period, resolution)
    report = periodic_density(target, max_period, resolution)
    assert report.params == params
    assert report.witnesses == witnesses
    assert _kept_set(target, max_period)[1] == {(w.period_len, w.period) for w in kept}


def test_pinned_purely_periodic_words_are_tested():
    # 1/3 pinned: 2/3, whose baker orbit enters 1/3, is no longer periodic;
    # 2/5 pinned: 4/5, whose tent orbit enters 2/5, is no longer periodic;
    # 1/3 pinned under the tent map is held fixed, so it becomes periodic
    baker_1_3, tent_2_5, tent_1_3 = _interval_targets()[2:]
    kept = {t.name: periodic_density(t, 4, 2).params["periodic_points"]
            for t in (baker_target(), tent_target(), baker_1_3, tent_2_5, tent_1_3)}
    assert kept[baker_1_3.name] == kept["baker"] - 1
    assert kept[tent_2_5.name] == kept["tent"] - 1
    assert kept[tent_1_3.name] == kept["tent"] + 1


def test_periodicity_needs_shift_or_complementing_shift():
    from symchaos.words import r_map

    target = Target("r", tent_target().fmap, INTERVAL_CODEC, tent_target().branches,
                    InducedSystem("r", r_map, INTERVAL_CODEC))
    with pytest.raises(ValueError, match="complementing shift"):
        periodic_density(target, 4, 2)


def test_periodicity_dispatch_follows_rebound_maps(monkeypatch):
    # a tracer rebinds shift_map and c_map at every binding site before any
    # system is built; the S/C dispatch must then see the wrappers
    from symchaos import words

    def reports(target):
        return (periodic_density(target, 8, 5).params,
                dense_orbit_coverage(target, 5000, 8).params)

    expected = {t.name: reports(t) for t in (tent_target(), baker_target())}
    wrapped = {}
    for name in ("shift_map", "c_map"):
        wrapped[name] = lambda w, f=getattr(words, name): f(w)
        monkeypatch.setattr(words, name, wrapped[name])
        monkeypatch.setattr(verifier, name, wrapped[name])
    for base, name in ((tent_target(), "c_map"), (baker_target(), "shift_map")):
        sys = InducedSystem(base.name, wrapped[name], INTERVAL_CODEC,
                            pinned_points=base.induced.pinned_points)
        target = Target(base.name, base.fmap, base.space, base.branches, sys)
        assert reports(target) == expected[base.name]


@pytest.mark.parametrize("base,point", [(tent_target(), F(1, 3)), (tent_target(), F(2, 5)),
                                        (baker_target(), F(1, 3))],
                         ids=["tent-1/3", "tent-2/5", "baker-1/3"])
def test_pinned_cycles_follow_the_systems_own_map(monkeypatch, base, point):
    # the pinned word's cycle is walked by the system's symbolic map, so a
    # wrapper rebound for it sees each step, from the pinned word on, until
    # the word comes back or the horizon ends (:01 never comes back under C)
    from symchaos import words

    unwrapped = _pinned_target(base, point)
    expected = periodic_density(unwrapped, 8, 5)
    original = {name: getattr(words, name) for name in ("shift_map", "c_map")}
    calls, wrapped = [], {}
    for name, f in original.items():
        wrapped[name] = lambda w, name=name, f=f: calls.append((name, w)) or f(w)
        monkeypatch.setattr(words, name, wrapped[name])
        monkeypatch.setattr(verifier, name, wrapped[name])
    name = base.induced.symbolic_map.__name__
    sys = InducedSystem(unwrapped.induced.name, wrapped[name], INTERVAL_CODEC,
                        pinned_points=(point,))
    report = periodic_density(unwrapped._replace(induced=sys), 8, 5)
    assert (report.params, report.witnesses) == (expected.params, expected.witnesses)
    [pinned] = verifier._pinned_periodic(sys, 8)
    cycle, step = [pinned], original[name]
    while len(cycle) < 8 and step(cycle[-1]) != pinned:
        cycle.append(step(cycle[-1]))
    assert calls == [(name, w) for w in cycle]


@pytest.mark.parametrize("target", _interval_targets()[:2] + GRAPH_TARGETS
                         + [rotation_target()], ids=lambda t: t.name)
def test_periodic_density_decodes_each_word_at_most_once(monkeypatch, target):
    # a deterministic work guard: per-iterate decoding would decode words
    # many times over; no word is decoded at all (under S and C the constant
    # words' cells come from their fibers' words, and a map of [0, 1] reads
    # the point of q^inf as q/(2^k - 1))
    decoded = _count_decodes(monkeypatch, target)
    periodic_density(target, 12, 6)
    assert not decoded


@pytest.mark.parametrize("target,points", [
    (tent_target(), 16772858), (baker_target(), 33545716), (GRAPH_TARGETS[0], 33545716),
], ids=lambda v: getattr(v, "name", v))
def test_periodic_density_at_the_max_period_bound(target, points):
    # sum over k <= 24 of the primitive blocks of length k under S, and
    # 1 + half of those of length 2..24 under C
    report = periodic_density(target, 24, 16)
    assert report.params["periodic_points"] == points
    assert report.params["covered"] == report.params["cells"] == target.space.r << 16
    assert report.verdict == "pass"


CONTROLS = {"identity": identity_target(),
            **{f"constant-{v}": constant_target(F(v)) for v in ("0", "1/2", "1/3", "1")},
            **{f"rotation-{v}": rotation_target(F(v)) for v in ("1/3", "1/5", "1/17", "2/3")}}


# the map of each interval target on pairs, and the same rule on Fractions
PAIR_MAPS = {"tent": (_tent, lambda y: 1 - abs(1 - 2 * y)),
             "baker": (_baker, lambda y: 2 * y if 2 * y <= 1 else 2 * y - 1),
             "identity": (CONTROLS["identity"].fmap, lambda y: y),
             **{f"constant-{v}": (CONTROLS[f"constant-{v}"].fmap, lambda y, v=F(v): v)
                for v in ("0", "1/2", "1/3", "1")},
             **{f"rotation-{v}": (CONTROLS[f"rotation-{v}"].fmap, lambda y, v=F(v): (y + v) % 1)
                for v in ("1/3", "1/5", "1/17", "2/3")}}
PUBLIC = {"tent": tent, "baker": baker}


def _agrees_on(pair_map, form, n, d):
    a, b = pair_map(n, d)
    image = form(F(n, d))
    return type(a) is type(b) is int and b > 0 and a * image.denominator == image.numerator * b


@pytest.mark.parametrize("name", PAIR_MAPS)
def test_pair_maps_equal_their_fraction_forms_on_small_denominators(name):
    pair_map, form = PAIR_MAPS[name]
    pairs = [(n, d) for d in range(1, 513) for n in range(d + 1) if math.gcd(n, d) == 1]
    assert len(pairs) == 79_853
    assert all(_agrees_on(pair_map, form, n, d) for n, d in pairs)
    public = PUBLIC.get(name)
    if public is not None:
        assert all(public(F(n, d)) == form(F(n, d)) for n, d in pairs[::7])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 256).flatmap(lambda d: st.tuples(st.integers(0, d), st.just(d))))
def test_pair_maps_equal_their_fraction_forms_at_large_denominators(pair):
    g = math.gcd(*pair)
    n, d = pair[0] // g, pair[1] // g
    for name, (pair_map, form) in PAIR_MAPS.items():
        assert _agrees_on(pair_map, form, n, d), name
    for name, public in PUBLIC.items():
        assert public(F(n, d)) == PAIR_MAPS[name][1](F(n, d)), name


def _lowest_terms_only(target):
    """target, its fmap wrapped to assert the pair contract on each call:
    two ints in lowest terms with 0 <= n <= d."""
    def fmap(n, d):
        assert type(n) is type(d) is int and 0 <= n <= d and math.gcd(n, d) == 1, (n, d)
        return target.fmap(n, d)

    return target._replace(fmap=fmap)


@pytest.mark.parametrize("name", ["tent", "baker", *CONTROLS])
def test_every_check_hands_fmap_a_lowest_terms_pair(name):
    base = {"tent": tent_target(), "baker": baker_target()}.get(name) or CONTROLS[name]
    target = _lowest_terms_only(base)
    checks = [lambda t: transitivity_witness(t, 4, 12),
              lambda t: sensitivity_probe(t, F(1, 4), F(1, 4096), 64, 40),
              lambda t: sensitivity_probe(t, F(1, 8), F(1, 3), 16, 40)]
    if base.induced is None:
        checks.append(lambda t: periodic_density(t, 10, 5))
    for check in checks:
        report, expected = check(target), check(base)
        assert (report.params, report.witnesses) == (expected.params, expected.witnesses)


def test_target_has_five_fields_and_derives_its_stream_step(monkeypatch):
    assert Target._fields == ("name", "fmap", "space", "branches", "induced")
    assert tent_target().stream_step is streams.stream_c_step
    for target in [baker_target(), *GRAPH_TARGETS]:
        assert target.stream_step is streams.stream_shift
    assert [t.fmap for t in GRAPH_TARGETS] == [None] * len(EXAMPLE_GRAPHS)
    for target in CONTROLS.values():
        assert target.stream_step is None
    base = tent_target()
    with pytest.raises(TypeError):
        Target(base.name, base.fmap, base.space, base.branches, base.induced,
               streams.stream_c_step)
    # looked up on each access, so a rebound step (a tracer's wrapper) is seen
    wrapper = lambda sw: streams.stream_c_step(sw)  # noqa: E731
    monkeypatch.setattr(verifier, "stream_c_step", wrapper)
    assert base.stream_step is wrapper


def _enumerate_and_cover(target, max_period, resolutions):
    """{p: (params, witnesses)} for each resolution p, from the loop the cell
    search replaced for maps without an induced system: every word is
    decoded, its point iterated, and the cells of each returning point marked."""
    space, points, fmap = target.space, [], _on_fractions(target.fmap)
    for w in _collect_periodic(max_period):
        pt = cur = space.decode(w)
        for _ in range(max_period):
            cur = fmap(cur)
            if cur == pt:
                points.append(pt)
                break
    reports = {}
    for p in resolutions:
        covered = {c for pt in points for c in point_cells(space, pt, p)}
        cells = all_pairs(space, p)
        missing = [c for c in cells if c not in covered]
        params = {"max_period": max_period, "resolution": p,
                  "periodic_points": len(points), "covered": len(cells) - len(missing),
                  "cells": len(cells)}
        reports[p] = (params, [pair_json(space, c) for c in missing])
    return reports


@pytest.mark.parametrize("name", CONTROLS)
def test_control_periodic_density_matches_enumerate_and_cover_oracle(name):
    target = CONTROLS[name]
    for max_period in range(1, 11):
        for p, expected in _enumerate_and_cover(target, max_period, range(1, 7)).items():
            report = periodic_density(target, max_period, p)
            assert (report.params, report.witnesses) == expected, (max_period, p)


@pytest.mark.parametrize("name", ["identity", "rotation-1/3"])
def test_control_periodic_density_at_its_cap(name):
    target = CONTROLS[name]
    report = periodic_density(target, 16, 8)
    assert (report.params, report.witnesses) == _enumerate_and_cover(target, 16, [8])[8]


@pytest.mark.parametrize("value", ["0", "1/2", "1/3", "1"])
def test_constant_control_maps_each_decoded_point_at_most_twice(value):
    # an orbit fixed at a point other than its start never comes back, so
    # its iteration stops at the second step: at most two calls per block
    base, calls = constant_target(F(value)), []

    def fmap(*y):
        calls.append(y)
        return base.fmap(*y)

    expected = periodic_density(base, 12, 6)
    report = periodic_density(Target(base.name, fmap, base.space, base.branches), 12, 6)
    assert (report.params, report.witnesses) == (expected.params, expected.witnesses)
    blocks = sum(map(verifier._primitive_blocks, range(1, 13)))
    assert 0 < len(calls) <= 2 * blocks


def _oracle_marks(target, resolution):
    """The cell (arc, j) that each generator step marks, from one window_int
    read per step."""
    space = target.space
    width = space.r - 1 + resolution
    sw = StreamWord()
    while True:
        yield split_pair(space, sw.window_int(width), resolution)
        sw = target.stream_step(sw)


def _orbit_oracle(target, steps, resolution):
    """(params, witnesses) from one window_int read per generator step."""
    cells = all_pairs(target.space, resolution)
    covered, full_at = set(), None
    for n, cell in zip(range(steps), _oracle_marks(target, resolution)):
        covered.add(cell)
        if len(covered) == len(cells):
            full_at = n
            break
    missing = [c for c in cells if c not in covered]
    params = {"steps": steps, "resolution": resolution,
              "covered": len(cells) - len(missing), "cells": len(cells),
              "full_coverage_step": full_at}
    return params, [pair_json(target.space, c) for c in missing]


CHUNK = streams._CHUNK_BITS

PATH60 = graph_target(graph_system(parse_graph(
    "".join(f"node n{i}\n" for i in range(61))
    + "".join(f"arc E{i} n{i - 1} n{i}\n" for i in range(1, 61)))), "path60")


ORBIT_CASES = [(t, steps, res) for t in _interval_targets()[:2] + GRAPH_TARGETS
               for steps, res in ((1, 1), (300, 3), (4000, 6), (20000, 4),
                                  (CHUNK - 1, 10), (CHUNK, 10), (CHUNK + 1, 10),
                                  (2 * CHUNK + 1, 11))]
# budgets at a chunk's edge, at resolutions whose last cells come just
# before step 4,096 or after it (tent 3,067 and 7,034; baker and K3 2,555
# and 5,882) or never (PATH60, whose 65- and 67-bit windows take one int a
# field), and budgets whose first chunk covers every cell
ORBIT_CASES += [case for case in
                [(t, steps, res) for t, resolutions in ((tent_target(), (9, 10)),
                                                       (baker_target(), (8, 9)),
                                                       (GRAPH_TARGETS[0], (6, 7)),
                                                       (PATH60, (6, 8)))
                 for res in resolutions
                 for steps in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)]
                + [(t, 10 ** 5, res)
                   for t in (tent_target(), baker_target(), GRAPH_TARGETS[0], PATH60)
                   for res in range(1, 5)]
                if case not in ORBIT_CASES]


@pytest.mark.parametrize("target,steps,resolution", ORBIT_CASES,
                         ids=[f"{t.name}-{s}/{res}" for t, s, res in ORBIT_CASES])
def test_dense_orbit_matches_per_step_window_oracle(target, steps, resolution):
    report = dense_orbit_coverage(target, steps, resolution)
    assert (report.params, report.witnesses) == _orbit_oracle(target, steps, resolution)


CELL_CYCLES = [graph_target(graph_system(parse_graph(
    "".join(f"node n{i}\n" for i in range(r))
    + "".join(f"arc E{i} n{i - 1} n{i % r}\n" for i in range(1, r + 1)))), f"cycle{r}")
    for r in (2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 63, 64)]


def _cell_windows(space, p):
    """Every packed window of r-1+p bits when there are at most 2^12, else
    for each cell the windows that address it with the unread bits after
    its arc's prefix all 0 and all 1."""
    r = space.r
    if r - 1 + p <= 12:
        yield from range(1 << (r - 1 + p))
        return
    for s, c in space.prefixes:
        free = r - 1 - s
        for j in range(1 << p):
            for tail in {0, (1 << free) - 1}:
                yield (c << (p + free)) | (j << free) | tail


CELL_PATHS = [graph_target(graph_system(parse_graph(
    "".join(f"node n{i}\n" for i in range(r + 1))
    + "".join(f"arc E{i} n{i - 1} n{i}\n" for i in range(1, r + 1)))), f"path{r}")
    for r in (2, 3, 5, 8, 17, 33, 64)]


@pytest.mark.parametrize("target", _interval_targets()[:1] + GRAPH_TARGETS + CELL_CYCLES
                         + CELL_PATHS, ids=lambda t: t.name)
def test_a_chunk_of_windows_goes_to_the_cells_of_its_windows(target):
    # split_windows, the bulk split of a chunk's new windows, is the pair
    # oracle window by window on no window, every window (_cell_windows) and
    # drawn ones, uniform and on each arc
    space, rng = target.space, random.Random(target.name)
    for p in range(1, 9):
        width = space.r - 1 + p
        drawn = {rng.getrandbits(width) for _ in range(200)} | {
            (c << (width - s)) | rng.getrandbits(width - s)
            for s, c in space.prefixes for _ in range(8)}
        for xs in ([], list(_cell_windows(space, p)), drawn):
            cells = {as_int(split_pair(space, x, p), p) for x in xs}
            assert space.split_windows(xs, p) == cells, p
        assert {space.split_window(x, p) for x in drawn} == space.split_windows(drawn, p)


@pytest.mark.parametrize("target", _interval_targets()[:2] + GRAPH_TARGETS + CELL_CYCLES,
                         ids=lambda t: t.name)
def test_int_cells_agree_with_the_pair_oracle(target):
    # the int cell (i - 1) 2^p + j is the pair (i, j) in the witnesses'
    # order; split_window and cell_json give what the pair form gave, and
    # so do both reports that mark cells
    space = target.space
    for p in range(1, 5):
        pairs = all_pairs(space, p)
        assert [as_pair(c, p) for c in range(space.r << p)] == pairs
        assert [space.cell_json(as_int(c, p), p) for c in pairs] == [
            pair_json(space, c) for c in pairs]
        for x in _cell_windows(space, p):
            assert as_pair(space.split_window(x, p), p) == split_pair(space, x, p), (x, p)
        report = periodic_density(target, 6, p)
        assert (report.params, report.witnesses) == _old_periodic_density(target, 6, p)[:2]
        report = dense_orbit_coverage(target, 5000, p)
        assert (report.params, report.witnesses) == _orbit_oracle(target, 5000, p)


PATH24 = graph_target(graph_system(parse_graph(
    "".join(f"node n{i}\n" for i in range(25))
    + "".join(f"arc E{i} n{i - 1} n{i}\n" for i in range(1, 25)))), "path24")


def test_dense_orbit_on_a_24_arc_graph_matches_the_oracle_quickly():
    # the window is 23 + 8 = 31 bits: anything sized 2^width would not
    # finish (or fit) in a second
    started = time.monotonic()
    report = dense_orbit_coverage(PATH24, 2000, 8)
    assert time.monotonic() - started < 1
    assert (report.params, report.witnesses) == _orbit_oracle(PATH24, 2000, 8)


@pytest.mark.parametrize("steps", [2000, 2 * CHUNK + 1])
def test_dense_orbit_past_a_64_bit_window_matches_the_oracle(steps):
    # the window is 59 + 8 = 67 bits, past the widest array item: one int a field
    report = dense_orbit_coverage(PATH60, steps, 8)
    assert (report.params, report.witnesses) == _orbit_oracle(PATH60, steps, 8)


@pytest.mark.parametrize("target,steps,resolution,params,witnesses", [
    (tent_target(), 10 ** 6, 16, {"covered": 65536, "cells": 65536,
                                  "full_coverage_step": 794612}, []),
    (baker_target(), 10 ** 6, 16, {"covered": 65535, "cells": 65536,
                                   "full_coverage_step": None}, [{"cell": 65535}]),
    (GRAPH_TARGETS[0], 10 ** 6, 14, {"covered": 49151, "cells": 49152,
                                     "full_coverage_step": None},
     [{"arc": "E3", "cell": 16383}]),
], ids=["tent-10^6/16", "baker-10^6/16", "k3-10^6/14"])
def test_dense_orbit_at_the_step_bound(target, steps, resolution, params, witnesses):
    # reports recorded with the one-StreamWord-per-step loop
    report = dense_orbit_coverage(target, steps, resolution)
    assert report.params == {"steps": steps, "resolution": resolution, **params}
    assert report.witnesses == witnesses


def _switched(monkeypatch, target, steps, resolution):
    """(params, witnesses) of the dense orbit read window by window to its
    end (only the chunk that marks the last cell is searched), with the real
    switch, and searched from the first chunk on."""
    reports = []
    for patterns in (0, verifier._SEARCH_PATTERNS, 1 << 40):
        monkeypatch.setattr(verifier, "_SEARCH_PATTERNS", patterns)
        report = dense_orbit_coverage(target, steps, resolution)
        reports.append((report.params, report.witnesses))
    return reports


@pytest.mark.parametrize("target,steps,resolution", ORBIT_CASES,
                         ids=[f"{t.name}-{s}/{res}" for t, s, res in ORBIT_CASES])
def test_dense_orbit_search_matches_rolling(monkeypatch, target, steps, resolution):
    rolled, real, searched = _switched(monkeypatch, target, steps, resolution)
    assert rolled == real == searched


def _arcs(rng, r):
    """A graph of r arcs between 1-4 nodes drawn with replacement."""
    nodes = [f"v{k}" for k in range(rng.randint(1, 4))]
    arcs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(r)]
    lines = [f"node {v}" for v in sorted({v for arc in arcs for v in arc})]
    lines += [f"arc E{i} {tail} {head}" for i, (tail, head) in enumerate(arcs, start=1)]
    return graph_target(graph_system(parse_graph("\n".join(lines))), f"r{r}")


@pytest.mark.parametrize("seed", range(24))
def test_dense_orbit_search_matches_rolling_on_random_graphs(monkeypatch, seed):
    import random

    rng = random.Random(seed)
    target, resolution = _arcs(rng, rng.randint(2, 8)), rng.randint(1, 10)
    steps = rng.choice([rng.randint(1, 300), rng.randint(300, 30000)])
    rolled, real, searched = _switched(monkeypatch, target, steps, resolution)
    assert rolled == real == searched
    assert rolled == _orbit_oracle(target, steps, resolution)


@pytest.mark.parametrize("target,resolution,transitivity", [
    (tent_target(), 4, False), (GRAPH_TARGETS[0], 6, False), (GRAPH_TARGETS[0], 2, True),
], ids=["tent-10^6/4", "k3-10^6/6", "k3-transitivity-2/10^6"])
def test_dense_orbit_reads_no_text_past_its_last_cell(monkeypatch, target, resolution,
                                                     transitivity):
    # each check covers every cell in the first chunk of a 10^6-step budget;
    # the dense word is read up to one chunk and one window past that chunk
    read, real = [], streams._dense_window
    monkeypatch.setattr(streams, "_dense_window",
                        lambda start, n: read.append(n) or real(start, n))
    if transitivity:
        report = transitivity_witness(target, resolution, 10 ** 6)
    else:
        report = dense_orbit_coverage(target, 10 ** 6, resolution)
    last = report.params["full_coverage_step"]
    assert report.verdict == "pass" and last < CHUNK
    width = target.space.r - 1 + resolution
    assert 0 < sum(read) <= (last // CHUNK + 2) * CHUNK + width


PATH5 = graph_target(graph_system(parse_graph(
    "".join(f"node n{i}\n" for i in range(6))
    + "".join(f"arc E{i} n{i - 1} n{i}\n" for i in range(1, 6)))), "path5")


@pytest.mark.parametrize("target,resolution,full_at", [
    (tent_target(), 8, 1308), (tent_target(), 5, 79), (baker_target(), 8, 2555),
    (GRAPH_TARGETS[0], 6, 2555), (PATH5, 4, 2555),
], ids=["tent-8", "tent-5", "baker-8", "k3-6", "path5-4"])
@pytest.mark.parametrize("patterns", [0, None, 1 << 40], ids=["rolled", "real", "searched"])
def test_dense_orbit_end_bound(monkeypatch, target, resolution, full_at, patterns):
    # f steps (0 .. f-1) miss exactly the cells that step f marks first; one
    # more step covers them, and the report says f
    if patterns is not None:
        monkeypatch.setattr(verifier, "_SEARCH_PATTERNS", patterns)
    short = dense_orbit_coverage(target, full_at, resolution)
    params = _orbit_oracle(target, full_at + 1, resolution)[0]
    assert params["full_coverage_step"] == full_at
    last = _orbit_oracle(target, full_at, resolution)[1]
    assert short.verdict == "fail" and short.witnesses == last
    space = target.space
    window = _orbit_iterate(target, full_at).window_int(space.r - 1 + resolution)
    assert [space.cell_json(space.split_window(window, resolution), resolution)] == last
    done = dense_orbit_coverage(target, full_at + 1, resolution)
    assert done.verdict == "pass"
    assert done.params == params and done.params["full_coverage_step"] == full_at


@pytest.mark.parametrize("target,resolution", [
    (tent_target(), 5), (baker_target(), 5), (GRAPH_TARGETS[0], 4), (PATH5, 3),
], ids=["tent-5", "baker-5", "k3-4", "path5-3"])
@pytest.mark.parametrize("patterns", [None, 1 << 40], ids=["real", "searched"])
def test_dense_orbit_end_bound_of_each_cell(monkeypatch, target, resolution, patterns):
    # a cell that step f marks first is missing in f steps and covered in
    # f + 1, on every arc: the last cell's pattern fills the whole window,
    # so only a shorter one tests the search's end bound
    if patterns is not None:
        monkeypatch.setattr(verifier, "_SEARCH_PATTERNS", patterns)
    space, first = target.space, {}
    for n, cell in zip(range(10 ** 4), _oracle_marks(target, resolution)):
        first.setdefault(cell, n)
    assert len(first) == len(all_pairs(space, resolution))
    for cell, f in first.items():
        shown = pair_json(space, cell)
        if f:  # at least one step is taken
            assert shown in dense_orbit_coverage(target, f, resolution).witnesses
        assert shown not in dense_orbit_coverage(target, f + 1, resolution).witnesses


def test_lemma6_at_the_step_bound():
    report = lemma6_commute_check(GRAPH_TARGETS[0], 12, 10 ** 6)
    assert report.params == {"max_period": 12, "orbit_steps": 10 ** 6,
                             "periodic_words": 8032, "periodic_in_redirected_fibers": 0}
    assert report.verdict == "pass" and report.witnesses == []


@pytest.mark.parametrize("target", [tent_target(), baker_target(), GRAPH_TARGETS[0]],
                         ids=lambda t: t.name)
def test_lemma6_at_its_bounds(target):
    # 33,545,716 words of period at most 24 (sum of the primitive blocks), of
    # which only the two constant words are checked
    report = lemma6_commute_check(target, 24, 10 ** 6)
    assert report.params == {"max_period": 24, "orbit_steps": 10 ** 6,
                             "periodic_words": 33545716, "periodic_in_redirected_fibers": 0}
    assert report.verdict == "pass" and report.witnesses == []


def _orbit_iterate(base, n):
    sw = StreamWord()
    for _ in range(n):
        sw = base.stream_step(sw)
    return sw


def _copy_target(base, n, bits):
    """`base` with one pinned point: the point addressed by the first
    r-1+bits bits of the generator orbit's iterate at step n."""
    space = base.space
    window = _orbit_iterate(base, n).window_int(space.r - 1 + bits)
    arc, v = as_pair(space.split_window(window, bits), bits)
    point = Interior(arc, F(v, 1 << bits)) if space.r > 1 else F(v, 1 << bits)
    sys = InducedSystem(f"{base.name}-copy", base.induced.symbolic_map, space,
                        pinned_points=(point,))
    return Target(f"{base.name}-copy{bits}@{n}", base.fmap, space, base.branches, sys)


# S on baker; C on the tent at a step whose flip is set; S on the triangle
# at a step on arc 1, whose prefix leaves one window bit unread
COPY_STEPS = {"baker": 4097, "tent": 12001, "k3": 7003}
COPY_TARGETS = [_copy_target(base, COPY_STEPS[base.name], bits)
                for base in (baker_target(), tent_target(), GRAPH_TARGETS[0])
                for bits in (100, 600)]


def test_the_copy_steps_exercise_the_flip_and_a_short_prefix():
    assert _orbit_iterate(tent_target(), COPY_STEPS["tent"]).flip == 1
    assert COPY_TARGETS[4].induced.pinned_points[0].arc == 1


def _cells_at(sys, p):
    """The precision-p cells that hold a pinned point."""
    return {as_int(c, p) for pt in sys.pinned_points for c in point_cells(sys.codec, pt, p)}


@functools.lru_cache(maxsize=None)
def _pinned_cells(sys, p=512):
    """The precision-p cells that the pinned points' fiber words address."""
    return frozenset(word_cells(sys.codec, (w for fib in sys.pinned_fibers for w in fib), p))


def _pinned_pairs(sys):
    """_pinned_cells(sys) as pairs (arc, v)."""
    return {as_pair(c, 512) for c in _pinned_cells(sys)}


def _separated(sys, sw, p=512):
    """Do sw's first r-1+p bits tell it apart from every pinned point?  They
    do when the cell they address holds none (the numeric test lemma6 once
    made along the orbit; cells nest, so no coarser cell separates more)."""
    codec = sys.codec
    return codec.split_window(sw.window_int(codec.r - 1 + p), p) not in _pinned_cells(sys, p)


def _ladder_check(sys):
    """The precision ladder the 512-bit test replaced, as a predicate: the
    stream is separated once the pinned cells at 64, 128, 256 or 512 bits
    separate it from every pinned point."""
    codec, cells = sys.codec, {p: _cells_at(sys, p) for p in (64, 128, 256, 512)}
    return lambda sw: any(codec.stream_excludes_all(sw, cells[p], p) for p in cells)


_FLIPPED = str.maketrans("01", "10")


def _orbit_commute_failures(target, steps):
    """The generator-orbit steps before `steps` that 512 bits cannot tell
    from a pinned point, found by the substring search lemma6 made before it
    decided the orbit by the argument: the steps whose first s+512 bits are
    a pinned cell's pattern, its arc prefix c (s bits) and v.  The text is
    "0" and dense bits 1 .. steps+r-2+512 (text_reader.dense_text, looked
    up on each call so that a test can plant a text): index n holds step n's
    flip (dense bit n, 0 at step 0), and iterate n's bits before any flip
    follow it.  Under S a step is its pattern at index n+1; under C "0" and
    the pattern, or "1" and the pattern complemented, at index n.  Each
    search ends where step steps-1's pattern would, and resumes one
    character on past a hit."""
    space = target.space
    flips = target.stream_step is streams.stream_c_step
    patterns = set()
    for i, v in _pinned_pairs(target.induced):
        s, c = space.prefixes[i - 1]
        pattern = format((c << 512) | v, f"0{s + 512}b")
        patterns |= {"0" + pattern, "1" + pattern.translate(_FLIPPED)} if flips else {pattern}
    lead = 0 if flips else 1  # where step 0's pattern starts
    text = "0" + "".join(text_reader.dense_text(0, steps + space.r - 2 + 512))
    hits = set()
    for pattern in patterns:
        end = steps + lead - 1 + len(pattern)
        i = text.find(pattern, lead, end)
        while i >= 0:
            hits.add(i - lead)
            i = text.find(pattern, i + 1, end)
    return sorted(hits)


def _plant(target, steps, n, head):
    """The text the orbit oracle reads for `steps` steps ("0", then dense
    bits 1 .. steps+r-2+512) as alternating bits, except that iterate n's
    first bits are `head`: from index n+1, complemented under C, where the
    flip at index n is set to 1 (but at step 0, whose flip is the leading "0")."""
    text = list(("01" * (steps + 512))[:steps + target.space.r + 511])
    flip = n > 0 and target.stream_step is streams.stream_c_step
    if flip:
        text[n], head = "1", head.translate(_FLIPPED)
    assert n + 1 + len(head) <= len(text)
    text[n + 1:n + 1 + len(head)] = head
    return "".join(text)


def _search(monkeypatch, target, text, steps):
    """The orbit oracle's steps when the dense word's text is `text`."""
    monkeypatch.setattr(text_reader, "dense_text", lambda start, k: iter([text[start + 1:][:k]]))
    return _orbit_commute_failures(target, steps)


def _stream_failures(target, text, steps):
    """The steps before `steps` at which 512 bits do not separate the stream
    that `text` makes iterate m: its first r-1+512 bits, complemented under
    C when the flip at index m is 1."""
    sys, width = target.induced, target.space.r - 1 + 512
    complementing = target.stream_step is streams.stream_c_step
    failures = []
    for m in range(steps):
        x = int(text[m + 1:m + 1 + width], 2)
        if complementing and text[m] == "1":
            x ^= (1 << width) - 1
        if not _separated(sys, _Window(x=x, width=width)):
            failures.append(m)
    return failures


@pytest.mark.parametrize("target", COPY_TARGETS[::2], ids=lambda t: t.name)
def test_lemma6_refines_where_64_bits_cannot_separate(monkeypatch, target):
    # 100 copied bits: 64 cannot separate the iterate from the point, 128
    # can, and the orbit oracle compares a pinned cell's whole pattern
    sw = _orbit_iterate(target, COPY_STEPS[target.name.split("-")[0]])
    sys, space = target.induced, target.space
    assert not space.stream_excludes_all(sw, _cells_at(sys, 64), 64)
    assert space.stream_excludes_all(sw, _cells_at(sys, 128), 128)
    assert lemma6_commute_check(target, 4, 20000).verdict == "pass"
    # planted in the text, a copy of a pinned cell's first s+511 bits is no
    # hit and a copy of all s+512 is exactly its step, the first or the last
    steps = 40
    for i, v in sorted(_pinned_pairs(sys)):
        s, c = space.prefixes[i - 1]
        pattern = format((c << 512) | v, f"0{s + 512}b")
        short = pattern[:-1] + "10"[int(pattern[-1])]
        for n in (0, steps - 1):
            for head, found in ((pattern, [n]), (short, [])):
                text = _plant(target, steps, n, head)
                assert _search(monkeypatch, target, text, steps) == found, (i, n, head == short)
                assert _stream_failures(target, text, steps) == found
        if s < space.r - 1:  # the text also holds a copy at step `steps`, past the orbit
            text = _plant(target, steps, steps, pattern)
            assert _search(monkeypatch, target, text, steps) == []


@pytest.mark.parametrize("target", COPY_TARGETS, ids=lambda t: t.name)
def test_stream_check_matches_the_ladder_at_the_copy_step(target):
    # 100 copied bits separate at 128, 600 at no precision up to 512
    sw = _orbit_iterate(target, COPY_STEPS[target.name.split("-")[0]])
    separated = _separated(target.induced, sw)
    assert separated == _ladder_check(target.induced)(sw) == ("copy100" in target.name)


@pytest.mark.parametrize("target", COPY_TARGETS[1::2], ids=lambda t: t.name)
def test_lemma6_passes_where_512_bits_cannot_separate(target):
    # the iterate at the copy step shares its first 600 bits with the pinned
    # point, so the 512-bit search reported that step as a failure; but the
    # iterate is irrational and the point dyadic, so projection commutes there
    n = COPY_STEPS[target.name.split("-")[0]]
    assert _orbit_commute_failures(target, 20000) == [n]
    report = lemma6_commute_check(target, 4, 20000)
    assert report.verdict == "pass" and report.witnesses == []


def _node_a_target():
    """The triangle with only node a pinned: a pinned node lies on an arc
    only at the ends incident to it."""
    base = GRAPH_TARGETS[0]
    sys = InducedSystem("k3-a", shift_map, base.space, pinned_points=(Node("a"),))
    return Target("k3-node-a", base.fmap, base.space, None, sys)


LEMMA6_TARGETS = (_interval_targets() + GRAPH_TARGETS + COPY_TARGETS + [PATH24,
                                                                      _node_a_target()])
# a copy target's hit is its copy step: an orbit of that many steps ends just
# before it, one more step takes it in
LEMMA6_STEPS = tuple(sorted({0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 20000,
                             *COPY_STEPS.values(), *(n + 1 for n in COPY_STEPS.values())}))


def _old_orbit_failures(target, steps):
    """The per-step loop the search replaced: one StreamWord per generator
    step, checked by the precision ladder, which the 512-bit test must agree
    with at every step: the steps where no precision up to 512 bits tells
    the iterate from a pinned point."""
    failures, sw, ladder = [], StreamWord(), _ladder_check(target.induced)
    for n in range(steps):
        separated = ladder(sw)
        assert _separated(target.induced, sw) == separated, n
        if not separated:
            failures.append(n)
        sw = target.stream_step(sw)
    return failures


@pytest.mark.parametrize("target", LEMMA6_TARGETS, ids=lambda t: t.name)
def test_lemma6_matches_the_per_step_oracle(target):
    # the oracle runs once to the largest step count; a shorter orbit's
    # steps are the ones before its end.  The search finds exactly them
    # (a copy600 target's copy step, and no other), and lemma6 reports none:
    # projection commutes at every orbit step
    periodic = lemma6_commute_check(target, 4, 0)
    orbit = _old_orbit_failures(target, max(LEMMA6_STEPS))
    assert bool(orbit) == ("copy600" in target.name)
    for steps in LEMMA6_STEPS:
        assert _orbit_commute_failures(target, steps) == [n for n in orbit if n < steps]
        report = lemma6_commute_check(target, 4, steps)
        assert report.params == dict(periodic.params, orbit_steps=steps)
        assert (report.verdict, report.witnesses) == (periodic.verdict, periodic.witnesses)


@pytest.mark.parametrize("target", _interval_targets()[:2] + GRAPH_TARGETS, ids=lambda t: t.name)
def test_the_orbit_oracle_finds_no_step_on_the_built_in_targets(target):
    # no iterate within the caps shares its first 512 bits with a pinned
    # point: the built-in reports read the same with or without the search
    assert _orbit_commute_failures(target, 10 ** 6) == []
    report = lemma6_commute_check(target, 24, 10 ** 6)
    assert report.verdict == "pass" and report.witnesses == []


def _redirect_target(base, designated, points):
    """`base` with the designated-redirect override on pinned `points`."""
    sys = InducedSystem(f"{base.name}-redirect", base.induced.symbolic_map, base.space,
                        designated=designated, pinned_points=points)
    return Target(f"{base.name}-redirect-{designated}", base.fmap, base.space,
                  base.branches, sys)


# 1/3 and 2/7 are purely periodic, as are 0 and 1 (the constant words)
REDIRECT_TARGETS = [_redirect_target(baker_target(), F(1), (F(1, 3), F(2, 7))),
                    _redirect_target(baker_target(), F(1, 2), (F(0), F(1)))]


def _old_lemma6_periodic(target, max_period):
    """{M: (params, witnesses)} for M up to max_period, orbit steps 0, from
    the enumeration lemma6 replaced: every distinct word of period at most M,
    each tested for a redirected fiber and put through semiconjugacy_check."""
    sys = target.induced
    pinned_words = {w for fib in sys.pinned_fibers for w in fib}
    rows = [(w, w in pinned_words, semiconjugacy_check(sys, w))
            for w in _collect_periodic(max_period)]
    reports = {}
    for m in range(1, max_period + 1):
        # the first-occurrence order of a longer enumeration keeps the
        # order of a shorter one
        words = [row for row in rows if row[0].period_len <= m]
        hits = [w for w, pinned, _ in words if pinned] if sys.designated is not None else []
        witnesses = ([{"periodic_in_redirected_fiber": str(w)} for w in hits]
                     + [{"word": str(w)} for w, _, commutes in words if not commutes])
        params = {"max_period": m, "orbit_steps": 0, "periodic_words": len(words),
                  "periodic_in_redirected_fibers": len(hits)}
        reports[m] = (params, witnesses)
    return reports


@pytest.mark.parametrize("target", LEMMA6_TARGETS + REDIRECT_TARGETS, ids=lambda t: t.name)
def test_lemma6_periodic_words_match_the_enumeration_oracle(target):
    for m, (params, witnesses) in _old_lemma6_periodic(target, 12).items():
        report = lemma6_commute_check(target, m, 0)
        assert (report.params, report.witnesses) == (params, witnesses), m
        assert report.verdict == ("fail" if witnesses else "pass")


@pytest.mark.parametrize("target,words", [(REDIRECT_TARGETS[0], [":01", ":010"]),
                                          (REDIRECT_TARGETS[1], [":0", ":1"])],
                         ids=lambda v: getattr(v, "name", None))
def test_redirected_periodic_words_are_witnessed(target, words):
    # each pinned periodic word lies in a redirected fiber and, sent to the
    # designated point, fails the commute
    report = lemma6_commute_check(target, 4, 3000)
    assert report.params["periodic_in_redirected_fibers"] == 2
    assert report.witnesses == ([{"periodic_in_redirected_fiber": w} for w in words]
                                + [{"word": w} for w in words])


@pytest.mark.parametrize("target", LEMMA6_TARGETS + REDIRECT_TARGETS, ids=lambda t: t.name)
def test_lemma6_checks_only_the_constant_and_pinned_words(monkeypatch, target):
    # a deterministic work guard: only the two constant words and the
    # pinned purely periodic words are checked
    checked, original = [], verifier.semiconjugacy_check

    def counting(sys, w):
        if isinstance(w, Word):
            checked.append(w)
        return original(sys, w)

    monkeypatch.setattr(verifier, "semiconjugacy_check", counting)
    lemma6_commute_check(target, 12, 100)
    pinned = {w for fib in target.induced.pinned_fibers for w in fib
              if w.pre_len == 0 and w.period_len <= 12}
    assert len(checked) == len(set(checked)) <= 2 + len(pinned)
    assert set(checked) == {Word([], [0]), Word([], [1])} | pinned


class _Window(StreamWord):
    """A stream whose first `width` bits are the window x."""

    def __new__(cls, x, width):
        sw = super().__new__(cls)
        sw.x, sw.width = x, width
        return sw

    def window_int(self, n):
        assert n <= self.width
        return self.x >> (self.width - n)


@pytest.mark.parametrize("target", [t for t in LEMMA6_TARGETS if t.induced.pinned_points],
                         ids=lambda t: t.name)
def test_suspect_cells_are_where_64_bits_cannot_separate(monkeypatch, target):
    sys, p, bits = target.induced, 64, 512
    codec, points = sys.codec, sys.pinned_points
    r, top = codec.r, (1 << p) - 1
    suspects = {c for pt in points for c in point_cells(codec, pt, p)}
    held = {as_int(c, p) for c in suspects}  # as stream_excludes_all reads them
    # the cells nest: the pinned 512-bit cells' top 64 bits are the suspects
    assert suspects and suspects == {(i, v >> (bits - p)) for i, v in _pinned_pairs(sys)}
    near = {(i, v + d) for i, v in suspects for d in range(-2, 3)}
    for i in range(1, r + 1):
        near |= {(i, v + d) for _, v in suspects for d in range(-2, 3)}
        near |= {(i, 0), (i, top)}
    streams = []  # (arc, prefix and 512 bits, unread bit count, unread bits)
    for i, v in sorted(near):
        if not 0 <= v <= top:
            continue
        s, c = codec.prefixes[i - 1]
        free = r - 1 - s
        for tail in {0, (1 << free) - 1}:
            x = (c << (p + free)) | (v << free) | tail
            assert codec.split_window(x, p) == as_int((i, v), p)
            separated = codec.stream_excludes_all(_Window(x=x, width=r - 1 + p), held, p)
            assert ((i, v) in suspects) == (not separated), (i, v)
            inside = any(_in_enclosure(codec, pt, i, v, p) for pt in points)
            assert inside == (not separated), (i, v)
            for fill in (0, (1 << (bits - p)) - 1):  # the 64-bit cell's two ends
                streams.append((i, x >> free << (bits - p) | fill, free, tail))
    pinned = []  # each pinned 512-bit cell and its neighbours
    for i, v in _pinned_pairs(sys):
        s, c = codec.prefixes[i - 1]
        free = r - 1 - s
        for d in range(-2, 3):
            if 0 <= v + d < 1 << bits:
                for tail in {0, (1 << free) - 1}:
                    pinned.append((i, (c << bits) | (v + d), free, tail))
    streams += pinned
    # the 512-bit test agrees with the 64 -> 512 ladder
    ladder, seen = _ladder_check(sys), set()
    for i, head, free, tail in streams:
        sw = _Window(x=(head << free) | tail, width=r - 1 + bits)
        separated = _separated(sys, sw)
        assert separated == ladder(sw), (i, head)
        seen.add(separated)
    assert seen == {True, False}
    # the orbit oracle searches for the pinned 512-bit cells alone: planted
    # in the text at the last step, each stream at or next to one is a hit
    # exactly when 512 bits do not separate it, and the steps the search
    # finds are the steps at which they do not
    steps, width = 8, r - 1 + bits
    for i, head, free, tail in pinned:
        x = (head << free) | tail
        text = _plant(target, steps, steps - 1, format(x, f"0{width}b"))
        found = _search(monkeypatch, target, text, steps)
        assert found == _stream_failures(target, text, steps), (i, head)
        assert (steps - 1 in found) == (not _separated(sys, _Window(x=x, width=width)))


def _in_enclosure(codec, pt, i, v, p):
    """Does the pinned point lie in the closed parameter window
    [v/2^p, (v+1)/2^p] of arc i?  A node lies on an arc only at its ends."""
    lo, hi = F(v, 1 << p), F(v + 1, 1 << p)
    if isinstance(pt, Node):
        arc = codec.spec.arc(i)
        return (arc.tail == pt.id and lo == 0) or (arc.head == pt.id and hi == 1)
    arc, t = (pt.arc, pt.t) if isinstance(pt, Interior) else (1, pt)
    return arc == i and lo <= t <= hi


def test_lemma6_without_pinned_points_skips_the_orbit(monkeypatch):
    monkeypatch.setattr(streams, "orbit_text", None)
    assert lemma6_commute_check(tent_target(), 4, 10 ** 6).verdict == "pass"


def _no_text(*args):
    raise AssertionError("lemma6 read the dense word")


@pytest.mark.parametrize("target", [baker_target(), GRAPH_TARGETS[0]], ids=lambda t: t.name)
def test_lemma6_reads_no_dense_text_at_its_caps(monkeypatch, target):
    # both have pinned points, and the orbit is still decided by the argument
    monkeypatch.setattr(streams, "orbit_text", _no_text)
    report = lemma6_commute_check(target, 24, 10 ** 6)
    assert report.verdict == "pass" and report.witnesses == []


# the orbit oracle at 100 steps reads dense bits 1 .. 98+r+512, here a given
# text; a text of one repeated bit puts a pattern of equal bits at every
# step, each hit overlapping the next
SYNTHETIC_TEXTS = [
    # C on the tent with 0 pinned: the pattern, 512 zeros, is "1" and 512
    # ones at every step but 0, whose flip is 0
    (_pinned_target(tent_target(), F(0)), "1" * 611, list(range(1, 100))),
    # S on the triangle: the arc-1 pattern, 513 zeros, at every step; the
    # text holds it at step 100 too, one past the orbit
    (GRAPH_TARGETS[0], "0" * 613, list(range(100))),
    # C on the tent with 1/2 pinned: "0" and the pattern 1 0^511 at step 0
    # only, whose flip is 0 though the bit after it is 1
    (_pinned_target(tent_target(), F(1, 2)), "1" + "0" * 610, [0]),
]


@pytest.mark.parametrize("target,text,hits", SYNTHETIC_TEXTS,
                         ids=["tent-pinned-0", "k3", "tent-pinned-1/2"])
def test_orbit_oracle_finds_exactly_the_hits_in_the_text(monkeypatch, target, text, hits):
    # the oracle reads the text once and finds every hit; lemma6 reads none
    # of it and passes, since no hit is a failure of the commute
    read = []

    def dense_text(start, n):
        read.append((start, n))
        return iter([text[start:start + n]])

    monkeypatch.setattr(text_reader, "dense_text", dense_text)
    assert _orbit_commute_failures(target, 100) == hits
    assert read == [(0, len(text))]
    monkeypatch.setattr(streams, "orbit_text", _no_text)
    report = lemma6_commute_check(target, 1, 100)
    assert (report.verdict, report.witnesses) == ("pass", [])


def _advance_pieces(branches, pieces):
    # the Fraction lap step the integer laps replaced; it truncates as the
    # verifier does
    out = []
    for d0, d1, i0, i1 in pieces[:verifier._MAX_PIECES]:
        img_lo, img_hi = (i0, i1) if i0 <= i1 else (i1, i0)
        if img_lo == img_hi:
            continue
        for blo, bhi, s, c in branches:
            seg_lo = max(img_lo, blo)
            seg_hi = min(img_hi, bhi)
            if seg_lo >= seg_hi:
                continue
            a, b = (seg_lo, seg_hi) if i0 <= i1 else (seg_hi, seg_lo)
            slope = (d1 - d0) / (i1 - i0)
            nd0 = d0 + (a - i0) * slope
            nd1 = d0 + (b - i0) * slope
            out.append((nd0, nd1, s * a + c, s * b + c))
    return out


def _overlapped_cells(piece, size):
    i0, i1 = piece[2], piece[3]
    lo, hi = (i0, i1) if i0 <= i1 else (i1, i0)
    if lo == hi:
        return range(0)
    first = lo.numerator * size // lo.denominator
    end = -(-hi.numerator * size // hi.denominator)
    return range(max(first, 0), min(end, size))


def _witnessed_by(target, piece, n, vlo, vhi, ulo, uhi):
    d0, d1, i0, i1 = piece
    img_lo, img_hi = (i0, i1) if i0 <= i1 else (i1, i0)
    lo = max(img_lo, vlo)
    hi = min(img_hi, vhi)
    if lo >= hi:
        return False
    v = (lo + hi) / 2
    x = d0 + (v - i0) * (d1 - d0) / (i1 - i0)
    if not ulo <= x <= uhi:
        return False
    y, fmap = x, _on_fractions(target.fmap)
    for _ in range(n):
        y = fmap(y)
    return vlo <= y <= vhi


def _fraction_transitivity(target, resolution, horizon):
    """(params, verdict, witnesses) from the Fraction lap route the integer
    laps replaced: the same per-lap sweep, on Fraction ends."""
    size = 1 << resolution
    cells = [(F(j, size), F(j + 1, size)) for j in range(size)]
    unwitnessed = []
    for uj, (ulo, uhi) in enumerate(cells):
        remaining = set(range(size))
        pieces = [(ulo, uhi, ulo, uhi)]
        for n in range(1, horizon + 1):
            pieces = _advance_pieces(target.branches, pieces)
            if not pieces:
                break
            for piece in pieces:
                for vj in _overlapped_cells(piece, size):
                    if vj in remaining and _witnessed_by(target, piece, n, *cells[vj], ulo, uhi):
                        remaining.discard(vj)
            if not remaining:
                break
        unwitnessed.extend((uj, vj) for vj in sorted(remaining))
    params = {"resolution": resolution, "horizon": horizon,
              "pairs": size * size, "witnessed": size * size - len(unwitnessed)}
    return params, "fail" if unwitnessed else "pass", [{"from": uj, "to": vj}
                                                       for uj, vj in unwitnessed]


def _old_find_witness(target, pieces, n, vlo, vhi, ulo, uhi):
    for d0, d1, i0, i1 in pieces:
        img_lo, img_hi = (i0, i1) if i0 <= i1 else (i1, i0)
        lo = max(img_lo, vlo)
        hi = min(img_hi, vhi)
        if lo >= hi:
            continue
        v = (lo + hi) / 2
        x = d0 + (v - i0) * (d1 - d0) / (i1 - i0)
        if not ulo <= x <= uhi:
            continue
        y, fmap = x, _on_fractions(target.fmap)
        for _ in range(n):
            y = fmap(y)
        if vlo <= y <= vhi:
            return (x, n)
    return None


def _old_transitivity(target, resolution, horizon):
    """(params, witnesses) from the loop the per-lap sweep replaced: every
    remaining cell tried against every lap at every step."""
    size = 1 << resolution
    cells = [(F(j, size), F(j + 1, size)) for j in range(size)]
    unwitnessed = []
    for uj, (ulo, uhi) in enumerate(cells):
        remaining = set(range(size))
        pieces = [(ulo, uhi, ulo, uhi)]
        for n in range(1, horizon + 1):
            pieces = _advance_pieces(target.branches, pieces)
            if not pieces:
                break
            for vj in sorted(remaining):
                vlo, vhi = cells[vj]
                if _old_find_witness(target, pieces, n, vlo, vhi, ulo, uhi) is not None:
                    remaining.discard(vj)
            if not remaining:
                break
        unwitnessed.extend((uj, vj) for vj in sorted(remaining))
    params = {"resolution": resolution, "horizon": horizon,
              "pairs": size * size, "witnessed": size * size - len(unwitnessed)}
    return params, [{"from": uj, "to": vj} for uj, vj in unwitnessed]


TRANSITIVITY_CASES = [(make(), res, hor)
                      for make in (tent_target, baker_target, identity_target,
                                   constant_target, rotation_target)
                      for res, hor in ((6, 40), (3, 20), (5, 5))]


@pytest.mark.parametrize("target,resolution,horizon", TRANSITIVITY_CASES,
                         ids=[f"{t.name}-{r}/{h}" for t, r, h in TRANSITIVITY_CASES])
def test_transitivity_matches_the_all_cells_oracle(target, resolution, horizon):
    report = transitivity_witness(target, resolution, horizon)
    assert (report.params, report.witnesses) == _old_transitivity(target, resolution, horizon)
    assert ((report.params, report.verdict, report.witnesses)
            == _fraction_transitivity(target, resolution, horizon))


TRANSITIVITY_CONTROLS = [identity_target(), constant_target(), constant_target(F(1, 3)),
                         *(rotation_target(F(v)) for v in ("1/3", "1/5", "2/3"))]


@pytest.mark.parametrize("target", TRANSITIVITY_CONTROLS,
                         ids=[f"{t.name}-{i}" for i, t in enumerate(TRANSITIVITY_CONTROLS)])
def test_control_transitivity_at_its_cap_matches_the_fraction_lap_route(target):
    report = transitivity_witness(target, 8, 40)
    assert (report.params, report.verdict, report.witnesses) == _fraction_transitivity(target, 8, 40)


@pytest.mark.parametrize("make", [tent_target, baker_target])
def test_transitivity_at_its_cap(make):
    # both equalled the Fraction lap route when the integer laps came in;
    # that route takes about 4 s each here, so only the result and the work
    # are pinned: fmap maps each of the 65,536 points once, where each
    # witness walking its own n steps made 420,576 calls
    target, calls = _recorded(make())
    report = transitivity_witness(target, 8, 40)
    assert report.verdict == "pass" and report.witnesses == []
    assert report.params["witnessed"] == report.params["pairs"] == 65536
    assert len(calls) == len(set(calls)) == 65536


def _exchange_target():
    """A slope-1 exchange of the sixteenths of [0, 1]: 0 <-> 4, 1 <-> 5,
    2 -> 12 -> 8 -> 2 and 3 -> 13 -> 9 -> 3.  A quarter cell splits into four
    laps, so a cap of 2 drops laps that reach cells no kept lap reaches."""
    perm = {0: 4, 4: 0, 1: 5, 5: 1, 2: 12, 12: 8, 8: 2, 3: 13, 13: 9, 9: 3}
    shift = [perm.get(k, k) - k for k in range(16)]  # in sixteenths
    branches = tuple((F(k, 16), F(k + 1, 16), F(1), F(shift[k], 16)) for k in range(16))
    return Target("exchange", lambda n, d: (16 * n + shift[min(16 * n // d, 15)] * d, 16 * d),
                  INTERVAL_CODEC, branches)


@pytest.mark.parametrize("make,resolution", [(tent_target, 4), (baker_target, 4),
                                             (_exchange_target, 2)])
def test_transitivity_truncates_laps_as_the_fraction_route(monkeypatch, make, resolution):
    target = make()
    uncapped = transitivity_witness(target, resolution, 12).params["witnessed"]
    monkeypatch.setattr(verifier, "_MAX_PIECES", 2)
    report = transitivity_witness(target, resolution, 12)
    assert ((report.params, report.verdict, report.witnesses)
            == _fraction_transitivity(target, resolution, 12))
    if make is _exchange_target:  # the cap bites
        assert report.params["witnessed"] == uncapped - 1 == 11


@pytest.mark.parametrize("fmap,x,v,image", [
    (lambda n, d: (n, d), "3/64", 1, "3/64"),
    (lambda n, d: (1, 2), "1/64", 0, "1/2"),
], ids=["identity", "constant-1/2"])
def test_transitivity_reverifies_every_witness_through_fmap(fmap, x, v, image):
    # the tent's laps with another map: the first witness that the target's
    # own map does not carry into V is an internal invariant failure, never
    # an unwitnessed pair (the identity does carry 1/64 from cell 0 into 0)
    with pytest.raises(ArithmeticError) as exc:
        transitivity_witness(_lying_target(fmap), 4, 8)
    assert str(exc.value) == ("transitivity of 'lying' at resolution 4: the laps carry "
                              f"{x} from U = cell 0 into V = cell {v} at step 1, but fmap "
                              f"takes it to {image}")
    assert transitivity_witness(tent_target(), 4, 8).verdict == "pass"


def test_transitivity_stops_at_the_first_witness_its_map_misses():
    # in a fresh interpreter under a 10 s timeout: at 8/10^6 the first miss
    # must stop the run, not walk to the horizon
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(verifier.__file__))
    code = ("from symchaos.interval import INTERVAL_CODEC\n"
            "from symchaos.verifier import Target, tent_target, transitivity_witness\n"
            "lying = Target('lying', lambda n, d: (n, d), INTERVAL_CODEC, "
            "tent_target().branches)\n"
            "try:\n"
            "    transitivity_witness(lying, 8, 10 ** 6)\n"
            "except ArithmeticError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    raise SystemExit('no ArithmeticError')\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("transitivity of 'lying' at resolution 8: the laps carry ")


def _lying_target(fmap):
    return Target("lying", fmap, INTERVAL_CODEC, tent_target().branches)


def _recorded(target):
    """The target with its fmap wrapped to record each point it maps."""
    calls = []

    def fmap(*y):
        calls.append(y)
        return target.fmap(*y)

    return target._replace(fmap=fmap), calls


def _unmemoized_transitivity(target, resolution, horizon):
    """(params, witnesses) from the integer laps before the fmap memo: every
    witness walks its n steps through the target's own map."""
    lattice, stretch, branches = verifier._integer_branches(target, resolution)
    size = 1 << resolution
    width = lattice >> resolution
    unwitnessed = []
    for uj in range(size):
        remaining = set(range(size))
        ulo, uhi = uj * width, (uj + 1) * width
        pieces = [(ulo, ulo, uhi, 1)]
        scale = 1
        for n in range(1, horizon + 1):
            pieces = verifier._advance_laps(branches, pieces, scale, stretch)
            scale *= stretch
            if not pieces:
                break
            for d0, i0, i1, sigma in pieces:
                lo, hi = (i0, i1) if i0 <= i1 else (i1, i0)
                for vj in verifier._met_cells(lo, hi, width, size):
                    if vj not in remaining:
                        continue
                    v = (max(lo, vj * width) + min(hi, (vj + 1) * width)) >> 1
                    x = d0 + (v - i0) * (scale // sigma)
                    if not ulo * scale <= x <= uhi * scale:
                        continue
                    y, fmap = F(x, lattice * scale), _on_fractions(target.fmap)
                    for _ in range(n):
                        y = fmap(y)
                    num, den = y.numerator << resolution, y.denominator
                    if vj * den <= num <= (vj + 1) * den:
                        remaining.discard(vj)
            if not remaining:
                break
        unwitnessed.extend((uj, vj) for vj in sorted(remaining))
    params = {"resolution": resolution, "horizon": horizon,
              "pairs": size * size, "witnessed": size * size - len(unwitnessed)}
    return params, [{"from": uj, "to": vj} for uj, vj in unwitnessed]


LYING_TARGETS = {
    "lying-identity": lambda: _lying_target(lambda n, d: (n, d)),
    "lying-constant": lambda: _lying_target(lambda n, d: (1, 2)),
}
FMAP_WORK_TARGETS = {
    "tent": tent_target, "baker": baker_target, "identity": identity_target,
    "constant": constant_target, "rotation": rotation_target,
    "exchange": _exchange_target, **LYING_TARGETS,
}
FMAP_WORK_CASES = [(name, horizon) for name in FMAP_WORK_TARGETS
                   for horizon in (1, 5, 8 if name in LYING_TARGETS else 40)]


def _lying_calls(name, resolution, horizon):
    """The points a lying target maps before its first miss raises."""
    target, calls = _recorded(LYING_TARGETS[name]())
    if name == "lying-constant" and resolution == 1:
        # 1/2 ends cell 0 and starts cell 1: every witness lands in V
        assert transitivity_witness(target, resolution, horizon).passed()
    else:
        with pytest.raises(ArithmeticError, match="^transitivity of 'lying' at "):
            transitivity_witness(target, resolution, horizon)
    return calls


@pytest.mark.parametrize("cap", [None, 2], ids=["uncapped", "cap-2"])
@pytest.mark.parametrize("name,horizon", FMAP_WORK_CASES,
                         ids=[f"{name}-{horizon}" for name, horizon in FMAP_WORK_CASES])
def test_transitivity_maps_each_point_the_walk_reaches_once(monkeypatch, name, horizon, cap):
    if cap is not None:
        monkeypatch.setattr(verifier, "_MAX_PIECES", cap)
    for resolution in range(1, 7):
        if name in LYING_TARGETS:
            # the tent's laps with another map: the first miss raises, so the
            # work does not grow with the horizon (a walk that swept up to
            # 8,192 laps a step to 10^6 would take hours)
            calls = _lying_calls(name, resolution, horizon)
            assert calls == _lying_calls(name, resolution, 10 ** 6), resolution
        else:
            target, calls = _recorded(FMAP_WORK_TARGETS[name]())
            report = transitivity_witness(target, resolution, horizon)
            oracle, oracle_calls = _recorded(FMAP_WORK_TARGETS[name]())
            assert ((report.params, report.witnesses)
                    == _unmemoized_transitivity(oracle, resolution, horizon))
            assert set(calls) == set(oracle_calls), resolution
        assert len(calls) == len(set(calls)), resolution


@pytest.mark.parametrize("makes", [
    (tent_target, LYING_TARGETS["lying-identity"]),
    (LYING_TARGETS["lying-identity"], tent_target),
], ids=["tent-then-lying", "lying-then-tent"])
def test_no_transitivity_memo_outlives_its_call(makes):
    # the two share every lap and every pulled-back point, so the tent's
    # images kept into the lying map's call would witness every pair there,
    # and the lying map's images kept into the tent's would make it miss
    for make in makes:
        target, calls = _recorded(make())
        if make is not tent_target:
            with pytest.raises(ArithmeticError):
                transitivity_witness(target, 4, 8)
            continue
        report = transitivity_witness(target, 4, 8)
        oracle, oracle_calls = _recorded(make())
        assert (report.params, report.witnesses) == _unmemoized_transitivity(oracle, 4, 8)
        assert sorted(calls) == sorted(set(oracle_calls))


@pytest.mark.parametrize("make", [tent_target, lambda: rotation_target(F(1, 5))])
def test_transitivity_past_its_memo_bound_maps_points_again(monkeypatch, make):
    # a full memo starts over, so its memory stays bounded: a dropped point is
    # mapped again on its next visit, never more often than the walk maps it
    # (the tent passes at 5/8, and rotation by 1/5 witnesses 288 of 1,024 pairs)
    oracle, oracle_calls = _recorded(make())
    expected = _unmemoized_transitivity(oracle, 5, 8)
    for bound in (0, 1, 100):
        monkeypatch.setattr(verifier, "_MAX_MAPPED", bound)
        target, calls = _recorded(make())
        report = transitivity_witness(target, 5, 8)
        assert (report.params, report.witnesses) == expected
        assert set(calls) == set(oracle_calls) and len(calls) <= len(oracle_calls)
        assert len(set(calls[:bound + 1])) == len(calls[:bound + 1])
        # the walks share points, and some were dropped
        assert len(calls) > len(set(calls)), bound


@st.composite
def consistent_targets(draw):
    """A self-map of [0, 1] from a random branch table: two to five
    branches with breakpoints on 1/d, integer slopes from -3 to 3, images
    inside [0, 1] with their low ends on 1/e, and fmap read from the same
    table (at a breakpoint, the first or the last branch there)."""
    d, e = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), min_size=1, max_size=4)))
    ends = [F(0), *(F(k, d) for k in cuts), F(1)]
    branches = []
    for lo, hi in zip(ends, ends[1:]):
        most = min(3, int(1 / (hi - lo)))
        slope = draw(st.integers(-most, most))
        low = F(draw(st.integers(0, int((1 - abs(slope) * (hi - lo)) * e))), e)
        branches.append((lo, hi, F(slope), low - slope * (lo if slope >= 0 else hi)))
    table = branches if draw(st.booleans()) else branches[::-1]

    def fmap(n, d):
        y = F(n, d)
        return next(s * y + c for lo, hi, s, c in table if lo <= y <= hi).as_integer_ratio()

    return Target("random", fmap, INTERVAL_CODEC, tuple(branches))


@settings(max_examples=100, deadline=None)
@given(consistent_targets(), st.integers(1, 4), st.integers(1, 12))
def test_transitivity_of_a_consistent_target_never_misses(target, resolution, horizon):
    # each witness lies inside its lap's domain, so inside U, and the
    # target's own map carries it into V: the report is the Fraction lap
    # route's, and no ArithmeticError is raised.  Both routes read the lap
    # cap, held at 64: five branches of slope 3 or -3 at resolution 4 and
    # horizon 12 fill any cap, and the Fraction route's time on such a draw
    # grows with it; a cut then comes on more draws, not fewer
    with mock.patch.object(verifier, "_MAX_PIECES", 64):
        report = transitivity_witness(target, resolution, horizon)
        assert ((report.params, report.verdict, report.witnesses)
                == _fraction_transitivity(target, resolution, horizon))


def test_transitivity_rejects_a_slope_that_is_not_an_integer():
    calls = []

    def fmap(n, d):
        calls.append((n, d))
        return n, 2 * d

    target = Target("half", fmap, INTERVAL_CODEC, ((F(0), F(1), F(1, 2), F(0)),))
    with pytest.raises(ValueError, match="integer branch slopes"):
        transitivity_witness(target, 3, 5)
    assert calls == []


def test_overlapped_cells_are_the_cells_a_lap_image_meets():
    # integer ends on 1/96 (a multiple of the cells' 1/16 and of 1/3)
    size, width = 16, 6
    ends = range(-7, 104)
    for a in ends:
        for b in ends:
            lo, hi = min(a, b), max(a, b)
            expected = [j for j in range(size)
                        if max(lo, j * width) < min(hi, (j + 1) * width)]
            assert list(verifier._met_cells(lo, hi, width, size)) == expected
            assert list(_overlapped_cells((0, 0, F(a, 96), F(b, 96)), size)) == expected


def _old_separates_graph(target, x, eta, delta, horizon):
    # the per-step loop on points: one fiber-route map and one word metric
    # per step
    for t in (x.t - delta, x.t + delta):
        if not 0 < t < 1 or t == x.t:
            continue
        fx, fy = x, Interior(x.arc, t)
        for _ in range(horizon + 1):
            if graph_metric(target.space, fx, fy) > eta:
                return True
            fx, fy = graph_map(target.space, fx), graph_map(target.space, fy)
    return False


def _old_sensitivity_graph(target, eta, delta, grid, horizon):
    """(params, verdict, witnesses) from one map and one metric per step."""
    points = [Interior(i, F(2 * j + 1, 2 * grid))
              for i in range(1, target.space.spec.r + 1) for j in range(grid)]
    witnesses = [target.space.point_json(x) for x in points
                 if not _old_separates_graph(target, x, eta, delta, horizon)]
    params = {"eta": str(eta), "delta": str(delta), "grid": grid,
              "horizon": horizon, "points": len(points)}
    return params, "fail" if witnesses else "pass", witnesses


# seeded draws of test_graphs.random_graph (seeds 0, 9 and 26): on arc 1,
# 1 - 2^-j is a star failure for j = 2, 3 (seed 0), j = 2, 3, 4 (seed 9, two
# loops on their own nodes) and j = 2, 4, 5 (seed 26), and the grid orbits
# below reach some of them
STAR_TARGETS = [graph_target(graph_system(parse_graph(text)), name) for name, text in (
    ("random0", "node v0\nnode v1\nnode v2\nnode v3\narc E1 v0 v2\narc E2 v3 v3\n"
                "arc E3 v2 v3\narc E4 v2 v1\n"),
    ("random9", "node v0\nnode v1\nnode v2\nnode v3\narc E1 v2 v2\narc E2 v1 v1\n"
                "arc E3 v0 v2\narc E4 v3 v0\narc E5 v2 v0\n"),
    ("random26", "node v0\nnode v1\narc E1 v0 v1\narc E2 v0 v0\narc E3 v1 v0\n"
                 "arc E4 v0 v1\narc E5 v0 v1\narc E6 v0 v0\n"))]

SENSITIVITY_CASES = [(t, eta, delta, grid, horizon) for t in GRAPH_TARGETS + STAR_TARGETS
                     for eta, delta, grid, horizon in (
                         (F(1, 8), F(1, 4096), 16, 40),
                         (F(1, 8), F(1, 4096), 24, 40),
                         (F(1), F(1, 4096), 8, 40),
                         (F(1, 8), F(1, 4096), 16, 1),
                         (F(1, 8), F(1, 4096), 16, 3),
                         (F(1, 8), F(3, 64), 16, 40),
                         (F(1, 2), F(1, 4), 2, 3),  # neighbours at both arc ends
                         (F(1, 8), F(1, 3), 16, 40),
                         (F(1, 8), F(1, 1000), 16, 40),  # q = 2^5 125: a 100-bit period
                         (F(1, 8), F(1, 4096), 15, 40))]  # q = 2^12 15: a 4-bit period


@pytest.mark.parametrize(
    "target,eta,delta,grid,horizon", SENSITIVITY_CASES,
    ids=[f"{t.name}-{e}/{d}/{g}/{h}" for t, e, d, g, h in SENSITIVITY_CASES])
def test_graph_sensitivity_matches_per_step_oracle(target, eta, delta, grid, horizon):
    report = sensitivity_probe(target, eta, delta, grid, horizon)
    assert ((report.params, report.verdict, report.witnesses)
            == _old_sensitivity_graph(target, eta, delta, grid, horizon))


def _old_separates_interval(target, x, eta, delta, horizon):
    # the per-step loop on Fractions: neighbours at 0 and 1 are probed
    for y in (x - delta, x + delta):
        if not 0 <= y <= 1:
            continue
        fx, fy, fmap = x, y, _on_fractions(target.fmap)
        for _ in range(horizon + 1):
            if abs(fx - fy) > eta:
                return True
            fx, fy = fmap(fx), fmap(fy)
    return False


def _old_sensitivity_interval(target, eta, delta, grid, horizon):
    """(params, verdict, witnesses) from the Fraction loop the lattice
    route replaced."""
    points = [F(2 * j + 1, 2 * grid) for j in range(grid)]
    witnesses = [str(x) for x in points
                 if not _old_separates_interval(target, x, eta, delta, horizon)]
    params = {"eta": str(eta), "delta": str(delta), "grid": grid,
              "horizon": horizon, "points": grid}
    return params, "fail" if witnesses else "pass", witnesses


INTERVAL_SENSITIVITY_TARGETS = [
    ("tent", tent_target()), ("baker", baker_target()), ("identity", identity_target()),
    ("constant-1/2", constant_target()), ("constant-1/3", constant_target(F(1, 3))),
    ("rotation-1/3", rotation_target()), ("rotation-1/5", rotation_target(F(1, 5)))]

INTERVAL_SENSITIVITY_CASES = [
    (name, t, eta, delta, grid, horizon) for name, t in INTERVAL_SENSITIVITY_TARGETS
    for eta, delta, grid, horizon in (
        (F(1, 4), F(1, 4096), 64, 40),
        (F(1, 8), F(1, 4096), 24, 40),
        (F(1, 2), F(1, 4096), 16, 40),
        (F(3, 4), F(1, 4096), 16, 40),
        (F(1), F(1, 4096), 8, 40),
        (F(1, 8), F(1, 4096), 16, 1),
        (F(1, 8), F(1, 4096), 16, 3),
        (F(1, 8), F(3, 64), 16, 40),
        (F(1, 2), F(1, 4), 2, 3),  # neighbours at both ends, 0 and 1
        (F(1, 4), F(1, 2), 2, 10),
        (F(1, 8), F(1, 3), 16, 40),
        (F(1, 100), F(1, 7), 5, 12))]


@pytest.mark.parametrize(
    "name,target,eta,delta,grid,horizon", INTERVAL_SENSITIVITY_CASES,
    ids=[f"{n}-{e}/{d}/{g}/{h}" for n, _, e, d, g, h in INTERVAL_SENSITIVITY_CASES])
def test_interval_sensitivity_matches_fraction_loop_oracle(name, target, eta, delta,
                                                           grid, horizon):
    report = sensitivity_probe(target, eta, delta, grid, horizon)
    assert ((report.params, report.verdict, report.witnesses)
            == _old_sensitivity_interval(target, eta, delta, grid, horizon))


# recorded with the Fraction loop: verdict, failures, and the first 16 hex
# digits of the sha256 of the JSON witness list
@pytest.mark.parametrize("make,eta,verdict,failures,digest", [
    (tent_target, F(1, 4), "pass", 0, "4f53cda18c2baa0c"),
    (tent_target, F(1, 2), "fail", 4096, "ad17139517ca49dc"),
    (tent_target, F(3, 4), "fail", 4096, "ad17139517ca49dc"),
    (baker_target, F(1, 4), "pass", 0, "4f53cda18c2baa0c"),
    (baker_target, F(1, 2), "fail", 2050, "356fe430ac6accdb"),
    (baker_target, F(3, 4), "fail", 3074, "f5229e98e581a858")],
    ids=lambda v: getattr(v, "__name__", str(v)))
def test_interval_sensitivity_at_grid_4096(make, eta, verdict, failures, digest):
    report = sensitivity_probe(make(), eta, F(1, 4096), 4096, 40)
    text = json.dumps(report.witnesses)
    assert report.verdict == verdict and len(report.witnesses) == failures
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert report.params["points"] == 4096
    if failures == 4096:
        assert report.witnesses == [str(F(2 * j + 1, 8192)) for j in range(4096)]


def test_interval_sensitivity_raises_when_the_map_leaves_the_lattice():
    # q = lcm(8, 4096, 3) holds the branch data, but a third of a grid
    # point's image is off the lattice within two steps
    third = Target("third", lambda n, d: (n, 3 * d), INTERVAL_CODEC,
                   ((F(0), F(1), F(1, 3), F(0)),))
    with pytest.raises(ArithmeticError, match="off the lattice of denominator 12288"):
        sensitivity_probe(third, F(1), F(1, 4096), 4, 10)


def _count_lattice(monkeypatch, codec_class, mapped, measured):
    """Wrap the step and the far test that codec_class.lattice hands the
    probe, counting each step by key and each far test by pair."""
    original = codec_class.lattice

    def counting(codec, fmap, q, eta):
        step, far, ends = original(codec, fmap, q, eta)

        def counted_step(key):
            mapped[codec, q, key] += 1
            return step(key)

        def counted_far(x, y):
            measured[x, y] += 1
            return far(x, y)
        return counted_step, counted_far, ends

    monkeypatch.setattr(codec_class, "lattice", counting)


def test_graph_sensitivity_maps_each_point_and_measures_each_pair_once(
        monkeypatch, k3):
    # a deterministic work guard: the per-step loop maps and measures the
    # merged orbits of neighbouring grid points many times over; at eta 3/4
    # and horizon 3 the triangle fails, some walks are cut, and later walks
    # pass their pairs
    mapped, measured = Counter(), Counter()
    _count_lattice(monkeypatch, GraphSystem, mapped, measured)
    target = graph_target(k3, "k3")
    for eta, delta, horizon, verdict in ((F(1, 8), F(1, 4096), 40, "pass"),
                                         (F(3, 4), F(1, 64), 3, "fail")):
        mapped.clear()
        measured.clear()
        first = sensitivity_probe(target, eta, delta, 64, horizon)
        assert first.verdict == verdict
        assert max(mapped.values()) == 1 and max(measured.values()) == 1
        keys, pairs = set(mapped), set(measured)
        second = sensitivity_probe(target, eta, delta, 64, horizon)
        # nothing survives a call: the second one recomputes every entry
        assert set(mapped.values()) == {2} and set(mapped) == keys
        assert set(measured.values()) == {2} and set(measured) == pairs
        assert (first.params, first.witnesses) == (second.params, second.witnesses)


@pytest.mark.parametrize("make", [tent_target, baker_target, constant_target, identity_target,
                                  lambda: rotation_target(F(1, 5))],
                         ids=["tent_target", "baker_target", "constant_target",
                              "identity_target", "rotation_target-1/5"])
def test_interval_sensitivity_maps_each_point_and_measures_each_pair_once(
        monkeypatch, make):
    # the interval's step is the target's own fmap, called once per key; every
    # target here fails at eta 1/2, and the identity's walks end on a cycle
    base = make()
    calls, mapped, measured = Counter(), Counter(), Counter()

    def counting_fmap(*y):
        calls[y] += 1
        return base.fmap(*y)

    _count_lattice(monkeypatch, type(INTERVAL_CODEC), mapped, measured)
    target = Target(base.name, counting_fmap, base.space, base.branches)
    first = sensitivity_probe(target, F(1, 2), F(1, 4096), 256, 40)
    assert max(calls.values()) == 1 and sum(calls.values()) == len(mapped) > 256
    assert max(mapped.values()) == 1 and max(measured.values()) == 1
    # a pair stops where its two orbits meet, before measuring a key against itself
    assert all(x != y for x, y in measured)
    points, pairs = set(calls), set(measured)
    second = sensitivity_probe(target, F(1, 2), F(1, 4096), 256, 40)
    assert set(calls.values()) == {2} and set(calls) == points
    assert set(measured.values()) == {2} and set(measured) == pairs
    assert (first.params, first.witnesses) == (second.params, second.witnesses)
    assert first.witnesses == sensitivity_probe(base, F(1, 2), F(1, 4096), 256, 40).witnesses


def test_graph_sensitivity_orbits_reach_star_failures(monkeypatch):
    # so the oracle comparison above sees the star-failure rule at work
    mapped = Counter()
    _count_lattice(monkeypatch, GraphSystem, mapped, Counter())
    for target in STAR_TARGETS:
        sensitivity_probe(target, F(1, 8), F(1, 4096), 16, 40)
    # an arc-1 key is its parameter's numerator, 0 < key < q
    held = {(system.r, F(key, q)) for system, q, key in mapped
            if 0 < key < q and 2 * key != q and lattice_step(system, key, q) == key}
    assert held == {(4, F(7, 8)), (5, F(7, 8)), (5, F(15, 16)), (6, F(15, 16)),
                    (6, F(31, 32))}


def test_graph_sensitivity_rejects_an_fmap_before_stepping(monkeypatch, k3):
    def stepped(*args):
        raise AssertionError("a key was stepped")

    monkeypatch.setattr(symchaos.graphs, "lattice_step", stepped)
    target = Target("k3", stepped, k3, induced=k3.induced)
    with pytest.raises(ValueError, match="takes no fmap"):
        sensitivity_probe(target, F(1, 8), F(1, 4096), 64, 40)


def test_k3_sensitivity_at_grid_4096():
    # reports recorded with the Fraction-keyed loop this lattice route replaced
    target = GRAPH_TARGETS[0]
    half = sensitivity_probe(target, F(1, 2), F(1, 4096), 4096, 40)
    assert half.witnesses == [{"arc": arc, "t": "1/8192"} for arc in ("E1", "E2", "E3")]
    assert half.params["points"] == 3 * 4096
    wide = sensitivity_probe(target, F(3, 4), F(1, 4096), 4096, 40)
    assert len(wide.witnesses) == 3075
    assert wide.witnesses[0] == {"arc": "E1", "t": "1/8192"}
    assert wide.witnesses[-1] == {"arc": "E3", "t": "8187/8192"}


MEMO_TARGETS = {"tent": tent_target(), "baker": baker_target(), "k3": GRAPH_TARGETS[0],
                "constant": constant_target(), "identity": identity_target(),
                "rotation": rotation_target(F(1, 5))}


@pytest.mark.parametrize("name", MEMO_TARGETS)
def test_sensitivity_past_its_memo_bound_gives_the_same_report(monkeypatch, name):
    # a full image or pair memo starts over, which only recomputes entries
    target = MEMO_TARGETS[name]
    expected = sensitivity_probe(target, F(1, 4), F(1, 4096), 64, 40)
    for bound in (0, 1, 100):
        monkeypatch.setattr(verifier, "_MAX_MAPPED", bound)
        report = sensitivity_probe(target, F(1, 4), F(1, 4096), 64, 40)
        assert (report.params, report.witnesses) == (expected.params, expected.witnesses)


def test_sensitivity_memos_stay_within_their_bound(monkeypatch):
    # rotation by 1/4099 never merges two orbits, so each step adds a key
    # and a pair: unbounded, the memos of this call peak near 3.5 MB
    import tracemalloc

    monkeypatch.setattr(verifier, "_MAX_MAPPED", 1024)
    target = rotation_target(F(1, 4099))
    tracemalloc.start()
    try:
        report = sensitivity_probe(target, F(1, 8), F(1, 4096), 8, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # the grid points with no wrap past 1 within the horizon
    assert report.verdict == "fail" and len(report.witnesses) == 6


def test_sensitivity_of_a_long_failing_walk_in_bounded_memory():
    # in a fresh interpreter under a 120 s timeout, measured by a parent of
    # its own (measured.py): rotation by 1/4099 merges no orbits and its
    # walks are cut at the horizon, so every step adds a key and a measured
    # pair; the image and outcome memos start over at 2^17 entries, and a
    # walk writes back along at most 2^17 pairs of its path (11-12 s and
    # 48 MB on a 2-core x86-64 VM)
    import sys

    code = ("from fractions import Fraction\n"
            "from symchaos.verifier import rotation_target, sensitivity_probe\n"
            "report = sensitivity_probe(rotation_target(Fraction(1, 4099)), Fraction(1, 8),\n"
            "                           Fraction(1, 4096), 4096, 1000)\n"
            "print(report.verdict, len(report.witnesses))\n")
    outcome, peak_mb = last_line_and_peak([sys.executable, "-c", code], timeout=120)
    assert outcome == "fail 3096"
    assert peak_mb < 200, peak_mb


def _far_separates(step, apart, fx, fy, horizon, image, far):
    """The walk before the outcome memo: every step up to the horizon, with
    an `image` memo (key -> F(key)) and a `far` memo ((x, y) -> metric > eta)
    for the call."""
    for _ in range(horizon + 1):
        if fx == fy:  # one orbit from here on
            return False
        separated = far.get((fx, fy))
        if separated is None:
            separated = far[fx, fy] = apart(fx, fy)
        if separated:
            return True
        gx, gy = image.get(fx), image.get(fy)
        if gx is None:
            gx = image[fx] = step(fx)
        if gy is None:
            gy = image[fy] = step(fy)
        fx, fy = gx, gy
    return False


def _far_sensitivity(target, eta, delta, grid, horizon, tuples=False):
    """(params, verdict, witnesses) of sensitivity_probe's lattice, walked by
    _far_separates: the codec's lattice on int keys, or with `tuples` the
    lattice keyed by (arc, n) tuples and nodes that it replaced."""
    space = target.space
    q = math.lcm(2 * grid, delta.denominator,
                 *(c.denominator for branch in target.branches or () for c in branch))
    if tuples:
        step, apart, point, ends = tuple_lattice(space, target.fmap, q, eta)
    else:
        step, apart, ends = space.lattice(target.fmap, q, eta)

        def point(key):
            return space.point(key, q)

    def key(i, n):
        return (i, n) if tuples else (i - 1) * (q + 1) + n

    unit, width = q // (2 * grid), delta.numerator * (q // delta.denominator)
    lo, hi = (0, q) if ends else (1, q - 1)
    image, far = {}, {}
    witnesses = [space.point_json(point(key(i, n)))
                 for i in range(1, space.r + 1) for n in range(unit, q, 2 * unit)
                 if not any(_far_separates(step, apart, key(i, n), key(i, m), horizon, image, far)
                            for m in (n - width, n + width) if lo <= m <= hi)]
    params = {"eta": str(eta), "delta": str(delta), "grid": grid, "horizon": horizon,
              "points": space.r * grid}
    return params, "fail" if witnesses else "pass", witnesses


# K3 at eta 3/4 and rotation by 1/5 cut walks at horizon 3: a cut walk
# decides nothing, and a later walk that meets its pairs walks on past them
FAR_CASES = [(name, eta, delta, grid, horizon) for name in MEMO_TARGETS
             for eta, delta, grid, horizon in (
                 (F(1, 4), F(1, 4096), 32, 40),
                 (F(3, 4), F(1, 64), 32, 40),
                 (F(3, 4), F(1, 64), 32, 3),
                 (F(1, 8), F(3, 64), 16, 3),
                 (F(1, 8), F(1, 3), 12, 1),
                 (F(3, 4), F(1, 64), 64, 1000),
                 (F(1, 8), F(3, 64), 16, 1000))]


@pytest.mark.parametrize("name,eta,delta,grid,horizon", FAR_CASES,
                         ids=[f"{n}-{e}/{d}/{g}/{h}" for n, e, d, g, h in FAR_CASES])
def test_sensitivity_matches_the_per_step_walk(name, eta, delta, grid, horizon):
    report = sensitivity_probe(MEMO_TARGETS[name], eta, delta, grid, horizon)
    assert ((report.params, report.verdict, report.witnesses)
            == _far_sensitivity(MEMO_TARGETS[name], eta, delta, grid, horizon))


# every example graph, the star-failure graphs and the interval targets, on
# dyadic lattices and on those of q' = 3 and 125, with walks cut at horizon 3
TUPLE_CASES = [(target, eta, delta, grid, horizon)
               for target in [*MEMO_TARGETS.values(), *GRAPH_TARGETS[1:], *STAR_TARGETS]
               for eta, delta, grid, horizon in ((F(1, 8), F(1, 4096), 16, 40),
                                                 (F(3, 4), F(1, 64), 32, 3),
                                                 (F(1, 8), F(1, 1000), 16, 40),
                                                 (F(1, 2), F(1, 3), 12, 40))]


@pytest.mark.parametrize("target,eta,delta,grid,horizon", TUPLE_CASES,
                         ids=[f"{t.name}-{e}/{d}/{g}/{h}" for t, e, d, g, h in TUPLE_CASES])
def test_sensitivity_matches_the_tuple_key_walk(target, eta, delta, grid, horizon):
    # the lattice keyed by (arc, n) tuples and nodes, as the codecs keyed it
    # before a key became one int, gives every report
    report = sensitivity_probe(target, eta, delta, grid, horizon)
    assert ((report.params, report.verdict, report.witnesses)
            == _far_sensitivity(target, eta, delta, grid, horizon, tuples=True))


@pytest.mark.parametrize("name,eta,delta,grid", [
    ("k3", F(3, 4), F(1, 64), 32), ("rotation", F(1, 8), F(3, 64), 16)])
def test_sensitivity_cases_include_walks_cut_at_the_horizon(name, eta, delta, grid):
    # so the comparison above sees cut walks: at horizon 3 some grid points
    # fail that come apart by horizon 40
    target = MEMO_TARGETS[name]
    cut = _far_sensitivity(target, eta, delta, grid, 3)[2]
    decided = _far_sensitivity(target, eta, delta, grid, 40)[2]
    assert len(cut) > len(decided) > 0


# recorded with the per-step walk at horizon 10^3: the failures, and the
# first 16 hex digits of the sha256 of the JSON witness list
@pytest.mark.parametrize("target,eta,failures,digest", [
    (GRAPH_TARGETS[0], F(3, 4), 3075, "12b0e521e44a0597"),
    (GRAPH_TARGETS[0], F(1, 2), 3, "b7aec5143a1549ff"),
    (identity_target(), F(1, 8), 4096, "ad17139517ca49dc"),
    (rotation_target(), F(1, 8), 4092, "da54bd9c73a4a6ad"),
], ids=["k3-3/4", "k3-1/2", "identity", "rotation-1/3"])
def test_sensitivity_at_grid_4096_and_its_horizon_cap(target, eta, failures, digest):
    # every walk ends at a decided or a repeated pair long before 10^6 steps
    report = sensitivity_probe(target, eta, F(1, 4096), 4096, 10 ** 6)
    text = json.dumps(report.witnesses)
    assert report.verdict == "fail" and len(report.witnesses) == failures
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert report.params["horizon"] == 10 ** 6


@pytest.mark.parametrize("make", [identity_target, rotation_target])
def test_control_transitivity_at_its_horizon_cap(monkeypatch, make):
    # each row ends where its lap images repeat, within 8 steps (Brent's
    # test: a cycle of 1 or 3 steps), so 10^6 steps give the report and the
    # work of 10^3; the integer laps without the memo give the same
    # witnesses where they are fast
    steps, advance = [], verifier._advance_laps

    def counted(*args):
        steps.append(None)
        return advance(*args)

    monkeypatch.setattr(verifier, "_advance_laps", counted)
    reports, work = {}, set()
    for horizon in (100, 1000, 10 ** 6):
        steps.clear()
        reports[horizon] = transitivity_witness(make(), 8, horizon)
        work.add(len(steps))
    assert len(work) == 1 and work.pop() <= 8 * 256
    expected = _unmemoized_transitivity(make(), 8, 100)
    for horizon, report in reports.items():
        assert report.params == dict(expected[0], horizon=horizon)
        assert report.witnesses == expected[1] and report.verdict == "fail"


@pytest.mark.parametrize("make,error,message", [
    (lambda: rotation_target(F(-1, 3)), ValueError, "point -1/3 outside [0, 1]"),
    (lambda: rotation_target(F(1)), ValueError, "rotation step 1 outside [0, 1)"),
    (lambda: rotation_target(float("inf")), ValueError, "point inf outside [0, 1]"),
    (lambda: constant_target(float("inf")), ValueError, "point inf outside [0, 1]"),
    (lambda: constant_target(F(2)), ValueError, "point 2 outside [0, 1]"),
    (lambda: lemma6_commute_check(tent_target(), 5, 10.5), TypeError,
     "'float' object cannot be interpreted as an integer"),
], ids=["rotation-negative", "rotation-one", "rotation-inf", "constant-inf",
        "constant-above-1", "lemma6-half-step"])
def test_a_control_parameter_off_its_range_is_refused(make, error, message):
    # rotation by -1/3 once witnessed 16 of 64 pairs at 3/4 where rotation by
    # 2/3, the same map, witnesses 40; an infinity raised OverflowError
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("value,message", [
    (float("nan"), "point nan outside [0, 1]"),
    (float("-inf"), "point -inf outside [0, 1]"),
    ("nan", "Invalid literal for Fraction: 'nan'"),  # text that is no number keeps its message
], ids=["nan", "-inf", "nan-text"])
@pytest.mark.parametrize("entry", [constant_target, rotation_target, tent, baker,
                                   lambda t: Interior(1, t)],
                         ids=["constant_target", "rotation_target", "tent", "baker", "Interior"])
def test_a_nan_point_is_named_with_its_range(entry, value, message):
    # a NaN float raised "cannot convert NaN to integer ratio", which named
    # neither the value nor the range
    with pytest.raises(ValueError) as exc:
        entry(value)
    assert str(exc.value) == message


def test_a_control_parameter_is_read_as_a_point():
    # a float is read exactly, as every point is (it raised AttributeError
    # inside transitivity)
    for check in (lambda t: transitivity_witness(t, 3, 4),
                  lambda t: sensitivity_probe(t, F(3, 4), F(1, 64), 8, 10)):
        for floated, exact in ((rotation_target(0.25), rotation_target(F(1, 4))),
                               (constant_target(0.75), constant_target(F(3, 4)))):
            assert check(floated)[2:] == check(exact)[2:]
    assert (transitivity_witness(rotation_target(F(2, 3)), 3, 4).witnesses
            == transitivity_witness(rotation_target("2/3"), 3, 4).witnesses)


def _table_target(branches):
    """A self-map of [0, 1] from its branch table, fmap taking the first
    branch that holds the point."""
    def fmap(n, d):
        y = F(n, d)
        return next(s * y + c for lo, hi, s, c in branches if lo <= y <= hi).as_integer_ratio()

    return Target("table", fmap, INTERVAL_CODEC, tuple(branches))


def test_a_walk_that_meets_a_cut_walk_sooner_walks_on():
    # grid 4, horizon 3: the walk from 1/8 and 7/64 reaches 5/8 and 39/64 at
    # its step 1 and is cut at step 3; the walk from 5/8 and 39/64 starts
    # there and comes apart at its step 3, within its horizon, so a cut
    # walk's pairs must stay undecided
    target = _table_target([(F(0), F(1, 6), F(1), F(1, 2)), (F(1, 6), F(1, 3), F(3), F(-1, 2)),
                            (F(1, 3), F(2, 3), F(1), F(-1, 3)), (F(2, 3), F(1), F(0), F(0))])
    report = sensitivity_probe(target, F(1, 8), F(1, 64), 4, 3)
    expected = _far_sensitivity(target, F(1, 8), F(1, 64), 4, 3)
    assert (report.params, report.verdict, report.witnesses) == expected
    assert report.witnesses == ["1/8", "3/8", "7/8"]


@settings(max_examples=200, deadline=None)
@given(consistent_targets(), st.sampled_from([F(1, 8), F(1, 4), F(1, 2)]),
       st.sampled_from([F(1, 64), F(3, 64), F(1, 6)]), st.integers(1, 12), st.integers(1, 8))
def test_sensitivity_of_a_consistent_target_matches_the_per_step_walk(target, eta, delta,
                                                                     grid, horizon):
    # walks of a random branch table merge, cycle and meet one another's
    # pairs at other steps than their own
    report = sensitivity_probe(target, eta, delta, grid, horizon)
    assert ((report.params, report.verdict, report.witnesses)
            == _far_sensitivity(target, eta, delta, grid, horizon))
