"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
checks are exact; the only tolerances are the stated finite resolutions
and step budgets.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from symchaos.decomposition import Violation, star_check
from symchaos.graphs import (
    EXAMPLE_GRAPHS,
    Interior,
    Node,
    graph_map,
    graph_system,
    parse_graph,
)
from symchaos.interval import (
    INTERVAL_CODEC,
    baker,
    baker_system,
    induced_baker,
    induced_tent,
    tent,
    tent_system,
)
from symchaos.streams import dense_prefix
from symchaos.verifier import (
    baker_target,
    constant_target,
    dense_orbit_coverage,
    graph_target,
    lemma6_commute_check,
    periodic_density,
    sensitivity_probe,
    tent_target,
)
from symchaos.words import Word, c_map, prefix_int, r_map, shift_map

F = Fraction
HALF = F(1, 2)

SEED = 20260809


def _criterion(number, ok, desc):
    print(f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {number}: {desc}"


@lru_cache(maxsize=1)
def sample_points():
    """1025 dyadics p/2^10 plus 1000 seeded rationals with denominator <= 10^6."""
    dyadics = [F(num, 1024) for num in range(1025)]
    rng = random.Random(SEED)
    randoms = []
    for _ in range(1000):
        q = rng.randrange(2, 10 ** 6 + 1)
        p = rng.randrange(0, q + 1)
        randoms.append(F(p, q))
    return dyadics, randoms


def test_criterion_01_tent_equality():
    started = time.monotonic()
    dyadics, randoms = sample_points()
    ok = all(induced_tent(y) == tent(y) for y in dyadics)
    ok = ok and all(induced_tent(y) == tent(y) for y in randoms)
    elapsed = time.monotonic() - started
    _criterion(1, ok and elapsed < 10,
               f"induced tent == tent on 1025 dyadics + 1000 rationals "
               f"({elapsed:.1f}s)")


def test_criterion_02_baker_equality():
    started = time.monotonic()
    dyadics, randoms = sample_points()
    ok = induced_baker(HALF) == baker(HALF) == 1
    ok = ok and all(induced_baker(y) == baker(y) for y in dyadics)
    ok = ok and all(induced_baker(y) == baker(y) for y in randoms)
    elapsed = time.monotonic() - started
    _criterion(2, ok and elapsed < 10,
               f"induced baker == baker incl. 1/2 -> 1 ({elapsed:.1f}s)")


def test_criterion_03_star_dichotomy():
    dyadics, randoms = sample_points()
    c_violations = sum(
        isinstance(star_check(tent_system(), INTERVAL_CODEC.encode(y)), Violation)
        for y in dyadics + randoms)
    s_violations = [y for y in dyadics
                    if isinstance(star_check(baker_system(), INTERVAL_CODEC.encode(y)),
                                  Violation)]
    ok = c_violations == 0 and s_violations == [HALF]
    _criterion(3, ok,
               f"star condition: 0 violations under C, exactly {{1/2}} under S "
               f"(C={c_violations}, S={s_violations})")


def test_criterion_04_conjugacy():
    started = time.monotonic()
    length = 15
    compare = 14
    mismatches = 0
    for seed in range(1 << length):
        w = Word._from_packed(length, seed, 1, 0)
        lhs = shift_map(r_map(w))
        rhs = r_map(c_map(w))
        if lhs != rhs or prefix_int(lhs, compare) != prefix_int(rhs, compare):
            mismatches += 1
    elapsed = time.monotonic() - started
    _criterion(4, mismatches == 0 and elapsed < 30,
               f"shift∘R == R∘C on all 2^15 length-15 prefixes, 14 bits "
               f"({elapsed:.1f}s)")


def _tent_branch_fixed_points(n):
    """Independent oracle: the fixed point of each affine branch of the
    n-fold tent map, solved exactly."""
    size = 1 << n
    points = []
    for m in range(size):
        lo, hi = F(m, size), F(m + 1, size)
        s, c = F(1), F(0)
        for _ in range(n):
            a, b = s * lo + c, s * hi + c
            mid = (a + b) / 2
            if mid <= HALF:
                s, c = 2 * s, 2 * c
            else:
                s, c = -2 * s, 2 - 2 * c
        x = c / (1 - s)
        assert lo <= x <= hi
        y = x
        for _ in range(n):
            y = tent(y)
        assert y == x
        points.append(x)
    return points


def _cells_of(values, p):
    covered = set()
    for y in values:
        scaled = y * (1 << p)
        j = int(scaled)
        covered.add(min(j, (1 << p) - 1))
        if scaled == j and 0 < j:
            covered.add(j - 1)
    return covered


def test_criterion_05_periodic_density():
    rep_t = periodic_density(tent_target(), 12, 7)
    rep_b = periodic_density(baker_target(), 12, 7)
    ok = rep_t.verdict == "pass" and rep_b.verdict == "pass"
    ok = ok and rep_t.params["covered"] == 128 and rep_b.params["covered"] == 128
    # closed-form oracles
    tent_points = _tent_branch_fixed_points(12)
    ok = ok and _cells_of(tent_points, 7) == set(range(128))
    den = (1 << 12) - 1
    baker_points = [F(k, den) for k in range(den + 1)]
    for x in baker_points[:: 257]:
        y = x
        for _ in range(12):
            y = baker(y)
        assert y == x
    ok = ok and _cells_of(baker_points, 7) == set(range(128))
    _criterion(5, ok,
               "periodic density 128/128 at period 12, resolution 7 "
               "(tent + baker), cross-checked by branch solving and k/(2^12-1)")


def test_criterion_06_dense_orbit():
    started = time.monotonic()
    report = dense_orbit_coverage(baker_target(), 25000, 8)
    # oracle: direct 8-bit window scan of the generator
    bits = dense_prefix(25000 + 8)
    seen = set()
    for n in range(25000):
        v = 0
        for b in bits[n:n + 8]:
            v = (v << 1) | b
        seen.add(v)
    elapsed = time.monotonic() - started
    ok = report.verdict == "pass" and report.params["covered"] == 256
    ok = ok and len(seen) == 256
    _criterion(6, ok and elapsed < 60,
               f"baker dense orbit 256/256 within 25000 steps, window-scan "
               f"oracle agrees ({elapsed:.1f}s)")


def test_criterion_07_sensitivity():
    eta, delta = F(1, 4), F(1, 4096)
    rep_t = sensitivity_probe(tent_target(), eta, delta, 256, 40)
    rep_b = sensitivity_probe(baker_target(), eta, delta, 256, 40)
    rep_c = sensitivity_probe(constant_target(), eta, delta, 256, 40)
    ok = (rep_t.verdict == "pass" and rep_b.verdict == "pass"
          and rep_c.verdict == "fail")
    _criterion(7, ok,
               "sensitivity eta=1/4 delta=2^-12 on 256 points (tent, baker); "
               "constant control fails")


def test_criterion_08_k3_graph():
    started = time.monotonic()
    sys = graph_system(parse_graph(EXAMPLE_GRAPHS["k3"]))
    target = graph_target(sys, "k3")
    # (a) exceptional set and fixedness
    expected = [Node("a"), Node("b"), Node("c"),
                Interior(1, HALF), Interior(3, HALF)]
    points = list(sys.exceptional)
    ok_a = points == expected and all(graph_map(sys, pt) == pt for pt in points)
    # (b) parameter-preserving descent on the middle arc
    rng = random.Random(SEED)
    ok_b = all(graph_map(sys, Interior(2, F(num, 64))) == Interior(1, F(num, 64))
               for num in range(1, 64))
    for _ in range(100):
        q = rng.randrange(2, 10 ** 4)
        t = F(rng.randrange(1, q), q)
        ok_b = ok_b and graph_map(sys, Interior(2, t)) == Interior(1, t)
    # (c) commuting on periodic words and the generator orbit
    ok_c = lemma6_commute_check(target, 12, 20000).verdict == "pass"
    # (d) periodic density per arc
    rep_d = periodic_density(target, 14, 5)
    ok_d = rep_d.verdict == "pass" and rep_d.params["covered"] == 96
    # (e) dense orbit on all arcs
    rep_e = dense_orbit_coverage(target, 60000, 5)
    ok_e = rep_e.verdict == "pass" and rep_e.params["covered"] == 96
    elapsed = time.monotonic() - started
    ok = ok_a and ok_b and ok_c and ok_d and ok_e and elapsed < 300
    _criterion(8, ok,
               f"K3: exceptional set fixed, descent, lemma-6 commute, "
               f"density 96/96, dense orbit 96/96 ({elapsed:.1f}s)")


def test_criterion_09_loop_doubling():
    sys = graph_system(parse_graph(EXAMPLE_GRAPHS["loop1"]))
    ok = graph_map(sys, Node("a")) == Node("a")
    # the pinned midpoint is the one exceptional interior point: it stays
    # fixed instead of following the doubling (recorded design conflict)
    ok = ok and graph_map(sys, Interior(1, HALF)) == Interior(1, HALF)
    for num in range(1, 256):
        t = F(num, 256)
        if t == HALF:
            continue
        doubled = 2 * t if t < HALF else 2 * t - 1
        ok = ok and graph_map(sys, Interior(1, t)) == Interior(1, doubled)
    _criterion(9, ok,
               "r=1 loop: doubling mod 1 on the p/2^8 grid away from the "
               "pinned midpoint; node and midpoint fixed")


def test_criterion_10_disconnected_graph():
    sys = graph_system(parse_graph(EXAMPLE_GRAPHS["two_segments"]))
    target = graph_target(sys, "two-segments")
    # (a) analogue
    expected = [Node("a"), Node("b"), Node("c"), Node("d"),
                Interior(1, HALF), Interior(2, HALF)]
    points = list(sys.exceptional)
    ok = points == expected and all(graph_map(sys, pt) == pt for pt in points)
    # (b) analogue: r=2 has no middle arc; the last-arc split carries the
    # parameter exactly
    rng = random.Random(SEED + 1)
    for num in range(1, 64):
        t = F(num, 64)
        if t == HALF:
            continue
        expected_pt = Interior(1, 2 * t) if t < HALF else Interior(2, 2 * t - 1)
        ok = ok and graph_map(sys, Interior(2, t)) == expected_pt
    for _ in range(100):
        q = rng.randrange(3, 10 ** 4, 2)
        t = F(rng.randrange(1, q), q)
        expected_pt = Interior(1, 2 * t) if t < HALF else Interior(2, 2 * t - 1)
        ok = ok and graph_map(sys, Interior(2, t)) == expected_pt
    # (c) analogue
    ok = ok and lemma6_commute_check(target, 12, 20000).verdict == "pass"
    _criterion(10, ok,
               "disconnected two-segment graph: parses, exceptional set "
               "fixed, split descent, lemma-6 commute")
