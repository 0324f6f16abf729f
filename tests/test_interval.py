import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import point_route
from symchaos.decomposition import Violation, induced_orbit, star_check
from symchaos.graphs import EXAMPLE_GRAPHS, GraphSystem, Interior, Node, parse_graph
from symchaos.interval import (
    INTERVAL_CODEC,
    _baker,
    _show,
    _tent,
    as_unit,
    baker,
    baker_system,
    conjugate_via_r,
    induced_baker,
    induced_tent,
    tent,
    tent_system,
)
from symchaos.streams import StreamWord, stream_shift, value_enclosure
from symchaos.verifier import (
    Target,
    constant_target,
    dense_orbit_coverage,
    rotation_target,
    sensitivity_probe,
    tent_target,
    transitivity_witness,
)
from symchaos.words import Word, bits_of, parse_word, periodic_words, prefix_int, word_value

W = parse_word
F = Fraction


def test_as_unit_rejects_out_of_range():
    with pytest.raises(ValueError):
        as_unit(F(5, 4))
    with pytest.raises(ValueError):
        as_unit(F(-1, 4))


def test_as_unit_message_survives_huge_values():
    # str() of an int over 4300 digits raises; the message must not need it
    huge = F(10 ** 5000 + 1, 10 ** 5000)
    with pytest.raises(ValueError, match=r"point a fraction with a \d+-bit numerator and "
                                         r"a \d+-bit denominator outside \[0, 1\]"):
        as_unit(huge)


def test_interval_fiber_examples():
    assert INTERVAL_CODEC.encode(F(0)) == (W(":0"),)
    assert set(INTERVAL_CODEC.encode(F(1, 2))) == {W("1:0"), W("0:1")}
    assert INTERVAL_CODEC.encode(F(2, 3)) == (W(":10"),)


def test_tent_formula():
    assert tent(F(1, 4)) == F(1, 2)
    assert tent(F(2, 3)) == F(2, 3)
    assert tent(F(1, 2)) == 1
    assert tent(F(1)) == 0


def test_baker_formula():
    assert baker(F(1, 4)) == F(1, 2)
    assert baker(F(3, 4)) == F(1, 2)
    assert baker(F(1, 2)) == 1
    assert baker(F(1)) == 1


def _tent_by_fractions(y):
    return 2 * y if y <= F(1, 2) else 2 * (1 - y)


def _baker_by_fractions(y):
    return 2 * y if y <= F(1, 2) else 2 * y - 1


CLOSED_FORMS = ((tent, _tent_by_fractions), (baker, _baker_by_fractions))


@given(st.one_of(st.sampled_from([F(0), F(1, 2), F(1)]), st.fractions(0, 1)))
def test_integer_closed_forms_match_fraction_arithmetic(y):
    for closed, oracle in CLOSED_FORMS:
        image = closed(y)
        assert type(image) is Fraction and image == oracle(y)
        assert closed(str(y)) == image


@pytest.mark.parametrize("y", [0, 1, "0", "1", "1/2", " 2/6 ", "0.25", "3e-1"])
def test_closed_forms_take_every_input_as_unit_takes(y):
    for closed, oracle in CLOSED_FORMS:
        image = closed(y)
        assert type(image) is Fraction and image == oracle(F(y))
    assert induced_tent(y) == tent(y) and induced_baker(y) == baker(y)


@given(st.one_of(st.fractions().filter(lambda y: not 0 <= y <= 1),
                 st.integers().filter(lambda n: n not in (0, 1))))
def test_points_outside_the_unit_interval_are_rejected_with_their_messages(y):
    for f in (tent, baker, induced_tent, induced_baker):
        with pytest.raises(ValueError) as exc:
            f(y)
        assert str(exc.value) == f"point {_show(F(y))} outside [0, 1]"
    with pytest.raises(ValueError) as exc:
        bits_of(y)
    assert str(exc.value) == f"point {_show(F(y))} outside [0, 1]"


@pytest.mark.parametrize("y", ["3/2", "-1/4", "2", "1.5"])
def test_text_outside_the_unit_interval_is_rejected_with_its_message(y):
    for f in (tent, baker, induced_tent, induced_baker):
        with pytest.raises(ValueError, match=f"^point {F(y)} outside "):
            f(y)


def test_induced_tent_examples():
    assert induced_tent(F(1, 2)) == 1
    assert induced_tent(F(1, 3)) == F(2, 3)
    assert induced_tent(F(5, 8)) == F(3, 4)


def test_induced_baker_examples():
    assert induced_baker(F(1, 2)) == 1
    assert induced_baker(F(1, 3)) == F(2, 3)
    assert induced_baker(F(5, 8)) == F(1, 4)


def test_induced_maps_match_formulas_on_grid():
    for num in range(0, 257):
        y = F(num, 256)
        assert induced_tent(y) == tent(y)
        assert induced_baker(y) == baker(y)


def test_induced_maps_match_formulas_random():
    rng = random.Random(99)
    for _ in range(100):
        q = rng.randrange(2, 10 ** 5)
        y = F(rng.randrange(0, q + 1), q)
        assert induced_tent(y) == tent(y)
        assert induced_baker(y) == baker(y)


@pytest.mark.parametrize("q", [1009 * 1013, 1009 ** 2, 3 * 1019 * 1021, 10007 * 10009])
def test_induced_maps_exact_for_composite_cofactors(q):
    # odd parts with a composite cofactor above 1000 (1009·1013 = 1022117)
    for y in (F(1, q), F(q // 2, q), F(q - 1, q), F(3, 2 * q), F(5, 1024 * q)):
        assert induced_tent(y) == tent(y)
        assert induced_baker(y) == baker(y)


def test_star_dichotomy_on_grid():
    violations = []
    for num in range(0, 129):
        y = F(num, 128)
        assert star_check(tent_system(), INTERVAL_CODEC.encode(y)) == INTERVAL_CODEC.encode(tent(y))
        if isinstance(star_check(baker_system(), INTERVAL_CODEC.encode(y)), Violation):
            violations.append(y)
    assert violations == [F(1, 2)]


def test_conjugate_via_r_examples():
    assert conjugate_via_r(F(0)) == 0
    assert conjugate_via_r(F(2, 3)) == 1
    assert conjugate_via_r(F(1, 3)) == 1


def test_conjugate_via_r_uses_terminating_expansion():
    # dyadics transport through the ...10^inf expansion; the two expansions
    # of 1/4 transport to different words (11:0 vs 01:0), so the choice of
    # the first shows
    assert conjugate_via_r(F(1, 4)) == F(3, 4)
    from symchaos.words import bits_of, r_map
    other = word_value(r_map(bits_of(F(1, 4))[1]))
    assert other == F(1, 4)


def test_tent_periodic_projections():
    # projections of short periodic words that survive exact iteration are
    # tent-periodic with period dividing the word period
    for k in (1, 2, 3, 4, 6, 12):
        for w in periodic_words(k):
            y = word_value(w)
            cur = y
            for _ in range(k):
                cur = tent(cur)
            returns = cur == y
            # the word returns under the symbol map iff its k-th bit is 0
            # (else the orbit lands on the complement value)
            if prefix_int(w, k) & 1 == 0:
                assert returns


def test_baker_orbit_tracks_stream_enclosures():
    # the induced-baker image of each enclosure contains the next one
    precision = 48
    sw = StreamWord()
    for _ in range(500):
        lo, hi = value_enclosure(sw, precision)
        bits = set(sw.prefix(precision))
        assert bits == {0, 1}  # never a constant window, so 1/2 is interior-free
        nxt = stream_shift(sw)
        nlo, nhi = value_enclosure(nxt, precision)
        if hi <= F(1, 2):
            img_lo, img_hi = induced_baker(lo), induced_baker(hi)
        elif lo >= F(1, 2):
            img_lo, img_hi = induced_baker(lo), induced_baker(hi)
        else:
            # straddling windows cannot occur at this precision here
            raise AssertionError("enclosure straddles the branch point")
        assert img_lo <= nlo and nhi <= img_hi
        sw = nxt


# ------------------------------------------- the fiber route's invariant

def _near_misses(y):
    """y, its neighbours with the numerator one off, and the same numerators
    over other denominators, all in [0, 1]."""
    n, d = y.numerator, y.denominator
    return {F(m, e) for m in (n - 1, n, n + 1) for e in (d - 1, d, d + 1, 2 * d, 3 * d)
            if 0 <= m <= e and e > 0}


def _assert_addresses_as_decode_compares(w, y):
    # the slow oracle: decode the word and compare the points
    image = INTERVAL_CODEC.decode(w)
    for z in _near_misses(y):
        # the pair in lowest terms, and thrice it, as an orbit's fixed d gives it
        n, d = z.as_integer_ratio()
        assert INTERVAL_CODEC.addresses(w, n, d) == (image == z), (w, z)
        assert INTERVAL_CODEC.addresses(w, 3 * n, 3 * d) == (image == z), (w, z)


DYADICS = st.builds(lambda k, e: F(k % ((1 << e) + 1), 1 << e),
                    st.integers(0, 1 << 40), st.integers(0, 40))
UNIT_POINTS = st.one_of(st.sampled_from([F(0), F(1, 2), F(1)]), DYADICS,
                        st.fractions(0, 1, max_denominator=10 ** 6))


@given(UNIT_POINTS)
def test_addresses_agrees_with_decode_on_every_word_of_a_fiber(y):
    for w in INTERVAL_CODEC.encode(y):
        assert INTERVAL_CODEC.addresses(w, *y.as_integer_ratio())
        _assert_addresses_as_decode_compares(w, y)


# system: (the induced system, the closed form on pairs and on points, the
# library's induced map, the point route's)
INDUCED = {"tent": (tent_system, _tent, tent, induced_tent, point_route.induced_tent),
           "baker": (baker_system, _baker, baker, induced_baker, point_route.induced_baker)}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(sorted(INDUCED)), UNIT_POINTS, st.integers(1, 50))
def test_induced_orbit_steps_as_the_point_route_does(name, y, steps):
    # every pair the generator gives is the point the point route reaches,
    # step by step, and every fiber is that point's encoding, in order; a
    # single step is the closed form
    system, pairs, closed, induced, oracle = INDUCED[name]
    assert induced(y) == closed(y) == oracle(y)
    point = y
    for k, ((n, d), fib) in zip(range(steps + 1), induced_orbit(system(), pairs, y)):
        assert F(n, d) == point and fib == INTERVAL_CODEC.encode(point), (k, point)
        point = oracle(point)


BITS = st.lists(st.integers(0, 1), max_size=12)


@given(st.builds(Word, BITS, BITS.filter(len)))
def test_addresses_agrees_with_decode_on_words_made_from_bits(w):
    # a word made from bits keeps its tail over 2^k - 1, not in lowest terms
    _assert_addresses_as_decode_compares(w, word_value(w))


@pytest.mark.parametrize("name,induced", [("tent", induced_tent), ("baker", induced_baker)])
def test_fiber_route_mismatch_raises_arithmetic_error(monkeypatch, name, induced):
    # a wrong closed form stands in for a wrong fiber route: either way the
    # two disagree, and the induced map must not return a value
    import symchaos.interval

    closed = getattr(symchaos.interval, "_" + name)  # the closed form, 2^-40 off
    monkeypatch.setattr(symchaos.interval, "_" + name,
                        lambda n, d: ((closed(n, d)[0] << 40) + d, d << 40))
    with pytest.raises(ArithmeticError, match=f"induced {name} map at 1/3 gave"):
        induced(F(1, 3))


@pytest.mark.parametrize("y", ["abc", "1/0", None, [0], float("nan"), float("inf"),
                               1.5, 2, -1, F(3, 2)])
def test_induced_maps_reject_what_as_unit_rejects_with_its_message(y):
    # the induced maps read a point only in IntervalCodec.read, by as_unit
    with pytest.raises(Exception) as expected:
        as_unit(y)
    for induced in (induced_tent, induced_baker):
        with pytest.raises(expected.type) as exc:
            induced(y)
        assert str(exc.value) == str(expected.value)


@pytest.mark.parametrize("y,shown", [("1/3", "1/3"), (0.25, "1/4"), (0, "0"), (1, "1")])
@pytest.mark.parametrize("name,induced", [("tent", induced_tent), ("baker", induced_baker)])
def test_fiber_route_mismatch_names_a_point_given_as_text_or_number(monkeypatch, name,
                                                                    induced, y, shown):
    import symchaos.interval

    closed = getattr(symchaos.interval, "_" + name)  # the closed form, 2^-40 off
    monkeypatch.setattr(symchaos.interval, "_" + name,
                        lambda n, d: ((closed(n, d)[0] << 40) + d, d << 40))
    with pytest.raises(ArithmeticError, match=f"^induced {name} map at {shown} gave "):
        induced(y)


def test_fiber_route_invariant_survives_optimized_mode():
    # python -O strips assert statements; the check must not be one
    import os
    import subprocess
    import sys

    import symchaos

    code = ("import symchaos.interval as m\n"
            "m._tent = lambda n, d: (0, 1)\n"
            "try:\n"
            "    m.induced_tent(m.Fraction(1, 3))\n"
            "except ArithmeticError:\n"
            "    raise SystemExit(7)\n")
    src = os.path.dirname(symchaos.__path__[0])
    done = subprocess.run([sys.executable, "-O", "-c", code], env={"PYTHONPATH": src})
    assert done.returncode == 7


# -- one reader: every entry reads a point by as_unit -------------------------

K3 = GraphSystem(parse_graph(EXAMPLE_GRAPHS["k3"]))

READERS = {
    "as_unit": as_unit,
    "bits_of": bits_of,
    "encode": INTERVAL_CODEC.encode,
    "tent": tent,
    "baker": baker,
    "induced_tent": induced_tent,
    "induced_baker": induced_baker,
    "point_at": lambda y: K3.point_at(1, y),
}


@pytest.mark.parametrize("y", [F(2, 5), 1, 0.375, " 2/6 ", "3e-1", "0.25"])
def test_every_entry_reads_a_point_as_its_fraction(y):
    exact = F(y)
    for name, read in READERS.items():
        assert read(y) == read(exact), name
    assert type(as_unit(y)) is Fraction
    if 0 < exact < 1:
        point = Interior(2, y)
        assert point == Interior(2, exact) and type(point.t) is Fraction


@pytest.mark.parametrize("y", [F(3, 2), -1, 1.5, "-1/4", "2", F(-10 ** 4999), None, "x", "1/0",
                               [0], float("nan"), float("inf")])
def test_every_entry_rejects_a_point_with_the_error_of_as_unit(y):
    with pytest.raises(Exception) as expected:
        as_unit(y)
    for name, read in dict(READERS, Interior=lambda y: Interior(1, y)).items():
        with pytest.raises(expected.type) as exc:
            read(y)
        assert str(exc.value) == str(expected.value), name


def test_point_at_reads_its_parameter_before_it_tests_for_the_ends():
    for t in (0, 0.0, "0", F(0)):
        assert K3.point_at(1, t) == Node("a")
    for t in (1, 1.0, "1", " 2/2 "):
        assert K3.point_at(1, t) == Node("b")


@pytest.mark.parametrize("exponent", ["10001", "-10001", "+1_0001", "-99999", "-100000000"])
def test_a_decimal_exponent_past_its_bound_is_refused_by_every_entry(exponent):
    # read as it is written, 1e-100000000 ran past 5 s while Fraction built
    # the power of ten; the bound is words.MAX_EXPONENT, as on the CLI
    entries = dict(READERS, constant_target=constant_target, rotation_target=rotation_target)
    for name, read in entries.items():
        started = time.monotonic()
        with pytest.raises(ValueError) as exc:
            read(f"1e{exponent}")
        assert time.monotonic() - started < 1, name
        assert str(exc.value) == f"exponent {int(exponent)} outside [-10^4, 10^4]", name


def test_a_decimal_exponent_within_its_bound_reads():
    assert tent("1e-4") == F(1, 5000) and tent("1E-10000") == F(2, 10 ** 10000)
    assert tent("1e-5000") == F(2, 10 ** 5000)  # the README's two examples
    with pytest.raises(ValueError, match=r"^point a fraction with a 16610-bit numerator "):
        tent("1e5000")
    # text that is no rational keeps Fraction's message, whatever its exponent
    for text in ("x1e99999", "1e5x", "1e+-5"):
        with pytest.raises(ValueError, match="^Invalid literal for Fraction: "):
            tent(text)


# -- one printer: a number past _SHOWN_BITS is named by its size --------------

HUGE = 10 ** 4999  # a 5,000-digit numerator
SIZED = "a fraction with a 16607-bit numerator and a 1-bit denominator"
NEGATIVE = "a negative " + SIZED[2:]
TENT = tent_target()


@pytest.mark.parametrize("call,message", [
    (lambda: as_unit(F(HUGE)), f"point {SIZED} outside [0, 1]"),
    (lambda: bits_of(F(HUGE)), f"point {SIZED} outside [0, 1]"),
    (lambda: Interior(1, F(HUGE)), f"point {SIZED} outside [0, 1]"),
    (lambda: K3.point_at(1, F(HUGE)), f"point {SIZED} outside [0, 1]"),
    (lambda: K3.spec.arc(HUGE), f"arc index {SIZED} out of range 1..3"),
    (lambda: sensitivity_probe(TENT, F(-HUGE), F(1, 8), 4, 10),
     f"eta must be positive, got {NEGATIVE}"),
    (lambda: sensitivity_probe(TENT, F(1, 4), F(HUGE), 4, 10),
     f"delta must lie strictly between 0 and 1, got {SIZED}"),
    (lambda: periodic_words(-HUGE), f"n must be at least 1, got {NEGATIVE}"),
    (lambda: dense_orbit_coverage(TENT, HUGE, 4), f"steps {SIZED} exceeds bound 10^6"),
    (lambda: transitivity_witness(Target("steep", _tent, INTERVAL_CODEC,
                                         ((F(0), F(1), F(HUGE, 3), F(0)),)), 2, 2),
     "system 'steep': the lap route needs integer branch slopes, got "
     "a fraction with a 16607-bit numerator and a 2-bit denominator"),
], ids=["as_unit", "bits_of", "Interior", "point_at", "arc", "eta", "delta", "least", "bound",
        "slope"])
def test_a_huge_number_is_named_by_its_size(call, message):
    assert _show(HUGE) == SIZED
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("call", [tent, baker, induced_tent, induced_baker,
                                  lambda t: Interior(1, t), lambda t: K3.point_at(1, t)],
                         ids=["tent", "baker", "induced_tent", "induced_baker", "Interior",
                              "point_at"])
def test_an_infinity_or_nan_is_a_value_error(call, x):
    # an infinity has no integer ratio: Fraction raises OverflowError, an
    # ArithmeticError that the CLI would report as an internal failure
    with pytest.raises(ValueError):
        call(x)


@pytest.mark.parametrize("x", [3, -3, 0.1, 2.5e70, F(-7, 3), F((1 << 256) - 1, 3), F(1, 1 << 255)])
def test_show_prints_a_number_of_at_most_256_bits_as_str_does(x):
    assert _show(x) == str(x)


@pytest.mark.parametrize("x,sized", [(1 << 256, "257-bit numerator and a 1-bit"),
                                     (F(-1, 1 << 256), "1-bit numerator and a 257-bit"),
                                     (1e300, "997-bit numerator and a 1-bit"),
                                     (-(10 ** 100), "333-bit numerator and a 1-bit")])
def test_show_names_a_number_past_256_bits_by_its_size(x, sized):
    # a negative value says so; the sizes are of the parts' magnitudes
    sign = "negative " if x < 0 else ""
    assert _show(x) == f"a {sign}fraction with a {sized} denominator"
