import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symchaos.decomposition import (
    _pin_key,
    InducedSystem,
    Violation,
    induced_apply,
    semiconjugacy_check,
    star_check,
    word_cells,
)
from symchaos.graphs import (
    EXAMPLE_GRAPHS,
    GraphSystem,
    Interior,
    Node,
    graph_map,
    graph_step,
    graph_system,
    parse_graph,
)
from symchaos.interval import (
    INTERVAL_CODEC,
    IntervalCodec,
    baker,
    baker_system,
    induced_baker,
    induced_tent,
    tent,
    tent_system,
)
from symchaos.streams import StreamWord, stream_shift
from symchaos.words import (
    Word,
    bits_of,
    dyadic_twin,
    parse_word,
    periodic_words,
    shift_map,
    word_value,
)

from prefixed import prepend_bits
from value_cells import point_cells

W = parse_word
F = Fraction


_bits = st.lists(st.integers(0, 1), max_size=12)
_from_bits = st.builds(Word, _bits, _bits.filter(bool))


@st.composite
def _tail_words(draw):
    """The expansions of p/(q 2^a) for odd q = 11, 1019 and 1000003 (periods
    of 10, 1,018 and 1,000,002 bits) or q = 1 (the dyadics, with their
    twins), behind a few prefixed bits."""
    q = draw(st.sampled_from([1, 11, 1019, 1000003])) << draw(st.integers(0, 5))
    words = bits_of(Fraction(draw(st.integers(0, q)), q))
    n = draw(st.integers(0, 3))
    return [prepend_bits(w, n, draw(st.integers(0, (1 << n) - 1))) for w in words]


_words = st.one_of(_from_bits, _tail_words().map(lambda ws: ws[-1]))


def _pairs(w):
    # equal words (one object twice, and one sequence from its bits and from
    # its value) and, on a dyadic, the word and its twin, in both orders
    same = Word._from_packed(w.pre_len, w.pre, w.period_len, w.period)
    twin = dyadic_twin(w)
    return [[w, w], [w, same], [same, w]] + ([[w, twin], [twin, w]] if twin else [])


@settings(max_examples=150, deadline=None)
@given(st.one_of(_words.map(_pairs), _tail_words().map(lambda ws: [ws, ws[::-1]]),
                 st.lists(_words, min_size=2, max_size=6).map(lambda ws: [ws])))
def test_fiber_words_are_the_sorted_set_of_its_words(cases):
    # a fiber is its words deduplicated, then sorted: equal words (one
    # sequence from its bits and from its value) hash alike and print alike,
    # and words order as their printed (preperiod, period) texts, so the
    # words in any order give one tuple, strictly increasing
    def texts(w):
        return tuple(str(w).split(":"))

    for words in cases:
        fib = tuple(sorted(set(words)))
        assert fib == tuple(sorted(set(words[::-1]))), words
        assert all(a < b for a, b in zip(fib, fib[1:])), words
        assert list(map(texts, fib)) == sorted(set(map(texts, words))), words


# ------------------------------------------------------------- star check

def test_star_shift_on_third_gives_two_thirds():
    out = star_check(baker_system(), INTERVAL_CODEC.encode(F(1, 3)))
    assert out == INTERVAL_CODEC.encode(F(2, 3))


def test_star_shift_violates_at_half():
    out = star_check(baker_system(), INTERVAL_CODEC.encode(F(1, 2)))
    assert isinstance(out, Violation)
    points = sorted(pt for _, pt in out.images)
    assert points == [F(0), F(1)]


def test_star_c_single_at_half():
    out = star_check(tent_system(), INTERVAL_CODEC.encode(F(1, 2)))
    assert out == INTERVAL_CODEC.encode(F(1))


def test_star_twin_images_are_not_a_violation():
    # both expansions of 1/4 shift to expansions of 1/2: same point
    out = star_check(baker_system(), INTERVAL_CODEC.encode(F(1, 4)))
    assert out == INTERVAL_CODEC.encode(F(1, 2))


# ---------------------------------------------------------- induced apply

def test_induced_baker_redirects_half_to_one():
    encode = INTERVAL_CODEC.encode
    assert induced_apply(baker_system(), encode(F(1, 2))) == encode(F(1))


def test_induced_identity_fixes_node_fiber(k3):
    fib = k3.encode(Node("b"))
    assert induced_apply(k3.induced, fib) == fib


def test_induced_tent_quarter_to_half():
    encode = INTERVAL_CODEC.encode
    assert induced_apply(tent_system(), encode(F(1, 4))) == encode(F(1, 2))


def test_induced_maps_decode_no_point(monkeypatch):
    # induced_point checks the fiber route's word against the closed form by
    # codec.addresses; a point is decoded only for a mismatch's message
    decoded = []
    for codec in (IntervalCodec, GraphSystem):
        def counted(self, w, decode=codec.decode):
            decoded.append(w)
            return decode(self, w)
        monkeypatch.setattr(codec, "decode", counted)
    rng = random.Random(31)
    dens = [rng.randrange(2, 10 ** 6) for _ in range(300)]
    for y in [F(k, 1024) for k in range(1025)] + [F(rng.randrange(q + 1), q) for q in dens]:
        assert induced_tent(y) == tent(y) and induced_baker(y) == baker(y)
    for name, text in sorted(EXAMPLE_GRAPHS.items()):
        sys = graph_system(parse_graph(text))
        points = list(sys.exceptional)
        for i in range(1, sys.r + 1):
            points += [Interior(i, F(k, 64)) for k in range(1, 64)]
            points += [Interior(i, F(rng.randrange(1, q), q)) for q in dens[:20]]
        for point in points:
            assert graph_map(sys, point) == graph_step(sys, point)
    assert decoded == []
    # an unpinned star failure: the override holds the point, and no image
    # word is decoded for a Violation nobody reads
    sys = graph_system(parse_graph("node a\nnode b\narc E1 a b\narc E2 b a\narc E3 b b\n"))
    point = Interior(1, F(3, 4))
    assert graph_map(sys, point) == graph_step(sys, point) == point
    assert decoded == []
    assert isinstance(star_check(sys.induced, sys.encode(point)), Violation)
    assert len(decoded) == 2  # star_check's callers still get decoded images


# ------------------------------------------------------- semi conjugacy

def test_semiconjugacy_examples():
    assert semiconjugacy_check(tent_system(), W(":10")) is True
    assert semiconjugacy_check(baker_system(), W("1:0")) is False
    assert semiconjugacy_check(baker_system(), W(":01")) is True


def _words_up_to(total):
    """Every word with pre_len + period_len <= total."""
    return list(dict.fromkeys(
        Word._from_packed(m, pre, k, per)
        for k in range(1, total + 1) for m in range(total - k + 1)
        for pre in range(1 << m) for per in range(1 << k)))


def _point_key(codec, w):
    """The former point identity: the decoded point on a graph, the
    ...10^inf word of an interval dyadic."""
    if isinstance(codec, GraphSystem):
        return codec.decode(w)
    if w.period_len == 1 and w.period == 1 and w.pre_len:
        return dyadic_twin(w)
    return w


def _star_check_by_point_keys(sys, fib):
    """The former star check: image words compared as points through keys,
    the target fiber through a decode and an encode."""
    codec = sys.codec
    images = [sys.symbolic_map(w) for w in fib]
    if len({_point_key(codec, w) for w in images}) == 1:
        return codec.encode(codec.decode(images[0]))
    return Violation(tuple((w, codec.decode(w)) for w in images))


def _system(name):
    if name in ("tent", "baker"):
        return tent_system() if name == "tent" else baker_system()
    return graph_system(parse_graph(EXAMPLE_GRAPHS[name])).induced


@pytest.mark.parametrize("name", ["tent", "baker", *EXAMPLE_GRAPHS])
def test_star_check_by_membership_matches_point_keys(name):
    sys = _system(name)
    # violations occur over baker's 1/2 and on path2 and two_segments
    codec = sys.codec
    for w in _words_up_to(8):
        fib = codec.encode(codec.decode(w))
        assert codec.fiber_of(w) == fib
        # the encoded words hold their tails as s/q
        assert all(codec.fiber_of(v) == fib for v in fib)
        assert star_check(sys, fib) == _star_check_by_point_keys(sys, fib)


def test_semiconjugacy_streams():
    # the commute holds at every iterate of the dense word by construction
    # (its point is irrational and never pinned), so semiconjugacy_check
    # takes Words only; nor do 512 bits confuse a shifted dense word with a
    # pinned point
    for sys in (baker_system(), tent_system()):
        codec = sys.codec
        cells = word_cells(codec, [w for fib in sys.pinned_fibers for w in fib], 512)
        sw = StreamWord()
        for _ in range(50):
            assert codec.split_window(sw.window_int(512), 512) not in cells
            sw = stream_shift(sw)


def test_single_fiber_outcomes_commute():
    # wherever the star condition holds, the induced image is the target
    # fiber and every member commutes
    sys = baker_system()
    for num in range(0, 33):
        fib = INTERVAL_CODEC.encode(F(num, 32))
        out = star_check(sys, fib)
        if not isinstance(out, Violation):
            assert induced_apply(sys, fib) == out
            for w in fib:
                assert semiconjugacy_check(sys, w)


def test_tent_fibers_have_preimages():
    # onto-ness evidence: fibers over the dyadic grid and random rationals
    # are hit from the half-resolution grid / the inverse tent branches
    sys = tent_system()
    for num in range(0, 257):
        y = F(num, 256)
        target = INTERVAL_CODEC.encode(y)
        pre = F(num, 512)  # tent(num/512) = num/256 on the left branch
        assert induced_apply(sys, INTERVAL_CODEC.encode(pre)) == target
    rng = random.Random(7)
    for _ in range(200):
        q = rng.randrange(2, 10 ** 4)
        y = F(rng.randrange(0, q + 1), q)
        candidates = [y / 2, 1 - y / 2]
        assert any(induced_apply(sys, INTERVAL_CODEC.encode(c)) == INTERVAL_CODEC.encode(y)
                   for c in candidates)


@pytest.mark.parametrize("sysname", ["tent", "baker"])
def test_periodic_projections_closed_under_induced_map(sysname):
    # images of fibers of short periodic words are again such fibers
    sys = tent_system() if sysname == "tent" else baker_system()
    words = set()
    for k in range(1, 13):
        words.update(periodic_words(k))
    fibers = {sys.codec.fiber_of(w) for w in words}
    for fib in fibers:
        assert induced_apply(sys, fib) in fibers


def test_graph_violations_within_exceptional_set(k3, path2, loop1, figure8, two_segments):
    # star violations occur only on the computed exceptional set; the
    # containment may be strict (some exceptional fibers shift into a
    # single fiber), which is reported, not failed
    for sys in (k3, path2, loop1, figure8, two_segments):
        exceptional = set(sys.exceptional)
        points = list(exceptional)
        for i in range(1, sys.spec.r + 1):
            for num in range(1, 64):
                points.append(Interior(i, F(num, 64)))
        violations = set()
        for pt in points:
            if isinstance(star_check(sys.induced, sys.encode(pt)), Violation):
                violations.add(pt)
        assert violations <= exceptional
        strict = exceptional - violations
        if strict:
            print(f"{sys.spec.arcs[0].id}-graph: exceptional beyond violations: "
                  f"{sorted(map(repr, strict))}")


@pytest.mark.parametrize("name", ["tent", "baker", *EXAMPLE_GRAPHS])
def test_pinned_data_is_derived_from_the_pinned_points(name):
    sys = _system(name)
    codec, points = sys.codec, sys.pinned_points
    assert type(points) is tuple
    assert sys.pinned_fibers == {codec.encode(pt) for pt in points}
    assert sys.pinned_keys == {_pin_key(fib) for fib in sys.pinned_fibers}


CELL_SPACES = {"interval": INTERVAL_CODEC,
               **{name: graph_system(parse_graph(text)) for name, text in EXAMPLE_GRAPHS.items()},
               "cycle9": graph_system(parse_graph(
                   "".join(f"node n{i}\n" for i in range(9))
                   + "".join(f"arc E{i + 1} n{i} n{(i + 1) % 9}\n" for i in range(9))))}
# dyadic parameters on both sides of a cell end at p <= 16 and at 512, and
# parameters with a preperiod, a period or both
CELL_PARAMETERS = [F(1, 2), F(1, 4), F(3, 4), F(3, 8), F(5, 16), F(1, 1 << 16),
                   F((1 << 16) - 1, 1 << 16), F(1, 1 << 17), F(3, 1 << 17), F(1, 1 << 512),
                   F((1 << 512) - 1, 1 << 512), F(1, 1 << 513), F((1 << 513) - 1, 1 << 513),
                   F(1, 3), F(2, 3), F(2, 7), F(5, 12), F(1, 10), F(7, 9), F(1, 2 ** 61 - 1)]


def _cell_points(codec):
    if codec.r == 1 and not isinstance(codec, GraphSystem):
        return [F(0), F(1), *CELL_PARAMETERS]
    return ([Node(v) for v in codec.spec.nodes]
            + [Interior(i, t) for i in range(1, codec.r + 1) for t in CELL_PARAMETERS])


@pytest.mark.parametrize("name", CELL_SPACES)
def test_word_cells_of_a_fiber_are_the_cells_that_hold_its_point(name):
    # the cells a point's fiber words address are those its value lies in
    codec = CELL_SPACES[name]
    for pt in _cell_points(codec):
        fib = codec.encode(pt)
        for p in (*range(1, 17), 512):
            expected = point_cells(codec, pt, p)
            assert word_cells(codec, fib, p) == set(expected), (pt, p)
            assert len(set(expected)) == len(expected)


def test_equal_fibers_share_a_pin_key():
    # a word made from bits keeps q = 2^k - 1 and one made from its value
    # keeps s/q in lowest terms (3/15 and 1/5): the key must not tell them apart
    for k in range(1, 9):
        for w in periodic_words(k):
            for pre in ((), (0,), (1,), (1, 0, 1)):
                word = Word(pre, map(int, format(w.period, f"0{w.period_len}b")))
                by_bits = INTERVAL_CODEC.fiber_of(word)
                by_value = INTERVAL_CODEC.encode(word_value(word))
                assert by_bits == by_value
                assert _pin_key(by_bits) == _pin_key(by_value)


def test_induced_system_fields_are_set_once_and_compare_by_identity():
    sys = baker_system()
    fields = ("name", "symbolic_map", "codec", "designated", "pinned_points",
              "pinned_fibers", "pinned_keys")
    assert repr(sys) == "InducedSystem(%s)" % ", ".join(
        f"{f}={getattr(sys, f)!r}" for f in fields)
    for field in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(sys, field, None)
    again = InducedSystem(sys.name, sys.symbolic_map, sys.codec, sys.designated,
                          sys.pinned_points)
    assert again != sys and again.pinned_fibers == sys.pinned_fibers
    assert len({sys, again, sys}) == 2
    for clone in (copy.copy(sys), copy.deepcopy(sys), pickle.loads(pickle.dumps(sys))):
        assert clone is not sys and clone.pinned_fibers == sys.pinned_fibers
    # a graph system and its induced system refer to each other
    k3 = copy.deepcopy(graph_system(parse_graph(EXAMPLE_GRAPHS["k3"])))
    assert k3.induced.codec is k3 and graph_map(k3, Node("a")) == Node("a")


def test_violations_are_immutable_values():
    v = star_check(baker_system(), INTERVAL_CODEC.encode(Fraction(1, 2)))
    again = Violation(v.images)
    assert isinstance(v, Violation) and v == again and hash(v) == hash(again)
    with pytest.raises(AttributeError):
        v.images = ()


def test_induced_system_takes_no_derived_data():
    half = Fraction(1, 2)
    sys = InducedSystem("baker", shift_map, INTERVAL_CODEC, 1, [half])
    assert sys.pinned_points == (half,)
    assert sys.pinned_fibers == {INTERVAL_CODEC.encode(half)}
    for derived in ("pinned_fibers", "pinned_keys"):
        with pytest.raises(TypeError):
            InducedSystem("baker", shift_map, INTERVAL_CODEC, 1, (half,),
                          **{derived: sys.pinned_fibers})
