import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import point_route
import symchaos.graphs
from symchaos.decomposition import induced_apply, induced_orbit
from symchaos.graphs import (
    EXAMPLE_GRAPHS,
    GraphError,
    Interior,
    Node,
    graph_map,
    graph_metric,
    graph_step,
    graph_system,
    _arc_address,
    _form,
    _hausdorff,
    lattice_far,
    parse_graph,
)
from symchaos.interval import INTERVAL_CODEC
from symchaos.words import (Word, _order_of_two, _pack, bits_of, c_map, parse_word, prefix_int,
                            shift_map, with_twin, word_metric, word_value)

import tuple_lattice
from prefixed import drop_bits, prepend_bits
from tuple_lattice import int_key
from value_cells import point_cells

W = parse_word
F = Fraction


# ------------------------------------------------------------------ parser

def test_parse_simple_arc():
    spec = parse_graph("node a\nnode b\narc E1 a b\n")
    assert spec.r == 1
    assert spec.arcs[0] == ("E1", "a", "b")
    assert spec.nodes == ("a", "b")


def test_parse_k3_prefixes(k3):
    assert k3.spec.r == 3
    assert k3.prefixes == [(1, 0), (2, 2), (2, 3)]  # 0, 10, 11


@pytest.mark.parametrize("r", range(1, 13))
def test_packed_prefixes_match_the_bit_tuples(r):
    # arc i < r owns 1^(i-1) 0 and the last arc 1^(r-1), as (length, bits)
    spec = parse_graph("node a\n" + "".join(f"arc E{i} a a\n" for i in range(1, r + 1)))
    bits = [(1,) * (i - 1) + (0,) for i in range(1, r)] + [(1,) * (r - 1)]
    assert graph_system(spec).prefixes == [_pack(b) for b in bits]
    assert INTERVAL_CODEC.prefixes == (_pack(()),)


def test_parse_loop_allowed():
    spec = parse_graph("node a\narc E1 a a\n")
    assert spec.arcs[0].tail == spec.arcs[0].head == "a"


def test_parse_comments_and_blank_lines():
    spec = parse_graph("# a triangle\n\nnode a\nnode b # inline\nnode c\n"
                       "arc E1 a b\narc E2 b c\narc E3 c a\n")
    assert spec.r == 3


@pytest.mark.parametrize("text,fragment", [
    ("node a\nnode a\narc E1 a a\n", "duplicate"),
    ("node a\narc E1 a b\n", "unknown node"),
    ("node a\n", "empty graph"),
    ("", "empty graph"),
    ("node a\nedge E1 a a\n", "unknown directive"),
    ("node a\narc E1 a\n", "expected"),
    ("node a*\narc E1 a a\n", "bad identifier"),
    ("node a\nnode b\nnode c\narc E1 a b\n", "not an endpoint"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GraphError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,message", [
    ("node\n", "line 1: expected 'node <id>'"),
    ("node a b\n", "line 1: expected 'node <id>'"),
    ("node a\narc E1 a\n", "line 2: expected 'arc <id> <tail> <head>'"),
    ("node a\narc a a a\n", "line 2: duplicate id 'a'"),
    ("node a\narc E1 a a\nnode E1\n", "line 3: duplicate id 'E1'"),
    ("node a\narc E* a a\n", "line 2: bad identifier 'E*'"),
    ("node a\narc E1 a z\n", "line 2: unknown node 'z'"),
    ("node a\nedge E1 a a\n", "line 2: unknown directive 'edge'"),
])
def test_parse_error_messages_in_full(text, message):
    with pytest.raises(GraphError) as err:
        parse_graph(text)
    assert str(err.value) == message


def _quoted(text):
    """A 5,000-character text as a message quotes it."""
    return f"{text[:256]!r}... ({len(text)} characters)"


LONG_ID, LONG_BAD = "x" * 5000, "*" * 5000


@pytest.mark.parametrize("text,message", [
    (f"node a\n{LONG_ID} E1 a a\n", f"line 2: unknown directive {_quoted(LONG_ID)}"),
    (f"node {LONG_BAD}\n", f"line 1: bad identifier {_quoted(LONG_BAD)}"),
    (f"node {LONG_ID}\nnode {LONG_ID}\n", f"line 2: duplicate id {_quoted(LONG_ID)}"),
    (f"node a\narc E1 a {LONG_ID}\n", f"line 2: unknown node {_quoted(LONG_ID)}"),
    (f"node {LONG_ID}\nnode a\narc E1 a a\n",
     f"node {_quoted(LONG_ID)} is not an endpoint of any arc"),
], ids=["directive", "identifier", "duplicate", "node", "endpoint"])
def test_parse_errors_quote_a_long_text_by_its_length(text, message):
    with pytest.raises(GraphError) as err:
        parse_graph(text)
    assert str(err.value) == message


def test_graph_errors_quote_a_long_id_by_its_length(k3):
    for call, message in [(lambda: k3.arc_index(LONG_ID), "unknown arc"),
                          (lambda: k3.encode(Node(LONG_ID)), "unknown node"),
                          (lambda: graph_step(k3, Node(LONG_ID)), "unknown node")]:
        with pytest.raises(GraphError) as err:
            call()
        assert str(err.value) == f"{message} {_quoted(LONG_ID)}"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphError) as err:
        parse_graph("node a\nnode a\n")
    assert str(err.value).startswith("line 2:")


def test_disconnected_graph_parses(two_segments):
    assert two_segments.spec.r == 2
    assert two_segments.prefixes == [(1, 0), (1, 1)]  # 0, 1


# ------------------------------------------------------------------ codec

def test_encode_examples(k3):
    assert set(k3.encode(Interior(2, F(1, 3)))) == {W("10:01")}
    assert set(k3.encode(Node("b"))) == {W("0:1"), W("1:0")}
    assert set(k3.encode(Interior(3, F(1, 2)))) == {W("111:0"), W("110:1")}


def test_decode_examples(k3):
    assert k3.decode(W("0:01")) == Interior(1, F(1, 3))
    assert k3.decode(W(":1")) == Node("a")
    assert k3.decode(W("1:0")) == Node("b")


def test_codec_round_trip_sampled(k3, loop1, figure8, two_segments):
    rng = random.Random(5)
    for sys in (k3, loop1, figure8, two_segments):
        points = [Node(v) for v in sys.spec.nodes]
        for i in range(1, sys.spec.r + 1):
            points.append(Interior(i, F(1, 2)))
            points.append(Interior(i, F(1, 3)))
            for _ in range(20):
                q = rng.randrange(2, 500)
                p = rng.randrange(1, q)
                points.append(Interior(i, F(p, q)))
        for pt in points:
            fib = sys.encode(pt)
            for w in fib:
                assert sys.decode(w) == pt
            # decode is constant on the fiber and encode recovers it
            assert sys.encode(sys.decode(fib[0])) == fib


def test_cylinder_partition(k3, path2, loop1, figure8, two_segments):
    # every prefix of length r+4 decodes, and the fiber of the decoded
    # point contains a word carrying that prefix
    for sys in (k3, path2, loop1, figure8, two_segments):
        n = sys.spec.r + 4
        for seed in range(1 << n):
            w = Word._from_packed(n, seed, 1, 0)
            pt = sys.decode(w)
            fib = sys.encode(pt)
            assert any(prefix_int(member, n) == seed for member in fib)


SPACES = {"interval": INTERVAL_CODEC,
          **{name: graph_system(parse_graph(text)) for name, text in EXAMPLE_GRAPHS.items()}}
bits = st.lists(st.integers(0, 1), max_size=8)


def _arcs_of(space, point):
    """The arcs a decoded point lies on: every incident arc for a node."""
    if isinstance(point, Interior):
        return {point.arc}
    if isinstance(point, Node):
        return {i for i, arc in enumerate(space.spec.arcs, start=1)
                if point.id in (arc.tail, arc.head)}
    return {1}


@given(st.sampled_from(sorted(SPACES)), st.builds(Word, bits, bits.filter(len)),
       st.integers(1, 10))
def test_window_and_word_addressing_agree(name, w, p):
    # the packed window (dense orbit) and the word decode (periodic points)
    # address a sequence through the same arc rule
    space = SPACES[name]
    point = space.decode(w)
    cell = space.split_window(prefix_int(w, space.r - 1 + p), p)
    assert cell[0] in _arcs_of(space, point)
    assert cell in point_cells(space, point, p)


# ------------------------------------------------------------------- map

def test_graph_map_examples(k3):
    assert graph_map(k3, Interior(2, F(1, 3))) == Interior(1, F(1, 3))
    assert graph_map(k3, Node("b")) == Node("b")
    assert graph_map(k3, Interior(3, F(1, 3))) == Interior(2, F(2, 3))


def test_exceptional_points_examples(k3, loop1, path2):
    assert list(k3.exceptional) == [Node("a"), Node("b"), Node("c"),
                                    Interior(1, F(1, 2)), Interior(3, F(1, 2))]
    assert list(loop1.exceptional) == [Node("a"), Interior(1, F(1, 2))]
    assert list(path2.exceptional) == [Node("a"), Node("b"), Node("c"),
                                       Interior(1, F(1, 2)), Interior(2, F(1, 2))]


def test_exceptional_points_are_fixed(k3, path2, loop1, figure8, two_segments):
    for sys in (k3, path2, loop1, figure8, two_segments):
        for pt in sys.exceptional:
            assert graph_map(sys, pt) == pt


def test_parameter_preserving_descent(k3):
    # arcs strictly between the first and last: parameter carried over
    rng = random.Random(11)
    for num in range(1, 64):
        t = F(num, 64)
        assert graph_map(k3, Interior(2, t)) == Interior(1, t)
    for _ in range(100):
        q = rng.randrange(3, 10 ** 4)
        p = rng.randrange(1, q)
        t = F(p, q)
        assert graph_map(k3, Interior(2, t)) == Interior(1, t)


def test_last_arc_split(k3):
    # on the last arc the parameter doubles into arc r-1 or stays with 2t-1
    rng = random.Random(13)
    for _ in range(100):
        q = rng.randrange(3, 10 ** 4, 2)
        p = rng.randrange(1, q)
        t = F(p, q)
        if t == F(1, 2):
            continue
        expected = Interior(2, 2 * t) if t < F(1, 2) else Interior(3, 2 * t - 1)
        assert graph_map(k3, Interior(3, t)) == expected


def test_graph_orbit_example(k3):
    orbit = [Interior(2, F(1, 3))]
    for _ in range(2):
        orbit.append(graph_map(k3, orbit[-1]))
    assert orbit == [Interior(2, F(1, 3)), Interior(1, F(1, 3)), Interior(1, F(2, 3))]


def test_loop_graph_is_doubling(loop1):
    # doubling mod 1 away from the pinned midpoint; endpoints collapse to
    # the node; the midpoint itself is exceptional and fixed
    for num in range(1, 256):
        t = F(num, 256)
        got = graph_map(loop1, Interior(1, t))
        if t == F(1, 2):
            assert got == Interior(1, F(1, 2))
            continue
        doubled = 2 * t if t < F(1, 2) else 2 * t - 1
        assert got == Interior(1, doubled)
    assert graph_map(loop1, Node("a")) == Node("a")


def test_figure_eight_moves_between_loops(figure8):
    # the second loop's interior shifts into the first for small parameters
    assert graph_map(figure8, Interior(2, F(1, 3))) == Interior(1, F(2, 3))
    assert graph_map(figure8, Interior(1, F(1, 3))) == Interior(1, F(2, 3))


def test_disconnected_graph_map_crosses_components(two_segments):
    # interior points may hop components; the exceptional set stays fixed
    assert graph_map(two_segments, Interior(1, F(2, 3))) == Interior(2, F(1, 3))
    assert graph_map(two_segments, Interior(1, F(1, 3))) == Interior(1, F(2, 3))


# ------------------------------------------- the closed form and its oracle

def _fiber_route(sys, point):
    return sys.decode(induced_apply(sys.induced, sys.encode(point))[0])


def random_graph(rng):
    """A graph of 1-6 arcs between 1-4 nodes drawn with replacement: loops,
    disconnected graphs and head(arc j) != tail(arc j+1) all occur."""
    nodes = [f"v{k}" for k in range(rng.randint(1, 4))]
    arcs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(1, 6))]
    used = sorted({v for arc in arcs for v in arc})
    lines = [f"node {v}" for v in used]
    lines += [f"arc E{i} {tail} {head}" for i, (tail, head) in enumerate(arcs, start=1)]
    return graph_system(parse_graph("\n".join(lines)))


def _star_failures(sys):
    """The arc-1 points 1 - 2^-j (1 < j <= r-1; j = 1 is the pinned 1/2)
    whose two expansions land on different nodes, head(arc j) and
    tail(arc j+1)."""
    arcs = sys.spec.arcs
    return [Interior(1, 1 - F(1, 2 ** j)) for j in range(2, sys.r)
            if arcs[j - 1].head != arcs[j].tail]


_orbit_rng = random.Random(41)
ORBIT_SPACES = [graph_system(parse_graph(text)) for _, text in sorted(EXAMPLE_GRAPHS.items())]
ORBIT_SPACES += [random_graph(_orbit_rng) for _ in range(8)]
PARAMETERS = st.one_of(st.integers(1, 63).map(lambda k: F(k, 64)),
                       st.fractions(0, 1, max_denominator=1 << 12).filter(lambda t: 0 < t < 1))


@st.composite
def _orbit_starts(draw):
    """A graph and a point on it: a node, a pinned midpoint, an arc-1 point
    1 - 2^-j (a star failure where head(arc j) is not tail(arc j+1)), or an
    interior point, dyadic or not."""
    sys = draw(st.sampled_from(ORBIT_SPACES))
    special = [Node(v) for v in sys.spec.nodes] + list(sys.exceptional)
    special += [Interior(1, 1 - F(1, 2 ** j)) for j in range(1, sys.r + 1)]
    interior = st.builds(Interior, st.integers(1, sys.r), PARAMETERS)
    return sys, draw(st.sampled_from(special) | interior)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_orbit_starts(), st.integers(1, 50))
def test_induced_orbit_steps_as_the_point_route_does(start, steps):
    # every integer form the generator gives is the point the point route
    # reaches, step by step, and every fiber is that point's encoding, in
    # order; a single step is the closed form
    sys, point = start
    assert graph_map(sys, point) == graph_step(sys, point) == point_route.graph_map(sys, point)
    orbit = induced_orbit(sys.induced, sys.closed_form, point)
    for k, ((key, q), fib) in zip(range(steps + 1), orbit):
        assert sys.point(key, q) == point and fib == sys.encode(point), (sys.spec, k, point)
        point = point_route.graph_map(sys, point)


def _non_dyadic(rng):
    while True:
        q = rng.randrange(3, 10 ** 4)
        t = F(rng.randrange(1, q), q)
        if t.denominator & (t.denominator - 1):
            return t


def _oracle_points(sys, rng, rationals):
    points = list(sys.exceptional)
    for i in range(1, sys.r + 1):
        points += [Interior(i, F(k, 64)) for k in range(1, 64)]
        points += [Interior(i, 1 - F(1, 2 ** j)) for j in range(1, sys.r + 1)]
        points += [Interior(i, _non_dyadic(rng)) for _ in range(rationals)]
    return points


@pytest.mark.parametrize("name", sorted(EXAMPLE_GRAPHS))
def test_graph_step_matches_the_fiber_route_on_the_example_graphs(name):
    sys = graph_system(parse_graph(EXAMPLE_GRAPHS[name]))
    for point in _oracle_points(sys, random.Random(name), 300):
        assert graph_step(sys, point) == _fiber_route(sys, point), point


def test_graph_step_matches_the_fiber_route_on_random_graphs():
    rng = random.Random(17)
    failures = 0
    for _ in range(60):
        sys = random_graph(rng)
        for point in _oracle_points(sys, rng, 30):
            assert graph_step(sys, point) == _fiber_route(sys, point), (sys.spec, point)
        for point in _star_failures(sys):
            assert graph_step(sys, point) == point
            failures += 1
    assert failures >= 20  # the example graphs have none outside the pinned set


def _candidates(sys, point):
    """The point, every node, the point's parameter on every arc, and on its
    own arc the parameter with the numerator one off or over other
    denominators; parameters 0 and 1 are arc ends, so nodes."""
    i, t = (point.arc, point.t) if isinstance(point, Interior) else (1, F(1, 2 ** 40))
    n, d = t.numerator, t.denominator
    near = {F(m, e) for m in (n - 1, n, n + 1) for e in (d - 1, d, d + 1, 2 * d, 3 * d)
            if 0 <= m <= e and e > 0}
    return ({point} | {Node(v) for v in sys.spec.nodes}
            | {sys.point_at(j, t) for j in range(1, sys.r + 1)}
            | {sys.point_at(i, u) for u in near})


def _addresses(sys, w, point):
    """sys.addresses at the point's integer form, and at the form on thrice
    its denominator, which an orbit's fixed q can give: the two agree.  No
    word addresses a point that the graph refuses to read."""
    try:
        key, q = _form(sys, point)
    except GraphError:
        return False
    found = sys.addresses(w, key, q)
    if key >= 0:
        i, n = divmod(key, q + 1)
        assert sys.addresses(w, i * (3 * q + 1) + 3 * n, 3 * q) == found, (sys.spec, w, point)
    return found


def _assert_addresses_as_decode_compares(sys, w, point):
    # the slow oracle: decode the word and compare the points
    image = sys.decode(w)
    matches = [c for c in _candidates(sys, point) if _addresses(sys, w, c)]
    assert matches == [image], (sys.spec, w, point)


def _addressed_points(sys, rng):
    points = list(sys.exceptional) + _star_failures(sys)
    for i in range(1, sys.r + 1):
        points += [Interior(i, F(k, 16)) for k in range(1, 16)]
        points += [Interior(i, 1 - F(1, 2 ** j)) for j in range(1, sys.r + 1)]
        points += [Interior(i, _non_dyadic(rng)) for _ in range(3)]
    return points


def test_addresses_agrees_with_decode_on_example_and_random_graphs():
    rng = random.Random(23)
    systems = [graph_system(parse_graph(text)) for _, text in sorted(EXAMPLE_GRAPHS.items())]
    systems += [random_graph(rng) for _ in range(30)]
    for sys in systems:
        for point in _addressed_points(sys, rng):
            for w in sys.encode(point):
                assert _addresses(sys, w, point)
                _assert_addresses_as_decode_compares(sys, w, point)


@given(st.sampled_from(sorted(EXAMPLE_GRAPHS)), st.builds(Word, bits, bits.filter(len)))
def test_addresses_agrees_with_decode_on_words_made_from_bits(name, w):
    # any sequence, its tail over 2^k - 1: arc ends and twins included
    sys = SPACES[name]
    _assert_addresses_as_decode_compares(sys, w, sys.decode(w))


# parameters with a preperiod, with periods of 10, 1,018 and 1,000,002 bits,
# and dyadics, the pinned 1/2 among them
FIBER_PARAMETERS = [F(1, 2), F(1, 4), F(3, 4), F(5, 32), F(1023, 1024), F(1, 3), F(5, 12),
                    F(3, 11), F(7, 22), F(500, 1019), F(1, 4076), F(999999, 1000003),
                    F(1, 8000024)]


_rng = random.Random(29)
FIBER_SPACES = {"interval": INTERVAL_CODEC,
                **{name: graph_system(parse_graph(text)) for name, text in EXAMPLE_GRAPHS.items()},
                **{f"random{k}": random_graph(_rng) for k in range(12)}}


def _fiber_points(codec):
    if codec is INTERVAL_CODEC:
        return [F(0), F(1), *FIBER_PARAMETERS]
    return ([Node(v) for v in codec.spec.nodes] + list(codec.exceptional)
            + [Interior(i, t) for i in range(1, codec.r + 1) for t in FIBER_PARAMETERS])


def _canonical(words):
    """The fiber of words encoding one point: deduplicated, then sorted."""
    return tuple(sorted(set(words)))


@pytest.mark.parametrize("name", FIBER_SPACES)
def test_codec_fibers_are_the_canonical_tuples_of_their_words(name):
    # the oracle tuple(sorted(set(words))) dedupes and orders any words:
    # every fiber a codec builds, by encode or by fiber_of (of its words and
    # of their images), is already that tuple
    codec = FIBER_SPACES[name]
    for point in _fiber_points(codec):
        fib = codec.encode(point)
        assert type(fib) is tuple and fib == _canonical(fib) == _canonical(fib[::-1]), (
            name, point)
        for w in fib:
            for v in (w, shift_map(w), c_map(w)):
                image = codec.fiber_of(v)
                assert type(image) is tuple and v in image, (name, point, v)
                assert image == _canonical(image) == _canonical(image[::-1]), (name, point, v)
            assert codec.fiber_of(w) == fib


@pytest.mark.parametrize("name", [name for name in FIBER_SPACES if name != "interval"])
def test_addresses_of_every_word_at_every_point_is_decode(name):
    # every fiber word against every point, by one cross-multiplication:
    # twins, words on other arcs, node words against interior points and
    # parameters one lattice step off, at periods of up to 10^6 bits
    sys = FIBER_SPACES[name]
    points = _fiber_points(sys)
    for i in range(1, sys.r + 1):
        points += [Interior(i, t + d) for t in FIBER_PARAMETERS
                   for d in (F(1, t.denominator), -F(1, t.denominator)) if 0 < t + d < 1]
    words = {w for point in points for w in sys.encode(point)}
    for w in words:
        image = sys.decode(w)
        for point in points:
            assert _addresses(sys, w, point) == (image == point), (name, w, point)
        # an arc index that no word addresses
        assert not any(_addresses(sys, w, Interior(i, F(1, 3))) for i in (0, -1, sys.r + 1))


def _cycle(r):
    """The cycle of r arcs (the loop when r = 1)."""
    lines = [f"node v{k}" for k in range(r)]
    lines += [f"arc E{k + 1} v{k} v{(k + 1) % r}" for k in range(r)]
    return graph_system(parse_graph("\n".join(lines)))


def _dropped_route(sys, w):
    """A word's point, whether it is an arc end, and its fiber, by the rule
    that copies the word with its prefix dropped: the arc i of its first r-1
    bits, then the parameter word after the prefix's min(i, r-1) bits, an
    arc end when that word is 0^inf or 1^inf."""
    i = _arc_address(prefix_int(w, sys.r - 1), sys.r)
    t = drop_bits(w, min(i, sys.r - 1))
    point = sys.point_at(i, word_value(t))
    end = t.pre_len == 0 and t.q == 1
    return point, end, sys.encode(point) if end else with_twin(w)


def _route_words(sys, rng):
    """Eventually periodic words, on a drawn arc's prefix or on none;
    eventually constant words with preperiods of up to r+5 bits, drawn and
    led by each arc's prefix; and the prefixed expansions of a few
    parameters, ends and dyadics among them, on every arc."""
    words = []
    for _ in range(200):
        pre, per = rng.randrange(9), rng.randrange(1, 9)
        w = Word._from_packed(pre, rng.getrandbits(pre), per, rng.getrandbits(per))
        words.append(prepend_bits(w, *rng.choice(sys.prefixes)) if rng.random() < 0.5 else w)
    for m in range(sys.r + 6):
        for b in (0, 1):
            pres = [rng.getrandbits(m) for _ in range(4)]
            pres += [c << (m - s) | rng.getrandbits(m - s) if m >= s else c >> (s - m)
                     for s, c in sys.prefixes]
            words += [Word._from_packed(m, pre, 1, b) for pre in pres]
    for t in (F(0), F(1), F(1, 2), F(3, 8), F(1, 3), F(5, 7)):
        words += [prepend_bits(w, s, c) for s, c in sys.prefixes for w in bits_of(t)]
    return words


@pytest.mark.parametrize("sys", [graph_system(parse_graph(text)) for _, text in
                                 sorted(EXAMPLE_GRAPHS.items())]
                         + [_cycle(r) for r in (1, 2, 5, 9, 17)],
                         ids=sorted(EXAMPLE_GRAPHS) + [f"cycle{r}" for r in (1, 2, 5, 9, 17)])
def test_the_prefix_rule_reads_every_word_as_the_dropped_prefix_route(sys):
    # decode, fiber_of and addresses at a node read a word through its arc's
    # prefix (s, c) alone; the oracle copies the word with the prefix dropped
    nodes = [Node(v) for v in sys.spec.nodes]
    for w in _route_words(sys, random.Random(sys.r)):
        point, end, fiber = _dropped_route(sys, w)
        assert sys.decode(w) == point, (sys.spec, w)
        assert sys.fiber_of(w) == fiber, (sys.spec, w)
        assert [_addresses(sys, w, v) for v in nodes] == [end and v == point for v in nodes]


def _ends(sys):
    """(arc, parameter 0 or 1) of every arc end at each node, in arc order:
    what the graph codec kept before it built the node fibers once."""
    ends = {v: [] for v in sys.spec.nodes}
    for i, arc in enumerate(sys.spec.arcs, start=1):
        ends[arc.tail].append((i, 0))
        ends[arc.head].append((i, 1))
    return ends


def _per_call_node_fiber(sys, v):
    """A node's fiber as encode built it on every call: each arc end's
    prefix, then its constant tail, deduplicated and sorted."""
    return _canonical([Word._tail(*sys.prefixes[i - 1], t, 1) for i, t in _ends(sys)[v]])


def _prefix_length_end(sys, w):
    """The node a word addresses by the prefix-length rule, else None: its
    tail is constant after at most its arc prefix's bits."""
    i = _arc_address(prefix_int(w, sys.r - 1), sys.r)
    if w.q == 1 and w.pre_len <= sys.prefixes[i - 1][0]:
        return sys.point_at(i, w.s)
    return None


def _lattice_frame(sys, q):
    """k, the period of every word of the lattice of denominator q, and M,
    its longest preperiod, as lattice_far works them out."""
    e = (q & -q).bit_length() - 1
    return (_order_of_two(q >> e) if q >> e > 1 else 1), sys.r - 1 + e


def _packed_node_words(sys, q, v):
    """lattice_far's words of node v, packed as their first M+k bits, by
    the arithmetic it had: the arc prefix (s, c), then 0s at end 0 or 1s at
    end 1, as ((c + end) << (M + k - s)) - end."""
    k, lead = _lattice_frame(sys, q)
    return [((sys.prefixes[i - 1][1] + end) << (lead + k - sys.prefixes[i - 1][0])) - end
            for i, end in _ends(sys)[v]]


# a loop, two parallel arcs and a second component
MULTIGRAPH = ("node a\nnode b\nnode c\nnode d\n"
              "arc E1 a b\narc E2 b a\narc E3 a a\narc E4 c d\narc E5 a b\n")


@pytest.mark.parametrize(
    "sys", [graph_system(parse_graph(text)) for _, text in sorted(EXAMPLE_GRAPHS.items())]
    + [_cycle(r) for r in (1, 2, 5, 9, 17)] + [graph_system(parse_graph(MULTIGRAPH))]
    + [random_graph(random.Random(seed)) for seed in range(12)],
    ids=sorted(EXAMPLE_GRAPHS) + [f"cycle{r}" for r in (1, 2, 5, 9, 17)] + ["multigraph"]
    + [f"random{seed}" for seed in range(12)])
def test_the_node_tables_give_what_the_per_call_node_rules_gave(sys):
    # encode, fiber_of, addresses and lattice_far read the node fibers built
    # once; the oracles are the rules they replaced
    nodes = [Node(v) for v in sys.spec.nodes]
    for v in sys.spec.nodes:
        assert sys.encode(Node(v)) == _per_call_node_fiber(sys, v), (sys.spec, v)
    for w in _route_words(sys, random.Random(sys.r)):
        end = _prefix_length_end(sys, w)
        fiber = _per_call_node_fiber(sys, end.id) if end else with_twin(w)
        assert sys.fiber_of(w) == fiber, (sys.spec, w)
        assert [_addresses(sys, w, v) for v in nodes] == [v == end for v in nodes], (sys.spec, w)
    # lattice_far on two node keys, against the packed words' distance
    # (x - (x >> k)) / ((2^k - 1) 2^M), x = a XOR b
    for q in (2, 8, 6, 12, 1000, 3 * 4096):
        k, lead = _lattice_frame(sys, q)
        packed = {v.id: _packed_node_words(sys, q, v.id) for v in nodes}
        for v in nodes:
            assert sorted(packed[v.id]) == sorted(prefix_int(w, lead + k) for w in sys.encode(v))
        for eta in (F(1, 8), F(1, 3)):
            far = lattice_far(sys, q, eta)
            for x, u in enumerate(nodes):  # node x's key is ~x
                for y, v in enumerate(nodes):
                    d = _hausdorff(packed[u.id], packed[v.id], lambda a, b: F(
                        (a ^ b) - ((a ^ b) >> k), ((1 << k) - 1) << lead))
                    assert far(~x, ~y) == (d > eta), (sys.spec, q, eta, u, v)


@pytest.mark.parametrize(
    "sys", [graph_system(parse_graph(text)) for _, text in sorted(EXAMPLE_GRAPHS.items())]
    + [_cycle(r) for r in (1, 2, 5, 9, 17)]
    + [random_graph(random.Random(seed)) for seed in [*range(12), 26]],
    ids=sorted(EXAMPLE_GRAPHS) + [f"cycle{r}" for r in (1, 2, 5, 9, 17)]
    + [f"random{seed}" for seed in [*range(12), 26]])
def test_the_int_keys_step_point_and_measure_as_the_tuple_keys(sys):
    # the lattice keyed by (arc, n) tuples and nodes is the oracle, node
    # outcomes and star failures among its images: the int key of n/q on
    # arc i is (i - 1)(q + 1) + n, and node k's is ~k (random0, random9 and
    # random26 are the star-failure graphs of the sensitivity tests).  On
    # the lattices of 8, 32, 6 and 24 every key is checked; q' = 125 and
    # 4099 put the word's period at 100 and 4098 bits, and there 300 drawn
    # keys and every node are (every key took 20 s)
    rng = random.Random(sys.r)
    nodes = [Node(v) for v in sys.spec.nodes]
    for q in (8, 32, 6, 24, 1000, 2 * 4099):
        keys = [(i, n) for i in range(1, sys.r + 1) for n in range(1, q)]
        keys = nodes + (keys if q < 1000 else rng.sample(keys, min(300, len(keys))))
        xs = [int_key(sys, key, q) for key in keys]
        images = [tuple_lattice.lattice_step(sys, key, q) for key in keys]
        step, _, ends = sys.lattice(None, q, F(1, 8))
        assert not ends
        assert list(map(step, xs)) == [int_key(sys, y, q) for y in images], (sys.spec, q)
        assert ([sys.point(x, q) for x in xs]
                == [tuple_lattice.lattice_point(key, q) for key in keys])
        # each key against its image and the first and the last node
        pairs = [(j, y) for j, image in enumerate(images) for y in (image, nodes[0], nodes[-1])]
        for eta in (F(1, 8), F(1, 3)):
            far, oracle = sys.lattice(None, q, eta)[1], tuple_lattice.lattice_far(sys, q, eta)
            assert ([far(xs[j], int_key(sys, y, q)) for j, y in pairs]
                    == [oracle(keys[j], y) for j, y in pairs]), (sys.spec, q, eta)


def test_lattice_point_builds_the_interior_point_of_a_key(k3):
    # the key of n/q on arc i is (i - 1)(q + 1) + n, and node k's is ~k
    for q in (2, 3, 12, 1000003):
        for n in (1, q // 2, q - 1):
            point = k3.point(q + 1 + n, q)
            assert point == Interior(2, F(n, q)) and hash(point) == hash(Interior(2, F(n, q)))
            assert type(point.t) is F and repr(point) == f"Interior(2, {F(n, q)})"
            with pytest.raises(AttributeError):
                point.t = F(1, 2)
        # at an arc end, point raises as Interior does
        for key, i, n in ((0, 1, 0), (q, 1, q), (q + 1, 2, 0), (2 * q + 1, 2, q)):
            with pytest.raises(ValueError) as got:
                k3.point(key, q)
            with pytest.raises(ValueError) as expected:
                Interior(i, F(n, q))
            assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match=r"^interior parameter 0 not in \(0, 1\)$"):
        k3.point(0, 7)
    with pytest.raises(ValueError, match=r"^interior parameter 1 not in \(0, 1\)$"):
        k3.point(7, 7)
    assert [k3.point(key, 7) for key in (~0, ~1, ~2)] == [Node("a"), Node("b"), Node("c")]


def test_a_star_failure_on_arc_one_is_held_fixed():
    # 3/4 on E1 expands as 110^inf and 101^inf; shifted, they address the
    # tail of E3 and the head of E2
    text = "node a\nnode b\narc E1 a b\narc E2 b a\narc E3 {} {}\n"
    apart = graph_system(parse_graph(text.format("b", "b")))
    joined = graph_system(parse_graph(text.format("a", "a")))
    assert graph_map(apart, Interior(1, F(3, 4))) == Interior(1, F(3, 4))
    assert graph_map(joined, Interior(1, F(3, 4))) == Node("a")


def test_graph_map_raises_when_the_closed_form_disagrees(monkeypatch, k3):
    monkeypatch.setattr(symchaos.graphs, "lattice_step", lambda sys, key, q: key)
    with pytest.raises(ArithmeticError, match=r"induced graph map at Interior\(2, 1/3\) "
                       r"gave Interior\(1, 1/3\), closed form gives Interior\(2, 1/3\)"):
        graph_map(k3, Interior(2, F(1, 3)))


def test_graph_step_rejects_what_graph_map_rejects(k3):
    with pytest.raises(GraphError):
        graph_step(k3, Interior(4, F(1, 3)))
    with pytest.raises(GraphError):
        graph_step(k3, Node("z"))


# ---------------------------------------------------------------- metric

def test_graph_metric_axioms(k3):
    pts = [Node("a"), Node("b"), Node("c"),
           Interior(1, F(1, 3)), Interior(2, F(1, 2)), Interior(3, F(3, 7))]
    for p in pts:
        assert graph_metric(k3, p, p) == 0
        for q in pts:
            assert graph_metric(k3, p, q) == graph_metric(k3, q, p)
            assert (graph_metric(k3, p, q) == 0) == (p == q)
    for p in pts:
        for q in pts:
            for s in pts:
                assert graph_metric(k3, p, s) <= graph_metric(k3, p, q) + graph_metric(k3, q, s)


def _lattice_keys(sys, q):
    return [~k for k in range(len(sys.spec.nodes))] + [
        base + n for base in range(0, sys.r * (q + 1), q + 1) for n in range(1, q)]


def test_lattice_far_decides_as_graph_metric():
    # dyadic and other lattices: q' = 3, 125 and 4099 put the word's period
    # at 2, 100 and 4098 bits; eta at the exact distance of some pairs
    # checks the strict inequality
    rng = random.Random(23)
    systems = [graph_system(parse_graph(t)) for t in EXAMPLE_GRAPHS.values()]
    systems += [random_graph(rng) for _ in range(20)]
    for sys in systems:
        for q in (2, 8, 32, 6, 12, 96, 1000, 3 * 4096, 2 * 4099):
            keys = _lattice_keys(sys, q)
            pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(40)]
            distances = {graph_metric(sys, sys.point(x, q), sys.point(y, q))
                         for x, y in pairs}
            for eta in sorted(distances - {0})[:4] + [F(1, 4), F(1, 3), F(7, 8)]:
                far = lattice_far(sys, q, eta)
                for x, y in pairs:
                    d = graph_metric(sys, sys.point(x, q), sys.point(y, q))
                    assert far(x, y) == (d > eta), (sys.spec, q, eta, x, y)


def test_lattice_far_on_every_key_against_nodes_and_twins(k3):
    # every key of the triangle's lattice 6 against an interior point, the
    # dyadic 1/2 (two words) and a node (two arc ends)
    far = lattice_far(k3, 6, F(1, 8))
    for x in _lattice_keys(k3, 6):
        for y in (1, 17, 19, ~2):  # 1/6 on E1, 3/6 and 5/6 on E3, node c
            d = graph_metric(k3, k3.point(x, 6), k3.point(y, 6))
            assert far(x, y) == (d > F(1, 8))


def _maximin(a, b, d):
    # the Hausdorff distance by its definition: the larger of the two maximins
    forward = max(min(d(u, v) for v in b) for u in a)
    backward = max(min(d(u, v) for u in a) for v in b)
    return max(forward, backward)


def test_hausdorff_matches_the_two_maximins():
    # on packed ints, under symmetric and asymmetric d
    maximin = _maximin
    rng = random.Random(31)
    metrics = (lambda u, v: abs(u - v), lambda u, v: (u ^ v) - ((u ^ v) >> 1),
               lambda u, v: (3 * u + v) % 11)
    for _ in range(300):
        a = [rng.randrange(64) for _ in range(rng.randint(1, 4))]
        b = [rng.randrange(64) for _ in range(rng.randint(1, 4))]
        for d in metrics:
            assert _hausdorff(a, b, d) == maximin(a, b, d), (a, b)


def test_hausdorff_on_word_fibers_matches_the_two_maximins(k3):
    # node fibers (two arc ends), dyadic twins and single words, under word_metric
    pts = [Node("a"), Node("c"), Interior(1, F(1, 2)), Interior(2, F(1, 4)),
           Interior(3, F(3, 7)), Interior(1, F(1, 3))]
    for p in pts:
        for q in pts:
            a, b = k3.encode(p), k3.encode(q)
            d = _hausdorff(a, b, word_metric)
            assert d == _maximin(a, b, word_metric) and type(d) is Fraction, (p, q)
            metric = graph_metric(k3, p, q)
            assert metric == d and type(metric) is Fraction, (p, q)
    assert type(graph_metric(k3, Node("b"), Node("b"))) is Fraction


def test_interior_validation():
    with pytest.raises(ValueError):
        Interior(1, F(0))
    with pytest.raises(ValueError):
        Interior(1, F(3, 2))


def test_interior_reads_a_parameter_that_is_not_a_fraction_as_as_unit_does():
    # a float or a str is the Fraction it reads as; an int is a node, not an
    # interior point; None is no number: never an AttributeError
    for t in (0.5, "1/2", "0.5"):
        point = Interior(1, t)
        assert point == Interior(1, F(1, 2)) and type(point.t) is F
    assert Interior(2, 0.1).t == F(0.1)
    for t in (0, 1):
        with pytest.raises(ValueError, match=rf"^interior parameter {t} not in \(0, 1\)$"):
            Interior(1, t)
    for t in (1.5, "3/2", "x"):
        with pytest.raises(ValueError):
            Interior(1, t)
    for t in (None, [F(1, 2)]):
        with pytest.raises(TypeError):
            Interior(1, t)


def test_interior_is_an_immutable_value_equal_only_to_an_interior():
    a, b = Interior(1, F(1, 3)), Interior(arc=1, t=F(1, 3))
    assert a == b and hash(a) == hash(b) == hash((1, F(1, 3))) and len({a, b}) == 1
    assert a != Interior(2, F(1, 3)) and a != Interior(1, F(2, 3))
    assert a != (1, F(1, 3)) and (1, F(1, 3)) != a and a != Node("a")
    with pytest.raises(ValueError, match=r"^interior parameter 1 not in \(0, 1\)$"):
        Interior(1, F(1))
    for field in ("arc", "t", "other"):
        with pytest.raises(AttributeError):
            setattr(a, field, 2)
    assert (a.arc, a.t) == (1, F(1, 3))
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert clone == a and repr(clone) == repr(a)
    match a:
        case Interior(1, t):
            assert t == F(1, 3)
        case _:
            raise AssertionError(a)


def test_example_graphs_all_parse():
    for name, text in EXAMPLE_GRAPHS.items():
        sys = graph_system(parse_graph(text))
        assert sys.spec.r >= 1, name
