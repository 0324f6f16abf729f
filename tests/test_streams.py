import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symchaos.graphs import EXAMPLE_GRAPHS, Interior, Node, graph_system, parse_graph
from symchaos.interval import INTERVAL_CODEC
from symchaos.streams import (
    _CHUNK_BITS,
    StreamWord,
    _dense_window,
    dense_bit,
    dense_prefix,
    orbit_text,
    stream_c_step,
    stream_shift,
    value_enclosure,
    window_array,
)

from text_reader import dense_text, word_by_word
from tuple_cells import as_int, as_pair
from value_cells import point_cells


def test_dense_word_listing():
    # 0 1 | 00 01 10 11 | 000 ...
    assert StreamWord().prefix(2) == [0, 1]
    assert StreamWord().prefix(10) == [0, 1, 0, 0, 0, 1, 1, 0, 1, 1]
    assert dense_bit(11) == 0
    assert StreamWord().prefix(13)[10:] == [0, 0, 0]


def test_dense_prefix_concatenates_all_words_in_order():
    # oracle: regenerate independently from the enumeration definition
    expected = []
    length = 1
    while len(expected) < 200:
        for v in range(1 << length):
            expected.extend((v >> (length - 1 - i)) & 1 for i in range(length))
        length += 1
    assert dense_prefix(200) == expected[:200]


def test_stream_shift_and_prefix():
    sw = stream_shift(StreamWord())
    assert sw.offset == 1
    assert sw.prefix(3) == [1, 0, 0]
    assert stream_shift(sw).offset == 2


def test_value_enclosure_examples():
    lo, hi = value_enclosure(StreamWord(), 1)
    assert (lo, hi) == (Fraction(0), Fraction(1, 2))
    lo, hi = value_enclosure(StreamWord(), 4)
    assert (lo, hi) == (Fraction(1, 4), Fraction(5, 16))


def test_value_enclosure_nested():
    sw = StreamWord()
    for p in range(1, 12):
        lo, hi = value_enclosure(sw, p)
        lo2, hi2 = value_enclosure(sw, p + 1)
        assert lo <= lo2 and hi2 <= hi
        assert hi - lo == Fraction(1, 1 << p)


def test_stream_c_step_flips_on_leading_one():
    sw = StreamWord()            # bits 0 1 0 0 0 1 ...
    s1 = stream_c_step(sw)       # leading 0: plain shift
    assert s1.flip == 0
    assert s1.prefix(4) == [1, 0, 0, 0]
    s2 = stream_c_step(s1)       # leading 1: complemented shift
    assert s2.flip == 1
    assert s2.prefix(4) == [1, 1, 1, 0]


def test_stream_c_step_matches_word_identity():
    # the n-th c-iterate of a sequence w is shift^n(w) xor w(n), so the
    # carried flip after n steps is exactly the n-th generator bit
    cur = StreamWord()
    for n in range(1, 60):
        cur = stream_c_step(cur)
        assert cur.offset == n
        assert cur.flip == dense_bit(n)
        assert cur.prefix(5) == [dense_bit(n + i) ^ dense_bit(n)
                                         for i in range(1, 6)]


def test_stream_word_immutability():
    sw = StreamWord()
    with pytest.raises(Exception):
        sw.offset = 3


# ------------------------------------- closed form against a brute-force listing

def _brute_dense(n):
    """The dense word by its definition: every binary word, by length then
    lexicographically, written out as text and concatenated."""
    bits, length = [], 1
    while len(bits) < n:
        for v in range(1 << length):
            bits.extend(int(c) for c in format(v, f"0{length}b"))
        length += 1
    return bits[:n]


BRUTE = _brute_dense(100_000)  # blocks 1..12 in full and part of block 13
BLOCK_STARTS = [(L - 2) * 2 ** L + 2 for L in range(1, 14)]


def test_block_starts_match_the_listing():
    assert BLOCK_STARTS[:4] == [0, 2, 10, 34]
    for L, start in enumerate(BLOCK_STARTS, start=1):
        # block L opens with the all-zero word of length L after a word of 1s
        assert BRUTE[start:start + L] == [0] * L
        if start:
            assert BRUTE[start - L + 1:start] == [1] * (L - 1)


def test_dense_prefix_and_bits_across_block_boundaries():
    assert dense_prefix(0) == []
    assert dense_prefix(len(BRUTE)) == BRUTE
    for start in BLOCK_STARTS:
        for pos in range(max(0, start - 3), start + 3):
            assert dense_bit(pos + 1) == BRUTE[pos]
            for n in (1, 7, 40):
                sw = StreamWord(pos, 0)
                assert sw.prefix(n) == BRUTE[pos:pos + n]


def test_the_word_by_word_oracle_reads_the_listing():
    for start in range(0, 300, 7):
        for n in (0, 1, 40, 601):
            assert word_by_word(start, n) == int("0" + "".join(map(str, BRUTE[start:start + n])), 2)


def test_each_run_of_listed_words_reads_as_the_words_one_by_one():
    # every start within L+2 bits of block L's start, for L <= 20: the first
    # word's tail, then runs within a block, across it and across several
    for L in range(1, 21):
        block = ((L - 2) << L) + 2
        for start in range(max(0, block - L - 2), block + L + 3):
            for n in (0, 1, L - 1, L, L + 1, 2 * L + 3, 3 * _CHUNK_BITS):
                assert _dense_window(start, n) == word_by_word(start, n), (start, n)


def test_runs_of_listed_words_read_as_the_words_one_by_one_at_drawn_starts():
    rng = random.Random(48)
    for _ in range(400):
        start = rng.randrange(1 << rng.randint(1, 22))
        n = rng.randint(0, 3 * _CHUNK_BITS)
        assert _dense_window(start, n) == word_by_word(start, n), (start, n)


@settings(max_examples=300)
@given(st.integers(0, len(BRUTE) - 700), st.integers(1, 600), st.integers(0, 1))
def test_stream_word_reads_match_brute_force(offset, n, flip):
    expected = [b ^ flip for b in BRUTE[offset:offset + n]]
    sw = StreamWord(offset, flip)
    assert sw.prefix(n) == expected
    assert sw.window_int(n) == int("".join(map(str, expected)), 2)
    assert dense_bit(offset + 1) == BRUTE[offset]


# ------------------------------------- integer exclusion against Fraction bounds

def _interval_excludes_oracle(sw, points, p):
    bits = [b ^ sw.flip for b in BRUTE[sw.offset:sw.offset + p]]
    v = int("".join(map(str, bits)), 2)
    lo, hi = Fraction(v, 1 << p), Fraction(v + 1, 1 << p)
    return all(pt < lo or pt > hi for pt in points)


def _cells(codec, points, p):
    """The cells that hold a point, as InducedSystem gathers them."""
    return {as_int(c, p) for pt in points for c in point_cells(codec, pt, p)}


def _graph_excludes_oracle(system, sw, points, p):
    r = system.spec.r
    bits = [b ^ sw.flip for b in BRUTE[sw.offset:sw.offset + r - 1 + p]]
    ones = 0
    while ones < r - 1 and bits[ones] == 1:
        ones += 1
    arc = ones + 1 if ones < r - 1 else r
    skip = ones + 1 if ones < r - 1 else r - 1
    v = int("".join(map(str, bits[skip:skip + p])), 2)
    lo, hi = Fraction(v, 1 << p), Fraction(v + 1, 1 << p)
    ends = system.spec.arc(arc)
    for pt in points:
        if isinstance(pt, Node):
            # a node lies on an arc only at its ends: parameter 0 at its tail,
            # 1 at its head
            if (ends.tail == pt.id and lo <= 0) or (ends.head == pt.id and hi >= 1):
                return False
        elif pt.arc == arc and lo <= pt.t <= hi:
            return False
    return True


units = st.fractions(min_value=0, max_value=1, max_denominator=70)
SYSTEMS = {name: graph_system(parse_graph(text)) for name, text in EXAMPLE_GRAPHS.items()}


@settings(max_examples=200)
@given(st.integers(0, 5000), st.integers(0, 1), st.integers(1, 14), st.data())
def test_interval_stream_exclusion_matches_fraction_oracle(offset, flip, p, data):
    sw = StreamWord(offset, flip)
    v = sw.window_int(p)
    # the enclosure's own endpoints, so the closed comparisons are exercised
    points = data.draw(st.lists(units | st.sampled_from(
        [Fraction(v, 1 << p), Fraction(v + 1, 1 << p)]), max_size=4))
    assert (INTERVAL_CODEC.stream_excludes_all(sw, _cells(INTERVAL_CODEC, points, p), p)
            == _interval_excludes_oracle(sw, points, p))


@settings(max_examples=200)
@given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 5000),
       st.integers(0, 1), st.integers(1, 12), st.data())
def test_graph_stream_exclusion_matches_fraction_oracle(name, offset, flip, p, data):
    system = SYSTEMS[name]
    sw = StreamWord(offset, flip)
    interior = st.builds(Interior, st.integers(1, system.spec.r),
                         units.filter(lambda t: 0 < t < 1))
    points = list(system.exceptional) + data.draw(st.lists(interior, max_size=3))
    points = data.draw(st.permutations(points))[:data.draw(st.integers(0, len(points)))]
    assert (system.stream_excludes_all(sw, _cells(system, points, p), p)
            == _graph_excludes_oracle(system, sw, points, p))


class _Window:
    """A stream whose first r-1+p bits are one given window."""

    def __init__(self, x):
        self.x = x

    def window_int(self, n):
        return self.x


def test_a_pinned_node_blocks_only_the_arc_ends_at_it():
    # on the triangle E1 runs from a to b and has the 1-bit prefix 0, so a
    # 2+p bit window 0 v x addresses (E1, v); with only node a pinned the
    # window at E1's head (v = 2^p - 1, node b) is separated, and the one at
    # its tail (v = 0, node a) is not
    k3, p = SYSTEMS["k3"], 8
    top = (1 << p) - 1
    head, tail = _Window(top << 1), _Window(0)
    assert [as_pair(c, p) for c in k3.split_windows((head.x,), p)] == [(1, top)]
    assert [as_pair(c, p) for c in k3.split_windows((tail.x,), p)] == [(1, 0)]
    assert k3.stream_excludes_all(head, _cells(k3, [Node("a")], p), p)
    assert not k3.stream_excludes_all(tail, _cells(k3, [Node("a")], p), p)
    assert not k3.stream_excludes_all(head, _cells(k3, [Node("b")], p), p)


@pytest.mark.parametrize("width", [0, 1, 63, 4094])
@pytest.mark.parametrize("steps", [0, 1, 4095, 4096, 4097, 8193])
def test_dense_text_is_the_dense_word_in_chunks(width, steps):
    # chunk n0 of k steps is dense bits n0 .. n0+k+width, bit 0 read as '0'
    chunks = list(orbit_text(width, steps))
    assert [n0 for n0, _ in chunks] == list(range(0, steps, _CHUNK_BITS))
    word = "0" + "".join(map(str, dense_prefix(steps + width)))
    for n0, text in chunks:
        assert text == word[n0:n0 + min(_CHUNK_BITS, steps - n0) + width + 1]
    if chunks:
        assert chunks[0][1].startswith("0")
    for (_, before), (_, text) in zip(chunks, chunks[1:]):
        assert before[-width - 1:] == text[:width + 1]


def orbit_windows(width, steps, complementing):
    """window_array one window a step: one integer x of width+1 bits rolls
    along the dense word, holding dense bits n .. n+width at step n (bit 0
    reads as 0).  Under S the window is its low width bits; under C those
    bits are complemented when the top bit, stream_c_step's flip, is set."""
    mask = (1 << width) - 1
    full = (mask << 1) | 1
    x = _dense_window(0, width)  # dense bits 1..width
    for text in dense_text(width, steps):
        for b in text.encode():  # ASCII '0' and '1' differ in their low bit
            if complementing:
                yield x ^ full if x > mask else x
            else:
                yield x & mask
            x = ((x << 1) & full) | (b & 1)


@pytest.mark.parametrize("complementing", [False, True], ids=["S", "C"])
@pytest.mark.parametrize("width", [1, 5, 17, 66])
@pytest.mark.parametrize("steps", [0, 1, 2, 4095, 4096, 4097, 8193])
def test_orbit_windows_match_per_step_stream_words(complementing, width, steps):
    # oracle: one StreamWord per step, read through its closed form
    step = stream_c_step if complementing else stream_shift
    sw, expected = StreamWord(), []
    for _ in range(steps):
        expected.append(sw.window_int(width))
        sw = step(sw)
    assert list(orbit_windows(width, steps, complementing)) == expected


@pytest.mark.parametrize("complementing", [False, True], ids=["S", "C"])
@pytest.mark.parametrize("width", range(1, 73))
@pytest.mark.parametrize("steps", [1, _CHUNK_BITS - 1, _CHUNK_BITS, _CHUNK_BITS + 1,
                                   2 * _CHUNK_BITS + 1])
def test_window_arrays_hold_the_rolled_windows_chunk_by_chunk(complementing, width, steps):
    # widths 1-72 cross each field size: 1, 2, 4 and 8 bytes, then one int a field
    flat = []
    for n0, text in orbit_text(width, steps):
        windows = window_array(text, width, complementing)
        assert len(windows) == min(_CHUNK_BITS, steps - n0)
        flat.extend(windows)
    assert flat == list(orbit_windows(width, steps, complementing))


def test_the_complementing_flip_is_the_previous_dense_bit():
    sw = StreamWord()
    for n in range(3000):
        assert sw.flip == (dense_bit(n) if n else 0)
        sw = stream_c_step(sw)
