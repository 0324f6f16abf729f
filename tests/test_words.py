import ast
import math
import random
import time
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symchaos.words
from symchaos.graphs import EXAMPLE_GRAPHS, GraphSystem, parse_graph
from symchaos.words import (
    MAX_PERIOD_BITS,
    Word,
    _expansions,
    _factorize,
    _order_of_two,
    _pack,
    _quote,
    _repeat_block,
    _rot_left,
    bits_of,
    c_map,
    dyadic_twin,
    parse_word,
    periodic_words,
    prefix_int,
    r_inverse,
    r_map,
    shift_map,
    with_twin,
    word_metric,
    word_value,
)

from prefixed import drop_bits, prepend_bits

try:
    from sympy import factorint
except ImportError:  # the oracle is optional
    factorint = None

W = parse_word


def complement(w):
    """Flip every bit: the oracle the closed-form c_map replaced."""
    return Word._tail(w.pre_len, w.pre ^ ((1 << w.pre_len) - 1), w.q - w.s, w.q)


def _bit(w, i):
    """The i-th bit of w, 1-based, read from its preperiod, the sign of its
    tail s/q - 1/2 and its period block."""
    if i <= w.pre_len:
        return (w.pre >> (w.pre_len - i)) & 1
    if i == w.pre_len + 1:
        return int(2 * w.s > w.q)
    j = (i - w.pre_len - 1) % w.period_len
    return (w.period >> (w.period_len - 1 - j)) & 1


def _unpack(length, value):
    """The `length` bits of value, first bit most significant, as a tuple."""
    return tuple(map(int, format(value, f"0{length}b"))) if length else ()


def _prefix(w, n):
    """The first n bits of w, from the packed prefix_int."""
    return _unpack(n, prefix_int(w, n))


def _pre_bits(w):
    return _unpack(w.pre_len, w.pre)


def _period_bits(w):
    return _unpack(w.period_len, w.period)


def bits_strategy(max_len, min_len=0):
    return st.lists(st.integers(0, 1), min_size=min_len, max_size=max_len)


words_strategy = st.builds(
    Word, bits_strategy(16), bits_strategy(16, min_len=1))


# ---------------------------------------------------------------- parsing

def test_parse_and_str_round_trip():
    for text in ("1:0", "0:1", ":10", ":0", "0110:101"):
        assert str(W(text)) == str(Word(_pre_bits(W(text)), _period_bits(W(text))))
    assert str(W(":10")) == ":10"
    assert W("1:0") == Word([1], [0])


def _text_oracle(w):
    """pre:period from the first pre_len + period_len bits, read by prefix_int
    behind a leading 1 that keeps their leading zeros."""
    m, n = w.pre_len, w.pre_len + w.period_len
    bits = bin((1 << n) | prefix_int(w, n))[3:]
    return f"{bits[:m]}:{bits[m:]}"


@given(words_strategy)
def test_str_matches_the_prefix_oracle(w):
    assert str(w) == _text_oracle(w)
    assert parse_word(str(w)) == w


def test_str_of_a_million_bit_period_is_one_pass():
    # the word fiber --x 999999/1000003 prints; unpacking its period into a
    # tuple of bits first took about 0.5 s
    [w] = bits_of(Fraction(999999, 1000003))
    assert (w.pre_len, w.period_len) == (0, 1000002)
    started = time.monotonic()
    text = str(w)
    assert time.monotonic() - started < 0.25
    assert text == _text_oracle(w)
    for t in (Fraction(1, 3), Fraction(5, 88), Fraction(77, 16 * 1000003)):
        [w] = bits_of(t)
        assert str(w) == _text_oracle(w)


@pytest.mark.parametrize("bad", ["", ":", "1:", "12:0", "1.0", "0"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        W(bad)


def test_parse_quotes_a_long_text_by_its_length():
    with pytest.raises(ValueError) as err:
        W("2" * 5000)
    assert str(err.value) == (f"malformed word {'2' * 256!r}... (5000 characters); "
                              "expected bits in the form pre:period")
    with pytest.raises(ValueError, match="^malformed word '2:'; expected"):
        W("2:")


@pytest.mark.parametrize("char", ["x", "\x00", "é", "€", "😀", "\U000e0001", "\\", "'"])
@pytest.mark.parametrize("n", [1, 64, 256, 257, 5000])
def test_a_quoted_text_is_at_most_256_characters_or_bytes(char, n):
    # a message stays one short line: the repr of the longest head of at
    # most 256 characters whose repr is at most 256 UTF-8 bytes in its quotes
    text = char * n
    shown = _quote(text)
    suffix = f"... ({n} characters)"
    quoted = shown[:-len(suffix)] if shown.endswith(suffix) else shown
    head = ast.literal_eval(quoted)
    assert text.startswith(head) and len(quoted.encode()) <= 258 and len(head) <= 256
    assert (head == text) == (quoted == shown)
    if head != text:  # one more character would pass a bound
        assert len(head) == 256 or len(repr(text[:len(head) + 1]).encode()) > 258
    if char == "x":  # plain text is quoted as before: 256 characters
        assert shown == (repr(text) if n <= 256 else f"{text[:256]!r}{suffix}")


def test_word_requires_nonempty_period():
    with pytest.raises(ValueError):
        Word([1], [])


def _pack_by_bits(bits):
    """The former _pack, the oracle: one shift of the whole value per bit."""
    length = 0
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        value = (value << 1) | b
        length += 1
    return length, value


@pytest.mark.parametrize("n", [0, 1, 10, 1000, 10 ** 5])
def test_pack_matches_the_per_bit_oracle(n):
    rng = random.Random(n)
    bits = [rng.randrange(2) for _ in range(n)]
    assert _pack(bits) == _pack_by_bits(bits)
    assert _pack(iter(bits)) == _pack_by_bits(bits)
    assert _pack(bits + [0]) == _pack_by_bits(bits + [0])  # a trailing 0 counts


@given(st.lists(st.sampled_from([0, 1, True, False, 2, -1, 48, 256, "1", None, 1.0]),
                max_size=12))
def test_pack_rejects_what_the_oracle_rejects_with_its_message(bits):
    try:
        expected = _pack_by_bits(bits)
    except ValueError as error:  # names the first bit not in (0, 1)
        with pytest.raises(ValueError) as raised:
            _pack(bits)
        assert str(raised.value) == str(error)
    except TypeError:  # the float 1.0 before any such bit
        with pytest.raises((TypeError, ValueError)):
            _pack(bits)
    else:
        assert _pack(bits) == expected


def test_a_half_million_bit_word_parses_and_inverts_r_in_under_a_second():
    [w] = bits_of(Fraction(1, 999983))
    text = str(w)
    assert w.period_len == 499991
    started = time.monotonic()
    assert parse_word(text) == w
    assert time.monotonic() - started < 1
    started = time.monotonic()
    assert r_map(r_inverse(w)) == w
    assert time.monotonic() - started < 1


# ------------------------------------------------------- canonical form

def test_canonical_primitive_period():
    assert Word([], [1, 0, 1, 0]) == W(":10")
    assert Word([], [1, 1, 1]) == W(":1")
    assert _period_bits(Word([], [0, 1, 0, 1, 0, 1])) == (0, 1)


def test_canonical_minimal_preperiod():
    # trailing preperiod bits matching the cycle get absorbed
    assert Word([0], [0]) == W(":0")
    assert Word([1, 0], [1, 0]) == W(":10")
    assert Word([1], [0, 1]) == W(":10")


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _primitive_by_all_divisors(k, q):
    """The former primitive-period search: the least proper divisor d of k
    whose leading block, repeated k/d times, is q."""
    for d in _divisors(k):
        if d == k:
            break
        block = q >> (k - d)
        if _repeat_block(block, d, k // d) == q:
            return d, block
    return k, q


def test_primitive_period_matches_the_all_divisor_scan():
    for k in range(1, 13):
        for q in range(1 << k):
            w = Word._from_packed(0, 0, k, q)
            assert (w.period_len, w.period) == _primitive_by_all_divisors(k, q)


def test_canonical_form_of_a_multi_million_bit_period():
    # 2 has order 8,345,004 modulo 10007 * 10009: one prime test per prime
    # factor of the period length, where the divisor scan took minutes
    [w] = bits_of(Fraction(1, 10007 * 10009))
    k, q = w.period_len, w.period
    assert k == 8345004
    assert Word._from_packed(0, 0, k, q) == w
    assert Word._from_packed(0, 0, 2 * k, (q << k) | q) == w


@given(words_strategy)
def test_canonicalization_idempotent(w):
    again = Word(_pre_bits(w), _period_bits(w))
    assert again == w
    assert _pre_bits(again) == _pre_bits(w)
    assert _period_bits(again) == _period_bits(w)


@given(st.data())
def test_equality_matches_sequences(data):
    a = data.draw(words_strategy)
    b = data.draw(words_strategy)
    horizon = a.pre_len + b.pre_len + 2 * a.period_len * b.period_len + 4
    same = _prefix(a, horizon) == _prefix(b, horizon)
    assert (a == b) == same


@given(words_strategy)
def test_canonical_invariants(w):
    # period primitive: no proper divisor block reproduces it
    k = w.period_len
    per = _period_bits(w)
    for d in range(1, k):
        if k % d == 0:
            assert per != per[:d] * (k // d)
    # preperiod minimal: last bits differ under alignment
    if w.pre_len:
        assert _pre_bits(w)[-1] != per[-1]


# ---------------------------------------------------------------- shift

def test_shift_examples():
    assert shift_map(W(":1")) == W(":1")
    assert shift_map(W("1:0")) == W(":0")
    assert shift_map(W(":10")) == W(":01")


@given(words_strategy)
def test_shift_oracle_index_shift(w):
    # oracle: result(i) = w(i+1) on an explicit 20-bit prefix
    assert _prefix(shift_map(w), 20) == _prefix(w, 21)[1:]


# ---------------------------------------------------------------- c map

def test_c_map_examples():
    assert c_map(W(":0")) == W(":0")
    assert c_map(W(":1")) == W(":0")
    assert c_map(W(":10")) == W(":10")


def _c_oracle_bits(w, n):
    # literal definition on a finite prefix
    bits = _prefix(w, n + 1)
    if bits[0] == 0:
        return tuple(bits[1:])
    return tuple(1 - b for b in bits[1:])


@given(words_strategy)
def test_c_map_oracle_bitwise(w):
    assert _prefix(c_map(w), 20) == _c_oracle_bits(w, 20)


def test_c_map_decomposition_all_short_prefixes():
    # c(w)(i) = w(i+1) xor w(1), brute force over all 2^10 prefixes
    for seed in range(1 << 10):
        w = Word._from_packed(10, seed, 1, 0)
        img = c_map(w)
        first = _bit(w, 1)
        for i in range(1, 21):
            assert _bit(img, i) == _bit(w, i + 1) ^ first


def _old_shift_map(w):
    # shift_map before the one-pass rotation: the period rotated by _rot_left
    if w.pre_len:
        return Word._from_packed(w.pre_len - 1, w.pre & ((1 << (w.pre_len - 1)) - 1),
                                 w.period_len, w.period)
    return Word._from_packed(0, 0, w.period_len, _rot_left(w.period, w.period_len))


def _old_c_map(w):
    s = _old_shift_map(w)
    return complement(s) if _bit(w, 1) else s


def _long_periodic_words():
    # purely periodic words whose period straddles the 64-bit hash window
    rng = random.Random(64)
    out = []
    for k in (63, 64, 65, 200, 4099):
        for top in (0, 1):
            q = rng.getrandbits(k - 1) | (top << (k - 1)) | 1
            out.append(Word._from_packed(0, 0, k, q))
    return out


def test_shift_and_c_map_match_old_rotation_exhaustively():
    # every purely periodic word with period up to 8 (k = 1 included), and
    # long periods: the old rotation and the bitwise definition agree
    words = [w for n in range(1, 9) for w in periodic_words(n)] + _long_periodic_words()
    for w in words:
        horizon = 2 * w.period_len + 3
        assert shift_map(w) == _old_shift_map(w)
        assert c_map(w) == _old_c_map(w)
        assert _prefix(shift_map(w), horizon) == _prefix(w, horizon + 1)[1:]
        assert _prefix(c_map(w), horizon) == _c_oracle_bits(w, horizon)


@given(words_strategy)
def test_shift_and_c_map_match_old_rotation(w):
    assert shift_map(w) == _old_shift_map(w)
    assert c_map(w) == _old_c_map(w)


def _shift_map_by_drop(w):
    """shift_map before its closed form, the oracle: drop_bits(w, 1)."""
    return drop_bits(w, 1)


def _c_map_by_composition(w):
    """c_map before its closed form, the oracle: the shift, complemented
    when the first bit is 1."""
    s = _shift_map_by_drop(w)
    return complement(s) if _bit(w, 1) else s


def _tail_fields(w):
    return w.pre_len, w.pre, w.s, w.q


@st.composite
def _shift_inputs(draw):
    # words from bits (q = 2^k - 1) and from values (s/q in lowest terms,
    # the tails 0/1 and 1/1 included), behind a preperiod of up to 4 bits
    if draw(st.booleans()):
        return draw(words_strategy)
    q = draw(st.sampled_from([1, 3, 11, 641, 1019, 1000003])) << draw(st.integers(0, 4))
    words = bits_of(Fraction(draw(st.integers(0, q)), q))
    n = draw(st.integers(0, 4))
    return prepend_bits(draw(st.sampled_from(words)), n, draw(st.integers(0, (1 << n) - 1)))


@settings(max_examples=300, deadline=None)
@given(_shift_inputs())
def test_shift_and_c_map_match_their_compositions(w):
    # the same fields, not only the same sequence: the tail's q is kept
    assert _tail_fields(shift_map(w)) == _tail_fields(_shift_map_by_drop(w))
    assert _tail_fields(c_map(w)) == _tail_fields(_c_map_by_composition(w))


def test_shift_and_c_map_match_their_compositions_on_constant_tails():
    for t in (":0", ":1", "1:0", "0:1", "10:1", "01:0", "0110:1"):
        for w in (W(t), *bits_of(word_value(W(t)))):
            assert _tail_fields(shift_map(w)) == _tail_fields(_shift_map_by_drop(w)), t
            assert _tail_fields(c_map(w)) == _tail_fields(_c_map_by_composition(w)), t


# every arc prefix of the example graphs, as GraphSystem builds them
_ARC_PREFIXES = sorted({prefix for text in EXAMPLE_GRAPHS.values()
                        for prefix in GraphSystem(parse_graph(text)).prefixes})


@st.composite
def _canonical_words(draw):
    """A word as the library builds it: from bits (_from_packed) or from a
    value (_expansions, a dyadic's twins among them), with or without a
    preperiod, or behind a graph's arc prefix."""
    if draw(st.booleans()):
        m, k = draw(st.integers(0, 8)), draw(st.integers(1, 12))
        return Word._from_packed(m, draw(st.integers(0, (1 << m) - 1)),
                                 k, draw(st.integers(0, (1 << k) - 1)))
    q = draw(st.sampled_from([1, 3, 11, 641, 1019, 1000003])) << draw(st.integers(0, 5))
    n, d = Fraction(draw(st.integers(0, q)), q).as_integer_ratio()
    m, c = draw(st.sampled_from([(0, 0), *_ARC_PREFIXES]))
    return draw(st.sampled_from(_expansions(n, d, m, c)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_canonical_words())
def test_shift_c_map_and_twin_build_the_fields_word_tail_builds(w):
    # they build their words directly, without the absorption of
    # Word._tail: its fields must be ones the absorption leaves as they are
    assert _tail_fields(Word._tail(*_tail_fields(w))) == _tail_fields(w)
    for v in (shift_map(w), c_map(w), *with_twin(w)):
        assert type(v) is Word
        assert _tail_fields(v) == _tail_fields(Word._tail(*_tail_fields(v))), (w, v)


def _period_by_steps(q, s):
    """The period of the tail s/q by brute force: the least k with 2^k = 1
    modulo q, stepped one doubling at a time, and the k-bit block
    s (2^k - 1) / q."""
    k, x = 1, 2 % q
    while x != 1 % q:
        k, x = k + 1, 2 * x % q
    return k, s * ((1 << k) - 1) // q


@pytest.mark.parametrize("t", [":0", ":1", "1:0", "01:1", ":01", "110:011", ":0010111",
                               "1:" + "01" * 40 + "1"])
def test_the_period_of_a_word_from_bits_is_its_block(t):
    w = W(t)
    assert w.q == (1 << w.period_len) - 1
    assert (w.period_len, w.period) == _period_by_steps(w.q, w.s) == w._read_period()


@pytest.mark.parametrize("t", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 8),
                               Fraction(1, 3), Fraction(2, 11), Fraction(5, 641 << 2),
                               Fraction(700, 1019), Fraction(1, 999983)], ids=str)
def test_the_period_of_a_word_from_a_value_is_the_order_of_two(t):
    for w in bits_of(t):
        assert (w.period_len, w.period) == _period_by_steps(w.q, w.s) == w._read_period()
        assert w._period == w._read_period()  # kept after the first read
        with pytest.raises(AttributeError):  # read-only
            w.period_len = 1
        with pytest.raises(AttributeError):
            w.period = 0


# ---------------------------------------------------------------- hash

@given(bits_strategy(70), bits_strategy(70, min_len=1), st.integers(1, 3))
def test_equal_words_hash_equal(pre, period, reps):
    # the same sequence written with an unrolled period and a longer preperiod
    a = Word(pre, period)
    b = Word(pre + period, period * reps)
    assert a == b
    assert hash(a) == hash(b)


# odd parts 1, 11, 641, 145295143558111 (a prime factor of 2^65 - 1), 1019
# and 1000003: periods of 1, 10, 64, 65, 1,018 and 1,000,002 bits
HASH_ODD_PARTS = [1, 11, 641, 145295143558111, 1019, 1000003]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(HASH_ODD_PARTS), st.integers(0, 4), st.integers(0, 6), st.data())
def test_a_word_from_bits_hashes_as_the_same_sequence_from_its_value(q_odd, a, n, data):
    q = q_odd << a
    t = Fraction(data.draw(st.integers(0, q)), q)
    b = data.draw(st.integers(0, (1 << n) - 1))
    words = bits_of(t)  # a dyadic's twins among them
    for w in words + [prepend_bits(w, n, b) for w in words]:
        from_bits = _packed(w)
        assert from_bits.q == (1 << from_bits.period_len) - 1
        assert from_bits == w and hash(from_bits) == hash(w)
        assert len({from_bits, w}) == 1
    # twins share a value but are two sequences: two members in any form
    assert len(set(words + [_packed(w) for w in words])) == len(words)


@pytest.mark.parametrize("t", [Fraction(0), Fraction(1), Fraction(3, 8), Fraction(1, 3),
                               Fraction(5, 641), Fraction(7, 1019), Fraction(1, 999983)],
                         ids=str)
def test_hash_of_a_tail_word_reads_no_period(t):
    for w in bits_of(t):
        hash(w)
        with pytest.raises(AttributeError):  # the period's slot is still unset
            w._period


# odd parts 1, 641, 145295143558111 (a prime factor of 2^65 - 1) and 1019
@pytest.mark.parametrize("q,period", [(1, 1), (641, 64), (145295143558111, 65), (1019, 1018)])
def test_hash_of_tail_words_is_unchanged(q, period):
    rng = random.Random(q)
    for a in range(4):
        for _ in range(8):
            p = rng.randrange(q << a)
            for w in bits_of(Fraction(p, q << a)):
                for v in (w, complement(w), shift_map(w), prepend_bits(w, 3, 0b101)):
                    assert v.period_len == (period if v.q > 1 else 1)
                    assert hash(v) == hash(_packed(v))


def test_words_differing_only_above_bit_64_are_distinct_members():
    for w in _long_periodic_words():
        if w.period_len <= 65:
            continue
        twin = Word._from_packed(0, 0, w.period_len, w.period ^ (1 << 100))
        # preperiods end in 0 and periods in 1, so nothing is absorbed
        pre_a = Word._from_packed(130, (1 << 129) | 2, w.period_len, w.period)
        pre_b = Word._from_packed(130, (1 << 129) | (1 << 90) | 2, w.period_len, w.period)
        assert pre_a.pre_len == pre_b.pre_len == 130
        for a, b in ((w, twin), (pre_a, pre_b)):
            assert hash(a) == hash(b)
            assert a != b
            assert len({a, b}) == 2


# ---------------------------------------------------------------- order

def _order_key(w):
    """The preperiod bits and the period bits, each a list read bit by bit:
    lists compare as the printed text does, and a list that is a prefix of
    the other sorts first."""
    m = w.pre_len
    return ([_bit(w, i) for i in range(1, m + 1)],
            [_bit(w, m + j) for j in range(1, w.period_len + 1)])


@given(bits_strategy(70), bits_strategy(70, min_len=1),
       bits_strategy(70), bits_strategy(70, min_len=1))
def test_words_order_as_their_bit_lists(pre_a, period_a, pre_b, period_b):
    a, b = Word(pre_a, period_a), Word(pre_b, period_b)
    assert (a < b) == (_order_key(a) < _order_key(b))
    assert (b < a) == (_order_key(b) < _order_key(a))
    assert sorted([a, b]) == sorted([a, b], key=_order_key)


@pytest.mark.parametrize("short,long", [
    ("1:0", "10:1"), ("0:1", "01:0"), (":01", ":011"), ("0:01", "0:011"),
    ("0110:1", "01101:0"), ("1" * 69 + "0:1", "1" * 69 + "01:0"),
    (":" + "0" * 68 + "1", ":" + "0" * 68 + "11"),
], ids=repr)
def test_a_bit_string_sorts_before_its_extensions(short, long):
    a, b = W(short), W(long)
    assert (str(a), str(b)) == (short, long)  # both texts are canonical
    assert a < b and not b < a
    assert _order_key(a) < _order_key(b)
    assert sorted([b, a]) == [a, b]


def test_a_word_does_not_order_against_a_non_word():
    w = W("1:0")
    assert w.__lt__(5) is NotImplemented
    with pytest.raises(TypeError):
        w < 5
    with pytest.raises(TypeError):
        5 < w
    for mixed in ([w, 5], [5, w]):
        with pytest.raises(TypeError):
            sorted(mixed)


# ---------------------------------------------------------------- r map

def _c_prefix_int(v, length):
    # literal c map on a packed finite prefix, losing one bit
    first = v >> (length - 1)
    rest = v & ((1 << (length - 1)) - 1)
    if first:
        rest ^= (1 << (length - 1)) - 1
    return rest, length - 1


def _r_oracle_int(v, length):
    # read off first bits of iterated c: r(w)(i) = C^i(w)(1)
    out = 0
    cur, cur_len = v, length
    for _ in range(length - 1):
        cur, cur_len = _c_prefix_int(cur, cur_len)
        out = (out << 1) | (cur >> (cur_len - 1))
    return out


def test_r_map_examples():
    assert r_map(W(":0")) == W(":0")
    assert r_map(W(":1")) == W(":0")
    assert r_map(W(":10")) == W(":1")


def test_r_map_closed_form_vs_literal_composition():
    # all 2^16 length-16 prefixes, first 15 output bits
    length = 16
    for v in range(1 << length):
        closed = ((v >> 1) ^ v) & ((1 << (length - 1)) - 1)
        assert closed == _r_oracle_int(v, length)


@given(words_strategy)
def test_r_map_word_level_matches_adjacent_xor(w):
    out = r_map(w)
    bits = _prefix(w, 21)
    assert _prefix(out, 20) == tuple(bits[i] ^ bits[i + 1] for i in range(20))


def test_r_two_to_one_on_prefixes():
    # on length-n prefixes, r is 2-to-1 and preimages are complements
    n = 10
    mask_out = (1 << (n - 1)) - 1
    preimages = {}
    for v in range(1 << n):
        out = ((v >> 1) ^ v) & mask_out
        preimages.setdefault(out, []).append(v)
    full = (1 << n) - 1
    for out, vs in preimages.items():
        assert len(vs) == 2
        assert vs[0] ^ vs[1] == full


def test_r_inverse_examples():
    assert r_inverse(W(":0")) == W(":0")
    assert r_inverse(W(":1")) == W(":01")
    assert r_inverse(W("1:0")) == W("0:1")


@given(words_strategy)
def test_r_inverse_is_section_with_zero_first_bit(w):
    inv = r_inverse(w)
    assert _bit(inv, 1) == 0
    assert r_map(inv) == w


def _r_inverse_by_bits(w):
    """The former r_inverse, the oracle: the running XOR one bit at a time."""
    m, k = w.pre_len, w.period_len
    n = m + 2 * k
    bits = _prefix(w, n)
    x = [0]
    for b in bits[:-1]:
        x.append(x[-1] ^ b)
    # a period with an odd number of 1s flips the running XOR each time round
    period_len = 2 * k if w.period.bit_count() & 1 else k
    return Word(x[:m], x[m:m + period_len])


@given(words_strategy)
def test_r_inverse_matches_the_running_xor_oracle(w):
    assert r_inverse(w) == _r_inverse_by_bits(w)


@pytest.mark.parametrize("t", [Fraction(5, 11), Fraction(3, 1000 * 1021),
                               Fraction(77, 16 * 1000003)], ids=str)
def test_r_inverse_matches_the_running_xor_oracle_on_long_periods(t):
    # periods of 10, 1,700 and 1,000,002 bits, with preperiods of 0, 3 and 4
    [w] = bits_of(t)
    for v in (w, prepend_bits(complement(w), 5, 0b10110)):
        assert r_inverse(v) == _r_inverse_by_bits(v)


def test_conjugacy_on_words():
    for text in (":0", ":1", ":10", "1:0", "0110:101", "1:110"):
        w = W(text)
        assert shift_map(r_map(w)) == r_map(c_map(w))


# ---------------------------------------------------------------- value

def test_word_value_examples():
    assert word_value(W(":0")) == 0
    assert word_value(W("1:0")) == Fraction(1, 2)
    assert word_value(W(":10")) == Fraction(2, 3)
    assert word_value(W(":1")) == 1


@given(words_strategy)
def test_word_value_partial_sum_oracle(w):
    value = word_value(w)
    partial = Fraction(prefix_int(w, 64), 1 << 64)
    assert partial <= value <= partial + Fraction(1, 1 << 64)


def _old_word_value(w, den_hint=None):
    # word_value before the divisibility identity: a divmod exactness check
    mask = (1 << w.period_len) - 1
    num = w.pre * mask + w.period
    den = mask << w.pre_len
    if den_hint:
        a, r = divmod(num * den_hint, den)
        if r == 0:
            return Fraction(a, den_hint)
    g = math.gcd(num, den)
    return Fraction(num // g, den // g)


@given(words_strategy, st.integers(1, 1 << 12), st.integers(1, 10 ** 7))
def test_word_value_hint_matches_divmod_and_gcd_paths(w, mult, other):
    exact = _old_word_value(w)
    assert word_value(w) == exact
    # hints that divide: the denominator and its multiples; and arbitrary ones
    for hint in (exact.denominator, mult * exact.denominator, other, other | 1):
        assert _old_word_value(w, hint) == exact


def test_word_value_hint_skips_the_gcd(monkeypatch):
    # a word from bits_of holds its tail as s/q, so its value never reaches
    # the gcd, even on periods of ~10^5 bits
    rng = random.Random(17)
    qs = [3, 7, 1022117, 999983] + [rng.randrange(3, 10 ** 6, 2) for _ in range(20)]
    points = [Fraction(rng.randrange(1, q), q) for q in qs]
    words = [bits_of(t)[0] for t in points]

    def no_gcd(a, b):
        raise AssertionError("gcd reached")

    monkeypatch.setattr(symchaos.words, "math", types.SimpleNamespace(gcd=no_gcd))
    for t, w in zip(points, words):
        assert word_value(w) == t


# ---------------------------------------------------------------- metric

def test_word_metric_examples():
    w = W("0110:101")
    assert word_metric(w, w) == 0
    assert word_metric(W(":0"), W(":1")) == 1
    assert word_metric(W("1:0"), W("0:1")) == 1


@given(st.data())
def test_word_metric_partial_sum_oracle(data):
    a = data.draw(st.builds(Word, bits_strategy(8), bits_strategy(6, min_len=1)))
    b = data.draw(st.builds(Word, bits_strategy(8), bits_strategy(6, min_len=1)))
    d = word_metric(a, b)
    pa, pb = _prefix(a, 64), _prefix(b, 64)
    partial = sum(Fraction(abs(x - y), 1 << (i + 1))
                  for i, (x, y) in enumerate(zip(pa, pb)))
    assert partial <= d <= partial + Fraction(1, 1 << 64)


@given(st.data())
def test_word_metric_axioms(data):
    small = st.builds(Word, bits_strategy(6), bits_strategy(4, min_len=1))
    a, b, c = (data.draw(small) for _ in range(3))
    assert word_metric(a, b) == word_metric(b, a)
    assert (word_metric(a, b) == 0) == (a == b)
    assert word_metric(a, c) <= word_metric(a, b) + word_metric(b, c)


def test_word_metric_rejects_a_difference_period_above_its_bound(monkeypatch):
    # periods 499,991 and 999,978 bits: the difference would repeat every
    # lcm, about 5*10^11 bits (62 GB); the bound is checked before anything
    # is built, through both the word and the graph metric
    from symchaos.graphs import EXAMPLE_GRAPHS, Interior, graph_metric, graph_system, parse_graph

    a, b = bits_of(Fraction(1, 999983))[0], bits_of(Fraction(1, 999979))[0]
    k = math.lcm(a.period_len, b.period_len)
    assert k > MAX_PERIOD_BITS == 1 << 24 > 8345004
    monkeypatch.setattr(symchaos.words, "_aligned_period", None)
    k3 = graph_system(parse_graph(EXAMPLE_GRAPHS["k3"]))
    started = time.monotonic()
    message = f"lcm of the period lengths is {k} bits, exceeds bound 2\\^24"
    with pytest.raises(ValueError, match=message):
        word_metric(a, b)
    with pytest.raises(ValueError, match=message):
        graph_metric(k3, Interior(1, Fraction(1, 999983)), Interior(2, Fraction(1, 999979)))
    assert time.monotonic() - started < 1


# ---------------------------------------------------------------- bits_of

def test_bits_of_examples():
    assert bits_of(Fraction(0)) == [W(":0")]
    assert bits_of(Fraction(1)) == [W(":1")]
    assert bits_of(Fraction(1, 2)) == [W("1:0"), W("0:1")]
    assert bits_of(Fraction(1, 3)) == [W(":01")]
    assert bits_of(Fraction(3, 4)) == [W("11:0"), W("10:1")]


def test_bits_of_rejects_a_period_above_its_bound():
    # 2 has order 33,554,466 modulo the prime 33,554,467: the bounded search
    # finds no order up to the bound before any block is built
    assert _order_of_two(33554467) is None
    started = time.monotonic()
    with pytest.raises(ValueError) as raised:
        bits_of(Fraction(1, 33554467))
    assert str(raised.value) == "bits_of: the expansion's period exceeds bound 2^24"
    assert time.monotonic() - started < 1
    # the longest period the tests and the benchmark use stays below it
    assert bits_of(Fraction(1, 10007 * 10009))[0].period_len == 8345004


def test_bits_of_on_a_prime_past_every_factoring_bound():
    # 2^89 - 1 is prime and 2 has order 89 modulo it; it lies past the bound
    # below which Miller-Rabin with the first 13 prime bases is proven exact
    [w] = bits_of(Fraction(1, 2 ** 89 - 1))
    assert (w.period_len, w.period) == (89, 1)
    assert str(w) == ":" + "0" * 88 + "1"


def test_induced_maps_on_a_product_of_two_mersenne_primes():
    # q = (2^89 - 1)(2^61 - 1): period lcm(89, 61) = 5,429, where splitting
    # q by Pollard's rho did not finish in 30 s
    from symchaos.interval import baker, induced_baker, induced_tent, tent

    q = (2 ** 89 - 1) * (2 ** 61 - 1)
    started = time.monotonic()
    assert bits_of(Fraction(1, q))[0].period_len == 5429
    for y in (Fraction(1, q), Fraction(q - 2, q), Fraction(3, 4 * q)):
        assert induced_tent(y) == tent(y)
        assert induced_baker(y) == baker(y)
    assert time.monotonic() - started < 1


def test_bits_of_rejects_out_of_range():
    with pytest.raises(ValueError):
        bits_of(Fraction(3, 2))
    with pytest.raises(ValueError):
        bits_of(Fraction(-1, 2))


def test_bits_of_doubleton_exactly_for_interior_dyadics():
    for num in range(0, 17):
        t = Fraction(num, 16)
        expansions = bits_of(t)
        interior_dyadic = 0 < t < 1
        assert len(expansions) == (2 if interior_dyadic else 1)
        for w in expansions:
            assert word_value(w) == t


def test_bits_of_value_round_trip_random_rationals():
    # 1000 seeded rationals with denominator up to 10^6
    rng = random.Random(0x5EED)
    for _ in range(1000):
        q = rng.randrange(2, 10 ** 6 + 1)
        p = rng.randrange(0, q + 1)
        t = Fraction(p, q)
        for w in bits_of(t):
            assert word_value(w) == t


# ------------------------------------------------- the order of 2

def _next_prime(n):
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def _brute_order(q):
    """Multiplicative order of 2 modulo odd q > 1, by stepping its powers."""
    k, x = 1, 2 % q
    while x != 1:
        k, x = k + 1, 2 * x % q
    return k


# The former route to the order, the oracle: it factors q and lambda(q) by
# trial division, Miller-Rabin and Pollard's rho.

def _primes_below(n):
    """The primes below n, by the sieve of Eratosthenes."""
    composite = bytearray(n)
    for p in range(2, math.isqrt(n) + 1):
        if not composite[p]:
            composite[p * p::p] = b"\1" * len(range(p * p, n, p))
    return [p for p in range(2, n) if not composite[p]]


_TRIAL_LIMIT = 1000  # trial division by the primes below this
_SMALL_PRIMES = _primes_below(_TRIAL_LIMIT)

# Miller-Rabin with the first 13 primes as bases is exact for every n below
# this bound (Sorenson and Webster, 2015); a larger n that passes all 13
# bases is not assumed prime.
MILLER_RABIN_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Miller-Rabin on odd n > 41 with the bases _MR_BASES.  False is always
    a proof; True needs n < MILLER_RABIN_BOUND, and past it ValueError."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"cannot prove a {n.bit_length()}-bit factor prime: exact "
                         f"factorization is limited to factors below {MILLER_RABIN_BOUND}")
    return True


def _rho(n):
    """A proper factor of the odd composite n (Pollard's rho, Floyd cycles)."""
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d
    raise ArithmeticError(f"no factor found for composite {n}")


def _factorize_by_rho(n):
    """Exact prime factorization of n >= 1: trial division by the primes
    below _TRIAL_LIMIT, then Miller-Rabin and Pollard's rho on the rest."""
    factors = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        # m has no factor below _TRIAL_LIMIT, so below its square it is prime
        if m < _TRIAL_LIMIT ** 2 or _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _rho(m)
            rest += [d, m // d]
    return factors


def _order_by_factoring(q):
    """Multiplicative order of 2 modulo odd q > 1."""
    lam = 1
    for p, e in _factorize_by_rho(q).items():
        lam = math.lcm(lam, (p - 1) * p ** (e - 1))
    order = lam
    for p in _factorize_by_rho(lam):
        while order % p == 0 and pow(2, order // p, q) == 1:
            order //= p
    if pow(2, order, q) != 1:
        raise ArithmeticError(f"2^{order} is not 1 modulo {q}")
    return order


def _capped(order, bound=MAX_PERIOD_BITS):
    return order if order <= bound else None


# denominators whose odd part keeps a composite cofactor above 1000, each
# with its prime powers
COMPOSITE_COFACTORS = [
    (1009 * 1013, [1009, 1013]),
    (1009 ** 2, [1009 ** 2]),
    (3 * 1019 * 1021, [3, 1019, 1021]),
    (10007 * 10009, [10007, 10009]),
]


@pytest.mark.parametrize("q,prime_powers", COMPOSITE_COFACTORS)
def test_bits_of_exact_for_composite_cofactors(q, prime_powers):
    order = math.lcm(*(_brute_order(pp) for pp in prime_powers))
    for t in (Fraction(1, q), Fraction(q - 2, q), Fraction(1, 4 * q)):
        [w] = bits_of(t)
        assert w.period_len == order  # the least period: the block is primitive
        assert prefix_int(w, 96) == (t.numerator << 96) // t.denominator
        assert word_value(w) == t


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1001, 30000).map(_next_prime), min_size=1, max_size=3,
                unique=True),
       st.integers(1, 3))
def test_factorize_and_order_on_products_of_primes_above_1000(primes, e):
    q = math.prod(primes)
    assert _factorize_by_rho(q) == {p: 1 for p in primes}
    assert _order_by_factoring(q) == math.lcm(*(_brute_order(p) for p in primes))
    for n in (q, q * primes[0] ** (e - 1), 3 * q):
        assert _order_of_two(n) == _capped(_order_by_factoring(n)), n


def test_order_of_two_matches_brute_force_below_2_14():
    for q in range(3, 1 << 14, 2):
        assert _order_of_two(q) == _brute_order(q), q


@pytest.mark.parametrize("a", range(1, 13))
def test_order_of_two_on_a_power_of_5_is_lifted_from_5s(a):
    # ord(5) = 4 and 5 exactly divides 2^4 - 1, so ord(5^a) = 4 * 5^(a-1)
    assert _order_of_two(5 ** a) == _capped(4 * 5 ** (a - 1))


@pytest.mark.parametrize("p", [1093, 3511])
def test_order_of_two_at_the_square_of_a_wieferich_prime(p):
    # p^2 divides 2^(p-1) - 1, so p^2 divides 2^ord(p) - 1: the lift stops at
    # t = 2, and the order of p^2 is that of p
    assert _order_of_two(p * p) == _brute_order(p * p) == _brute_order(p)
    assert _order_of_two(3 * p * p) == math.lcm(2, _brute_order(p))


def test_a_power_of_5_past_the_bound_is_refused_without_stepping_it(monkeypatch):
    # 10^-10000 has the period 4 * 5^9999: refused from 5's order, with no
    # baby or giant step modulo the 23,000-bit 5^10000
    stepped = []
    real = symchaos.words._stepped_order
    monkeypatch.setattr(symchaos.words, "_stepped_order", lambda q: stepped.append(q) or real(q))
    with pytest.raises(ValueError) as exc:
        bits_of(Fraction(1, 10 ** 10000))
    assert str(exc.value) == "bits_of: the expansion's period exceeds bound 2^24"
    assert stepped == [5]


_BRUTE_ORDERS = {q: _brute_order(q) for q in range(3, 2000, 2)}


@pytest.mark.parametrize("bound", range(1, 65))
def test_order_of_two_is_none_exactly_above_its_bound(monkeypatch, bound):
    # the bound is read at call time; both sides of it, and orders at it
    monkeypatch.setattr(symchaos.words, "MAX_PERIOD_BITS", bound)
    for q in range(3, 2000, 2):
        assert _order_of_two(q) == _capped(_BRUTE_ORDERS[q], bound), q


def _factors_by_division(n):
    factors = Counter()
    d = 2
    while n > 1:
        while n % d == 0:
            factors[d] += 1
            n //= d
        d += 1
    return dict(factors)


def test_factorize_on_period_lengths():
    # its callers pass period lengths: _primitive, the verifier's repunits
    # and primitive-block counts (k <= 24)
    for n in range(1, 3000):
        assert _factorize(n) == _factors_by_division(n), n
    rng = random.Random(23)
    for n in [rng.randrange(1, MAX_PERIOD_BITS + 1) for _ in range(200)] + [
            MAX_PERIOD_BITS, 8345004, 499991, 16777213]:
        factors = _factorize(n)
        assert math.prod(p ** e for p, e in factors.items()) == n
        assert all(_next_prime(p) == p for p in factors), n
        if factorint is not None:
            assert factors == factorint(n)


# ------------------------------------------------------- periodic words

def test_periodic_words_small():
    assert periodic_words(1) == [W(":0"), W(":1")]
    assert set(periodic_words(2)) == {W(":0"), W(":1"), W(":01"), W(":10")}


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_periodic_words_brute_force_oracle(n):
    words = periodic_words(n)
    assert len(words) == 1 << n
    assert len(set(words)) == 1 << n
    for w in words:
        assert w.pre_len == 0
        cur = w
        for _ in range(n):
            cur = shift_map(cur)
        assert cur == w
    # oracle: sequences whose first n bits repeat forever
    expected = set()
    for seed in range(1 << n):
        bits = [(seed >> (n - 1 - i)) & 1 for i in range(n)]
        expected.add(Word([], bits))
    assert set(words) == expected


def test_periodic_words_bound():
    with pytest.raises(ValueError):
        periodic_words(25)


# ---------------------------------------------------------------- misc

def test_prepend_bits_takes_a_packed_prefix():
    # (n, b): the n bits of b, first bit most significant
    assert prepend_bits(parse_word(":01"), 3, 0b110) == parse_word("110:01")
    assert prepend_bits(parse_word("1:0"), 0, 0) == parse_word("1:0")
    assert prepend_bits(parse_word(":1"), 2, 0b01) == parse_word("0:1")


def test_complement_involution():
    w = W("0110:101")
    assert complement(complement(w)) == w


@given(words_strategy)
def test_sort_order_is_pre_then_period_lex(w):
    other = Word([0] + list(_pre_bits(w)), _period_bits(w))
    key = (_pre_bits(w), _period_bits(w))
    other_key = (_pre_bits(other), _period_bits(other))
    assert (w < other) == (key < other_key)


# ------------------------------------------ the packed-block route, the oracle
#
# Every word holds its tail as the fraction s/q.  These pure functions on the
# packed fields (pre_len, pre, k, block) are the former route: rotations,
# XOR masks and repeated blocks, each result put in canonical form by
# _old_canonical.

def _fields(w):
    return w.pre_len, w.pre, w.period_len, w.period


def _old_canonical(m, p, k, q):
    """The primitive period, then every preperiod bit that already matches
    the cycle absorbed into it."""
    for prime in _factorize(k):
        while k % prime == 0 and _rot_left(q, k, k // prime) == q:
            k //= prime
            q >>= k * (prime - 1)
    while m and (p & 1) == (q & 1):
        m -= 1
        p >>= 1
        q = ((q & 1) << (k - 1)) | (q >> 1)
    return m, p, k, q


def _block_drop(f, n):
    # drop preperiod bits, then rotate the block by what is left
    m, p, k, q = f
    if n <= m:
        return _old_canonical(m - n, p & ((1 << (m - n)) - 1), k, q)
    return _old_canonical(0, 0, k, _rot_left(q, k, n - m))


def _block_complement(f):
    m, p, k, q = f
    return _old_canonical(m, p ^ ((1 << m) - 1), k, q ^ ((1 << k) - 1))


def _block_bit(f, i):
    m, p, k, q = f
    if i <= m:
        return (p >> (m - i)) & 1
    return (q >> (k - 1 - (i - m - 1) % k)) & 1


def _block_c(f):
    shifted = _block_drop(f, 1)
    return _block_complement(shifted) if _block_bit(f, 1) else shifted


def _block_prefix(f, n):
    m, p, k, q = f
    if n <= m:
        return p >> (m - n)
    reps = -(-(n - m) // k)
    return (p << (n - m)) | (_repeat_block(q, k, reps) >> (reps * k - (n - m)))


def _assert_matches_block_route(w):
    """bit, prefix_int, complement, shift_map, c_map, drop_bits and
    prepend_bits on w against the packed-block route on w's fields."""
    f = _fields(w)
    m, p, k, q = f
    assert _old_canonical(*f) == f
    for i in sorted({1, m, m + 1, m + 2, m + 3, m + k, m + k + 1, m + 100} - {0}):
        assert _bit(w, i) == _block_bit(f, i), i
    for n in (0, 1, m, m + 1, m + 2, m + 64, m + 200):
        assert prefix_int(w, n) == _block_prefix(f, n), n
    assert _fields(complement(w)) == _block_complement(f)
    assert _fields(shift_map(w)) == _block_drop(f, 1)
    assert _fields(c_map(w)) == _block_c(f)
    for n in (0, 1, 2, m, m + 1, m + 5, m + 97, m + k + 1):
        assert _fields(drop_bits(w, n)) == _block_drop(f, n), n
        b = n & 7
        assert _fields(prepend_bits(w, 3, b)) == _old_canonical(m + 3, (b << m) | p, k, q), n


@given(bits_strategy(20), bits_strategy(20, min_len=1))
def test_word_ops_match_the_block_route(pre, period):
    m, p = len(pre), int("".join(map(str, pre)) or "0", 2)
    k, q = len(period), int("".join(map(str, period)), 2)
    w = Word(pre, period)
    assert _fields(w) == _old_canonical(m, p, k, q)
    assert w.q == (1 << w.period_len) - 1 and w.s == w.period
    _assert_matches_block_route(w)


def _expansion(t, n):
    """The first n bits of t in [0, 1) by long division."""
    return [(t.numerator << i) // t.denominator & 1 for i in range(1, n + 1)]


# (value, preperiod length, period length) for periods of 1, 2, 64, 65 and
# 1,018 bits; 2 has order 65 modulo 145295143558111, a factor of 2^65 - 1
SAME_SEQUENCE_POINTS = [
    (Fraction(0), 0, 1), (Fraction(5, 8), 3, 1), (Fraction(1, 3), 0, 2),
    (Fraction(5, 12), 2, 2), (Fraction(3, 641), 0, 64), (Fraction(7, 641 * 4), 2, 64),
    (Fraction(12345, 145295143558111), 0, 65), (Fraction(9, 145295143558111 * 2), 1, 65),
    (Fraction(700, 1019), 0, 1018), (Fraction(1, 1019 * 2), 1, 1018)]


@pytest.mark.parametrize("t,m,k", SAME_SEQUENCE_POINTS, ids=str)
def test_a_word_from_bits_equals_the_same_sequence_from_a_value(t, m, k):
    value_word = bits_of(t)[0]
    bits = _expansion(t, m + 3 * k)
    # the same sequence written three ways from its bits: as is, with the
    # period unrolled, and with one period moved into the preperiod
    for from_bits in (Word(bits[:m], bits[m:m + k]), Word(bits[:m], bits[m:m + 2 * k]),
                      Word(bits[:m + k], bits[m + k:m + 2 * k])):
        assert (from_bits.pre_len, from_bits.period_len) == (m, k)
        assert from_bits.q == (1 << k) - 1
        assert from_bits == value_word and value_word == from_bits
        assert hash(from_bits) == hash(value_word)
        assert len({from_bits, value_word}) == 1 and value_word in {from_bits}
        assert word_value(from_bits) == t


# ------------------------------------------------ tail form vs packed form

def _packed(w):
    """w rebuilt from its materialized period block: the same sequence as a
    word made from bits, with q = 2^k - 1."""
    return Word._from_packed(w.pre_len, w.pre, w.period_len, w.period)


def _assert_tail_matches_packed(t, long_ops=True):
    """Every word op on bits_of(t), a tail word, against the packed form of
    the same word, and both against the packed-block route.  long_ops=False
    leaves out the metric to a shifted word, whose value is reduced by a gcd
    over the whole period."""
    tails = bits_of(t)
    packed = [_packed(w) for w in bits_of(t)]  # materializes separate copies
    for w, p in zip(tails, packed):
        assert p.q == (1 << p.period_len) - 1
        _assert_matches_block_route(w)
        _assert_matches_block_route(p)
        m = w.pre_len
        assert w == p and p == w and not w != p
        assert hash(w) == hash(p)
        assert len({w, p}) == 1 and w in {p} and p in {w}
        assert not w < p and not p < w
        assert word_value(w) == word_value(p) == t
        assert dyadic_twin(w) == dyadic_twin(p)
        for i in sorted({1, m, m + 1, m + 2, m + 3, m + 40, m + 100}):
            if i >= 1:
                assert _bit(w, i) == _bit(p, i), i
        for n in (0, 1, m, m + 1, m + 2, m + 64, m + 200):
            assert prefix_int(w, n) == prefix_int(p, n), n
        images = []
        for f in (shift_map, c_map, complement):
            image = f(w)
            assert image.q == w.q  # the tail's q is kept
            assert image == f(p) and hash(image) == hash(f(p))
            images.append(image)
        for n in (1, 2, m, m + 1, m + 5, m + 97):
            assert drop_bits(w, n) == drop_bits(p, n), n
            assert prepend_bits(w, 3, n & 7) == prepend_bits(p, 3, n & 7), n
        for x in images + packed:
            assert (w < x) == (p < x) and (x < w) == (x < p)
            assert (w == x) == (p == x)
        # same tail, another preperiod: the metric reads the whole period
        # but its difference block is 0
        other = prepend_bits(drop_bits(w, m), m + 2, 0b10)
        assert word_metric(w, other) == word_metric(p, other)
        assert r_map(w) == r_map(p)
        assert str(w) == str(p)
        if long_ops:
            assert word_metric(w, images[0]) == word_metric(p, images[0])


# odd parts 11, 1019 and 1000003: periods of 10, 1018 and 1000002 bits.
# 641 and 2^61 - 1 have periods of 64 and 61 bits; 127 * 8191 divides
# 2^7 - 1 times 2^13 - 1, and its period has 91 bits.
TAIL_POINTS = [Fraction(0), Fraction(1), Fraction(3, 8), Fraction(3, 11),
               Fraction(5, 11 * 8), Fraction(700, 1019), Fraction(1, 1019 * 2),
               Fraction(999999, 1000003), Fraction(77, 1000003 * 16),
               Fraction(3, 641), Fraction(12345, 2 ** 61 - 1), Fraction(5, 127 * 8191)]


@pytest.mark.parametrize("t", TAIL_POINTS, ids=str)
def test_tail_form_ops_match_packed_form(t):
    _assert_tail_matches_packed(t, long_ops=t.denominator < 10 ** 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 19), st.integers(0, 6), st.data())
def test_tail_form_ops_match_packed_form_on_random_rationals(half, a, data):
    q = (2 * half + 1) << a  # odd part up to 2^20
    p = data.draw(st.integers(0, q))
    _assert_tail_matches_packed(Fraction(p, q), long_ops=half < 1 << 12)


def test_tail_and_packed_words_share_set_members():
    # one sequence in both forms is one member, across forms and lengths
    for t in (Fraction(1, 3), Fraction(5, 88), Fraction(700, 1019)):
        [w] = bits_of(t)
        p = _packed(bits_of(t)[0])
        assert len({w, p, shift_map(w), shift_map(p)}) == 2
        assert w in {p: 1} and p in {w: 1}
        assert len({w, complement(p)}) == 2
        # the same numerator over another denominator is another tail
        [other] = bits_of(Fraction(t.numerator, t.denominator + 2))
        assert w != other and other != p and len({w, other, p}) == 2


def test_induced_maps_on_rationals_never_read_the_period(monkeypatch):
    # the tail s/q carries induced_tent and induced_baker: neither the order
    # of 2 modulo q (the period length) nor the period block is worked out
    from symchaos.interval import baker, induced_baker, induced_tent, tent

    orders, reads = [], []
    real_order, real_read = symchaos.words._order_of_two, Word._read_period
    monkeypatch.setattr(symchaos.words, "_order_of_two",
                        lambda q: orders.append(q) or real_order(q))
    monkeypatch.setattr(Word, "_read_period", lambda w: reads.append(w) or real_read(w))
    rng = random.Random(200)
    for _ in range(200):
        q = rng.randrange(3, 2 * 10 ** 6 + 1, 2) << rng.randrange(4)
        p = rng.randrange(1, q)
        while math.gcd(p, q) != 1:
            p = rng.randrange(1, q)
        y = Fraction(p, q)
        assert induced_tent(y) == tent(y)
        assert induced_baker(y) == baker(y)
    assert orders == [] and reads == []


def test_fiber_route_hashes_no_word(monkeypatch):
    # a fiber is looked up among the pinned ones only when it shares a pinned
    # fiber's key, so no point goes through the interval and graph maps with
    # a word hash, however many nodes the graph has, but the baker's pinned
    # 1/2.  Nor does a point with one expansion compare two words: its image
    # word is the member of its own fiber, found by identity.  A dyadic's
    # star test compares its second image word with the words of the target
    # fiber, at most two
    from symchaos.graphs import EXAMPLE_GRAPHS, Interior, graph_map, graph_step
    from symchaos.graphs import graph_system, parse_graph
    from symchaos.interval import baker, baker_system, induced_baker, induced_tent
    from symchaos.interval import tent, tent_system

    cycle = ("".join(f"node n{i}\n" for i in range(200))
             + "".join(f"arc E{i} n{i - 1} n{i % 200}\n" for i in range(1, 201)))
    graphs = [graph_system(parse_graph(text))
              for text in (EXAMPLE_GRAPHS["k3"], EXAMPLE_GRAPHS["two_segments"], cycle)]
    tent_system(), baker_system()  # their pinned sets are hashed once, when built
    hashed, compared = [], []
    real_hash, real_eq = Word.__hash__, Word.__eq__
    monkeypatch.setattr(Word, "__hash__", lambda w: hashed.append(w) or real_hash(w))
    monkeypatch.setattr(Word, "__eq__", lambda w, v: compared.append(w) or real_eq(w, v))
    rng = random.Random(201)
    for _ in range(200):
        q = rng.randrange(3, 2 * 10 ** 6 + 1, 2) << rng.randrange(4)
        p = rng.randrange(1, q)
        while math.gcd(p, q) != 1:
            p = rng.randrange(1, q)
        y = Fraction(p, q)
        assert induced_tent(y) == tent(y)
        assert induced_baker(y) == baker(y)
        q = rng.randrange(3, 10 ** 4, 2)
        for sys in graphs:
            point = Interior(rng.randint(1, sys.r), Fraction(rng.randrange(1, q), q))
            assert graph_map(sys, point) == graph_step(sys, point)
    assert compared == []
    dyadic_compares = 0
    for n in range(11):
        for k in range((1 << n) + 1):
            y = Fraction(k, 1 << n)
            maps = [(induced_tent, tent)] + [(induced_baker, baker)] * (y != Fraction(1, 2))
            for induced, closed in maps:
                assert induced(y) == closed(y)
                assert len(compared) <= (2 if 0 < k < 1 << n else 0), (induced, y)
                dyadic_compares += len(compared)
                compared.clear()
    assert hashed == [] and dyadic_compares > 0
