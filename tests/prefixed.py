"""Words with a packed prefix put in front or dropped: how the tests build a
word on a graph arc from its prefix (s, c) and a word of [0, 1], and read
the word of [0, 1] back (the oracle of the graph codec's address rule)."""

from symchaos.words import Word


def prepend_bits(w: Word, n: int, b: int) -> Word:
    """Word whose sequence is the n bits b (packed, first bit most
    significant) followed by w."""
    return Word._tail(w.pre_len + n, (b << w.pre_len) | w.pre, w.s, w.q)


def drop_bits(w: Word, n: int) -> Word:
    """n-fold shift in one step."""
    s, q = w.s, w.q
    if n <= w.pre_len:
        return Word._tail(w.pre_len - n, w.pre & ((1 << (w.pre_len - n)) - 1), s, q)
    # s/q shifted d times is s 2^d mod q; for q = 2^k - 1, the block rotated
    return Word._tail(0, 0, s * pow(2, n - w.pre_len, q) % q if q > 1 else s, q)
