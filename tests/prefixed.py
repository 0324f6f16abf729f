"""Words with a packed prefix put in front: how the tests build a word on a
graph arc from its prefix (s, c) and a word of [0, 1]."""

from symchaos.words import Word


def prepend_bits(w: Word, n: int, b: int) -> Word:
    """Word whose sequence is the n bits b (packed, first bit most
    significant) followed by w."""
    return Word._tail(w.pre_len + n, (b << w.pre_len) | w.pre, w.s, w.q)
