"""The dense word's text read in chunks, for the oracles that read the
generator orbit as one string: the verifier reads it through
streams.orbit_text, and these read it apart from that, one listed word at
a time (word_by_word, also the oracle of streams._dense_window)."""

CHUNK_BITS = 4096


def word_by_word(start, n):
    """Dense-word bits start+1 .. start+n packed into an int (first bit most
    significant), assembled as the words are listed: block L, the 2^L words
    of length L, starts after (L-2) 2^L + 2 bits, and each word is appended
    to the value in turn."""
    length = 1
    while ((length - 1) << (length + 1)) + 2 <= start:  # block length+1 starts there
        length += 1
    v, j = divmod(start - ((length - 2) << length) - 2, length)
    value, have = v & ((1 << (length - j)) - 1), length - j
    while have < n:
        v += 1
        if v >> length:
            length, v = length + 1, 0
        value, have = (value << length) | v, have + length
    return value >> (have - n)


def dense_text(start, n):
    """Dense-word bits start+1 .. start+n as '0'/'1' text, in chunks of at
    most CHUNK_BITS bits, each one word_by_word read."""
    while n > 0:
        k = min(CHUNK_BITS, n)
        yield format(word_by_word(start, k), f"0{k}b")
        start, n = start + k, n - k
