"""The dense word's text read in chunks, for the oracles that read the
generator orbit as one string: the verifier reads it through
streams.orbit_text, and these read it apart from that."""

from symchaos.streams import _dense_window

CHUNK_BITS = 4096


def dense_text(start, n):
    """Dense-word bits start+1 .. start+n as '0'/'1' text, in chunks of at
    most CHUNK_BITS bits, each one _dense_window read (one read over n bits
    shifts its whole value once per listed word: about n^2/64 word
    operations)."""
    while n > 0:
        k = min(CHUNK_BITS, n)
        yield format(_dense_window(start, k), f"0{k}b")
        start, n = start + k, n - k
