"""The dense word and its exact iterates, read through a closed form.

The dense word is the concatenation of all finite binary words ordered by
length then lexicographically (0, 1, 00, 01, 10, 11, 000, ...).  Its shift
orbit visits every cylinder, which is what the dense-orbit checks consume.
Nothing is stored: block L lists the 2^L words of length L and starts after
(L-2)*2^L + 2 bits, so any bit or window is computed from its position.

A StreamWord is an (offset, flip) view of the dense word.  The flip flag
makes iterates of the complementing map exact as well: the n-th such
iterate of a sequence w is the n-fold shift of w XOR w(n), a global flip.
Along the generator orbit that flip is dense bit n, the bit just before
the iterate's first bit (and 0 at step 0).

The dense-orbit check reads the orbit as text: _dense_text writes the
dense word as '0'/'1' characters, a chunk of bits per _dense_window call,
and orbit_windows rolls one integer through that text, one bit per step,
so no step builds a StreamWord or finds its place in the dense word again.
When only a few cells are left unmarked, the check stops rolling and finds
each one's first step with str.find on the rest of that text: a cell is
marked exactly when the window starts with one bit pattern (the arc's
prefix, then the cell's bits), after the flip bit under C.
The Lemma 6 check reads no bit of it: every iterate is not eventually
periodic, so projection commutes there by construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, NamedTuple, Tuple

__all__ = [
    "orbit_windows",
    "dense_bit",
]


def _dense_window(start: int, n: int) -> int:
    """Dense-word bits start+1 .. start+n packed into an int (first bit most
    significant), assembled a whole listed word at a time."""
    # block L starts at (L-2)*2^L + 2, about L*2^L, so this guess is at most L
    length = max(1, start.bit_length() - start.bit_length().bit_length() - 1)
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


def dense_prefix(n: int) -> List[int]:
    """First n bits of the dense word."""
    return StreamWord().prefix(n)


def dense_bit(i: int) -> int:
    """Bit i (1-based) of the dense word."""
    if i < 1:
        raise IndexError("bit positions are 1-based")
    return _dense_window(i - 1, 1)


class StreamWord(NamedTuple):
    """The dense word shifted by `offset` bits, complemented when `flip`."""

    offset: int = 0
    flip: int = 0

    def prefix(self, n: int) -> List[int]:
        value = self.window_int(n)
        return [(value >> (n - 1 - i)) & 1 for i in range(n)]

    def window_int(self, n: int) -> int:
        """First n bits packed into an int (first bit most significant)."""
        value = _dense_window(self.offset, n)
        return value ^ ((1 << n) - 1) if self.flip else value


def stream_shift(sw: StreamWord) -> StreamWord:
    return StreamWord(sw.offset + 1, sw.flip)


def stream_c_step(sw: StreamWord) -> StreamWord:
    """One step of the complementing map: shift, then flip if bit 1 was 1."""
    return StreamWord(sw.offset + 1, sw.flip ^ sw.window_int(1))


_CHUNK_BITS = 4096


def _dense_text(start: int, n: int) -> Iterator[str]:
    """Dense-word bits start+1 .. start+n as '0'/'1' text, in chunks of at
    most _CHUNK_BITS bits, each read by one _dense_window call (one call
    over n bits shifts its whole value once per listed word: about n^2/64
    word operations)."""
    while n > 0:
        k = min(_CHUNK_BITS, n)
        yield format(_dense_window(start, k), f"0{k}b")
        start, n = start + k, n - k


def orbit_windows(width: int, steps: int, complementing: bool) -> Iterator[int]:
    """The first `width` bits (packed, first bit most significant) of each of
    the first `steps` iterates of the dense word under the shift, or under
    the complementing shift when `complementing`.

    One integer x of width+1 bits rolls along the dense word: at step n it
    holds dense bits n .. n+width (bit 0 reads as 0).  Under the shift the
    window is its low width bits; under the complementing shift those bits
    are complemented when the top bit, the flip of stream_c_step, is set.
    The dense word is read as _dense_text."""
    mask = (1 << width) - 1
    full = (mask << 1) | 1
    x = _dense_window(0, width)  # dense bits 1..width
    for text in _dense_text(width, steps):
        chunk = text.encode()  # ASCII '0' and '1' differ in their low bit
        if complementing:
            for b in chunk:
                yield x ^ full if x > mask else x
                x = ((x << 1) & full) | (b & 1)
        else:
            for b in chunk:
                yield x & mask
                x = ((x << 1) & full) | (b & 1)


def value_enclosure(sw: StreamWord, p: int) -> Tuple[Fraction, Fraction]:
    """[lo, lo + 2^-p] with lo the value of the first p bits."""
    if p < 1:
        raise ValueError("p must be positive")
    v = sw.window_int(p)
    return Fraction(v, 1 << p), Fraction(v + 1, 1 << p)
