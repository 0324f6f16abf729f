"""The dense word and its exact iterates, read through a closed form.

The dense word is the concatenation of all finite binary words ordered by
length then lexicographically (0, 1, 00, 01, 10, 11, 000, ...).  Its shift
orbit visits every cylinder, which is what the dense-orbit checks consume.
Nothing is stored: block L lists the 2^L words of length L and starts after
(L-2)*2^L + 2 bits, so any bit or window is computed from its position.
A run of K listed words v, v+1, ..., v+K-1 of length L reads as one
integer, the sum of (v + k) r^(K-1-k) over k < K for r = 2^L, that is
(v (r^K - 1)(r - 1) + r^K - K r + K - 1) / (r - 1)^2: a read takes a few
big-int operations per block it reaches, however long it is.

A StreamWord is an (offset, flip) view of the dense word.  The flip flag
makes iterates of the complementing map exact as well: the n-th such
iterate of a sequence w is the n-fold shift of w XOR w(n), a global flip.
Along the generator orbit that flip is dense bit n, the bit just before
the iterate's first bit (and 0 at step 0).

The dense-orbit check reads the orbit once, as text: orbit_text writes the
dense word as '0'/'1' characters in overlapping chunks, each holding the
flip and the whole window of each of its steps, and window_array turns a
chunk into the windows of its steps at once: one big integer holds one
bit per fixed-size field, a few shifts of it put each step's window in its
own field, and the fields are read back as an array, so no step builds a
StreamWord or runs a line of Python.  When only a few cells are left
unmarked, the check stops taking windows and finds each one with str.find
on the chunks' text: a cell is marked exactly when the window starts with
one bit pattern (the arc's prefix, then the cell's bits), after the flip
bit under C.
The Lemma 6 check reads no bit of it: every iterate is not eventually
periodic, so projection commutes there by construction.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Sequence, Tuple

__all__ = [
    "orbit_text",
    "window_array",
    "dense_bit",
]


def _dense_window(start: int, n: int) -> int:
    """Dense-word bits start+1 .. start+n packed into an int (first bit most
    significant): the tail of the listed word that holds bit start+1, then
    the run of listed words after it in each block it reaches, each run one
    closed form (see the module docstring)."""
    # block L starts at (L-2)*2^L + 2, about L*2^L, so this guess is at most L
    length = max(1, start.bit_length() - start.bit_length().bit_length() - 1)
    while ((length - 1) << (length + 1)) + 2 <= start:  # block length+1 starts there
        length += 1
    v, j = divmod(start - ((length - 2) << length) - 2, length)
    value, have, v = v & ((1 << (length - j)) - 1), length - j, v + 1
    while have < n:
        if v >> length:
            length, v = length + 1, 0
        r, k = 1 << length, min((1 << length) - v, -(-(n - have) // length))
        rk = 1 << length * k
        value = value << length * k | (v * (rk - 1) * (r - 1) + rk - k * r + k - 1) // (r - 1) ** 2
        have, v = have + length * k, v + k
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


def orbit_text(width: int, steps: int) -> Iterator[Tuple[int, str]]:
    """The text of the first `steps` iterates of the generator orbit whose
    windows are `width` bits: one pair (n0, text) per chunk of at most
    _CHUNK_BITS steps, text being dense bits n0 .. n0+k+width of its k
    steps as '0'/'1' (bit 0 reads as 0), so that text[t] is iterate n0+t's
    flip and text[t+1:t+1+width] its window before any flip.  Consecutive
    chunks overlap by width+1 bits.  Each is one _dense_window read."""
    for n0 in range(0, steps, _CHUNK_BITS):
        k = min(_CHUNK_BITS, steps - n0) + width + 1
        start = max(n0 - 1, 0)  # at n0 = 0 the padding to k digits writes bit 0
        yield n0, format(_dense_window(start, n0 + k - 1 - start), f"0{k}b")


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_FIELD_CODES = {array(code).itemsize: code for code in "QLIHB"}  # unsigned, by item size


def window_array(text: str, width: int, complementing: bool) -> Sequence[int]:
    """The `width`-bit windows (packed, first bit most significant) of the
    steps of an orbit_text chunk, under the shift, or under the
    complementing shift when `complementing`: windows[t] is text[t+1 ..
    t+width], complemented under C when its flip, text[t], is 1.

    The text's bits go one to a field of F bytes of one integer x, little end
    first (F = 1, 2, 4 or 8 up to 8, 16, 32 or 64 bits, else width/8 rounded
    up), so field t holds text[t].  Doubling shifts, with one one-bit step
    per 1 digit of width, give y, whose field t holds text[t+1 .. t+width];
    under C, x times 2^width - 1 flips each field by its own flip bit.  The
    fields are read as one array of F-byte items, or past 64 bits one int
    each."""
    size = -(-width // 8)
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    field, code = 8 * size, _FIELD_CODES.get(size)
    bits = text.encode().translate(_BIT_BYTES)
    k = len(bits) - width - 1
    if size > 1:
        spread = bytearray(len(bits) * size)
        spread[::size] = bits
        bits = spread
    x = int.from_bytes(bits, "little")
    y, m = x >> field, 1  # field t of y holds text[t+1 .. t+m]
    for digit in bin(width)[3:]:
        y = (y << m) | (y >> field * m)
        m *= 2
        if digit == "1":
            y = (y << 1) | (x >> field * (m + 1))
            m += 1
    if complementing:
        y ^= x * ((1 << width) - 1)
    data = y.to_bytes(len(bits), "little")[:k * size]
    if code is None:
        return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
    windows = array(code, data)
    if sys.byteorder == "big":
        windows.byteswap()
    return windows


def value_enclosure(sw: StreamWord, p: int) -> Tuple[Fraction, Fraction]:
    """[lo, lo + 2^-p] with lo the value of the first p bits."""
    if p < 1:
        raise ValueError("p must be positive")
    v = sw.window_int(p)
    return Fraction(v, 1 << p), Fraction(v + 1, 1 << p)
