"""Fibers, the star condition, and induced maps with exceptional overrides.

A fiber is one element of the decomposition of sequence space attached to a
codec: the full set of words encoding a single space point, held as the
tuple of its words in (preperiod, period) order.  A symbolic map
descends to the decomposition exactly when it sends each fiber inside a
single fiber (the star condition); where that fails -- or on an explicitly
pinned exceptional set -- an override policy patches the induced map,
either fixing the fiber or redirecting it to a designated point.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple, Protocol, Sequence, Set, Tuple, Union

from .streams import StreamWord
from .words import Word, prefix_int

__all__ = [
    "Fiber",
    "InducedSystem",
    "induced_apply",
    "induced_point",
    "semiconjugacy_check",
    "word_cells",
]


def Fiber(words: Iterable[Word]) -> Tuple[Word, ...]:
    """The fiber of a nonempty finite set of Words encoding one space point:
    the tuple of its words deduplicated (the first of equal words kept) and
    in (preperiod, period) lexicographic order, so fibers compare and hash
    as sets.  A codec that knows its words' order builds the tuple itself."""
    words = set(words)
    if not words:
        raise ValueError("fiber must be nonempty")
    return tuple(sorted(words))


class Codec(Protocol):
    """Bridge between words and points of a concrete space.

    Fibers are the points: `fiber_of` gives a word's fiber from the word,
    and nothing between `encode` and `decode` names a point otherwise.
    Both give a fiber as the tuple Fiber would make of its words.  The
    space is a union of r arcs (r = 1 on the interval); a resolution-p cell
    is a pair (arc, j), the parameter window [j/2^p, (j+1)/2^p].  Arc i is
    addressed by its prefix prefixes[i-1] = (s, c): a word is on the arc
    exactly when its first s bits, packed, are c (the interval's is (0, 0)).
    split_window is the one cell rule, for a point too (word_cells).
    """

    r: int
    prefixes: Sequence[Tuple[int, int]]

    def encode(self, point) -> Tuple[Word, ...]: ...

    def decode(self, word: Word): ...

    def addresses(self, word: Word, point) -> bool:
        """decode(word) == point, on integers: no point is built."""

    def fiber_of(self, word: Word) -> Tuple[Word, ...]: ...

    def point_json(self, point): ...

    def split_window(self, x: int, precision: int) -> Tuple[int, int]:
        """Cell (arc, window) addressed by the packed first r-1+precision bits."""

    def cell_json(self, cell: Tuple[int, int]) -> dict: ...

    def lattice(self, fmap: Callable, q: int, eta) -> Tuple[Callable, Callable, Callable, bool]:
        """The space on the parameters n/q of each arc, keyed (arc, n): one
        step of fmap (None on a graph) on a key, the test metric > eta on
        two keys, the point of a key, and whether arc ends (n = 0 or q) may
        be neighbours."""


class Violation(NamedTuple):
    images: Tuple[Tuple[Word, Any], ...]


class InducedSystem:
    """A symbolic map, a codec, and the override data for the induced map.

    The override policy (identity when `designated` is None, otherwise the
    fiber of the designated point) applies on every pinned fiber and on any
    fiber where the star condition fails.  The pinned points' fibers and
    their keys (_pin_key) are derived from the points once, here.
    """

    def __init__(self, name: str, symbolic_map: Callable[[Word], Word], codec: Codec,
                 designated: Any = None, pinned_points: Tuple = ()):
        points = tuple(pinned_points)
        fibers = frozenset(map(codec.encode, points))
        vars(self).update(  # the fields, in order, set once past __setattr__
            name=name, symbolic_map=symbolic_map, codec=codec, designated=designated,
            pinned_points=points, pinned_fibers=fibers,
            pinned_keys=frozenset(map(_pin_key, fibers)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return "InducedSystem(%s)" % ", ".join(f"{k}={v!r}" for k, v in vars(self).items())


def _pin_key(fib: Tuple[Word, ...]) -> Tuple[int, int, bool]:
    """Word count, first word's preperiod length and whether its tail is
    constant (q = 1): equal fibers share it, and it hashes no word, so only
    a fiber with a pinned fiber's key is looked up in pinned_fibers."""
    w = fib[0]
    return len(fib), w.pre_len, w.q == 1


def star_check(sys: InducedSystem, fib: Tuple[Word, ...]) -> Union[Tuple[Word, ...], Violation]:
    """Apply the symbolic map memberwise and test the star condition.

    It holds when every image word lies in the fiber of the first (two
    expansions of one dyadic are one point, not a violation), and that fiber
    is returned; otherwise a Violation holds every image with its point.
    """
    image = _star_image(sys, fib)
    if image is not None:
        return image
    return Violation(tuple((w, sys.codec.decode(w)) for w in map(sys.symbolic_map, fib)))


def _star_image(sys: InducedSystem, fib: Tuple[Word, ...]) -> Tuple[Word, ...] | None:
    """The fiber of the first image word when the star condition holds,
    else None; no image word is decoded."""
    images = list(map(sys.symbolic_map, fib))
    target = sys.codec.fiber_of(images[0])
    return target if all(map(target.__contains__, images)) else None


def induced_apply(sys: InducedSystem, fib: Tuple[Word, ...]) -> Tuple[Word, ...]:
    """The induced map on fibers, with the override policy applied."""
    keys = sys.pinned_keys  # empty when nothing is pinned: no key to make
    if not (keys and _pin_key(fib) in keys and fib in sys.pinned_fibers):
        image = _star_image(sys, fib)
        if image is not None:
            return image
    return fib if sys.designated is None else sys.codec.encode(sys.designated)


def induced_point(sys: InducedSystem, closed_form: Callable, point, show: Callable = repr):
    """The induced map at a point by the fiber route (encode, induced_apply),
    whose image word must address the closed form's point; a mismatch is an
    internal invariant failure and raises ArithmeticError, and only then are
    words decoded, for the message (the point as encode read it)."""
    codec = sys.codec
    source = codec.encode(point)
    word = induced_apply(sys, source)[0]
    expected = closed_form(point)
    if not codec.addresses(word, expected):
        raise ArithmeticError(
            f"induced {sys.name} map at {show(codec.decode(source[0]))} gave "
            f"{show(codec.decode(word))}, closed form gives {show(expected)}")
    return expected


def semiconjugacy_check(sys: InducedSystem, w: Word) -> bool:
    """Does the induced map commute with projection at w?  Checked exactly
    on fibers.  (At a word that is not eventually periodic, such as an
    iterate of the dense word, it holds by construction: its point is
    irrational, alone in its fiber and never pinned.)"""
    fib = sys.codec.fiber_of(w)
    lhs = induced_apply(sys, fib)
    rhs = sys.codec.fiber_of(sys.symbolic_map(w))
    return lhs == rhs


def stream_excludes_all(codec: Codec, sw: StreamWord, cells: Set, precision: int) -> bool:
    """Is the precision-p cell that sw's first r-1+precision bits address
    outside `cells`?  The cell is the value enclosure of the stream's
    parameter, and it fails to separate a point exactly when it is one of
    the cells of the point's fiber words (word_cells).  Each codec binds
    this as its method."""
    return codec.split_window(sw.window_int(codec.r - 1 + precision), precision) not in cells


def word_cells(codec: Codec, words: Iterable[Word], p: int) -> Set[Tuple[int, int]]:
    """The resolution-p cells that the words' first r-1+p bits address: for
    a fiber's words, every cell that holds its point."""
    return {codec.split_window(prefix_int(w, codec.r - 1 + p), p) for w in words}

