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

from typing import (Any, Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence, Set, Tuple,
                    Union)

from .streams import StreamWord
from .words import Word, _show, prefix_int

__all__ = [
    "InducedSystem",
    "induced_apply",
    "induced_orbit",
    "induced_point",
    "semiconjugacy_check",
    "word_cells",
]


class Codec(Protocol):
    """Bridge between words and points of a concrete space.

    Fibers are the points: a fiber is the tuple of the point's words,
    distinct and in the order of their printed text (preperiod, then
    period), so fibers compare and hash as sets; `read`, `encode` and
    `fiber_of` all give it so.  The space is r arcs (r = 1 on the interval)
    end to end, the arc line [0, r], where t on arc i sits at i - 1 + t.  A
    point's integer form, which `read` gives and `point` reads back, is its
    place there in lowest terms: (x, q) for x = (i - 1) q + n at n/q on arc
    i, or (~k, 1) at node k of a graph.  A resolution-p cell is a place at
    scale 2^p: (i - 1) 2^p + j for the window [j/2^p, (j+1)/2^p] of arc i,
    so x/q's cell is (x << p) // q off cell ends.  Arc
    i is addressed by its prefix prefixes[i-1] = (s, c): a word is on the arc
    exactly when its first s bits, packed, are c (the interval's is (0, 0));
    a graph finds that arc by one table of where each arc's cylinder ends.
    split_windows is the one cell rule, for a chunk of the generator
    orbit's windows, for one window (stream_excludes_all) and for a point
    (word_cells).
    """

    r: int
    prefixes: Sequence[Tuple[int, int]]

    def read(self, point) -> Tuple[Tuple[int, int], Tuple[Word, ...]]:
        """The point's integer form and its fiber, the point read once."""

    def encode(self, point) -> Tuple[Word, ...]:
        """read(point)[1]."""

    def decode(self, word: Word): ...

    def point(self, a: int, b: int):
        """The point of the integer form (a, b)."""

    def addresses(self, word: Word, a: int, b: int) -> bool:
        """decode(word) == point(a, b), on integers: no point is built."""

    def fiber_of(self, word: Word) -> Tuple[Word, ...]: ...

    def point_json(self, point): ...

    def split_windows(self, xs: Iterable[int], precision: int) -> Set[int]:
        """The cells addressed by the windows xs, each the packed first
        r-1+precision bits of a sequence (first bit most significant)."""

    def cell_json(self, cell: int, precision: int) -> dict: ...

    def lattice(self, fmap: Callable, q: int, eta) -> Tuple[Callable, Callable, bool]:
        """The space on the parameters n/q of each arc, each point keyed by
        one int, the numerator x of its integer form on denominator q (~k
        for node k of a graph), its point point(x, q).  One step of fmap
        (None on a graph) on a key, the test metric > eta on two keys, and
        whether arc ends (n = 0 or q) may be neighbours."""


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
    images = list(map(sys.symbolic_map, fib))
    target = sys.codec.fiber_of(images[0])
    if all(map(target.__contains__, images)):
        return target
    return Violation(tuple((w, sys.codec.decode(w)) for w in images))


def induced_apply(sys: InducedSystem, fib: Tuple[Word, ...]) -> Tuple[Word, ...]:
    """The induced map on fibers, with the override policy applied: the
    fiber of the first image word when the star condition holds (every image
    word lies in it; no image word is decoded) and the fiber is not pinned."""
    keys = sys.pinned_keys  # empty when nothing is pinned: no key to make
    if not (keys and _pin_key(fib) in keys and fib in sys.pinned_fibers):
        step = sys.symbolic_map
        target = sys.codec.fiber_of(step(fib[0]))  # which holds the first image
        if len(fib) == 1 or all(map(target.__contains__, map(step, fib[1:]))):
            return target
    return fib if sys.designated is None else sys.codec.encode(sys.designated)


def _mismatch(sys: InducedSystem, fib: Tuple[Word, ...], image: Tuple[Word, ...],
              expected: Tuple[int, int]) -> ArithmeticError:
    """The internal invariant failure of a step from fib whose image fiber
    does not address the closed form's integer form; the points are built
    here only, for the message (the source as its fiber's first word reads)."""
    codec = sys.codec
    return ArithmeticError(
        f"induced {sys.name} map at {_show(codec.decode(fib[0]))} gave "
        f"{_show(codec.decode(image[0]))}, closed form gives {_show(codec.point(*expected))}")


def induced_point(sys: InducedSystem, closed_form: Callable, point):
    """The induced map at a point by the fiber route: the point is read once
    (codec.read), its fiber goes through induced_apply, and the closed form
    steps its integer form, a pair to a pair, which the image's first word
    must address; the image point is built once, from the closed form's
    pair.  A mismatch is an internal invariant failure and raises
    ArithmeticError."""
    # induced_orbit's step written out: a generator per call took +24 % on `points`
    codec = sys.codec
    (a, b), fib = codec.read(point)
    image = induced_apply(sys, fib)
    a, b = closed_form(a, b)
    if not codec.addresses(image[0], a, b):
        raise _mismatch(sys, fib, image, (a, b))
    return codec.point(a, b)


def induced_orbit(sys: InducedSystem, closed_form: Callable, point) -> Iterator[tuple]:
    """The orbit of a point under the induced map, stepped and checked as
    induced_point steps it: each point's integer form and fiber, made when
    asked for.  The start is read once, before the first is given; each
    step's image fiber is the next step's source, and no point is built."""
    codec = sys.codec
    form, fib = codec.read(point)
    while True:
        yield form, fib
        image = induced_apply(sys, fib)
        form = closed_form(*form)
        if not codec.addresses(image[0], *form):
            raise _mismatch(sys, fib, image, form)
        fib = image


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
    return not codec.split_windows((sw.window_int(codec.r - 1 + precision),), precision) & cells


def word_cells(codec: Codec, words: Iterable[Word], p: int) -> Set[int]:
    """The resolution-p cells that the words' first r-1+p bits address: for
    a fiber's words, every cell that holds its point."""
    return codec.split_windows([prefix_int(w, codec.r - 1 + p) for w in words], p)

