"""The unit interval as a decomposition space: tent and baker maps.

The fiber over y in [0, 1] is the set of binary expansions of y (two words
for interior dyadics, one otherwise).  The complementing symbolic map
descends through these fibers without exception and induces the tent map;
the plain shift fails the star condition exactly over 1/2 and induces the
baker map once that fiber is redirected to the fiber of 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Set, Tuple

from .decomposition import InducedSystem, induced_point, stream_excludes_all
from .words import (Word, _expansions, _show, as_unit, bits_of, c_map, r_map, shift_map,
                    with_twin, word_value)

__all__ = [
    "as_unit",
    "tent",
    "baker",
    "induced_tent",
    "induced_baker",
    "conjugate_via_r",
    "tent_system",
    "baker_system",
    "INTERVAL_CODEC",
]


class IntervalCodec:
    """Word/point bridge for [0, 1]; all comparisons stay word-level.  The
    interval is the one-arc space with an empty prefix: a cell is its window j."""

    r = 1
    prefixes = ((0, 0),)
    stream_excludes_all = stream_excludes_all

    def read(self, point: Fraction) -> Tuple[Tuple[int, int], Tuple[Word, ...]]:
        """The pair (n, d) of the point n/d in lowest terms, read by as_unit,
        and its expansions."""
        n, d = form = as_unit(point).as_integer_ratio()
        return form, _expansions(n, d)

    def encode(self, point: Fraction) -> Tuple[Word, ...]:
        return self.read(point)[1]

    def decode(self, word: Word) -> Fraction:
        return word_value(word)

    point = staticmethod(Fraction)  # the point n/d of the pair (n, d)

    def addresses(self, word: Word, n: int, d: int) -> bool:
        """word_value(word) == n/d, cross-multiplied."""
        q = word.q
        return (word.pre * q + word.s) * d == n * (q << word.pre_len)

    def fiber_of(self, word: Word) -> Tuple[Word, ...]:
        # a method, not staticmethod(with_twin): perfbench's tracer wraps the
        # class attribute as a plain function, which is then called with self
        return with_twin(word)

    def point_json(self, point: Fraction) -> str:
        return str(point)

    def split_windows(self, xs: Iterable[int], precision: int) -> Set[int]:
        return set(xs)

    def cell_json(self, cell: int, precision: int) -> dict:
        return {"cell": cell}

    def lattice(self, fmap, q: int, eta: Fraction):
        """The key n is n/q, ends included.  A step is fmap on n/q in
        lowest terms, multiplied back by q, and an image off the lattice
        raises ArithmeticError."""
        def step(n):
            g = gcd(n, q)
            a, b = fmap(n // g, q // g)
            m, rest = divmod(a * q, b)
            if rest:
                raise ArithmeticError(f"the map takes {n}/{q} to {_show(Fraction(a, b))}, "
                                      f"off the lattice of denominator {q}")
            return m

        bound, den = eta.numerator * q, eta.denominator
        return step, lambda x, y: abs(x - y) * den > bound, True


INTERVAL_CODEC = IntervalCodec()


def _tent(n: int, d: int) -> Tuple[int, int]:
    """The tent map on the point n/d, as a pair that need not be in lowest
    terms: its d is d, so an orbit stays on the lattice of its start."""
    return (2 * n if 2 * n <= d else 2 * (d - n)), d


def _baker(n: int, d: int) -> Tuple[int, int]:
    """The baker map on the point n/d, as _tent gives it."""
    return 2 * n if 2 * n <= d else 2 * n - d, d


def tent(y) -> Fraction:
    return Fraction(*_tent(*as_unit(y).as_integer_ratio()))


def baker(y) -> Fraction:
    return Fraction(*_baker(*as_unit(y).as_integer_ratio()))


@lru_cache(maxsize=1)
def tent_system() -> InducedSystem:
    return InducedSystem("tent", c_map, INTERVAL_CODEC)


@lru_cache(maxsize=1)
def baker_system() -> InducedSystem:
    return InducedSystem("baker", shift_map, INTERVAL_CODEC,
                         designated=Fraction(1), pinned_points=(Fraction(1, 2),))


def induced_tent(y) -> Fraction:
    """Tent map computed through the fiber route.

    The equality with the closed form (_tent on the point's pair) is the
    whole point; it is checked here and exercised exhaustively by the
    acceptance suite.
    """
    return induced_point(tent_system(), _tent, y)


def induced_baker(y) -> Fraction:
    """Baker map through the fiber route, with the override over 1/2."""
    return induced_point(baker_system(), _baker, y)


def conjugate_via_r(y) -> Fraction:
    """Value of the adjacent-XOR transform of y's expansion.

    For dyadics the ...10^inf expansion is used (first in bits_of order);
    the two expansions transport to different words, so the choice matters
    and is fixed here.
    """
    return word_value(r_map(bits_of(y)[0]))
