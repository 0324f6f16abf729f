"""Desk-scale evidence for the chaos predicates of the induced systems.

Density and transitivity are checked at a finite dyadic resolution p and
the reports state p, so no claim beyond that resolution is implied.  Every
check is exact rational arithmetic with deterministic enumeration order;
elapsed_ms is the only nondeterministic report field.
"""

from __future__ import annotations

import math
import operator
import time
from fractions import Fraction
from itertools import combinations, count
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from . import streams
from .decomposition import Codec, InducedSystem, semiconjugacy_check, word_cells
from .graphs import GraphSystem
from .interval import INTERVAL_CODEC, _baker, _show, _tent, baker_system, tent_system
from .streams import StreamWord, stream_c_step, stream_shift
from .words import MAX_BITS, MAX_STEPS, Word, _factorize, _within, as_unit, c_map, shift_map

__all__ = [
    "ChaosReport",
    "Target",
    "tent_target",
    "baker_target",
    "graph_target",
    "identity_target",
    "constant_target",
    "rotation_target",
    "periodic_density",
    "dense_orbit_coverage",
    "transitivity_witness",
    "sensitivity_probe",
    "lemma6_commute_check",
]

ZERO, HALF, ONE, TWO = Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)

Branch = Tuple[Fraction, Fraction, Fraction, Fraction]  # lo, hi, slope, intercept


class ChaosReport(NamedTuple):
    """Outcome of one property check; passes iff the witness list is empty
    of counterexamples (a failing report always carries at least one)."""

    system: str
    property: str
    params: dict
    verdict: str
    witnesses: list
    elapsed_ms: int = 0

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        """The fields as a dict, every list and dict in them a copy."""
        return _copied(self._asdict())


def _copied(value):
    """value with every dict and list in it copied; a report holds no other
    mutable value."""
    if isinstance(value, dict):
        return {key: _copied(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copied(item) for item in value]
    return value


def _finish(system: str, prop: str, params: dict, witnesses: list,
            started: float) -> ChaosReport:
    verdict = "pass" if not witnesses else "fail"
    elapsed = int((time.monotonic() - started) * 1000)
    return ChaosReport(system, prop, params, verdict, witnesses, elapsed)


class Target(NamedTuple):
    """An exact self-map under test on a decomposition space: [0, 1]
    (space INTERVAL_CODEC, with the map's branch structure) or a graph
    (space the GraphSystem, no branches and no fmap: it steps by its
    induced map's closed form).  fmap takes a point of [0, 1] as its
    lowest-terms pair (n, d), 0 <= n <= d, and returns its image as any pair
    (a, b) with b > 0, which the checks reduce where they key or compare on
    it.  It must be a deterministic function of its argument that agrees
    with each branch inside it: transitivity maps each point once and reuses
    the image, and pulls its witnesses back through the branches, so a
    witness fmap takes elsewhere raises ArithmeticError.  The generator
    orbit is the dense word's, under C or S as the induced map says."""

    name: str
    fmap: Optional[Callable]
    space: Codec
    branches: Optional[Tuple[Branch, ...]] = None
    induced: Optional[InducedSystem] = None

    @property
    def stream_step(self) -> Optional[Callable[[StreamWord], StreamWord]]:
        """One step of the generator orbit: stream_c_step under C,
        stream_shift under S, None without an induced map."""
        if self.induced is None:
            return None
        return stream_c_step if _complementing(self.induced) else stream_shift


def tent_target() -> Target:
    branches = ((ZERO, HALF, TWO, ZERO), (HALF, ONE, -TWO, TWO))
    return Target("tent", _tent, INTERVAL_CODEC, branches, tent_system())


def baker_target() -> Target:
    branches = ((ZERO, HALF, TWO, ZERO), (HALF, ONE, TWO, -ONE))
    return Target("baker", _baker, INTERVAL_CODEC, branches, baker_system())


def graph_target(system: GraphSystem, name: str = "graph") -> Target:
    return Target(name, None, system, induced=system.induced)


def identity_target() -> Target:
    return Target("identity", lambda n, d: (n, d), INTERVAL_CODEC, ((ZERO, ONE, ONE, ZERO),))


def constant_target(value: Fraction = HALF) -> Target:
    """The map to `value`, a point of [0, 1] read by as_unit."""
    value = as_unit(value)
    image = value.as_integer_ratio()
    return Target("constant", lambda n, d: image, INTERVAL_CODEC, ((ZERO, ONE, ZERO, value),))


def rotation_target(step: Fraction = Fraction(1, 3)) -> Target:
    """The rotation of [0, 1) by `step`, a point of [0, 1) read by as_unit."""
    step = as_unit(step)
    if step == 1:
        raise ValueError("rotation step 1 outside [0, 1)")
    a, b = step.as_integer_ratio()

    def rot(n: int, d: int) -> Tuple[int, int]:
        n, d = n * b + a * d, d * b
        return (n - d if n >= d else n), d

    return Target("rotation", rot, INTERVAL_CODEC,
                  ((ZERO, 1 - step, ONE, step), (1 - step, ONE, ONE, step - 1)))


_CONSTANTS = (Word([], [0]), Word([], [1]))


# -- dense periodic points -------------------------------------------------


def periodic_density(target: Target, max_period: int, resolution: int) -> ChaosReport:
    """Are the verified periodic points (projected from purely periodic words
    of period at most max_period, kept only when their point returns within
    max_period steps) dense at resolution 2^-resolution?

    The kept words are counted and each cell is searched for one (see
    _uncovered).  Under an induced shift or complementing shift the count
    and the kept test are closed forms (_kept_blocks); other maps decode
    every word and iterate its point (_returning_blocks)."""
    started = time.monotonic()
    # a map without an induced symbolic system decodes every block: at most 16 bits
    cap = MAX_BITS if target.induced is not None else 16
    _within(max_period=(max_period, 1, cap), resolution=(resolution, 1, 16))
    space = target.space
    if target.induced is not None:
        points_kept, kept = _kept_blocks(target.induced, max_period)
    else:
        points_kept, kept = _returning_blocks(target, max_period)
    missing = _uncovered(space, kept, max_period, resolution)
    cells = space.r << resolution
    params = {"max_period": max_period, "resolution": resolution,
              "periodic_points": points_kept,
              "covered": cells - len(missing), "cells": cells}
    witnesses = [space.cell_json(c, resolution) for c in missing]
    return _finish(target.name, "periodic-density", params, witnesses, started)


def _kept_blocks(sys: InducedSystem, horizon: int) -> Tuple[int, Callable[[int, int], bool]]:
    """How many purely periodic words of period at most `horizon` are kept,
    and the predicate kept(k, q) on the word whose primitive block is q, of
    length k (a block that is not primitive gives False).

    S^n(w) is q rotated left by n mod k, and C^n(w)(i) = w(i+n) XOR w(n) is
    that rotation, complemented when w(n) = 1.  So under S every word is
    back at step k, and under C a word comes back (at k, or at k/2 when a
    rotation complements it) exactly when q ends in 0; complementing pairs
    the primitive blocks of each length (_primitive_blocks), so half of
    them end in 0.  Only the two constant words can share a point (a graph
    node), and S fixes both, so comparing words compares points.  A pinned
    (exceptional, held fixed) purely periodic word is kept, and every other
    word on its cycle meets it before coming back and is dropped."""
    complementing = _complementing(sys)
    count = sum(map(_primitive_blocks, range(1, horizon + 1)))
    if complementing:
        count //= 2
    pinned, blocked = set(), set()
    for w in _pinned_periodic(sys, horizon):
        pinned.add((w.period_len, w.period))
        cycle = _cycle(sys.symbolic_map, w, horizon)
        if cycle is None:  # not counted above: it never comes back
            count += 1
        else:
            blocked |= cycle
    blocked -= pinned
    count -= len(blocked)
    repunits = [_repunits(k) for k in range(horizon + 1)]

    def kept(k: int, q: int) -> bool:
        if (k, q) in pinned:
            return True
        if complementing and q & 1:
            return False
        return all(q % rep for rep in repunits[k]) and (k, q) not in blocked

    return count, kept


def _repunits(k: int) -> List[int]:
    """A block of length k repeats a block of length k/p exactly when the
    repunit (2^k - 1)/(2^(k/p) - 1) divides it, for a prime p of k."""
    return [((1 << k) - 1) // ((1 << k // p) - 1) for p in _factorize(k)]


def _returning_blocks(target: Target, horizon: int) -> Tuple[int, Callable[[int, int], bool]]:
    """_kept_blocks for a map without an induced symbolic system (a map of
    [0, 1]): the word q^inf of each primitive block q of length k at most
    `horizon` (the blocks of length 1 are the constant words) is the point
    q/(2^k - 1), and it is kept when that point returns within `horizon`
    steps.  No word is built or decoded."""
    fmap, kept = target.fmap, set()
    for k in range(1, horizon + 1):
        repunits, top = _repunits(k), (1 << k) - 1
        for q in range(1 << k):
            if all(q % rep for rep in repunits):
                g = math.gcd(q, top)
                if _point_returns(fmap, (q // g, top // g), horizon):
                    kept.add((k, q))
    return len(kept), lambda k, q: (k, q) in kept


def _complementing(sys: InducedSystem) -> bool:
    """Is the induced symbolic map the complementing shift C (else the
    shift S)?  Periodicity and the generator orbit are read only under
    these two."""
    if sys.symbolic_map is c_map:
        return True
    if sys.symbolic_map is shift_map:
        return False
    raise ValueError(f"system {sys.name!r}: periodicity and the generator orbit are "
                     "decided only under the shift and the complementing shift")


def _primitive_blocks(k: int) -> int:
    """P(k) = sum over d | k of mu(k/d) 2^d, the primitive blocks of length k."""
    primes = tuple(_factorize(k))
    # mu(k/d) is (-1)^n when k/d is a product of n distinct primes, else 0
    return sum((-1) ** n << (k // math.prod(ps))
               for n in range(len(primes) + 1) for ps in combinations(primes, n))


def _pinned_periodic(sys: InducedSystem, horizon: int) -> List[Word]:
    """The pinned purely periodic words of period at most `horizon`, in
    (period length, block) order."""
    return sorted({w for fib in sys.pinned_fibers for w in fib
                   if w.pre_len == 0 and w.period_len <= horizon},
                  key=lambda w: (w.period_len, w.period))


def _cycle(step, w: Word, horizon: int):
    """The blocks (period length, block) of the words that `step` takes w
    through on its way back to itself within `horizon` steps, w's
    included, or None when it does not come back."""
    cur, seen = w, {(w.period_len, w.period)}
    for _ in range(horizon):
        cur = step(cur)
        if cur == w:
            return seen
        seen.add((cur.period_len, cur.period))
    return None


def _uncovered(space: Codec, kept: Callable[[int, int], bool],
               max_period: int, p: int) -> List[int]:
    """Every resolution-p cell that holds no kept word's point.

    A kept constant word marks the cells its fiber's words address
    (word_cells; a graph node has a word at each arc end), and no word is
    decoded.  Any other purely periodic word has its point in exactly one
    cell, since its value is never dyadic.  On an arc whose address prefix
    is the s bits c, such a word q^inf has q = c followed by k-s bits u
    (s <= k, because c has no 0 before its last bit), and its parameter
    word (u c)^inf has the value (u 2^s + c)/(2^k - 1).  That lies in cell
    j exactly when j(2^k - 1) <= (u 2^s + c) 2^p <= (j+1)(2^k - 1): one
    range of u per length k.  A cell's search tries k from max_period down,
    where ranges are widest, and stops at its first kept block."""
    end_cells = word_cells(space, (v for b, w in enumerate(_CONSTANTS) if kept(1, b)
                                   for v in space.fiber_of(w)), p)
    missing = []
    for i, (s, c) in enumerate(space.prefixes):
        for j in range(1 << p):
            if i << p | j not in end_cells and not _holds_kept(kept, s, c, j, p, max_period):
                missing.append(i << p | j)
    return missing


def _holds_kept(kept, s: int, c: int, j: int, p: int, max_period: int) -> bool:
    for k in range(max_period, max(s, 2) - 1, -1):
        top = (1 << k) - 1
        lo = -((c + ((-j * top) >> p)) >> s)  # ceil((ceil(j top / 2^p) - c) / 2^s)
        hi = ((((j + 1) * top) >> p) - c) >> s
        base = c << (k - s)
        for u in range(lo, hi + 1):
            if kept(k, base | u):
                return True
    return False


def _point_returns(fmap, start: Tuple[int, int], horizon: int) -> bool:
    """Does the point with the lowest-terms pair `start` come back within
    `horizon` steps?  An orbit that stops at another point (an iterate equal
    to the one before) never does."""
    last = start
    for _ in range(horizon):
        a, b = fmap(*last)
        g = math.gcd(a, b)
        cur = a // g, b // g
        if cur == start:
            return True
        if cur == last:
            return False
        last = cur
    return False


# -- dense orbit ------------------------------------------------------------


def dense_orbit_coverage(target: Target, steps: int, resolution: int) -> ChaosReport:
    """Does the projected generator orbit visit every resolution cell within
    the step budget?  A step marks the cell addressed by the first
    r-1+resolution bits of its iterate (r = 1 on the interval): their value
    enclosure is that cell, so no mark is a guess.  The orbit is read once, a
    text chunk at a time (streams.orbit_text, under C when the induced map is
    the complementing shift, else under S).  While more than _SEARCH_PATTERNS
    text patterns are left (one per unmarked cell under S, two under C), a
    chunk's windows (streams.window_array) are taken as one set, and only a
    window not seen before is split into its cell.  The last cells come long
    after the others (on K3 at resolution 10, 99 % of them by step 24,057 and
    the last at 65,527), so the later chunks' text is searched for the cells
    left instead (_patterns): a cell's first hit is the step that marks it
    first.  The chunk that marks the last cell is searched for each cell it
    marks, and the latest of their first steps is full_coverage_step."""
    started = time.monotonic()
    _within(steps=(steps, 1, MAX_STEPS), resolution=(resolution, 1, 16))
    if target.induced is None:
        raise ValueError(f"system {target.name!r} has no symbolic generator orbit")
    space, complementing = target.space, _complementing(target.induced)
    width, lead = space.r - 1 + resolution, 0 if complementing else 1
    cells = space.r << resolution
    seen, covered, split = set(), set(), space.split_window
    switch = cells - _SEARCH_PATTERNS // (2 if complementing else 1)
    left, full_at = None, None  # once searching: each unmarked cell's patterns
    for n0, text in streams.orbit_text(width, steps):
        if left is None and len(covered) < switch:
            # set(...) - seen walks the chunk; -= would walk seen
            new = set(streams.window_array(text, width, complementing)) - seen
            seen |= new
            marked = {split(window, resolution) for window in new}
            marked -= covered
            covered |= marked
            if len(covered) < cells:
                continue
            left = _patterns(space, resolution, complementing, marked)
        elif left is None:
            left = _patterns(space, resolution, complementing,
                             [c for c in range(cells) if c not in covered])
        stop = len(text) - width - 2 + lead  # where the chunk's last step's pattern starts
        first = {}
        for cell, patterns in left.items():
            hit = stop + 1  # past the chunk's last step
            for q in patterns:  # a later pattern need only start before the hit so far
                i = text.find(q, lead, hit - 1 + len(q))
                hit = hit if i < 0 else i
            if hit <= stop:
                first[cell] = hit
        covered.update(first)
        if len(covered) == cells:
            full_at = n0 + max(first.values()) - lead
            break
        left = {c: q for c, q in left.items() if c not in first}
    missing = [c for c in range(cells) if c not in covered]
    params = {"steps": steps, "resolution": resolution,
              "covered": cells - len(missing), "cells": cells,
              "full_coverage_step": full_at}
    witnesses = [space.cell_json(c, resolution) for c in missing]
    return _finish(target.name, "dense-orbit", params, witnesses, started)


# searching a chunk's text for one pattern costs about 3.4 ns a character,
# and reading a step's window into the chunk's set about 70 ns (x86-64 VM,
# Python 3.11); the patterns dwindle as their cells are found, and 32 was
# among the fastest of 0 to 128 on the tent at 40,000/12 and K3 at
# 70,000/10, all within noise on the tent at 10^6/16
_SEARCH_PATTERNS = 32

_FLIPPED = str.maketrans("01", "10")


def _patterns(space: Codec, p: int, complementing: bool,
              cells: Iterable[int]) -> dict:
    """The texts whose hit at a step's index marks each of `cells`:
    split_window marks cell (i - 1) 2^p + j exactly when the window starts
    with arc i's prefix (s, c) and then the p bits of j, one pattern `head`
    whatever the other bits.  So under S step t marks it iff text[t+1:]
    starts with head, and under C iff text[t:] starts with '0' + head or
    '1' + head complemented (text[t] is the iterate's flip)."""
    out = {}
    for cell in cells:
        s, c = space.prefixes[cell >> p]
        head = format((c << p) | (cell & ((1 << p) - 1)), f"0{s + p}b")
        out[cell] = ("0" + head, "1" + head.translate(_FLIPPED)) if complementing else (head,)
    return out


# -- transitivity ------------------------------------------------------------


def transitivity_witness(target: Target, resolution: int, horizon: int) -> ChaosReport:
    """For every ordered cell pair (U, V), an exact point of U and a step
    count carrying it into V.

    Targets with branches (interval maps) propagate the monotone-affine laps
    of the iterated map on integers and pull a witness back through the
    covering lap, so every cell a lap's image meets is witnessed.  n steps
    of the target's own map must carry that witness into V; a miss means
    the branches describe another map than fmap, an internal invariant
    failure that raises ArithmeticError at once.  Each distinct point is
    mapped by fmap once (a memo for the call from a lowest-terms pair to
    its image's, that starts over when it holds _MAX_MAPPED points).  The
    branch slopes must be integers (else ValueError).  Image ends lie on
    1/L for L = 2 lcm(2^p, the branch data's denominators), which also holds
    their midpoints, and a lap carries its cumulative slope, so its domain
    ends at step n lie on 1/(L S^n) for S the lcm of the nonzero |slopes|
    (_integer_branches).  Each step sweeps the laps once, and a lap is tried
    only on the cells its image overlaps.  A row ends at its horizon, when
    every cell is met, or when its lap images repeat (_same_images), which
    Brent's test finds with one saved lap list.
    Targets without (graphs) use the dense-orbit route (a dense orbit on
    these spaces gives transitivity), and the report records that route.
    """
    started = time.monotonic()
    _within(resolution=(resolution, 1, 8), horizon=(horizon, 1, MAX_STEPS))
    if target.branches is None:
        report = dense_orbit_coverage(target, horizon, resolution)
        params = dict(report.params, route="dense-orbit")
        return _finish(target.name, "transitivity", params, report.witnesses, started)
    lattice, stretch, branches = _integer_branches(target, resolution)
    size, fmap = 1 << resolution, target.fmap
    width = lattice >> resolution
    image = {}  # lowest-terms pair -> that of its fmap image
    get, gcd, unwitnessed = image.get, math.gcd, []
    for uj in range(size):
        remaining = set(range(size))
        ulo, uhi = uj * width, (uj + 1) * width
        pieces = [(ulo, ulo, uhi, 1)]
        scale = 1  # S^n: the domain ends' lattice is 1/(lattice scale)
        saved, save_at = [], 1  # Brent's test: the laps of step 2^k, and 2^(k+1)
        for n in range(1, horizon + 1):
            pieces = _advance_laps(branches, pieces, scale, stretch)
            scale *= stretch
            if not pieces or len(pieces) == len(saved) and _same_images(pieces, saved):
                break
            if n == save_at:
                saved, save_at = pieces, 2 * save_at
            denom = lattice * scale  # of step n's domain ends
            for d0, i0, i1, sigma in pieces:
                lo, hi = (i0, i1) if i0 <= i1 else (i1, i0)
                if lo == hi:  # a collapsed lap meets no cell (and may have slope 0)
                    continue
                per = scale // sigma
                for vj in _met_cells(lo, hi, width, size):
                    if vj not in remaining:
                        continue
                    # the midpoint of the image within V, pulled back
                    v0 = vj * width
                    v1 = v0 + width
                    v = ((lo if lo > v0 else v0) + (hi if hi < v1 else v1)) >> 1
                    x = d0 + (v - i0) * per
                    g = gcd(x, denom)
                    y = x // g, denom // g
                    for _ in range(n):
                        z = get(y)
                        if z is None:
                            a, b = fmap(*y)
                            g = gcd(a, b)
                            z = _bounded(image)[y] = a // g, b // g
                        y = z
                    num, den = y[0] << resolution, y[1]
                    if not vj * den <= num <= (vj + 1) * den:
                        raise ArithmeticError(
                            f"transitivity of {target.name!r} at resolution {resolution}: "
                            f"the laps carry {_show(Fraction(x, denom))} from U = cell "
                            f"{uj} into V = cell {vj} at step {n}, but fmap takes it to "
                            f"{_show(Fraction(*y))}")
                    remaining.discard(vj)
            if not remaining:
                break
        unwitnessed.extend((uj, vj) for vj in sorted(remaining))
    params = {"resolution": resolution, "horizon": horizon,
              "pairs": size * size, "witnessed": size * size - len(unwitnessed)}
    witnesses = [{"from": uj, "to": vj} for uj, vj in unwitnessed]
    return _finish(target.name, "transitivity", params, witnesses, started)


_MAX_PIECES = 4096
# consistent targets fill it too: rotation by 1/4099 maps 523,200 points at 6/20000
_MAX_MAPPED = 1 << 17  # entries a memo holds in one call


def _bounded(memo: dict) -> dict:
    """memo, emptied first when it holds _MAX_MAPPED entries: a full memo
    starts over, so a long walk's memory stays bounded."""
    if len(memo) >= _MAX_MAPPED:
        memo.clear()
    return memo


def _integer_branches(target: Target, p: int):
    """(L, S, branches) for the lap route, each branch (lo, hi, slope,
    intercept) with its ends and intercept counted on 1/L.  Cell ends, branch
    ends and intercepts are even there, so image ends and their midpoints
    are on 1/L.  A slope that is not an integer raises ValueError."""
    for _, _, slope, _ in target.branches:
        if slope.denominator != 1:
            raise ValueError(f"system {target.name!r}: the lap route needs integer "
                             f"branch slopes, got {_show(slope)}")
    lattice = 2 * math.lcm(1 << p, *(v.denominator for b in target.branches for v in b))
    stretch = math.lcm(*(abs(b[2].numerator) for b in target.branches if b[2]))
    branches = [(int(lo * lattice), int(hi * lattice), int(slope), int(c * lattice))
                for lo, hi, slope, c in target.branches]
    return lattice, stretch, branches


def _advance_laps(branches, pieces, scale: int, stretch: int):
    """One step of every lap (d0, i0, i1, sigma): the domain end d0 on
    1/(L scale) that maps to the image end i0 on 1/L, the other image end
    i1, and the cumulative slope sigma, which divides scale (the domain's
    other end is never needed).  A lap's image meets each branch in a
    sub-lap, whose domain end moves to 1/(L scale stretch)."""
    # dropping surplus pieces only loses witnesses, never fabricates one
    out = []
    for d0, i0, i1, sigma in pieces[:_MAX_PIECES]:
        img_lo, img_hi = (i0, i1) if i0 <= i1 else (i1, i0)
        if img_lo == img_hi:
            continue
        per = scale // sigma
        for blo, bhi, s, c in branches:
            seg_lo = img_lo if img_lo > blo else blo
            seg_hi = img_hi if img_hi < bhi else bhi
            if seg_lo >= seg_hi:
                continue
            a, b = (seg_lo, seg_hi) if i0 <= i1 else (seg_hi, seg_lo)
            out.append(((d0 + (a - i0) * per) * stretch, s * a + c, s * b + c, sigma * s))
    return out


def _same_images(pieces, saved) -> bool:
    """Do two lap lists of one length have the same images (i0, i1), in
    order?  The images after a step are a function of those before it
    (_advance_laps, with its cut), so a row whose images repeat meets no
    cell it has not met."""
    return all(a[1] == b[1] and a[2] == b[2] for a, b in zip(pieces, saved))


def _met_cells(lo: int, hi: int, width: int, size: int) -> range:
    """The cells j whose interval [j width, (j+1) width] meets [lo, hi] in
    more than a point: floor(lo/width) .. ceil(hi/width) - 1."""
    if lo == hi:
        return range(0)
    return range(max(lo // width, 0), min(-(-hi // width), size))


# -- sensitivity -------------------------------------------------------------


def sensitivity_probe(target: Target, eta: Fraction, delta: Fraction,
                      grid: int, horizon: int) -> ChaosReport:
    """From each grid point, does some delta-close neighbour separate beyond
    eta within the horizon?  Distances are exact (interval metric, or the
    fiber Hausdorff metric on graphs).  eta must be positive and finite and
    delta in (0, 1), both read exactly; neighbours off the space are skipped.

    Grid points, their neighbours and their orbits lie on the lattice of
    denominator q = lcm(2 grid, delta's denominator, the branch data's
    denominators): the point n/q of arc i is the int key (i - 1)(q + 1) + n,
    which the codec steps and measures (Codec.lattice).  Orbits of
    neighbouring grid points merge, so `image` (key -> F(key)) and
    `outcome` (see _separates) hold, for one call, what earlier walks
    computed; each starts over when it holds _MAX_MAPPED entries."""
    started = time.monotonic()
    _within(grid=(grid, 1, 1 << 12), horizon=(horizon, 1, MAX_STEPS))
    if not eta > 0:  # NaN too
        raise ValueError(f"eta must be positive, got {_show(eta)}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie strictly between 0 and 1, got {_show(delta)}")
    if eta == math.inf:
        raise ValueError("eta must be finite, got inf")
    eta, delta = Fraction(eta), Fraction(delta)  # exact, as as_unit reads a point
    space = target.space
    params = {"eta": _printed("eta", eta), "delta": _printed("delta", delta), "grid": grid,
              "horizon": horizon, "points": space.r * grid}
    q = math.lcm(2 * grid, delta.denominator,
                 *(c.denominator for branch in target.branches or () for c in branch))
    step, apart, ends = space.lattice(target.fmap, q, eta)
    unit, width = q // (2 * grid), delta.numerator * (q // delta.denominator)
    lo, hi = (0, q) if ends else (1, q - 1)
    image, outcome, marks = {}, {}, count(-1, -1)
    failures = []
    for base in range(0, space.r * (q + 1), q + 1):
        for n in range(unit, q, 2 * unit):
            for m in (n - width, n + width):
                if lo <= m <= hi and _separates(step, apart, base + n, base + m, horizon,
                                                image, outcome, next(marks)):
                    break
            else:
                failures.append(space.point_json(space.point(base + n, q)))
    return _finish(target.name, "sensitivity", params, failures, started)


def _printed(name: str, x: Fraction) -> str:
    """str(x) for a report, read before any walk: past int()'s digit limit
    str() raises, and then x is named by its size."""
    try:
        return str(x)
    except ValueError:
        raise ValueError(f"{name} {_show(x)} is too long to print in the report") from None


def _separates(step, apart, x, y, horizon: int, image: dict, outcome: dict,
               mark: int) -> bool:
    """Does the walk of the key pair (x, y) come apart within `horizon` steps?

    outcome maps a pair to the steps from it to the first pair that comes
    apart, or inf when its two orbits merge or cycle first.  A pair measured
    not apart whose walk is undecided holds the mark of the walk that
    measured it, a negative number no other walk of the call uses.  The
    walk is deterministic on a finite set of pairs, so it ends at its
    horizon, at a decided pair, or at its first repeated pair (its own
    mark), whose cycle holds no pair that comes apart.  A decided walk
    writes its outcome back along the first _MAX_MAPPED pairs of its path;
    a walk cut at the horizon decides nothing and leaves its marks."""
    path, keep = [], _MAX_MAPPED  # the path pairs a decided walk writes back
    for t in range(horizon + 1):
        if x == y:  # one orbit from here on
            break
        pair = x, y
        s = outcome.get(pair)
        if s is None:
            s = _bounded(outcome)[pair] = 0 if apart(x, y) else mark
        elif s == mark:  # a repeated pair
            break
        if s >= 0:
            end = t + s
            for p in path:
                outcome[p] = end
                end -= 1
            return t + s <= horizon
        if t < keep:
            path.append(pair)
        gx, gy = image.get(x), image.get(y)
        if gx is None:
            gx = _bounded(image)[x] = step(x)
        if gy is None:
            gy = _bounded(image)[y] = step(y)
        x, y = gx, gy
    else:
        return False  # cut at the horizon
    for p in path:
        outcome[p] = math.inf
    return False


# -- commuting on periodic points and the generator orbit --------------------


def lemma6_commute_check(target: Target, max_period: int, orbit_steps: int) -> ChaosReport:
    """Does projection commute with the patched induced map on all short
    periodic words and along the generator orbit?

    The override acts only on a pinned fiber or where the star condition
    fails, which needs a fiber of two or more words.  A purely periodic word
    that is not constant is alone in its fiber, so unless it is pinned the
    commute holds by construction: of the periodic_words purely periodic
    words of period at most max_period, only the two constant words and the
    pinned ones are checked.  With a designated-redirect override this also
    confirms the redirected fiber holds no periodic word (its members are
    all eventually constant, never purely periodic).  Along the orbit the
    commute holds by construction too, under S or C (else ValueError): each
    iterate of the dense word is not eventually periodic, so its point is
    irrational and alone in its fiber, and every pinned point is rational.
    So no step is checked, and orbit_steps is only validated and reported.
    """
    started = time.monotonic()
    _within(max_period=(max_period, 1, MAX_BITS), orbit_steps=(orbit_steps, 0, MAX_STEPS))
    orbit_steps = operator.index(orbit_steps)  # no step is taken: refuse a non-integer here
    if target.induced is None:
        raise ValueError(f"system {target.name!r} has no induced symbolic system")
    sys = target.induced
    _complementing(sys)  # the orbit argument holds under S and C only: else ValueError
    pinned = _pinned_periodic(sys, max_period)
    # a periodic word inside a redirected fiber would break the commute
    redirected = pinned if sys.designated is not None else []
    witnesses = [{"periodic_in_redirected_fiber": str(w)} for w in redirected]
    checked = list(_CONSTANTS) + [w for w in pinned if w.period_len > 1]
    witnesses += [{"word": str(w)} for w in checked if not semiconjugacy_check(sys, w)]
    params = {"max_period": max_period, "orbit_steps": orbit_steps,
              "periodic_words": sum(map(_primitive_blocks, range(1, max_period + 1))),
              "periodic_in_redirected_fibers": len(redirected)}
    return _finish(target.name, "lemma6", params, witnesses, started)
