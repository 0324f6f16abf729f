"""Desk-scale evidence for the chaos predicates of the induced systems.

Density and transitivity are checked at a finite dyadic resolution p and
the reports state p, so no claim beyond that resolution is implied.  Every
check is exact rational arithmetic with deterministic enumeration order;
elapsed_ms is the only nondeterministic report field.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, Union

from .decomposition import InducedSystem, semiconjugacy_check
from .graphs import GraphSystem, GraphPoint, Interior, graph_map, graph_metric
from .interval import baker, baker_system, tent, tent_system
from .streams import StreamWord, dense_bit, dense_word, stream_c_step, stream_shift
from .words import Word, c_map, max_bits_bound, periodic_words, shift_map, word_value

__all__ = [
    "ChaosReport",
    "IntervalTarget",
    "GraphTarget",
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

HALF = Fraction(1, 2)

Branch = Tuple[Fraction, Fraction, Fraction, Fraction]  # lo, hi, slope, intercept


@dataclass
class ChaosReport:
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
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ChaosReport":
        return cls(data["system"], data["property"], data["params"],
                   data["verdict"], data["witnesses"], data["elapsed_ms"])


def _finish(system: str, prop: str, params: dict, witnesses: list,
            started: float) -> ChaosReport:
    verdict = "pass" if not witnesses else "fail"
    elapsed = int((time.monotonic() - started) * 1000)
    return ChaosReport(system, prop, params, verdict, witnesses, elapsed)


@dataclass(frozen=True, eq=False)
class IntervalTarget:
    """An exact self-map of [0, 1] under test, with its branch structure."""

    name: str
    fmap: Callable[[Fraction], Fraction]
    branches: Tuple[Branch, ...]
    induced: Optional[InducedSystem] = None
    stream_step: Optional[Callable[[StreamWord], StreamWord]] = None


class GraphTarget:
    """A graph system under test."""

    def __init__(self, system: GraphSystem, name: str = "graph"):
        self.name = name
        self.system = system
        self.induced = system.induced
        self.stream_step = stream_shift

    def fmap(self, point: GraphPoint) -> GraphPoint:
        return graph_map(self.system, point)


Target = Union[IntervalTarget, GraphTarget]


def _fr(a: int, b: int = 1) -> Fraction:
    return Fraction(a, b)


def tent_target() -> IntervalTarget:
    branches = ((_fr(0), HALF, _fr(2), _fr(0)), (HALF, _fr(1), _fr(-2), _fr(2)))
    return IntervalTarget("tent", tent, branches, tent_system(), stream_c_step)


def baker_target() -> IntervalTarget:
    branches = ((_fr(0), HALF, _fr(2), _fr(0)), (HALF, _fr(1), _fr(2), _fr(-1)))
    return IntervalTarget("baker", baker, branches, baker_system(), stream_shift)


def graph_target(system: GraphSystem, name: str = "graph") -> GraphTarget:
    return GraphTarget(system, name)


def identity_target() -> IntervalTarget:
    return IntervalTarget("identity", lambda y: y,
                          ((_fr(0), _fr(1), _fr(1), _fr(0)),))


def constant_target(value: Fraction = HALF) -> IntervalTarget:
    return IntervalTarget("constant", lambda y: value,
                          ((_fr(0), _fr(1), _fr(0), value),))


def rotation_target(step: Fraction = Fraction(1, 3)) -> IntervalTarget:
    def rot(y: Fraction) -> Fraction:
        y = y + step
        return y - 1 if y >= 1 else y

    return IntervalTarget("rotation", rot,
                          ((_fr(0), 1 - step, _fr(1), step),
                           (1 - step, _fr(1), _fr(1), step - 1)))


# -- cells ----------------------------------------------------------------


def _all_cells(target: Target, p: int) -> List:
    if isinstance(target, GraphTarget):
        r = target.system.spec.r
        return [(i, j) for i in range(1, r + 1) for j in range(1 << p)]
    return list(range(1 << p))


def _value_cells(y: Fraction, p: int) -> List[int]:
    scaled = y * (1 << p)
    j = int(scaled)
    if j == (1 << p):
        return [j - 1]
    cells = [j]
    if scaled == j and j > 0:
        cells.append(j - 1)
    return cells


def _point_cells(target: Target, point, p: int) -> List:
    if isinstance(target, GraphTarget):
        spec = target.system.spec
        if isinstance(point, Interior):
            return [(point.arc, j) for j in _value_cells(point.t, p)]
        cells = []
        for i, arc in enumerate(spec.arcs, start=1):
            if arc.tail == point.id:
                cells.append((i, 0))
            if arc.head == point.id:
                cells.append((i, (1 << p) - 1))
        return cells
    return _value_cells(point, p)


def _cell_json(target: Target, cell) -> dict:
    if isinstance(target, GraphTarget):
        i, j = cell
        return {"arc": target.system.spec.arc(i).id, "cell": j}
    return {"cell": cell}


def _decode(target: Target, word: Word):
    if isinstance(target, GraphTarget):
        return target.system.decode(word)
    return word_value(word)


def _at_least(low: int, **params: int) -> None:
    """Reject parameters below their least meaningful value (a usage error)."""
    for name, value in params.items():
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")


def _collect_periodic(max_period: int) -> List[Word]:
    """Every distinct word of period at most max_period, in enumeration order."""
    return list(dict.fromkeys(w for k in range(1, max_period + 1)
                              for w in periodic_words(k)))


# -- dense periodic points -------------------------------------------------


def periodic_density(target: Target, max_period: int, resolution: int) -> ChaosReport:
    """Are the verified periodic points (projected from symbolically periodic
    words, kept only when exact iteration confirms periodicity) dense at
    resolution 2^-resolution?"""
    started = time.monotonic()
    _at_least(1, max_period=max_period, resolution=resolution)
    if max_period > min(24, max_bits_bound()):
        raise ValueError(f"max_period {max_period} exceeds bound")
    if resolution > 16:
        raise ValueError(f"resolution {resolution} exceeds bound 16")
    returns = _word_returns(target.induced, max_period) if target.induced else None
    covered = set()
    points_kept = 0
    for w in _collect_periodic(max_period):
        if returns is not None and not returns(w):
            continue
        pt = _decode(target, w)
        if returns is None and not _point_returns(target.fmap, pt, max_period):
            continue
        points_kept += 1
        covered.update(_point_cells(target, pt, resolution))
    cells = _all_cells(target, resolution)
    missing = [c for c in cells if c not in covered]
    params = {"max_period": max_period, "resolution": resolution,
              "periodic_points": points_kept,
              "covered": len(cells) - len(missing), "cells": len(cells)}
    witnesses = [_cell_json(target, c) for c in missing]
    return _finish(target.name, "periodic-density", params, witnesses, started)


def _word_returns(sys: InducedSystem, horizon: int) -> Callable[[Word], bool]:
    """Does the projected point of a purely periodic word return under the
    induced map?  Decided on the word: S^n(w) is w's primitive block q (of
    length k) rotated left by n mod k, and C^n(w)(i) = w(i+n) XOR w(n) is that
    rotation, complemented when w(n) = 1.  Only the two constant words can
    share a point (a graph node), and S fixes both, so comparing words
    compares points; pinned fibers (held fixed) are met exactly at their
    purely periodic words."""
    if sys.symbolic_map is not shift_map and sys.symbolic_map is not c_map:
        raise ValueError(f"system {sys.name!r}: periodicity is decided only "
                         "for the shift and the complementing shift")
    complementing = sys.symbolic_map is c_map
    pinned = {(w.period_len, w.period) for fib in sys.pinned_fibers for w in fib
              if w.pre_len == 0}

    def returns(w: Word) -> bool:
        k, q = w.period_len, w.period
        if (k, q) in pinned:
            return True
        mask, cur = (1 << k) - 1, q
        for _ in range(horizon):
            lead = cur >> (k - 1)
            cur = ((cur << 1) & mask) | lead
            if complementing and lead:
                cur ^= mask
            if cur == q:
                return True
            if (k, cur) in pinned:
                return False
        return False

    return returns


def _point_returns(fmap, pt, horizon: int) -> bool:
    cur = pt
    for _ in range(horizon):
        cur = fmap(cur)
        if cur == pt:
            return True
    return False


# -- dense orbit ------------------------------------------------------------


def dense_orbit_coverage(target: Target, steps: int, resolution: int) -> ChaosReport:
    """Does the projected generator orbit visit every resolution cell within
    the step budget?  Cells are marked only when the whole value enclosure
    (resolution+2 bits) sits inside them.  The unflipped first
    r-1+resolution+2 bits (r = 1 on the interval) roll along the dense word,
    one bit per step: every generator step advances the offset by one."""
    started = time.monotonic()
    _at_least(1, steps=steps, resolution=resolution)
    if steps > 10 ** 6:
        raise ValueError(f"steps {steps} exceeds bound 10^6")
    if target.stream_step is None:
        raise ValueError(f"system {target.name!r} has no symbolic generator orbit")
    prec = resolution + 2
    graph = target.system if isinstance(target, GraphTarget) else None
    width = prec + (graph.spec.r - 1 if graph else 0)
    mask = (1 << width) - 1
    total = _all_cells(target, resolution)
    covered = set()
    sw = dense_word()
    window = sw.window_int(width)
    full_at = None
    for n in range(steps):
        x = window ^ mask if sw.flip else window
        arc, v = graph.split_window(x, prec) if graph else (None, x)
        covered.add((arc, v >> 2) if graph else v >> 2)
        if len(covered) == len(total):
            full_at = n
            break
        sw = target.stream_step(sw)
        window = ((window << 1) & mask) | dense_bit(sw.offset + width)
    missing = [c for c in total if c not in covered]
    params = {"steps": steps, "resolution": resolution,
              "covered": len(total) - len(missing), "cells": len(total),
              "full_coverage_step": full_at}
    witnesses = [_cell_json(target, c) for c in missing]
    return _finish(target.name, "dense-orbit", params, witnesses, started)


# -- transitivity ------------------------------------------------------------


def transitivity_witness(target: Target, resolution: int, horizon: int) -> ChaosReport:
    """For every ordered cell pair (U, V), an exact point of U and a step
    count carrying it into V.

    Interval targets propagate the monotone-affine laps of the iterated map
    and pull an exact witness back through the covering lap; every witness
    is re-verified by direct iteration before it counts.  Graph targets use
    the dense-orbit route (a dense orbit on these spaces gives transitivity),
    and the report records that route.
    """
    started = time.monotonic()
    _at_least(1, resolution=resolution, horizon=horizon)
    if resolution > 8:
        raise ValueError(f"resolution {resolution} exceeds bound 8")
    if isinstance(target, GraphTarget):
        report = dense_orbit_coverage(target, horizon, resolution)
        params = dict(report.params)
        params["route"] = "dense-orbit"
        return ChaosReport(target.name, "transitivity", params, report.verdict,
                           report.witnesses,
                           int((time.monotonic() - started) * 1000))
    size = 1 << resolution
    cells = [(Fraction(j, size), Fraction(j + 1, size)) for j in range(size)]
    unwitnessed = []
    for uj, (ulo, uhi) in enumerate(cells):
        remaining = set(range(size))
        pieces = [(ulo, uhi, ulo, uhi)]
        for n in range(1, horizon + 1):
            pieces = _advance_pieces(target.branches, pieces)
            if not pieces:
                break
            for vj in sorted(remaining):
                vlo, vhi = cells[vj]
                hit = _find_witness(target, pieces, n, vlo, vhi, ulo, uhi)
                if hit is not None:
                    remaining.discard(vj)
            if not remaining:
                break
        unwitnessed.extend((uj, vj) for vj in sorted(remaining))
    params = {"resolution": resolution, "horizon": horizon,
              "pairs": size * size, "witnessed": size * size - len(unwitnessed)}
    witnesses = [{"from": uj, "to": vj} for uj, vj in unwitnessed]
    return _finish(target.name, "transitivity", params, witnesses, started)


_MAX_PIECES = 4096


def _advance_pieces(branches, pieces):
    # dropping surplus pieces only loses witnesses, never fabricates one
    out = []
    for d0, d1, i0, i1 in pieces[:_MAX_PIECES]:
        img_lo, img_hi = (i0, i1) if i0 <= i1 else (i1, i0)
        if img_lo == img_hi:
            continue
        for blo, bhi, s, c in branches:
            seg_lo = max(img_lo, blo)
            seg_hi = min(img_hi, bhi)
            if seg_lo >= seg_hi:
                continue
            a, b = (seg_lo, seg_hi) if i0 <= i1 else (seg_hi, seg_lo)
            slope = (d1 - d0) / (i1 - i0)
            nd0 = d0 + (a - i0) * slope
            nd1 = d0 + (b - i0) * slope
            out.append((nd0, nd1, s * a + c, s * b + c))
    return out


def _find_witness(target, pieces, n, vlo, vhi, ulo, uhi):
    for d0, d1, i0, i1 in pieces:
        img_lo, img_hi = (i0, i1) if i0 <= i1 else (i1, i0)
        lo = max(img_lo, vlo)
        hi = min(img_hi, vhi)
        if lo >= hi:
            continue
        v = (lo + hi) / 2
        x = d0 + (v - i0) * (d1 - d0) / (i1 - i0)
        if not ulo <= x <= uhi:
            continue
        y = x
        for _ in range(n):
            y = target.fmap(y)
        if vlo <= y <= vhi:
            return (x, n)
    return None


# -- sensitivity -------------------------------------------------------------


def sensitivity_probe(target: Target, eta: Fraction, delta: Fraction,
                      grid: int, horizon: int) -> ChaosReport:
    """From each grid point, does some delta-close neighbour separate beyond
    eta within the horizon?  Distances are exact (interval metric, or the
    fiber Hausdorff metric on graphs).  eta must be positive and delta in
    (0, 1); neighbours outside the space are skipped."""
    started = time.monotonic()
    _at_least(1, grid=grid, horizon=horizon)
    if grid > 1 << 12:
        raise ValueError(f"grid {grid} exceeds bound 2^12")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie strictly between 0 and 1, got {delta}")
    failures = []
    tested = 0
    if isinstance(target, GraphTarget):
        r = target.system.spec.r
        image, far = {}, {}
        for i in range(1, r + 1):
            for j in range(grid):
                x = Interior(i, Fraction(2 * j + 1, 2 * grid))
                tested += 1
                if not _separates_graph(target, x, eta, delta, horizon, image, far):
                    failures.append(target.system.point_json(x))
    else:
        for j in range(grid):
            x = Fraction(2 * j + 1, 2 * grid)
            tested += 1
            if not _separates_interval(target, x, eta, delta, horizon):
                failures.append(str(x))
    params = {"eta": str(eta), "delta": str(delta), "grid": grid,
              "horizon": horizon, "points": tested}
    return _finish(target.name, "sensitivity", params, failures, started)


def _separates_interval(target, x, eta, delta, horizon) -> bool:
    for y in (x - delta, x + delta):
        if not 0 <= y <= 1:
            continue
        fx, fy = x, y
        for _ in range(horizon + 1):
            if abs(fx - fy) > eta:
                return True
            fx, fy = target.fmap(fx), target.fmap(fy)
    return False


def _separates_graph(target, x: Interior, eta, delta, horizon,
                     image: dict, far: dict) -> bool:
    """`image` (point -> F(point)) and `far` ((p, q) -> metric > eta) hold
    what earlier grid points of the same probe computed: grid points share a
    denominator, so their orbits merge, and both functions are pure."""
    for t in (x.t - delta, x.t + delta):
        if not 0 < t < 1:
            continue
        fx: GraphPoint = x
        fy: GraphPoint = Interior(x.arc, t)
        for _ in range(horizon + 1):
            pair = (fx, fy)
            if pair not in far:
                far[pair] = graph_metric(target.system, fx, fy) > eta
            if far[pair]:
                return True
            for p in pair:
                if p not in image:
                    image[p] = target.fmap(p)
            fx, fy = image[fx], image[fy]
    return False


# -- commuting on periodic points and the generator orbit --------------------


def lemma6_commute_check(target: Target, max_period: int, orbit_steps: int) -> ChaosReport:
    """Does projection commute with the patched induced map on all short
    periodic words and along the generator orbit?

    For systems with a designated-redirect override this also confirms the
    redirected fiber is disjoint from the periodic words (its members are
    all eventually constant, never purely periodic) and, through the
    enclosure checks, from the sampled generator orbit.
    """
    started = time.monotonic()
    _at_least(1, max_period=max_period)
    _at_least(0, orbit_steps=orbit_steps)
    if max_period > 16:
        raise ValueError(f"max_period {max_period} exceeds bound 16")
    if target.induced is None or target.stream_step is None:
        raise ValueError(f"system {target.name!r} has no induced symbolic system")
    sys = target.induced
    witnesses = []
    words = _collect_periodic(max_period)
    redirected_hits = 0
    if sys.designated is not None:
        # a periodic word inside a redirected fiber would break the commute
        pinned_words = {w for fib in sys.pinned_fibers for w in fib}
        for w in words:
            if w in pinned_words:
                redirected_hits += 1
                witnesses.append({"periodic_in_redirected_fiber": str(w)})
    for w in words:
        if not semiconjugacy_check(sys, w):
            witnesses.append({"word": str(w)})
    sw = dense_word()
    for n in range(orbit_steps):
        if not semiconjugacy_check(sys, sw):
            witnesses.append({"orbit_step": n})
        sw = target.stream_step(sw)
    params = {"max_period": max_period, "orbit_steps": orbit_steps,
              "periodic_words": len(words),
              "periodic_in_redirected_fibers": redirected_hits}
    return _finish(target.name, "lemma6", params, witnesses, started)
