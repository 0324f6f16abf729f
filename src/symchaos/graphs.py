"""Finite graphs as decomposition spaces and the chaotic map they carry.

A graph is a union of r arcs meeting only at nodes.  Arc i owns the prefix
cylinder 1^(i-1)0 (the last arc absorbs the leftover 1^(r-1) block, so the
r cylinders partition sequence space), and a point on arc i is addressed by
the prefix followed by a binary expansion of its parameter.  The shift then
induces a map that walks points down the arc ladder; node fibers and the
two midpoint fibers on arcs 1 and r form the exceptional set, held fixed.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from operator import add, rshift
from typing import Callable, Dict, Iterable, List, NamedTuple, Set, Tuple, Union

from .decomposition import InducedSystem, induced_point, stream_excludes_all
from .words import (Word, _expansions, _order_of_two, _quote, _show, as_unit, prefix_int,
                    shift_map, with_twin, word_metric, word_value)

__all__ = [
    "GraphError",
    "Arc",
    "GraphSpec",
    "GraphPoint",
    "Interior",
    "Node",
    "GraphSystem",
    "parse_graph",
    "graph_map",
    "graph_step",
    "graph_metric",
    "EXAMPLE_GRAPHS",
]

HALF = Fraction(1, 2)

_ID_RE = re.compile(r"^[A-Za-z0-9_]+$")

# directive -> its usage, whose words fix the argument count
_DIRECTIVES = {"node": "node <id>", "arc": "arc <id> <tail> <head>"}


class GraphError(ValueError):
    """Malformed graph description."""


class Arc(NamedTuple):
    id: str
    tail: str
    head: str


class GraphSpec(NamedTuple):
    """Parsed graph: ordered nodes and arcs; arc order fixes the prefixes."""

    nodes: Tuple[str, ...]
    arcs: Tuple[Arc, ...]

    @property
    def r(self) -> int:
        return len(self.arcs)

    def arc(self, i: int) -> Arc:
        """1-based arc lookup."""
        if not 1 <= i <= len(self.arcs):
            raise GraphError(f"arc index {_show(i)} out of range 1..{len(self.arcs)}")
        return self.arcs[i - 1]


class Interior:
    """An immutable point strictly inside arc `arc` (1-based) at parameter t."""

    __match_args__ = ("arc", "t")

    def __init__(self, arc: int, t: Fraction):
        t = as_unit(t)
        n, d = t.as_integer_ratio()  # by its parts: a third of the time of 0 < t < 1
        if not 0 < n < d:
            raise ValueError(f"interior parameter {t} not in (0, 1)")
        fields = vars(self)  # set once, past __setattr__
        fields["arc"], fields["t"] = arc, t

    @classmethod
    def _at(cls, arc: int, t: Fraction) -> "Interior":
        """The point at a parameter t already known to lie in (0, 1)."""
        point = object.__new__(cls)
        fields = vars(point)
        fields["arc"], fields["t"] = arc, t
        return point

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (self.arc, self.t) == (other.arc, other.t)

    def __hash__(self) -> int:
        return hash((self.arc, self.t))

    def __repr__(self) -> str:
        return f"Interior({self.arc}, {_show(self.t)})"


class Node(NamedTuple):
    """A node of the graph."""

    id: str

    def __repr__(self) -> str:
        return f"Node({self.id!r})"


GraphPoint = Union[Interior, Node]


def parse_graph(text: str) -> GraphSpec:
    """Parse the line-oriented DSL: `node <id>` and `arc <id> <tail> <head>`.

    Arcs are numbered 1..r in file order.  Loops are allowed and the graph
    need not be connected, but every declared node must be an endpoint of
    some arc (an isolated node would have an empty fiber).
    """
    nodes: List[str] = []
    arcs: List[Arc] = []
    seen_ids: set = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        usage = _DIRECTIVES.get(parts[0])
        if usage is None:
            raise GraphError(f"line {ln}: unknown directive {_quote(parts[0])}")
        if len(parts) != len(usage.split()):
            raise GraphError(f"line {ln}: expected '{usage}'")
        name = parts[1]
        if not _ID_RE.match(name):
            raise GraphError(f"line {ln}: bad identifier {_quote(name)}")
        if name in seen_ids:
            raise GraphError(f"line {ln}: duplicate id {_quote(name)}")
        for endpoint in parts[2:]:
            if endpoint not in nodes:
                raise GraphError(f"line {ln}: unknown node {_quote(endpoint)}")
        seen_ids.add(name)
        if parts[0] == "node":
            nodes.append(name)
        else:
            arcs.append(Arc(*parts[1:]))
    if not arcs:
        raise GraphError("empty graph: at least one arc is required")
    used = {a.tail for a in arcs} | {a.head for a in arcs}
    for name in nodes:
        if name not in used:
            raise GraphError(f"node {_quote(name)} is not an endpoint of any arc")
    return GraphSpec(tuple(nodes), tuple(arcs))


class GraphSystem:
    """A graph together with its address codec and induced shift map.  Each
    node's fiber, one eventually constant word per arc end at it, is built once."""

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        self.r = r = spec.r
        # (length, bits) of arc i's prefix: 1^(i-1) 0 for i < r, 1^(r-1) last
        self.prefixes: List[Tuple[int, int]] = (
            [(i, (1 << i) - 2) for i in range(1, r)] + [(r - 1, (1 << (r - 1)) - 1)])
        self._arc_index: Dict[str, int] = {a.id: i + 1 for i, a in enumerate(spec.arcs)}
        # a node's words: each arc's prefix, then 0s at its tail and 1s at its
        # head; distinct, as the prefixes are prefix-free
        ends: Dict[str, List[Word]] = {v: [] for v in spec.nodes}
        for (s, c), arc in zip(self.prefixes, spec.arcs):
            ends[arc.tail].append(Word._tail(s, c, 0, 1))
            ends[arc.head].append(Word._tail(s, c, 1, 1))
        for v, words in ends.items():
            if not words:
                raise GraphError(f"node {_quote(v)} has no incident arcs")
        self._node_fibers = {v: tuple(sorted(words)) for v, words in ends.items()}
        self._end_fibers = {w: fib for fib in self._node_fibers.values() for w in fib}
        # the nodes, then the midpoints of arcs 1 and r
        self.exceptional: Tuple[GraphPoint, ...] = (
            *map(Node, spec.nodes), *(Interior(i, HALF) for i in sorted({1, r})))
        self.induced = InducedSystem("graph", shift_map, self,
                                     pinned_points=self.exceptional)

    def arc_index(self, arc_id: str) -> int:
        try:
            return self._arc_index[arc_id]
        except KeyError:
            raise GraphError(f"unknown arc {_quote(arc_id)}") from None

    def node(self, node_id: str) -> Node:
        if node_id not in self._node_fibers:
            raise GraphError(f"unknown node {_quote(node_id)}")
        return Node(node_id)

    # -- codec protocol -------------------------------------------------

    def read(self, point: GraphPoint) -> Tuple[Tuple[int, int], Tuple[Word, ...]]:
        """A point's integer form (_form) and all its address words:
        prefixed expansions for an interior point; for a node, its fiber,
        built once with the graph."""
        key, q = form = _form(self, point)
        if key < 0:
            return form, self._node_fibers[self.spec.nodes[~key]]
        i, n = divmod(key, q + 1)
        return form, _expansions(n, q, *self.prefixes[i])

    def encode(self, point: GraphPoint) -> Tuple[Word, ...]:
        return self.read(point)[1]

    def decode(self, word: Word) -> GraphPoint:
        """Point addressed by a word, the value (c + t) / 2^s for its arc's
        prefix (s, c) read back as t; endpoint parameters collapse to nodes."""
        i = _arc_address(prefix_int(word, self.r - 1), self.r)
        s, c = self.prefixes[i - 1]
        return self.point_at(i, word_value(word) * 2 ** s - c)

    def point(self, key: int, q: int) -> GraphPoint:
        """The point of a lattice key, its parameter read from the integers
        n and q."""
        if key < 0:
            return Node(self.spec.nodes[~key])
        i, n = divmod(key, q + 1)  # off the open arc, Interior raises its own error
        return (Interior._at if 0 < n < q else Interior)(i + 1, Fraction(n, q))

    def addresses(self, word: Word, key: int, q: int) -> bool:
        """decode(word) == point(key, q) on integers: a node is addressed by
        the words of its fiber.  The point n/q of arc i is the value
        (c + n/q) / 2^s, for arc i's prefix (s, c), cross-multiplied: n/q lies
        strictly inside the prefix's cylinder, and the cylinders partition
        sequence space, so the value decides the arc too."""
        if key < 0:
            return word in self._node_fibers[self.spec.nodes[~key]]
        i, n = divmod(key, q + 1)
        s, c = self.prefixes[i]
        wq = word.q
        return (word.pre * wq + word.s) * q << s == (c * q + n) * wq << word.pre_len

    def closed_form(self, key: int, q: int) -> Tuple[int, int]:
        """The induced map on an integer form: lattice_step, q kept."""
        return lattice_step(self, key, q), q

    def fiber_of(self, word: Word) -> Tuple[Word, ...]:
        """The fiber of a word's point: a node's fiber at an arc end (a word
        of constant tail is looked up among them), else the word and its
        dyadic twin, if any, which keeps the arc prefix."""
        return (word.q == 1 and self._end_fibers.get(word)) or with_twin(word)

    def point_json(self, point: GraphPoint):
        if isinstance(point, Node):
            return {"node": point.id}
        return {"arc": self.spec.arc(point.arc).id, "t": str(point.t)}

    def point_at(self, i: int, t: Fraction) -> GraphPoint:
        """The point at parameter t of arc i: the arc's tail node at 0, its
        head node at 1; t is read by as_unit."""
        arc = self.spec.arc(i)
        t = as_unit(t)
        if t == 0:
            return Node(arc.tail)
        if t == 1:
            return Node(arc.head)
        return Interior._at(i, t)

    def split_window(self, x: int, precision: int) -> int:
        """The cell addressed by the packed first r-1+precision bits of a
        sequence (first bit most significant): split_windows of x alone."""
        (cell,) = self.split_windows((x,), precision)
        return cell

    def split_windows(self, xs: Iterable[int], precision: int) -> Set[int]:
        """The cells addressed by packed r-1+precision-bit windows.  Sorted,
        the windows of arc i, prefix (s, c), are one run, below (c + 1)
        2^(r-1+p-s), and its window x is the cell (x >> (r-1-s)) + (i - 1 -
        c) 2^p: its p bits after the prefix, on arc i."""
        xs, cells, a = sorted(xs), set(), 0
        for i, (s, c) in enumerate(self.prefixes):
            b = bisect_left(xs, (c + 1) << (self.r - 1 + precision - s), a)
            cells.update(map(add, map(rshift, xs[a:b], repeat(self.r - 1 - s)),
                             repeat((i - c) << precision)))
            a = b
        return cells

    def cell_json(self, cell: int, precision: int) -> dict:
        i, j = divmod(cell, 1 << precision)
        return {"arc": self.spec.arc(i + 1).id, "cell": j}

    def lattice(self, fmap, q: int, eta: Fraction):
        """lattice_step (graph_step's closed form) and lattice_far; arc
        ends are nodes, never neighbours.  A graph steps by its own map, so
        an fmap raises ValueError."""
        if fmap is not None:
            raise ValueError("a graph steps by its induced map; it takes no fmap")
        return lambda key: lattice_step(self, key, q), lattice_far(self, q, eta), False

    stream_excludes_all = stream_excludes_all


def _arc_address(lead: int, r: int) -> int:
    """Arc index addressed by the first r-1 bits of a sequence (packed, first
    bit most significant): one more than the leading 1s."""
    return r - (~lead & ((1 << (r - 1)) - 1)).bit_length()


def graph_system(spec: GraphSpec) -> GraphSystem:
    return GraphSystem(spec)


def graph_map(sys: GraphSystem, point: GraphPoint) -> GraphPoint:
    """The induced chaotic map: shift through fibers, exceptional set fixed,
    checked against the closed form (lattice_step) by induced_point."""
    return induced_point(sys.induced, sys.closed_form, point)


def graph_step(sys: GraphSystem, point: GraphPoint) -> GraphPoint:
    """The induced map in closed form: lattice_step on the lattice of the
    parameter's own denominator."""
    return sys.point(*sys.closed_form(*_form(sys, point)))


def _form(sys: GraphSystem, point: GraphPoint) -> Tuple[int, int]:
    """A point's integer form (key, q): its lattice key on its parameter's
    own denominator q, or (~k, 1) at node k.  An arc index out of range or
    an unknown node raises."""
    if isinstance(point, Interior):
        sys.spec.arc(point.arc)  # an index out of range raises
        n, q = point.t.as_integer_ratio()
        return (point.arc - 1) * (q + 1) + n, q
    if isinstance(point, Node):
        sys.node(point.id)  # an unknown id raises
        return ~sys.spec.nodes.index(point.id), 1
    raise TypeError(f"not a graph point: {point!r}")


# A lattice key is one int: (i - 1)(q + 1) + n for the point n/q of arc i
# (0 < n < q), and ~k, a negative int, for node k of spec.nodes.


def lattice_step(sys: GraphSystem, key: int, q: int) -> int:
    """The arc-ladder map on a key of the lattice of denominator q: it only
    doubles or shifts parameters, so the image is on the same lattice.  Nodes
    and the midpoints of arcs 1 and r are pinned.  On the loop (r = 1) it
    doubles mod 1; arc i (1 < i < r) steps down to arc i-1; the last arc
    doubles into arc r-1 below 1/2 and into itself above.  On arc 1 (r > 1),
    with j the leading 1s of the parameter's larger expansion (at most r-1),
    the point moves to arc j+1 and drops j+1 bits (r-1 when j = r-1).  At
    t = 1 - 2^-j the two expansions land on head(arc j) and tail(arc j+1):
    one node, or a star failure, which the identity override holds fixed."""
    if key < 0:
        return key
    r, stride = sys.r, q + 1
    i, n = divmod(key, stride)  # on arc i + 1
    if 2 * n == q and (i == 0 or i == r - 1):
        return key
    if r == 1:
        return 2 * n % q
    if i == r - 1:
        return (i - 1) * stride + 2 * n if 2 * n < q else key + n - q
    if i:
        return key - stride
    # j is the largest j <= r-1 with t >= 1 - 2^-j, that is (q - n) 2^j <= q
    gap = q - n
    j = q.bit_length() - gap.bit_length()
    if gap << j > q:
        j -= 1
    j = min(j, r - 1)
    d = min(j + 1, r - 1)
    m = (n << d) - q * ((1 << d) - (1 << d - j))
    if m:
        return j * stride + m
    tail, head = sys.spec.arcs[j].tail, sys.spec.arcs[j - 1].head
    return ~sys.spec.nodes.index(tail) if tail == head else key


def graph_metric(sys: GraphSystem, p: GraphPoint, q: GraphPoint) -> Fraction:
    """Hausdorff distance between the two fibers under the word metric."""
    return _hausdorff(sys.encode(p), sys.encode(q), word_metric)


def _hausdorff(a, b, d):
    """Hausdorff distance between the finite sets a and b under d: each
    pair's distance once, row by row (u in a), keeping the largest row
    minimum and each column's minimum as it goes, then the larger of those
    (plain loops: a comprehension frame costs more than a pair)."""
    far, cols = None, []
    for u in a:
        row, j = None, 0
        for v in b:
            x = d(u, v)
            if row is None or x < row:
                row = x
            if j == len(cols):
                cols.append(x)
            elif x < cols[j]:
                cols[j] = x
            j += 1
        if far is None or row > far:
            far = row
    for x in cols:
        if x > far:
            far = x
    return far


def lattice_far(sys: GraphSystem, q: int, eta: Fraction) -> Callable[[int, int], bool]:
    """The test graph_metric > eta on keys of the lattice of denominator q.

    With q = 2^e q' (q' odd), every fiber word repeats with period k, the
    order of 2 modulo q', after at most M = r-1+e bits.  Packed as its first
    M+k bits, a word is the arc prefix (s bits), then (n << (M+k-s)) // q,
    or that - 1 for a dyadic twin; a node's word, the prefix, then 0s or 1s.
    Two words lie (x - (x >> k)) / ((2^k - 1) 2^M) apart, x = a XOR b."""
    e = (q & -q).bit_length() - 1
    q_odd = q >> e
    k = _order_of_two(q_odd) if q_odd > 1 else 1
    if k is None:  # raised before any pair is measured, as bits_of raises for a point
        raise ValueError("bits_of: the expansion's period exceeds bound 2^24")
    lead = sys.r - 1 + e  # M, the longest preperiod
    bound, den = (eta.numerator * ((1 << k) - 1)) << lead, eta.denominator
    # per arc: its prefix, and the count of bits that follow it
    frames = [(c, lead + k - s) for s, c in sys.prefixes]

    def words(key: int) -> List[int]:
        if key < 0:
            return [prefix_int(w, lead + k) for w in sys._node_fibers[sys.spec.nodes[~key]]]
        i, n = divmod(key, q + 1)
        c, rest = frames[i]
        m = (c << rest) | (n << rest) // q
        return [m, m - 1] if n % q_odd == 0 else [m]

    def distance(a: int, b: int) -> int:
        x = a ^ b
        return x - (x >> k)

    def far(x: int, y: int) -> bool:
        return _hausdorff(words(x), words(y), distance) * den > bound

    return far


EXAMPLE_GRAPHS: Dict[str, str] = {
    "k3": "node a\nnode b\nnode c\narc E1 a b\narc E2 b c\narc E3 c a\n",
    "path2": "node a\nnode b\nnode c\narc E1 a b\narc E2 b c\n",
    "loop1": "node a\narc E1 a a\n",
    "figure8": "node a\narc E1 a a\narc E2 a a\n",
    "two_segments": "node a\nnode b\nnode c\nnode d\narc E1 a b\narc E2 c d\n",
}
