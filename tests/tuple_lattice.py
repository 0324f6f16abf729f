"""The sensitivity lattice keyed by tuples, as the codecs keyed it before a
key became one int: (i, n) names the point n/q of arc i ((1, n) on the
interval) and a graph node is its Node.  The oracle of Codec.lattice."""

from fractions import Fraction
from math import gcd
from typing import Callable, List, Tuple, Union

from symchaos.graphs import GraphPoint, GraphSystem, Interior, Node, _hausdorff
from symchaos.words import _order_of_two, _show, prefix_int

# A lattice key names a point whose parameter is a multiple of 1/q: (i, n)
# for the interior point n/q of arc i (0 < n < q), else the node itself.
Key = Union[Tuple[int, int], Node]


def lattice_point(key: Key, q: int) -> GraphPoint:
    """The point of a key, its parameter read from the integers n and q."""
    if isinstance(key, Node):
        return key
    i, n = key
    if not 0 < n < q:  # off the open arc: Interior raises its own error
        return Interior(i, Fraction(n, q))
    return Interior._at(i, Fraction(n, q))


def lattice_step(sys: GraphSystem, key: Key, q: int) -> Key:
    """The arc-ladder map on a key of the lattice of denominator q: it only
    doubles or shifts parameters, so the image is on the same lattice.
    Nodes and the midpoints of arcs 1 and r are pinned.  On the loop
    (r = 1) it doubles mod 1; arc i (1 < i < r) steps down to arc i-1; the
    last arc doubles into arc r-1 below 1/2 and into itself above.  On arc
    1 (r > 1), with j the leading 1s of the parameter's larger expansion
    (at most r-1), the point moves to arc j+1 and drops j+1 bits (r-1 when
    j = r-1).  At t = 1 - 2^-j the two expansions land on head(arc j) and
    tail(arc j+1): one node, or a star failure, which the identity
    override holds fixed."""
    if isinstance(key, Node):
        return key
    i, n = key
    r = sys.r
    if 2 * n == q and (i == 1 or i == r):
        return key
    if r == 1:
        return 1, 2 * n % q
    if i == r:
        return (r - 1, 2 * n) if 2 * n < q else (r, 2 * n - q)
    if i > 1:
        return i - 1, n
    # j is the largest j <= r-1 with t >= 1 - 2^-j, that is (q - n) 2^j <= q
    gap = q - n
    j = q.bit_length() - gap.bit_length()
    if gap << j > q:
        j -= 1
    j = min(j, r - 1)
    d = min(j + 1, r - 1)
    m = (n << d) - q * ((1 << d) - (1 << d - j))
    if m:
        return j + 1, m
    tail, head = sys.spec.arcs[j].tail, sys.spec.arcs[j - 1].head
    return Node(tail) if tail == head else key


def lattice_far(sys: GraphSystem, q: int, eta: Fraction) -> Callable[[Key, Key], bool]:
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

    def words(key: Key) -> List[int]:
        if isinstance(key, Node):
            return [prefix_int(w, lead + k) for w in sys._node_fibers[key.id]]
        i, n = key
        c, rest = frames[i - 1]
        m = (c << rest) | (n << rest) // q
        return [m, m - 1] if n % q_odd == 0 else [m]

    def distance(a: int, b: int) -> int:
        x = a ^ b
        return x - (x >> k)

    def far(x: Key, y: Key) -> bool:
        return _hausdorff(words(x), words(y), distance) * den > bound

    return far


def interval_lattice(fmap, q: int, eta: Fraction):
    """The key (1, n) is n/q, ends included.  A step is fmap on n/q in
    lowest terms, multiplied back by q, and an image off the lattice
    raises ArithmeticError."""
    def step(key):
        g = gcd(key[1], q)
        a, b = fmap(key[1] // g, q // g)
        n, rest = divmod(a * q, b)
        if rest:
            raise ArithmeticError(f"the map takes {key[1]}/{q} to {_show(Fraction(a, b))}, "
                                  f"off the lattice of denominator {q}")
        return 1, n

    bound, den = eta.numerator * q, eta.denominator
    return (step, lambda x, y: abs(x[1] - y[1]) * den > bound,
            lambda key: Fraction(key[1], q), True)


def tuple_lattice(space, fmap, q: int, eta: Fraction):
    """Codec.lattice of the space, keyed by tuples and nodes, as it was
    before a key's point was Codec.point: step, far, the point of a key,
    and whether arc ends may be neighbours."""
    if isinstance(space, GraphSystem):
        return (lambda key: lattice_step(space, key, q), lattice_far(space, q, eta),
                lambda key: lattice_point(key, q), False)
    return interval_lattice(fmap, q, eta)


def int_key(sys: GraphSystem, key: Key, q: int) -> int:
    """The int key of a tuple key: (i - 1)(q + 1) + n, or ~k for node k."""
    if isinstance(key, Node):
        return ~sys.spec.nodes.index(key.id)
    return (key[0] - 1) * (q + 1) + key[1]
