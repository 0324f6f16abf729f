"""The cells that hold a point, read from its value: the oracle for
decomposition.word_cells, which reads them from the point's fiber words."""

from symchaos.graphs import Interior, Node


def unit_cells(y, p):
    """Indices j of the cells [j/2^p, (j+1)/2^p] of [0, 1] that contain y."""
    j, rest = divmod(y.numerator << p, y.denominator)
    if j == 1 << p:
        return [j - 1]
    return [j, j - 1] if rest == 0 and j > 0 else [j]


def point_cells(codec, point, p):
    """Every resolution-p cell (arc, j) that contains the point: a parameter
    t lies in the one or two windows with j <= t 2^p <= j+1, and a node lies
    on an arc only at its ends, j = 0 where it is the tail and j = 2^p - 1
    where it is the head."""
    if isinstance(point, Node):
        return [(i, t * ((1 << p) - 1)) for i, arc in enumerate(codec.spec.arcs, start=1)
                for t, end in enumerate((arc.tail, arc.head)) if end == point.id]
    arc, t = (point.arc, point.t) if isinstance(point, Interior) else (1, point)
    return [(arc, j) for j in unit_cells(t, p)]
