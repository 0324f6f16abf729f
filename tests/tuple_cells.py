"""Cells as the pairs the codecs passed before a cell became one int:
(i, j) names the parameter window [j/2^p, (j+1)/2^p] of arc i, (1, j) on
the interval.  The oracle of the int cell (i - 1) 2^p + j: its order,
Codec.split_windows and Codec.cell_json, read in the pair form."""

from symchaos.graphs import GraphSystem


def as_int(pair, p):
    """The int cell of the pair (i, j) at resolution p."""
    i, j = pair
    return (i - 1) << p | j


def as_pair(cell, p):
    """The pair (i, j) of the int cell at resolution p."""
    return (cell >> p) + 1, cell & ((1 << p) - 1)


def all_pairs(space, p):
    """Every resolution-p cell of the space, in the order its witnesses are
    reported: by arc, then by window."""
    return [(i, j) for i in range(1, space.r + 1) for j in range(1 << p)]


def split_pair(space, x, p):
    """The cell that the packed first r-1+p bits x address, read from their
    text: arc i < r is i-1 leading 1s and a 0, arc r is r-1 leading 1s,
    and the window is the p bits after the arc's prefix."""
    r = space.r
    bits = format(x, f"0{r - 1 + p}b")
    ones = len(bits[:r - 1]) - len(bits[:r - 1].lstrip("1"))
    i, s = (ones + 1, ones + 1) if ones < r - 1 else (r, r - 1)
    return i, int(bits[s:s + p], 2)


def pair_json(space, pair):
    """A cell's JSON as cell_json gave it from the pair."""
    i, j = pair
    if isinstance(space, GraphSystem):
        return {"arc": space.spec.arc(i).id, "cell": j}
    return {"cell": j}
