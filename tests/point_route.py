"""The fiber route on points, as it ran before it stepped integers: the
oracle of induced_point and induced_orbit.  Each step encodes its point,
sends the fiber through induced_apply, calls the closed form on the point,
and decodes the image's first word to compare; an orbit calls it once per
step."""

from symchaos.decomposition import induced_apply
from symchaos.graphs import graph_step
from symchaos.interval import baker, baker_system, tent, tent_system
from symchaos.words import _show


def induced_point(sys, closed_form, point, show=repr):
    """The induced map at a point, checked against the point-valued closed
    form; a mismatch raises ArithmeticError with the library's message."""
    codec = sys.codec
    source = codec.encode(point)
    word = induced_apply(sys, source)[0]
    expected = closed_form(point)
    if codec.decode(word) != expected:
        raise ArithmeticError(
            f"induced {sys.name} map at {show(codec.decode(source[0]))} gave "
            f"{show(codec.decode(word))}, closed form gives {show(expected)}")
    return expected


def induced_tent(y):
    return induced_point(tent_system(), tent, y, _show)


def induced_baker(y):
    return induced_point(baker_system(), baker, y, _show)


def graph_map(sys, point):
    return induced_point(sys.induced, lambda pt: graph_step(sys, pt), point)
