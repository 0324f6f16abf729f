"""Exact symbolic dynamics on binary sequence space and the chaotic maps it
induces on the interval and on finite graphs."""

from .words import (
    Word,
    parse_word,
    shift_map,
    c_map,
    r_map,
    r_inverse,
    word_value,
    word_metric,
    bits_of,
    periodic_words,
)
from .decomposition import (
    InducedSystem,
    induced_apply,
    semiconjugacy_check,
)
from .interval import (
    tent,
    baker,
    induced_tent,
    induced_baker,
    conjugate_via_r,
    tent_system,
    baker_system,
)
from .graphs import (
    GraphError,
    GraphSpec,
    GraphSystem,
    Interior,
    Node,
    parse_graph,
    graph_map,
    graph_step,
    graph_metric,
)
from .verifier import (
    ChaosReport,
    tent_target,
    baker_target,
    graph_target,
    periodic_density,
    dense_orbit_coverage,
    transitivity_witness,
    sensitivity_probe,
    lemma6_commute_check,
)

__version__ = "0.1.0"
