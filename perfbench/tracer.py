"""Span tracer for the benchmark's traced run.

The package itself is not instrumented.  Instead every traced public
function is replaced by a timing wrapper at each place it is bound: the
defining module, every `from .x import` copy in the other package modules,
the package namespace, the CLI's dispatch table, and (because wrappers are
installed before any system is built) the function objects later captured
by `InducedSystem.symbolic_map` and `target.stream_step`.  Methods are
wrapped on their class.

Spans (name, start, end, parent) are kept in flat arrays and written out
once, at the end.  Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# module -> traced names; "Class.method" names are wrapped on the class.
TRACED = {
    "words": ("shift_map", "c_map", "r_map", "word_value", "bits_of",
              "word_metric", "periodic_words"),
    "streams": ("stream_c_step", "stream_shift", "dense_prefix", "dense_bit",
                "StreamWord.prefix", "StreamWord.window_int", "value_enclosure"),
    "decomposition": ("star_check", "induced_apply", "semiconjugacy_check"),
    "interval": ("induced_tent", "induced_baker", "IntervalCodec.fiber_of",
                 "IntervalCodec.decode", "IntervalCodec.stream_excludes_all"),
    "graphs": ("graph_map", "GraphSystem.encode", "GraphSystem.decode",
               "GraphSystem.fiber_of", "GraphSystem.stream_excludes_all",
               "graph_metric"),
    "verifier": ("periodic_density", "dense_orbit_coverage", "lemma6_commute_check",
                 "transitivity_witness", "sensitivity_probe"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, names in TRACED.items() for name in names)

# Work counters measured at the wrapped boundaries; run.py derives the ratios.
COUNTERS = (
    "words.bits_of.period_bits",
    "words.word_value.period_bits",
    "streams.bits_copied",
    "decomposition.star_check.violations",
    "decomposition.semiconjugacy_check.stream_checks",
    "decomposition.semiconjugacy_check.stream_excludes_all",
    "verifier.periodic_density.words_enumerated",
    "verifier.periodic_density.words_distinct",
    "verifier.periodic_density.kept",
    "verifier.dense_orbit_coverage.steps_used",
)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._enumerated = {}  # periodic_density span -> words seen by its enumeration
        self.wrapped = {}  # span name -> wrapper

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function at all of its binding sites.

        Must run after `import symchaos` (and `symchaos.cli`) and before any
        system or target is built.
        """
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        cli = sys.modules[package.__name__ + ".cli"]
        hooks = self._after_hooks()
        for mod_name, names in TRACED.items():
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            for name in names:
                span = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    wrapper = self._wrap(span, cls.__dict__[meth], hooks.get(span))
                    setattr(cls, meth, wrapper)
                else:
                    original = getattr(module, name)
                    wrapper = self._wrap(span, original, hooks.get(span))
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                    for key, value in list(cli.EVAL_SYSTEMS.items()):
                        if value is original:
                            cli.EVAL_SYSTEMS[key] = wrapper
                self.wrapped[span] = wrapper

    def _wrap(self, span: str, fn, after):
        name_id = self._ids[span]
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(i, args, result)
            return result

        return traced

    # -- counters --------------------------------------------------------------

    def _after_hooks(self) -> dict:
        c = self.counters
        ids = self._ids
        names, parents = self.span_name, self.span_parent
        semiconj = ids["decomposition.semiconjugacy_check"]
        density = ids["verifier.periodic_density"]

        def add(key, amount):
            c[key] += amount

        def parent_is(i, name_id):
            p = parents[i]
            return p >= 0 and names[p] == name_id

        def bits_of(i, args, result):
            add("words.bits_of.period_bits", sum(w.period_len for w in result))

        def word_value(i, args, result):
            add("words.word_value.period_bits", args[0].period_len)

        def copied(i, args, result):
            add("streams.bits_copied", len(result))

        def star_check(i, args, result):
            if type(result).__name__ == "Violation":
                add("decomposition.star_check.violations", 1)

        def semiconjugacy(i, args, result):
            if type(args[1]).__name__ == "StreamWord":
                add("decomposition.semiconjugacy_check.stream_checks", 1)

        def excludes(i, args, result):
            if parent_is(i, semiconj):
                add("decomposition.semiconjugacy_check.stream_excludes_all", 1)

        def periodic_words(i, args, result):
            if parent_is(i, density):
                add("verifier.periodic_density.words_enumerated", len(result))
                self._enumerated.setdefault(parents[i], set()).update(result)

        def periodic_density(i, args, result):
            add("verifier.periodic_density.words_distinct",
                len(self._enumerated.pop(i, ())))
            add("verifier.periodic_density.kept", result.params["periodic_points"])

        def dense_orbit(i, args, result):
            full = result.params["full_coverage_step"]
            add("verifier.dense_orbit_coverage.steps_used",
                result.params["steps"] if full is None else full)

        return {
            "words.bits_of": bits_of,
            "words.word_value": word_value,
            "streams.dense_prefix": copied,
            "streams.StreamWord.prefix": copied,
            "decomposition.star_check": star_check,
            "decomposition.semiconjugacy_check": semiconjugacy,
            "interval.IntervalCodec.stream_excludes_all": excludes,
            "graphs.GraphSystem.stream_excludes_all": excludes,
            "verifier.periodic_density": periodic_density,
            "words.periodic_words": periodic_words,
            "verifier.dense_orbit_coverage": dense_orbit,
        }

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: exact call count and self time in seconds; plus
        the work counters."""
        n = len(self.span_name)
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        child = array("q", bytes(8 * n))
        for j in range(n):
            p = parents[j]
            if p >= 0:
                child[p] += ends[j] - starts[j]
        calls = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        for j, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_ns[name_id] += ends[j] - starts[j] - child[j]
        return {
            "spans": n,
            "calls": dict(zip(SPAN_NAMES, calls)),
            "self_s": {k: v / 1e9 for k, v in zip(SPAN_NAMES, self_ns)},
            "counters": dict(self.counters),
        }

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four arrays."""
        header = {"names": SPAN_NAMES, "count": len(self.span_name),
                  "arrays": [["name", "H"], ["parent", "i"],
                             ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
