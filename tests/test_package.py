"""What the package exports, and what the benchmark under perfbench/ binds
by name: every exported name is defined, every bound name resolves, and the
README's library quick tour runs."""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

import symchaos
from symchaos import graphs, streams, words
from symchaos.decomposition import InducedSystem
from symchaos.graphs import GraphSystem, Interior
from symchaos.interval import IntervalCodec

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("words", "streams", "decomposition", "interval", "graphs", "verifier")

# names only the benchmark binds: defined where it looks them up, exported
# by neither the package root nor a module's __all__
BENCHMARK_ONLY = {
    "streams": ("StreamWord", "stream_shift", "stream_c_step", "value_enclosure",
                "dense_prefix"),
    "decomposition": ("Violation", "star_check", "stream_excludes_all"),
    "graphs": ("graph_system",),
}

# what perfbench/worker.py's set-up and perfbench/workloads.py read from the
# package root, then from its modules
BENCHMARK_ROOT_NAMES = ("graphs", "verifier", "cli", "tent_target", "baker_target",
                        "graph_target", "induced_tent", "induced_baker", "graph_map", "Interior")
BENCHMARK_MODULE_NAMES = {
    "graphs": ("graph_system", "parse_graph", "EXAMPLE_GRAPHS"),
    "verifier": ("Target.stream_step", "sensitivity_probe", "constant_target"),
    "cli": ("main", "EVAL_SYSTEMS"),
}


@pytest.fixture
def tracer(monkeypatch):
    """perfbench/tracer.py, loaded by its file path without writing bytecode
    beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves_where_the_tracer_wraps_it(tracer):
    assert tracer.TRACED
    for module_name, names in tracer.TRACED.items():
        module = importlib.import_module(f"symchaos.{module_name}")
        for name in names:
            if "." in name:  # wrapped on its class, from the class's own dict
                cls_name, method = name.split(".")
                # a plain function: the wrapper is called with the instance
                # and passes it on (a staticmethod would be given it too)
                assert inspect.isfunction(vars(getattr(module, cls_name)).get(method)), \
                    f"{module_name}.{name}"
            else:
                assert callable(getattr(module, name)), f"{module_name}.{name}"


def test_every_name_the_benchmark_set_up_binds_resolves():
    for name in BENCHMARK_ROOT_NAMES:
        assert hasattr(symchaos, name), name
    for module_name, names in {**BENCHMARK_MODULE_NAMES, **BENCHMARK_ONLY}.items():
        module = importlib.import_module(f"symchaos.{module_name}")
        for name in names:
            _resolve(module, name)
    # the functions a built target captures, which the traced run checks
    systems = {name: graphs.graph_system(graphs.parse_graph(text))
               for name, text in graphs.EXAMPLE_GRAPHS.items()}
    targets = [symchaos.tent_target(), symchaos.baker_target()]
    targets += [symchaos.graph_target(s, name) for name, s in systems.items()]
    for target in targets:
        complementing = target.name == "tent"
        assert target.induced.symbolic_map is (words.c_map if complementing else words.shift_map)
        assert target.stream_step is (streams.stream_c_step if complementing
                                      else streams.stream_shift)


def test_every_exported_name_is_defined():
    exported = set()
    for module_name in MODULES:
        module = importlib.import_module(f"symchaos.{module_name}")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"
        assert not set(module.__all__) & set(BENCHMARK_ONLY.get(module_name, ())), module_name
        exported |= set(module.__all__)
    # the package root re-exports module names only, and none the benchmark alone binds
    root = {name for name, value in vars(symchaos).items()
            if not name.startswith("_") and type(value) is not type(symchaos)}
    assert root <= exported, sorted(root - exported)
    for names in BENCHMARK_ONLY.values():
        assert not root & set(names)


def _quick_tour() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_readme_quick_tour_runs():
    namespace = {}
    exec(compile(_quick_tour(), "README.md quick tour", "exec"), namespace)
    sc = namespace["sc"]
    assert namespace["k3"].exceptional[:3] == tuple(map(sc.Node, "abc"))


@pytest.mark.parametrize("cls", [words.Word, Interior, InducedSystem, IntervalCodec, GraphSystem],
                         ids=lambda cls: cls.__name__)
def test_a_hot_class_hooks_no_attribute_read(cls):
    # such a hook slows every attribute read on the class
    assert cls.__getattribute__ is object.__getattribute__
    assert not hasattr(cls, "__getattr__")
