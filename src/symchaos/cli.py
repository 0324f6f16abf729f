"""Command-line surface: exact evaluation, orbits, fibers, and verification.

All data output is exact rationals (a float column is appended for
plotting).  Exit codes: 0 success/pass, 1 failed verification, 2 usage,
input or output errors (stdout closed early), 3 an internal invariant
failed (a wrong answer was caught before it was printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter
from typing import Iterator, List, Optional, Tuple

from . import graphs, interval, verifier
from .decomposition import induced_orbit
from .words import (MAX_BITS, MAX_STEPS, Word, _quote, _rational, _within, bits_of, c_map, r_map,
                    shift_map)

EVAL_SYSTEMS = {
    "tent": interval.tent,
    "baker": interval.baker,
    "induced-tent": interval.induced_tent,
    "induced-baker": interval.induced_baker,
}

_ROWS_PER_WRITE = 1024

# each check is looked up on the verifier module when it runs, so a
# function rebound there (a tracer's wrapper, a test's stand-in) is called
VERIFY_PROPERTIES = {
    "periodic-density": lambda t, a: verifier.periodic_density(t, a.max_period, a.resolution),
    "dense-orbit": lambda t, a: verifier.dense_orbit_coverage(t, a.steps, a.resolution),
    "transitivity": lambda t, a: verifier.transitivity_witness(t, a.resolution, a.horizon),
    "sensitivity": lambda t, a: verifier.sensitivity_probe(t, a.eta, a.delta, a.grid, a.horizon),
    "lemma6": lambda t, a: verifier.lemma6_commute_check(t, a.max_period, a.steps),
}


def _fraction(text: str) -> Fraction:
    try:
        return _rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        message = str(exc)
        if message.startswith("Exceeds the limit"):  # int()'s digit limit
            message = (f"a {len(text)}-character number exceeds the "
                       f"{sys.get_int_max_str_digits():,}-digit limit")
        elif not message.startswith("exponent "):  # past MAX_EXPONENT, named as it is
            message = f"not a rational: {_quote(text)}"
        raise argparse.ArgumentTypeError(message) from exc


def _integer(text: str) -> int:
    """An integer option or arc index: ASCII digits after an optional '-',
    of any length, read 512 digits at a time (int() reads that many under
    any digit limit; the least is 640).  Other text is an invalid int value."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}")
    n = 0
    for k in range(0, len(digits), 512):
        piece = digits[k:k + 512]
        n = n * 10 ** len(piece) + int(piece)
    return -n if text.startswith("-") else n


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", required=True, choices=sorted(EVAL_SYSTEMS))
    p.add_argument("--x", required=True, type=_fraction)


def _orbit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", required=True, choices=sorted(EVAL_SYSTEMS))
    p.add_argument("--x", required=True, type=_fraction)
    p.add_argument("--steps", required=True, type=_integer)
    p.add_argument("--format", default="csv", choices=("csv", "json"))


def _graph_orbit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--file", required=True)
    p.add_argument("--start", required=True, help="ARC:p/q (arc id or 1-based index) or node:ID")
    p.add_argument("--steps", required=True, type=_integer)
    p.add_argument("--format", default="csv", choices=("csv", "json"))


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", required=True, choices=("tent", "baker", "graph"))
    p.add_argument("--file", help="graph DSL file (for --system graph)")
    p.add_argument("--property", required=True, choices=VERIFY_PROPERTIES)
    p.add_argument("--max-period", type=_integer, default=12)
    p.add_argument("--resolution", type=_integer, default=7)
    p.add_argument("--steps", type=_integer, default=25000)
    p.add_argument("--horizon", type=_integer, default=40)
    p.add_argument("--eta", type=_fraction, default=None)
    p.add_argument("--delta", type=_fraction, default=Fraction(1, 4096))
    p.add_argument("--grid", type=_integer, default=256)


def _conjugacy_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--length", required=True, type=_integer)


def _fiber_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", required=True, type=_fraction)
    p.add_argument("--file", help="graph DSL file")
    p.add_argument("--arc", help="arc id or 1-based index (with --file)")


def _load_graph(path: str) -> graphs.GraphSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise graphs.GraphError(f"cannot read {_quote(path)}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise graphs.GraphError(
            f"cannot read {_quote(path)}: not UTF-8 at byte {exc.start}") from None
    return graphs.GraphSystem(graphs.parse_graph(text))


def _resolve_arc(sys: graphs.GraphSystem, token: str) -> int:
    """An arc id, or a 1-based index in ASCII digits."""
    i = _integer(token) if token.isascii() and token.isdigit() else sys.arc_index(token)
    sys.spec.arc(i)  # an index out of range raises before the parameter is read
    return i


def _parse_start(sys: graphs.GraphSystem, text: str) -> graphs.GraphPoint:
    kind, _, rest = text.partition(":")
    if kind == "node":
        return sys.node(rest)
    if not rest:
        raise graphs.GraphError(f"malformed start {_quote(text)}; expected ARC:p/q or node:ID")
    return sys.point_at(_resolve_arc(sys, kind), _fraction(rest))


def _print_rows(header: str, rows: Iterator[tuple], fmt: str) -> None:
    """Orbit rows, printed as they are made: indented JSON (the text of
    json.dumps of the list of dicts of header's keys, indent=2), or CSV, the
    header line before the first row and each row by one format string.
    Rows go out _ROWS_PER_WRITE at a time, one write each however stdout is
    buffered; an error mid-orbit writes the rows before it, then raises."""
    keys = header.split(",")
    if fmt == "json":
        texts = (json.dumps(dict(zip(keys, row)), indent=2).replace("\n", "\n  ") for row in rows)
        first, between, last = "[\n  ", ",\n  ", "\n]\n"
    else:
        texts = map((",".join(["%s"] * len(keys)) + "\n").__mod__, rows)
        first, between, last = header + "\n", "", ""
    pending = []
    try:
        for text in texts:
            pending.append(first + text)
            first = between
            if len(pending) == _ROWS_PER_WRITE:
                sys.stdout.write("".join(pending))
                pending.clear()
        pending.append(last)
    finally:
        sys.stdout.write("".join(pending))


def _exactly(show, *args) -> None:
    """show(*args) with int()'s digit limit, this process's own setting,
    lifted: an exact result may have more digits than the limit allows."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        show(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def _pairs(step, n: int, d: int) -> Iterator[Tuple[int, int]]:
    """(n, d), step(n, d), ...: a closed form iterated on pairs, each made
    when it is asked for."""
    while True:
        yield n, d
        n, d = step(n, d)


def _cmd_eval(args) -> int:
    _exactly(print, EVAL_SYSTEMS[args.system](args.x))
    return 0


def _cmd_orbit(args) -> int:
    """The closed form steps the pair (n, d) of the start's n/d, whose d it
    keeps; an induced-* orbit steps the fibers beside it, checked at each step."""
    _within(**{"--steps": (args.steps, 0, MAX_STEPS)})
    # a start off the unit interval is an input error before any row is printed
    y = interval.as_unit(args.x)
    tent = args.system.endswith("tent")
    step = interval._tent if tent else interval._baker
    if args.system.startswith("induced-"):
        system = interval.tent_system() if tent else interval.baker_system()
        pairs = map(itemgetter(0), induced_orbit(system, step, y))
    else:
        pairs = _pairs(step, *y.as_integer_ratio())

    def rows():
        for k, (n, d) in zip(range(args.steps + 1), pairs):
            g = gcd(n, d)
            yield k, n // g, d // g, n / d

    _exactly(_print_rows, "step,num,den,approx", rows(), args.format)
    return 0


def _cmd_graph_orbit(args) -> int:
    """The induced orbit on the start's integer form (key, q), q kept."""
    _within(**{"--steps": (args.steps, 0, MAX_STEPS)})
    sys_ = _load_graph(args.file)
    orbit = induced_orbit(sys_.induced, sys_.closed_form, _parse_start(sys_, args.start))
    arcs, nodes = [arc.id for arc in sys_.spec.arcs], sys_.spec.nodes
    blank = None if args.format == "json" else ""  # a node's parameter fields

    def rows():
        for k, ((key, q), _) in zip(range(args.steps + 1), orbit):
            if key < 0:
                yield k, nodes[~key], blank, blank, blank
            else:
                i, n = divmod(key, q + 1)
                g = gcd(n, q)
                yield k, arcs[i], n // g, q // g, n / q

    _exactly(_print_rows, "step,arc_or_node,t_num,t_den,approx", rows(), args.format)
    return 0


def _cmd_verify(args) -> int:
    if args.file is not None and args.system != "graph":
        raise graphs.GraphError("--file requires --system graph")
    if args.system == "graph":
        if not args.file:
            raise graphs.GraphError("--system graph requires --file")
        target = verifier.graph_target(_load_graph(args.file))
        default_eta = Fraction(1, 8)
    else:
        target = verifier.tent_target() if args.system == "tent" else verifier.baker_target()
        default_eta = Fraction(1, 4)
    if args.eta is None:
        args.eta = default_eta
    report = VERIFY_PROPERTIES[args.property](target, args)
    print(json.dumps(report._asdict(), indent=2, sort_keys=True))  # dumps only reads: no copy
    return 0 if report.passed() else 1


def _cmd_conjugacy(args) -> int:
    length = args.length
    _within(**{"--length": (length, 2, MAX_BITS)})
    words = (Word._from_packed(length, seed, 1, 0) for seed in range(1 << length))
    mismatches = sum(shift_map(r_map(w)) != r_map(c_map(w)) for w in words)
    print(f"length {length}: {1 << length} prefixes checked, "
          f"{(1 << length) - mismatches} agree on {length - 1} bits, "
          f"{mismatches} mismatches")
    return 0 if mismatches == 0 else 1


def _cmd_fiber(args) -> int:
    if args.arc is not None and not args.file:
        raise graphs.GraphError("--arc requires --file")
    if args.file:
        sys_ = _load_graph(args.file)
        if not args.arc:
            raise graphs.GraphError("--file requires --arc")
        words = sys_.encode(sys_.point_at(_resolve_arc(sys_, args.arc), args.x))
    else:
        words = bits_of(args.x)
    for w in words:
        print(w)
    return 0


# command word: (its help line, the function that adds its options, its runner)
_COMMANDS = {
    "eval": ("evaluate a map at a rational point", _eval_arguments, _cmd_eval),
    "orbit": ("exact orbit on [0,1]", _orbit_arguments, _cmd_orbit),
    "graph-orbit": ("exact orbit on a graph", _graph_orbit_arguments, _cmd_graph_orbit),
    "verify": ("run a chaos property check", _verify_arguments, _cmd_verify),
    "conjugacy": ("check shift∘R = R∘C on all prefixes of a length", _conjugacy_arguments,
                  _cmd_conjugacy),
    "fiber": ("print the fiber words of a point", _fiber_arguments, _cmd_fiber),
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The full parser, the top level and one subparser per command: built
    only on the usage path, and reused by every call after it."""
    parser = argparse.ArgumentParser(
        prog="symchaos",
        description="Exact symbolic dynamics: tent/baker/graph maps and chaos checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, arguments, _) in _COMMANDS.items():
        arguments(sub.add_parser(command, help=help_line))
    return parser


@lru_cache(maxsize=None)
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command, the subparser _parser makes for it,
    built by the first call that runs the command and reused after it."""
    _, arguments, _ = _COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"symchaos {command}")
    arguments(parser)
    return parser


def _parse(argv: List[str]) -> argparse.Namespace:
    """argv parsed as the full parser parses it.  A command word first is
    parsed by its own parser alone; anything else (no argument, -h, an
    unknown command, or arguments the command leaves over) goes to the full
    parser, whose messages name the top level."""
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return _parser().parse_args(argv)


def _signed(argv: List[str]) -> List[str]:
    """argv with each negative value of a command's rational option joined
    to it ('--x -1/3' as '--x=-1/3'): argparse reads a lone word that starts
    '-' and a digit or '.' as an option unless it is a plain integer or
    decimal.  An option may be named, as argparse reads it, by a '--' prefix
    of one option name alone ('--e' for '--eta').  Words after '--', and
    argv of no command, are left as they are."""
    if not argv or argv[0] not in _COMMANDS:
        return argv
    options = _command_parser(argv[0])._option_string_actions
    joined = argv[:1]
    for k, word in enumerate(argv[1:], start=1):
        if joined[-1] == "--":
            return joined + argv[k:]
        name = joined[-1]
        if name not in options and name.startswith("--"):
            found = [option for option in options if option.startswith(name)]
            name = found[0] if len(found) == 1 else name
        action = options.get(name)
        if (action is not None and action.type is _fraction and len(word) > 1
                and word[0] == "-" and word[1] in "0123456789."):
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(_signed(sys.argv[1:] if argv is None else argv))
    _, _, run = _COMMANDS[args.command]
    try:
        code = run(args)
        sys.stdout.flush()  # a closed stdout raises here, not at the exit flush
        return code
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: what is left in stdout's buffer goes to devnull
        # at exit, not to the pipe (the signal docs' note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
