"""The two benchmark workloads: inputs made from the seed, the ops each
workload runs against the package, and the oracle or golden each op is
checked against.

An op is a plain tuple describing one call; `run_op` performs it through the
package's public names, looked up at call time, so wrappers installed by the
tracer (or by a self-test) are the ones exercised.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from math import lcm

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

WORKLOADS = ("points", "verify")

# points: dyadics k/2^10, seeded rationals up to the README's "near 10^6"
# denominators and beyond, and seeded interior graph points.  Each rational
# goes through one of the two maps, alternately: the slowest 1% of ops are
# large-period rationals, and twice as many distinct denominators for the
# same work halves the seed-to-seed spread of that tail.  Graph points use
# the acceptance suite's denominator range: graph decoding reduces fractions
# without a denominator hint, which is quadratic in the period.
DYADIC_BITS = 10
RATIONALS = 16000
RATIONAL_MAX_DEN = 2 * 10 ** 6
GRAPH_POINTS = 1000
GRAPH_MAX_DEN = 10 ** 4

HALF = Fraction(1, 2)


# -- oracles ---------------------------------------------------------------


def tent_oracle(y: Fraction) -> Fraction:
    return 2 * y if y <= HALF else 2 * (1 - y)


def baker_oracle(y: Fraction) -> Fraction:
    return 2 * y if y <= HALF else 2 * y - 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _cofactor_is_composite(n: int) -> bool:
    """Is n left composite once every prime factor below 1000 is removed?"""
    for d in range(2, 1000):
        while n % d == 0:
            n //= d
    return n > 1 and not _is_prime(n)


def _true_lambda(q: int) -> int:
    """lcm of (p-1)p^(e-1) over the prime powers of q, by full factorization."""
    lam, n, d = 1, q, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            lam = lcm(lam, (d - 1) * d ** (e - 1))
        d += 1
    if n > 1:
        lam = lcm(lam, n - 1)
    return lam


def factorize_exposed(y: Fraction) -> bool:
    """Does y's expansion go through a factorization that trial division by
    primes below 1000 gets wrong?  That is the one known defect the points
    workload is expected to expose (the odd part of the denominator, or the
    exponent it implies, keeps a composite cofactor above 1000)."""
    q = y.denominator
    q_odd = q >> ((q & -q).bit_length() - 1)
    if q_odd == 1:
        return False
    return _cofactor_is_composite(q_odd) or _cofactor_is_composite(_true_lambda(q_odd))


# -- inputs ------------------------------------------------------------------


def points_ops(seed: int) -> list:
    """Every op of the points workload: ('tent'|'baker', y) on [0, 1],
    ('k3'|'two_segments', t) for an interior point of arc 2."""
    rng = random.Random(seed)
    ops = []
    for k in range((1 << DYADIC_BITS) + 1):
        y = Fraction(k, 1 << DYADIC_BITS)
        ops += [("tent", y), ("baker", y)]
    for i in range(RATIONALS):
        q = rng.randint(2, RATIONAL_MAX_DEN)
        ops.append(("baker" if i % 2 else "tent", Fraction(rng.randint(1, q - 1), q)))
    for _ in range(GRAPH_POINTS):
        q = rng.randrange(2, GRAPH_MAX_DEN)
        ops.append(("k3", Fraction(rng.randrange(1, q), q)))
    for _ in range(GRAPH_POINTS):
        q = rng.randrange(3, GRAPH_MAX_DEN, 2)  # odd: keeps t off the pinned 1/2
        ops.append(("two_segments", Fraction(rng.randrange(1, q), q)))
    return ops


def verify_ops(graph_file: str) -> list:
    """The ('cli', label, argv) ops of the verify workload, and one
    ('lib', label) op for the control, which the CLI cannot select.  Labels
    key the goldens."""
    k3 = ["--system", "graph", "--file", graph_file]
    pd = ["--property", "periodic-density", "--max-period", "13"]
    sens = ["--property", "sensitivity", "--delta", "1/4096", "--grid", "256",
            "--horizon", "40"]
    trans = ["--property", "transitivity", "--resolution", "6", "--horizon", "40"]
    return [
        # periodic density: short-period iteration and decoding, no streams
        ("cli", "tent periodic-density 13/7", ["--system", "tent", *pd, "--resolution", "7"]),
        ("cli", "baker periodic-density 13/7", ["--system", "baker", *pd, "--resolution", "7"]),
        ("cli", "k3 periodic-density 13/5", [*k3, *pd, "--resolution", "5"]),
        # the generator orbit: per-step bit reads (tent) and window slices (K3)
        ("cli", "tent dense-orbit 40000/12",
         ["--system", "tent", "--property", "dense-orbit", "--steps", "40000",
          "--resolution", "12"]),
        ("cli", "k3 dense-orbit 70000/10",
         [*k3, "--property", "dense-orbit", "--steps", "70000", "--resolution", "10"]),
        ("cli", "k3 lemma6 10/40000",
         [*k3, "--property", "lemma6", "--max-period", "10", "--steps", "40000"]),
        # separation: metrics, lap propagation and the verifier's graph forks
        ("cli", "tent sensitivity", ["--system", "tent", *sens]),
        ("cli", "baker sensitivity", ["--system", "baker", *sens]),
        ("cli", "k3 sensitivity", [*k3, *sens]),
        ("lib", "constant sensitivity"),
        ("cli", "tent transitivity 6/40", ["--system", "tent", *trans]),
        ("cli", "baker transitivity 6/40", ["--system", "baker", *trans]),
    ]


# -- running and checking ---------------------------------------------------


def run_op(sc, systems: dict, op):
    """Perform one op through the package and return its raw result."""
    kind = op[0]
    if kind == "tent":
        return sc.induced_tent(op[1])
    if kind == "baker":
        return sc.induced_baker(op[1])
    if kind in ("k3", "two_segments"):
        return sc.graph_map(systems[kind], sc.Interior(2, op[1]))
    if kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sc.cli.main(["verify", *op[2]])
        report = json.loads(out.getvalue())
        return code, report
    if kind == "lib":
        v = sc.verifier
        report = v.sensitivity_probe(v.constant_target(), Fraction(1, 4),
                                     Fraction(1, 4096), 256, 40).to_json()
        return (0 if report["verdict"] == "pass" else 1), report
    raise ValueError(f"unknown op kind {kind!r}")


def check_op(sc, op, result, goldens: dict) -> bool:
    """Does the result agree with the op's closed form or recorded golden?"""
    kind = op[0]
    if kind == "tent":
        return result == tent_oracle(op[1])
    if kind == "baker":
        return result == baker_oracle(op[1])
    if kind == "k3":
        return result == sc.Interior(1, op[1])
    if kind == "two_segments":
        t = op[1]
        return result == (sc.Interior(1, 2 * t) if t < HALF else sc.Interior(2, 2 * t - 1))
    code, report = result
    golden = goldens[op[1]]
    return (code == golden["exit_code"]
            and all(report.get(key) == golden[key]
                    for key in ("verdict", "params", "witnesses")))


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
