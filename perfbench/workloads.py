"""Workload inputs and output checks for the latcoh benchmark.

Each builder writes its inputs under a work directory and returns the
operations of one pass over the workload.  Every operation carries a check
that judges its stdout by a property known without re-running the code being
measured: a closed formula, a count fixed in advance, or a criterion written
here from the definitions.  ``latcoh`` must be importable before this module
is imported; the library is used only to write module files at set-up.
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

from latcoh import (
    from_generators,
    module_from_root,
    root_from_weight,
    weight_sequence,
)
from latcoh.formats import module_to_dict, to_json

# Number of plane-branch semigroups with conductor <= c, the smooth branch
# included.  Counted by a brute-force walk of Zariski's criterion written
# apart from latcoh; `roundtrip` and `conjecture-sweep` must report it.
PLANE_BRANCH_COUNT = {30: 43, 200: 2778}


class Mismatch(Exception):
    """An operation returned, but its output failed the check."""


@dataclass
class Op:
    """One call of ``latcoh.cli.main(argv)`` and the check of its stdout.

    ``check(rc, stdout)`` returns how many inputs (semigroups or curves) the
    operation completed, or raises Mismatch.
    """

    label: str
    argv: list[str]
    check: Callable[[int, str], int]


@dataclass
class Workload:
    ops: list[Op]
    seeded: bool
    inputs: str  # the input size, in words


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _report(out: str) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Mismatch("report is not JSON: %s" % exc) from exc


# ---------------------------------------------------------------------------
# one-branch inputs


def plane_conductor(gens) -> int:
    """Conductor of the plane-branch semigroup minimally generated by gens.

    c = sum_i (e_{i-1}/e_i - 1) b_i - b_0 + 1, with e_i = gcd(b_0, ..., b_i).
    """
    e, c = gens[0], 0
    for b in gens[1:]:
        e2 = gcd(e, b)
        c += (e // e2 - 1) * b
        e = e2
    return c - gens[0] + 1


def _reconstructs_to(gens) -> Callable[[int, str], int]:
    line = "generators: " + ", ".join(str(g) for g in gens)

    def check(rc: int, out: str) -> int:
        _expect(rc == 0, "exit %d, expected 0" % rc)
        _expect(out.split("\n", 1)[0] == line, "expected %r" % line)
        return 1

    return check


def _rejected(rc: int, out: str) -> int:
    _expect(rc == 1, "exit %d, expected 1 (not a plane branch)" % rc)
    _expect(out == "", "a non-plane module printed a reconstruction")
    return 1


def _isomorphic(rc: int, out: str) -> int:
    _expect(rc == 0 and out == "isomorphic\n", "a root is not isomorphic to itself")
    return 1


def _write_module(path: Path, gens) -> None:
    S = from_generators(gens)
    M = module_from_root(root_from_weight(weight_sequence(S)))
    path.write_text(to_json(module_to_dict(M)), encoding="utf-8")


# The ladder grows the conductor (1932, 3960, 7216) so that the quadratic
# graded-root build dominates; the three-generator branch adds a second gcd
# step to the reconstruction.  root-iso raises the known RecursionError on
# every root here but <43,47>'s (one recursion level per root level); those
# calls stay in and count as failed operations.
LADDER = ((43, 47), (61, 67), (83, 89), (44, 50, 1101))
LADDER_SMALL = ((5, 7), (4, 6, 13))


def build_branch_ladder(work: Path, seed: int, small: bool = False) -> Workload:
    ops = []
    ladder = LADDER_SMALL if small else LADDER
    for gens in ladder:
        tag = "-".join(str(g) for g in gens)
        module, root = str(work / ("m-%s.json" % tag)), str(work / ("r-%s.json" % tag))
        c = plane_conductor(gens)

        def semigroup_ok(rc: int, out: str, gens=gens, c=c) -> int:
            _expect(rc == 0, "exit %d, expected 0" % rc)
            rep = _report(out)
            _expect(rep["generators"] == list(gens), "generators differ")
            _expect(rep["plane_branch"] is True, "not reported as a plane branch")
            _expect(rep["conductor"] == c, "conductor %r, expected %d" % (rep["conductor"], c))
            _expect(rep["delta"] * 2 == c, "delta is not half the conductor")
            return 1

        gen_arg = ",".join(str(g) for g in gens)
        ops += [
            Op("semigroup <%s>" % gen_arg, ["semigroup", "--gens", gen_arg, "--module", module, "--root", root], semigroup_ok),
            Op("reconstruct <%s>" % gen_arg, ["reconstruct", "--module", module], _reconstructs_to(gens)),
            Op("root-iso <%s>" % gen_arg, ["root-iso", root, root], _isomorphic),
        ]
    sizes = ", ".join("<%s> c=%d" % (",".join(map(str, g)), plane_conductor(g)) for g in ladder)
    return Workload(ops, False, "%d semigroups: %s" % (len(ladder), sizes))


def _non_plane(rng: random.Random) -> tuple[int, ...]:
    """Three minimal generators that break Zariski's criterion.

    Half the draws have gcd(b0, b1) = 1, so the gcd chain stalls; the other
    half have 1 < gcd(b0, b1) = g < b0 and b1 < b2 < (b0/g) b1 with b2 prime
    to g, so the chain descends but the growth condition fails.
    """
    while True:
        b0 = rng.randint(4, 12)
        b1 = rng.randint(b0 + 1, 2 * b0 + 6)
        g = gcd(b0, b1)
        if g == 1:
            b2 = rng.randint(b1 + 1, b0 * b1)
            if not any((b2 - i * b0) % b1 == 0 for i in range(b2 // b0 + 1)):
                return b0, b1, b2
        elif g < b0:
            b2 = rng.randint(b1 + 1, (b0 // g) * b1 - 1)
            if gcd(b2, g) == 1:
                return b0, b1, b2


def _plane_above(rng: random.Random, lo: int, hi: int) -> tuple[int, ...]:
    """A plane branch with lo < conductor <= hi, with two or three generators."""
    while True:
        if rng.random() < 0.5:
            a = rng.randint(2, 24)
            b = rng.randint(a + 1, hi + 1)
            gens = (a, b) if gcd(a, b) == 1 else None
        else:
            g, p = rng.randint(2, 4), rng.randint(2, 6)
            q = rng.randint(p + 1, 3 * p + 3)
            b1 = g * q
            b2 = rng.randint(p * b1 + 1, p * b1 + 2 * hi)
            gens = (g * p, b1, b2) if gcd(p, q) == 1 and gcd(b2, g) == 1 else None
        if gens and lo < plane_conductor(gens) <= hi:
            return gens


def build_plane_sweep(work: Path, seed: int, small: bool = False) -> Workload:
    max_c, n_reject, n_accept = (30, 4, 2) if small else (200, 200, 100)
    n = PLANE_BRANCH_COUNT[max_c]

    def roundtrip_ok(rc: int, out: str) -> int:
        _expect(rc == 0, "exit %d, expected 0" % rc)
        _expect(out.endswith("tested %d passed %d\n" % (n, n)), "expected tested %d passed %d" % (n, n))
        return n

    def sweep_ok(rc: int, out: str) -> int:
        _expect(rc == 0, "exit %d, expected 0" % rc)
        _expect("tested %d" % n in out.split("\n"), "expected tested %d" % n)
        return n

    ops = [
        Op("roundtrip %d" % max_c, ["roundtrip", "--max-conductor", str(max_c)], roundtrip_ok),
        Op("conjecture-sweep %d" % max_c, ["conjecture-sweep", "--max-conductor", str(max_c)], sweep_ok),
    ]
    rng = random.Random("plane-sweep:%d" % seed)
    for i in range(n_reject):
        path = work / ("nonplane-%03d.json" % i)
        gens = _non_plane(rng)
        _write_module(path, gens)
        ops.append(Op("reconstruct non-plane <%s>" % ",".join(map(str, gens)), ["reconstruct", "--module", str(path)], _rejected))
    for i in range(n_accept):
        gens = _plane_above(rng, max_c, 2 * max_c)
        path = work / ("plane-%03d.json" % i)
        _write_module(path, gens)
        ops.append(Op("reconstruct plane <%s>" % ",".join(map(str, gens)), ["reconstruct", "--module", str(path)], _reconstructs_to(gens)))
    inputs = (
        "roundtrip and conjecture-sweep to conductor %d (%d semigroups each);"
        " %d non-plane modules; %d plane modules with conductor in (%d, %d]"
        % (max_c, n, n_reject, n_accept, max_c, 2 * max_c)
    )
    return Workload(ops, True, inputs)


# ---------------------------------------------------------------------------
# curve inputs


def _write_curve(path: Path, branches) -> None:
    """branches: per branch, per coordinate, a list of (coefficient, exponent)."""
    doc = {
        "branches": [
            {"coords": [[{"c": c, "e": e} for c, e in coord] for coord in br]}
            for br in branches
        ]
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def pair_family(n: int):
    """The two-branch pair family: members of multiplicities (n, n) and (n-1, n+1)."""
    s = 1 if n % 2 == 0 else -1
    first = [[[(s, n + 1)], [(-s, n)]], [[(-s, n)], [(s, n + 1)]]]
    second = [[[(-s, n)], [(s, n - 1)]], [[(s, n + 1)], [(-s, n + 2)]]]
    return first, second


def _curve_report(rc: int, out: str, r: int) -> dict:
    _expect(rc == 0, "exit %d, expected 0" % rc)
    rep = _report(out)
    _expect(rep["r"] == r, "branch count %r, expected %d" % (rep["r"], r))
    _expect(rep["euler"]["equal"] is True, "Euler characteristic differs from delta")
    return rep


def build_grid_pair(work: Path, seed: int, small: bool = False) -> Workload:
    n = 2 if small else 6
    k = 2 * n - 1
    first_module: list = []

    def check(rc: int, out: str, member: int, conductor: list[int]) -> int:
        rep = _curve_report(rc, out, 2)
        _expect(rep["conductor"] == conductor, "conductor %r, expected %r" % (rep["conductor"], conductor))
        _expect(rep["delta"] == n * k, "delta %r, expected n(2n-1) = %d" % (rep["delta"], n * k))
        if member == 0:
            first_module[:] = [rep["module"]]
        else:
            _expect(first_module[:1] == [rep["module"]], "the two members' modules differ")
            first_module.clear()
        return 1

    ops = []
    conductors = ([n * k, n * k], [(n - 1) * k, (n + 1) * k])
    for member, branches in enumerate(pair_family(n)):
        path = work / ("pair-%d-%d.json" % (n, member))
        _write_curve(path, branches)
        ops.append(
            Op(
                "curve pair n=%d member %d" % (n, member + 1),
                ["curve", "--in", str(path)],
                functools.partial(check, member=member, conductor=conductors[member]),
            )
        )
    cubes = [(2 * c0 + 3) * (2 * c1 + 3) for c0, c1 in conductors]
    return Workload(ops, False, "pair family at n=%d, both members: %d and %d cubes" % (n, *cubes))


# Exponent shapes of the space curves: per branch, per coordinate, the
# exponents of its terms.  They come from a fixed stream, so every seed runs
# the same exponent ladder; the seed draws the coefficients.  Leading orders
# stay at most 7 and tails at most two steps above them, because window
# doubling makes the Hilbert cost grow steeply with the orders.
_SHAPE_STREAM = "space-curves:shapes"


def _branch_shape(rng: random.Random, lead_axis: int) -> list[list[int]]:
    while True:
        m = rng.choice((2, 3))
        a, b = rng.sample(range(m + 1, 8), 2)
        orders = [a, b]
        orders.insert(lead_axis, m)
        coords = [[e] + ([e + rng.randint(1, 2)] if rng.random() < 0.3 else []) for e in orders]
        if gcd(*(e for coord in coords for e in coord)) == 1:
            return coords


def two_branch_shapes(count: int) -> list:
    """The first ``count`` two-branch shapes of the fixed stream.

    The lowest order of each branch sits on a different coordinate, so the
    branches have distinct tangents and the curve is reduced whatever the
    coefficients; every branch's exponents have gcd 1, so it is primitive.
    """
    rng = random.Random(_SHAPE_STREAM)
    shapes = []
    for _ in range(count):
        i, j = rng.sample(range(3), 2)
        shapes.append([_branch_shape(rng, i), _branch_shape(rng, j)])
    return shapes


# Three smooth or low-multiplicity branches along the three axes: conductors
# up to 4 per branch, so SNF checks every level on the Fraction persistence path.
THREE_BRANCH_SHAPES = [
    [[[1], [2], [3]], [[2], [1], [3]], [[3], [2], [1]]],
    [[[1], [2, 3], [3]], [[2], [1], [3, 4]], [[3], [2], [1]]],
    [[[2], [3], [4]], [[3], [1], [2]], [[2], [3], [1]]],
    [[[2], [3], [4]], [[4], [2], [3]], [[3], [4], [2]]],
]


def build_space_curves(work: Path, seed: int, small: bool = False) -> Workload:
    # Coefficients come from -9..9 without 0.  With -3..3, some seeds drew a
    # special coefficient combination that made one curve 10-20x slower than
    # its shape takes otherwise (2.1 s against 0.12 s), so a pass's total
    # moved with the seed by up to 15%; over -9..9 no such draw showed in 400
    # curves.  Every shape is drawn twice for the same reason.
    shapes = two_branch_shapes(2) + THREE_BRANCH_SHAPES[:1] if small else 2 * (two_branch_shapes(16) + THREE_BRANCH_SHAPES)
    rng = random.Random("space-curves:%d" % seed)
    coeffs = tuple(c for c in range(-9, 10) if c)
    ops = []
    for i, shape in enumerate(shapes):
        branches = [[[(rng.choice(coeffs), e) for e in coord] for coord in br] for br in shape]
        path = work / ("space-%02d.json" % i)
        _write_curve(path, branches)

        def check(rc: int, out: str, r=len(shape)) -> int:
            rep = _curve_report(rc, out, r)
            _expect(len(rep["conductor"]) == r, "conductor needs one entry per branch")
            return 1

        ops.append(Op("curve %s" % path.stem, ["curve", "--in", str(path)], check))
    n3 = sum(1 for s in shapes if len(s) == 3)
    inputs = "%d two-branch and %d three-branch space curves in 3 coordinates" % (len(shapes) - n3, n3)
    return Workload(ops, True, inputs)


BUILDERS = {
    "branch-ladder": build_branch_ladder,
    "plane-sweep": build_plane_sweep,
    "grid-pair": build_grid_pair,
    "space-curves": build_space_curves,
}
