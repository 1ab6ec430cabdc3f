"""Shared reference fixtures: hand-checked values and small constructions.

The embedded tables and module descriptions were computed independently
(dense exact linear algebra over the rationals, brute-force component
counting) before the library existed; tests compare against them verbatim.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

from latcoh import BranchParametrization, GradedRoot, make_parametrization

# ---------------------------------------------------------------------------
# A cofinite set that is not additively closed yet shares its weight data
# with the semigroup <4,11>.

SPRIME_MEMBERS = [0, 4, 9, 10, 12, 15, 16, 18, 21, 22, 23, 24, 26, 27, 28]
SPRIME_CONDUCTOR = 30


# ---------------------------------------------------------------------------
# Two space curves with two branches in five coordinates.  Both have
# numerator 1 + t1^3 t2^3 yet different weight tables.  Weight tables are
# stored with rows l2 = 5..0 top to bottom and columns l1 = 0..5, i.e.
# TABLE[5 - l2][l1] == w0(l1, l2); the inner 5x5 block is the classical
# presentation.

CURVE_FIVE_COORD = [
    # branch 1: (t^2, t^3, t^2, t^4, t^5)
    [[(1, 2)], [(1, 3)], [(1, 2)], [(1, 4)], [(1, 5)]],
    # branch 2: (u^2, u^3, u^4, u^4, u^6)
    [[(1, 2)], [(1, 3)], [(1, 4)], [(1, 4)], [(1, 6)]],
]

CURVE_SIX_COORD = [
    # branch 1: (t^3, t^4, t^5, t^4, t^5, t^6)
    [[(1, 3)], [(1, 4)], [(1, 5)], [(1, 4)], [(1, 5)], [(1, 6)]],
    # branch 2: (u^3, u^4, u^5, u^5, u^6, u^7)
    [[(1, 3)], [(1, 4)], [(1, 5)], [(1, 5)], [(1, 6)], [(1, 7)]],
]

# four branches in 4-space, conductor (4, 4, 4, 4): delta 11, towers in
# degrees 0, 1 and 2
FOUR_BRANCH = [
    [[(1, 2)], [(1, 3)], [], []],
    [[], [(1, 2)], [(1, 3)], []],
    [[], [], [(1, 2)], [(2, 3)]],
    [[(3, 3)], [], [], [(1, 2)]],
]

TABLE_FIVE_COORD = [
    [3, 2, 1, 2, 1, 2],
    [2, 1, 0, 1, 0, 1],
    [1, 0, -1, 0, 1, 2],
    [0, -1, -2, -1, 0, 1],
    [1, 0, -1, 0, 1, 2],
    [0, 1, 0, 1, 2, 3],
]

TABLE_SIX_COORD = [
    [1, 0, -1, -2, -3, -2],
    [0, -1, -2, -3, -4, -3],
    [-1, -2, -3, -4, -3, -2],
    [0, -1, -2, -3, -2, -1],
    [1, 0, -1, -2, -1, 0],
    [0, 1, 0, -1, 0, 1],
]

# component count of the sublevel set and its first Betti number, per level,
# counted by hand on the tables above
SUBLEVEL_SHAPE_FIVE_COORD = {
    -2: (1, 0),
    -1: (1, 0),
    0: (3, 0),
    1: (1, 0),
    2: (1, 0),
}
SUBLEVEL_SHAPE_SIX_COORD = {
    -4: (2, 0),
    -3: (1, 0),
    -2: (1, 0),
    -1: (1, 0),
    0: (2, 0),
}


def curve(branch_terms) -> BranchParametrization:
    """Parametrization out of [(coeff, exp), ...] per coordinate per branch."""
    return make_parametrization(
        [
            [[(Fraction(c), e) for c, e in coord] for coord in branch]
            for branch in branch_terms
        ]
    )


def monomial_branch(gens) -> BranchParametrization:
    """The single branch (t^g1, t^g2, ...)."""
    return curve([[[(1, g)] for g in gens]])


def by_point(W, values) -> dict:
    """A grid's ``h`` or ``w0`` list as a dict keyed by the points of its box.

    The grid lists its values in the box's lexicographic order, the last
    axis varying fastest; the points are enumerated here afresh, so reading
    through this dict also checks that layout.
    """
    return dict(zip(itertools.product(*(range(b + 1) for b in W.box)), values))


# ---------------------------------------------------------------------------
# Seeded random space curves in three coordinates for window-independence
# checks.  Each branch has its lowest order (2 or 3) on its own coordinate,
# so the branches have distinct tangents and the curve is reduced; the
# exponents of a branch have gcd 1, so each branch is primitive.  Leading
# orders are at most 7, a third of the coordinates carry a second term one
# or two orders higher, and coefficients are drawn from -9..9 without 0.
# Every fourth curve has three branches.

def random_space_curves(seed, count: int) -> list:
    """``count`` reduced curves as term lists for :func:`curve`."""
    rng = random.Random(seed)
    coeffs = [c for c in range(-9, 10) if c]
    curves = []
    for k in range(count):
        r = 3 if k % 4 == 3 else 2
        branches = []
        for axis in rng.sample(range(3), r):
            while True:
                m = rng.choice((2, 3))
                orders = rng.sample(range(m + 1, 8), 2)
                orders.insert(axis, m)
                exps = [
                    [e] + ([e + rng.randint(1, 2)] if rng.random() < 0.3 else [])
                    for e in orders
                ]
                if gcd(*(e for coord in exps for e in coord)) == 1:
                    break
            branches.append([[(rng.choice(coeffs), e) for e in coord] for coord in exps])
        curves.append(branches)
    return curves


ORACLE_SEED = "hilbert-oracle"


# ---------------------------------------------------------------------------
# The pair family: two plane-curve germs per n whose graded roots stay
# isomorphic.  First member: two smooth-glued branches of multiplicities
# n and n.  Second member: branches of multiplicities n-1 and n+1.

def pair_family(n: int) -> tuple[BranchParametrization, BranchParametrization]:
    if n % 2 == 0:
        first = [
            [[(1, n + 1)], [(-1, n)]],
            [[(-1, n)], [(1, n + 1)]],
        ]
        second = [
            [[(-1, n)], [(1, n - 1)]],
            [[(1, n + 1)], [(-1, n + 2)]],
        ]
    else:
        first = [
            [[(-1, n + 1)], [(1, n)]],
            [[(1, n)], [(-1, n + 1)]],
        ]
        second = [
            [[(1, n)], [(-1, n - 1)]],
            [[(-1, n + 1)], [(1, n + 2)]],
        ]
    return curve(first), curve(second)


PAIR_FAMILY_CONDUCTORS = {
    2: ((6, 6), (3, 9)),
    3: ((15, 15), (10, 20)),
    4: ((28, 28), (21, 35)),
    5: ((45, 45), (36, 54)),
}
PAIR_FAMILY_DELTA = {2: 6, 3: 15, 4: 28, 5: 45}


# ---------------------------------------------------------------------------
# Two small graded roots with equal tower modules that are not isomorphic
# as trees: four leaves at the bottom level split 3+1 under the first
# root's two middle vertices and 2+2 under the second's.

def example_root_pair() -> tuple[GradedRoot, GradedRoot]:
    vertices = tuple(
        (i, c)
        for i, c in [(0, -2), (1, -2), (2, -2), (3, -2), (4, -1), (5, -1), (6, 0), (7, 1)]
    )
    edges_a = ((0, 4), (1, 4), (2, 4), (3, 5), (4, 6), (5, 6), (6, 7))
    edges_b = ((0, 4), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6), (6, 7))
    return (
        GradedRoot(vertices, edges_a, 1),
        GradedRoot(vertices, edges_b, 1),
    )
