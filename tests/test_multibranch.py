"""Hilbert grids, weight grids, sublevel complexes, and graded cohomology."""
import itertools
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latcoh import (
    BranchParametrization,
    GradedRoot,
    InputError,
    TowerModule,
    ValidationError,
    WeightGrid,
    cohomology,
    euler_delta_check,
    from_generators,
    hilbert_from_parametrization,
    lattice_cohomology,
    make_parametrization,
    module_from_root,
    root_from_grid,
    root_from_weight,
    roots_isomorphic,
    series,
    sublevel_complex,
    weight_grid_extend,
    weight_sequence,
)
from fixtures import (
    CURVE_FIVE_COORD,
    CURVE_SIX_COORD,
    FOUR_BRANCH,
    ORACLE_SEED,
    PAIR_FAMILY_CONDUCTORS,
    PAIR_FAMILY_DELTA,
    SUBLEVEL_SHAPE_FIVE_COORD,
    SUBLEVEL_SHAPE_SIX_COORD,
    TABLE_FIVE_COORD,
    TABLE_SIX_COORD,
    by_point,
    curve,
    monomial_branch,
    pair_family,
    random_space_curves,
)
from latcoh import formats
from latcoh.multibranch import complexes, hilbert
from oracles import (
    _cube_faces,
    frac_rank,
    naive_betti,
    naive_box_cubes,
    naive_grid_root,
    naive_hilbert_grid,
    naive_hilbert_values,
    naive_invariant_factors,
    naive_low_pairs,
    naive_persistence_towers,
    naive_series,
    naive_sublevel_cubes,
)


THREE_BRANCH_IN = Path(__file__).parent / "data" / "curve_three_branch_in.json"
SIX_COORD_IN = Path(__file__).parent / "data" / "curve_six_coord_in.json"
TWO_BRANCH_H1_IN = Path(__file__).parent / "data" / "curve_two_branch_h1_in.json"

NODE = [
    [[(1, 1)], []],  # branch 1: (t, 0)
    [[], [(1, 1)]],  # branch 2: (0, u)
]


# ---------------------------------------------------------------------------
# parametrization validation

def test_make_parametrization_errors():
    with pytest.raises(InputError):
        make_parametrization([])
    with pytest.raises(InputError):  # ragged coordinate counts
        curve([[[(1, 2)], [(1, 3)]], [[(1, 2)]]])
    with pytest.raises(InputError):  # zero branch
        curve([[[], []]])
    with pytest.raises(InputError):  # branches at different points
        make_parametrization(
            [
                [[(Fraction(1), 0), (Fraction(1), 2)], [(Fraction(1), 3)]],
                [[(Fraction(2), 0), (Fraction(1), 2)], [(Fraction(1), 3)]],
            ]
        )
    with pytest.raises(InputError):  # exponents must strictly increase
        curve([[[(1, 3), (1, 2)]]])
    with pytest.raises(InputError):  # negative exponent
        curve([[[(1, -1)]]])
    with pytest.raises(InputError):  # zero coefficient term
        curve([[[(0, 2)]]])
    with pytest.raises(InputError):  # booleans are not numbers here
        make_parametrization([[[(True, 2)]]])


def test_repeated_branches_are_rejected():
    cusp = [[(1, 2)], [(1, 3)]]
    with pytest.raises(InputError, match="branches 0 and 1 are the same branch"):
        curve([cusp, cusp])
    # t -> -t flips the sign of every odd-order term
    with pytest.raises(InputError, match="branches 1 and 2 are the same branch"):
        curve([[[(1, 1)], []], [[(3, 2), (5, 4)], [(2, 3), (1, 6)]], [[(3, 2), (5, 4)], [(-2, 3), (1, 6)]]])
    # an odd-order term that does not flip with the others: another branch
    P = curve([[[(1, 2)], [(1, 3), (1, 5)]], [[(1, 2)], [(-1, 3), (1, 5)]]])
    assert P.r == 2


CUSP = [[(1, 2)], [(1, 3)]]


@pytest.mark.parametrize(
    "first, second, lam",
    [
        (CUSP, [[(4, 2)], [(8, 3)]], "2"),
        (CUSP, [[(4, 2)], [(-8, 3)]], "-2"),
        (CUSP, [[(Fraction(1, 4), 2)], [(Fraction(-1, 8), 3)]], "-1/2"),
        ([[(1, 2), (1, 4)], [(1, 3)]], [[(9, 2), (81, 4)], [(27, 3)]], "3"),
    ],
)
def test_a_branch_repeated_under_a_rational_rescaling_is_rejected_at_once(first, second, lam):
    # the second branch is the first after t -> lam*t: rejected at once, not
    # after the window loop runs out
    start = time.monotonic()
    with pytest.raises(InputError) as info:
        curve([[[(1, 1)], [(1, 1)]], first, second])
    assert time.monotonic() - start < 0.5
    assert str(info.value) == "branches 1 and 2 are the same branch (up to t -> %s*t)" % lam


def test_a_rescaling_must_hold_on_every_term():
    for second in (
        [[(2, 2)], [(3, 3)]],  # 2 is no rational square
        [[(4, 2)], [(27, 3)]],  # |lambda| 2 from t^2, 3 from t^3
        [[(4, 2)], [(8, 3), (1, 5)]],  # other exponents
        [[(4, 2)], [(8, 4)]],  # other exponents, same count
    ):
        assert curve([CUSP, second]).r == 2
    # t^4 and t^6 fix |lambda| = 2 but not its sign; t^7 picks -2 ...
    assert "t -> -2*t" in _repeated([[(1, 4)], [(1, 6), (1, 7)]], [[(16, 4)], [(64, 6), (-128, 7)]])
    # ... and an even-order ratio below 0 fits no lambda
    assert curve([[[(1, 4)], [(1, 6)]], [[(16, 4)], [(-64, 6)]]]).r == 2
    # two odd orders that disagree on the sign fit no lambda either
    assert curve([[[(1, 3)], [(1, 5)]], [[(8, 3)], [(-32, 5)]]]).r == 2
    # a huge exponent is rooted, not raised to
    start = time.monotonic()
    assert curve([[[(1, 2)], [(1, 10**9)]], [[(4, 2)], [(3, 10**9)]]]).r == 2
    assert time.monotonic() - start < 0.5


# x = 2t^5 - t^7 and x = t^5 + 3t^6/2, both with y = 0
FIVEFOLD_AXIS = [[[(2, 5), (-1, 7)], []], [[(1, 5), (Fraction(3, 2), 6)], []]]


@pytest.mark.parametrize(
    "branches, message",
    [
        (FIVEFOLD_AXIS, "branch 0 covers the coordinate-0 axis 5 times"),
        (
            [[[(1, 2)], [(1, 3)], []], [[], [], [(1, 3), (1, 4)]]],
            "branch 1 covers the coordinate-2 axis 3 times",
        ),
        ([[[(1, 2)]]], "branch 0 covers the coordinate-0 axis 2 times"),
        (
            [[[(1, 1)], []], [[(1, 1), (1, 2)], []]],
            "branches 0 and 1 are the same branch (the coordinate-0 axis)",
        ),
        (
            [[[], [(1, 1)]], [[(1, 2)], [(1, 3)]], [[], [(-3, 1), (1, 9)]]],
            "branches 0 and 2 are the same branch (the coordinate-1 axis)",
        ),
    ],
)
def test_a_branch_on_a_coordinate_axis_is_a_line_or_rejected_at_once(branches, message):
    # a branch with one nonzero coordinate of order m is that axis covered m
    # times, and two branches on one axis are the same branch: neither germ
    # is reduced, and both are rejected before any window is tried
    start = time.monotonic()
    with pytest.raises(InputError) as info:
        curve(branches)
    assert time.monotonic() - start < 0.5
    assert str(info.value) == message


def test_lines_on_distinct_axes_are_kept():
    assert curve([[[(1, 1)]]]).r == 1
    assert curve([[[(1, 1), (1, 2)], []], [[], [(1, 1)]], [[(1, 2)], [(1, 3)]]]).r == 3


def _repeated(a, b) -> str:
    with pytest.raises(InputError) as info:
        curve([a, b])
    return str(info.value)


def test_common_constant_terms_are_stripped():
    P = make_parametrization(
        [
            [[(Fraction(5), 0), (Fraction(1), 2)], [(Fraction(1), 3)]],
            [[(Fraction(5), 0), (Fraction(1), 2)], [(Fraction(1), 5)]],
        ]
    )
    W = hilbert_from_parametrization(P)
    assert W.r == 2


def test_branch_multiplicity_and_orders():
    P = curve(CURVE_FIVE_COORD)
    assert P.r == 2
    assert P.ambient_dim == 5
    assert P.branch_multiplicity(0) == 2
    assert P.branch_multiplicity(1) == 2
    with pytest.raises(InputError, match="^zero branch: branch 0 has no nonzero coordinate$"):
        BranchParametrization((((), ()),)).branch_multiplicity(0)


# ---------------------------------------------------------------------------
# Hilbert grids: tiny cases with closed-form answers

def test_node_grid():
    W = hilbert_from_parametrization(curve(NODE))
    assert W.conductor == (1, 1)
    assert W.delta == 1
    h, w0 = by_point(W, W.h), by_point(W, W.w0)
    assert h[(0, 0)] == 0
    assert h[(1, 1)] == 1
    assert w0[(1, 1)] == 0
    assert W.min_w0 == 0


def test_smooth_branch_grid():
    W = hilbert_from_parametrization(curve([[[(1, 1)], [(1, 2)]]]))
    assert W.conductor == (0,)
    assert W.delta == 0
    assert W.min_w0 == 0


def test_cusp_weight_sequence_round_trip():
    W = hilbert_from_parametrization(curve([[[(1, 2)], [(1, 3)]]]))
    assert W.conductor == (2,)
    seq = W.to_weight_sequence()
    S = from_generators([2, 3])
    assert seq == weight_sequence(S)
    with pytest.raises(InputError, match="^weight sequence requires a single branch$"):
        hilbert_from_parametrization(curve(NODE)).to_weight_sequence()


def test_weight_sequence_of_a_grid_past_its_semigroup_conductor():
    # steps 1, 0, 1 make <2, 3>, whose conductor is 2, not the grid's 3
    W = WeightGrid(1, (3,), (3,), [0, 1, 1, 2])
    with pytest.raises(ValidationError, match="grid conductor 3, semigroup conductor 2"):
        W.to_weight_sequence()
    with pytest.raises(ValidationError, match="grid conductor 3, semigroup conductor 2"):
        formats.weights_tsv(W)


# ---------------------------------------------------------------------------
# Hilbert grids against the dense rational oracle

def frozen(table):
    return {
        (l1, l2): table[len(table) - 1 - l2][l1]
        for l2 in range(len(table))
        for l1 in range(len(table[0]))
    }


def test_five_coordinate_curve_table():
    W = hilbert_from_parametrization(curve(CURVE_FIVE_COORD))
    assert W.conductor == (4, 4)
    assert W.delta == 4
    assert W.min_w0 == -2
    expect, w0 = frozen(TABLE_FIVE_COORD), by_point(W, W.w0)
    for point, value in expect.items():
        assert w0[point] == value, point


def test_six_coordinate_curve_table():
    W = hilbert_from_parametrization(curve(CURVE_SIX_COORD))
    assert W.conductor == (4, 4)
    assert W.delta == 6
    assert W.min_w0 == -4
    expect, w0 = frozen(TABLE_SIX_COORD), by_point(W, W.w0)
    for point, value in expect.items():
        assert w0[point] == value, point


@pytest.mark.parametrize(
    "branches", [CURVE_FIVE_COORD, CURVE_SIX_COORD], ids=["five", "six"]
)
def test_grid_matches_dense_rational_oracle(branches):
    P = curve(branches)
    W = hilbert_from_parametrization(P)
    frac_branches = [
        [[(Fraction(c), e) for c, e in coord] for coord in br] for br in branches
    ]
    naive, h = naive_hilbert_grid(frac_branches, [16, 16], W.box), by_point(W, W.h)
    for point, value in naive.items():
        assert h[point] == value, point


def test_monomial_branch_matches_dense_rational_oracle():
    branch = [[(Fraction(1), 4)], [(Fraction(1), 11)]]
    W = hilbert_from_parametrization(monomial_branch([4, 11]))
    naive, h = naive_hilbert_grid([branch], [36], (20,)), by_point(W, W.h)
    for point, value in naive.items():
        assert h[point] == value, point


def test_two_branch_random_case_matches_oracle():
    branches = [
        [[(Fraction(1), 2)], [(Fraction(1), 5), (Fraction(1), 6)]],
        [[(Fraction(1), 3)], [(Fraction(2), 4)]],
    ]
    P = make_parametrization(branches)
    W = hilbert_from_parametrization(P)
    naive, h = naive_hilbert_grid(branches, [24, 24], W.box), by_point(W, W.h)
    for point, value in naive.items():
        assert h[point] == value, point


# ---------------------------------------------------------------------------
# independence from the truncation window

def test_doubling_the_window_changes_nothing():
    P = curve(CURVE_FIVE_COORD)
    W = hilbert_from_parametrization(P)
    W2 = hilbert_from_parametrization(P, degree_bound=32)
    W4 = hilbert_from_parametrization(P, degree_bound=64)
    assert W2.conductor == W4.conductor == W.conductor
    assert W2.h == W4.h == W.h


def test_pinned_windows_far_past_the_certificate_give_the_certified_grid():
    # the whole pinned window is closed, hundreds of orders past the
    # certificate: same grid, and a sparse span keeps it well under a second
    for path, bound in ((SIX_COORD_IN, 1000), (THREE_BRANCH_IN, 400)):
        P = formats.read_curve_file(str(path))
        start = time.monotonic()
        pinned = hilbert_from_parametrization(P, bound)
        assert time.monotonic() - start < 1.0, path.name
        assert pinned == hilbert_from_parametrization(P), path.name


def oracle_batch():
    """The seeded random curves with their auto grids and multiplicities."""
    batch = []
    for branches in random_space_curves(ORACLE_SEED, 20):
        P = curve(branches)
        mults = [P.branch_multiplicity(j) for j in range(P.r)]
        batch.append((branches, P, mults, hilbert_from_parametrization(P)))
    return batch


def test_certified_window_agrees_with_larger_windows():
    batch = oracle_batch()
    assert sorted(P.r for _, P, _, _ in batch) == [2] * 15 + [3] * 5
    for _, P, mults, W in batch:
        bound = tuple(2 * (c + max(mults) + 2) for c in W.conductor)
        for bigger in (bound, tuple(2 * b for b in bound)):
            Wb = hilbert_from_parametrization(P, degree_bound=bigger)
            assert Wb.conductor == W.conductor, bigger
            assert Wb.h == W.h, bigger
    # the smallest boxes also against the dense rational oracle
    smallest = sorted(batch, key=lambda item: len(item[3].h))[:3]
    for branches, _, mults, W in smallest:
        frac = [[[(Fraction(c), e) for c, e in coord] for coord in br] for br in branches]
        bounds = [2 * (c + max(mults) + 2) for c in W.conductor]
        assert naive_hilbert_grid(frac, bounds, W.box) == by_point(W, W.h), W.conductor


def test_conductor_hint_agrees_with_auto():
    P = curve(CURVE_SIX_COORD)
    auto = hilbert_from_parametrization(P)
    hinted = hilbert_from_parametrization(P, conductor=(4, 4))
    assert hinted.conductor == auto.conductor
    assert hinted.h == auto.h
    # the hint window is c + max(m, 2) on every branch: nothing to spare
    for _, P, mults, W in oracle_batch():
        tight = tuple(c + max(m, 2) for c, m in zip(W.conductor, mults))
        for bound in ("auto", tight):
            hinted = hilbert_from_parametrization(P, bound, conductor=W.conductor)
            assert hinted.conductor == W.conductor
            assert hinted.h == W.h
        for j in range(P.r):
            short = tight[:j] + (tight[j] - 1,) + tight[j + 1 :]
            with pytest.raises(ValidationError, match="not stabilized"):
                hilbert_from_parametrization(P, short, conductor=W.conductor)


def test_wrong_conductor_hints_are_rejected():
    P = curve(CURVE_FIVE_COORD)
    with pytest.raises(ValidationError):
        hilbert_from_parametrization(P, conductor=(5, 5))  # not minimal
    with pytest.raises(ValidationError):
        hilbert_from_parametrization(P, conductor=(3, 3))  # not confirmed
    # one branch off by one either way, each in its own tight window
    for _, P, _, W in oracle_batch():
        c = W.conductor
        for j in range(P.r):
            above = c[:j] + (c[j] + 1,) + c[j + 1 :]
            with pytest.raises(ValidationError, match="not minimal"):
                hilbert_from_parametrization(P, conductor=above)
            if c[j] > 0:
                below = c[:j] + (c[j] - 1,) + c[j + 1 :]
                with pytest.raises(ValidationError, match="not confirmed"):
                    hilbert_from_parametrization(P, conductor=below)


def test_window_pure_orders_are_closed_under_the_multiplicity():
    # the fact a conductor hint is checked by: k window-pure on branch j and
    # k + m_j < n_j make k + m_j window-pure, so a hint's run is window-pure
    # exactly when the candidate conductor is at most the hint
    for _, P, mults, W in oracle_batch():
        coords = hilbert._integer_coordinates(P)
        tight = tuple(c + max(m, 2) for c, m in zip(W.conductor, mults))
        for bounds in (tight, tuple(2 * n for n in tight)):
            an = hilbert._analyze(coords, P.r, bounds)
            for pure, m, n in zip(an.pure, mults, bounds):
                assert all(k + m in pure for k in pure if k + m < n), bounds


def test_window_pure_orders_match_the_far_edges_of_the_oracle():
    # k < n_j is window-pure on branch j exactly when h steps by 1 from k to
    # k + 1 along the far edge of the window box, where every other l_i = n_i:
    # there the elements counted vanish on every other branch
    cases = []
    for branches, P, mults, W in oracle_batch():
        cases.append((branches, P, mults, W.conductor))
        one = [branches[0]]
        P1 = curve(one)
        cases.append((one, P1, mults[:1], hilbert_from_parametrization(P1).conductor))
    assert sorted({P.r for _, P, _, _ in cases}) == [1, 2, 3]
    for branches, P, mults, conductor in cases:
        frac = [[[(Fraction(c), e) for c, e in coord] for coord in br] for br in branches]
        coords = hilbert._integer_coordinates(P)
        tight = tuple(c + max(m, 2) for c, m in zip(conductor, mults))
        for bounds in (tight, tuple(2 * n for n in tight)):
            an = hilbert._analyze(coords, P.r, bounds)
            edges = [
                [bounds[:j] + (k,) + bounds[j + 1 :] for k in range(n + 1)]
                for j, n in enumerate(bounds)
            ]
            h = naive_hilbert_values(frac, bounds, [l for edge in edges for l in edge])
            for j, edge in enumerate(edges):
                steps = {k for k in range(bounds[j]) if h[edge[k + 1]] - h[edge[k]] == 1}
                assert an.pure[j] == steps, (conductor, bounds, j)


def test_hint_checks_run_branch_by_branch():
    # conductor (4, 4), multiplicities (3, 3): the hint is one low on branch
    # 0 and the window one short on branch 1; branch 0 is checked first
    P = curve(CURVE_SIX_COORD)
    with pytest.raises(ValidationError, match="not confirmed .* on branch 0"):
        hilbert_from_parametrization(P, (7, 6), conductor=(3, 4))
    with pytest.raises(ValidationError, match="not stabilized"):
        hilbert_from_parametrization(P, (7, 6), conductor=(4, 4))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"degree_bound": "big"},
        {"degree_bound": "9"},
        {"degree_bound": [8.7]},
        {"conductor": ("a",)},
        {"conductor": 2},
        {"conductor": (2.5,)},
        {"conductor": (True,)},
    ],
    ids=["bound-str", "bound-digits", "bound-float", "hint-str", "hint-int", "hint-float", "hint-bool"],
)
def test_malformed_windows_and_hints_raise_input_error(kwargs):
    # on the cusp (conductor 2) the last three numeric values used to be
    # truncated to ints and accepted
    with pytest.raises(InputError):
        hilbert_from_parametrization(monomial_branch([2, 3]), **kwargs)


def test_window_and_hint_messages():
    P = curve(CURVE_SIX_COORD)
    for kwargs, message in [
        ({"degree_bound": 3}, "degree bound must be at least 4"),
        ({"degree_bound": (8, 3)}, "degree bound must be at least 4"),
        ({"degree_bound": (8,)}, "degree bound needs one entry per branch"),
        ({"degree_bound": None}, "degree bound must be an integer, a tuple, or 'auto'"),
        ({"conductor": (4,)}, "conductor needs one nonnegative entry per branch"),
        ({"conductor": (4, -1)}, "conductor needs one nonnegative entry per branch"),
    ]:
        with pytest.raises(InputError) as info:
            hilbert_from_parametrization(P, **kwargs)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "kwargs",
    [
        {"degree_bound": 10**20},
        {"degree_bound": (8, 2**62)},
        {"degree_bound": hilbert._MAX_WINDOW + 1},
        {"conductor": (10**20, 4)},
    ],
    ids=["pinned-huge", "pinned-tuple", "pinned-one-over", "hinted"],
)
def test_windows_above_the_ceiling_are_rejected_at_once(kwargs):
    # they used to raise OverflowError or MemoryError, or run until killed
    P = curve(CURVE_SIX_COORD)
    tracemalloc.start()
    start = time.monotonic()
    try:
        with pytest.raises(InputError, match="above the ceiling of %d$" % hilbert._MAX_WINDOW):
            hilbert_from_parametrization(P, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 0.5
    assert peak < 1 << 20


def test_automatic_windows_stay_below_the_ceiling():
    # a branch repeated under t -> 2t never certifies: the rounds run out at a
    # window of 1065 orders, below the ceiling, and the germ is malformed
    # input, not a property violation.  make_parametrization rejects the
    # germ, so it is built with the constructor, which trusts its input
    P = BranchParametrization(
        (
            (((Fraction(1), 2),), ((Fraction(1), 3),)),
            (((Fraction(4), 2),), ((Fraction(8), 3),)),
        )
    )
    with pytest.raises(InputError, match=r"window \[1065, 1065\]: the curve is not reduced"):
        hilbert_from_parametrization(P)


def test_too_small_explicit_window_is_detected():
    P = curve(CURVE_FIVE_COORD)
    with pytest.raises(ValidationError):
        hilbert_from_parametrization(P, degree_bound=4)
    # the smallest window that can certify the conductor already agrees
    W6 = hilbert_from_parametrization(P, degree_bound=6)
    assert W6.conductor == (4, 4)


# ---------------------------------------------------------------------------
# WeightGrid invariants

def test_grid_validation():
    with pytest.raises(InputError, match="^grid arity mismatch$"):
        WeightGrid(2, (1,), (1, 1), [0] * 4)
    with pytest.raises(InputError, match="^conductor entries must be nonnegative$"):
        WeightGrid(1, (-1,), (0,), [0])
    with pytest.raises(InputError, match="^grid needs a list of 3 values, one per box point$"):
        WeightGrid(1, (2,), (2,), [0, 1])
    with pytest.raises(InputError, match="box must be the conductor rectangle or its one-step collar"):
        WeightGrid(1, (2,), (5,), [0] * 6)
    with pytest.raises(ValidationError, match=r"h\(0\) must be 0$"):
        WeightGrid(1, (1,), (1,), [1, 2])
    with pytest.raises(ValidationError, match=r"step 2 along axis 0 at \(0,\)$"):
        WeightGrid(1, (2,), (2,), [0, 2, 3])
    with pytest.raises(ValidationError, match=r"step -1 along axis 0 at \(1,\)$"):
        WeightGrid(1, (2,), (2,), [0, 1, 0])
    with pytest.raises(ValidationError, match=r"flat step beyond the conductor along axis 0 at \(2,\)$"):
        WeightGrid(1, (2,), (3,), [0, 1, 1, 1])


def test_grid_validation_names_the_first_bad_point():
    # the node's grid on the box (2, 2), in lexicographic order
    node = [0, 1, 2, 1, 1, 2, 2, 2, 3]
    assert hilbert_from_parametrization(curve(NODE)).h == node
    WeightGrid(2, (1, 1), (2, 2), node)
    # h(1, 2) = 3 breaks axis 0 at (1, 2) and, first, axis 1 at (1, 1)
    with pytest.raises(ValidationError, match=r"step 2 along axis 1 at \(1, 1\)$"):
        WeightGrid(2, (1, 1), (2, 2), node[:5] + [3] + node[6:])
    with pytest.raises(ValidationError, match=r"flat step beyond the conductor along axis 0 at \(1, 0\)$"):
        WeightGrid(2, (1, 1), (2, 2), node[:6] + [1] + node[7:])
    W = hilbert_from_parametrization(curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]]))
    assert W.strides == (9, 3, 1)
    h = list(W.h)
    h[9 * 1 + 3 * 2 + 1] += 1  # the point (1, 2, 1)
    with pytest.raises(ValidationError, match=r"step 2 along axis 1 at \(1, 1, 1\)$"):
        WeightGrid(3, W.conductor, W.box, h)
    h = list(W.h)
    h[9 * 2 + 3 * 1] -= 1  # the point (2, 1, 0)
    with pytest.raises(ValidationError, match=r"flat step beyond the conductor along axis 0 at \(1, 1, 0\)$"):
        WeightGrid(3, W.conductor, W.box, h)


def test_extend_is_idempotent():
    W = hilbert_from_parametrization(curve(CURVE_FIVE_COORD))
    E1 = weight_grid_extend(W)
    E2 = weight_grid_extend(E1)
    assert E1.is_extended
    assert E1 == E2
    assert E1.box == tuple(c + 1 for c in W.conductor)
    # extension adds the collar by pure unit steps on the far side
    c, h = W.conductor, by_point(E1, E1.h)
    assert h[(c[0] + 1, c[1] + 1)] == h[c] + 2


def test_extend_rebuilds_the_collar_of_every_cut_grid():
    # a grid cut back to the conductor rectangle, on every axis or on some,
    # extends to the collared grid it was cut from, with the same series
    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    for P in (curve(CURVE_FIVE_COORD), pair_family(2)[1], triple_point, monomial_branch([4, 11])):
        W = hilbert_from_parametrization(P)
        h = by_point(W, W.h)
        for box in itertools.product(*((c, c + 1) for c in W.conductor)):
            points = itertools.product(*(range(b + 1) for b in box))
            cut = WeightGrid(W.r, W.conductor, box, [h[p] for p in points])
            assert weight_grid_extend(cut) == W, box
            assert series(cut) == series(W), box


def test_delta_from_grid():
    W = hilbert_from_parametrization(curve(CURVE_SIX_COORD))
    assert W.delta == 6
    W1 = hilbert_from_parametrization(monomial_branch([6, 15, 31]))
    assert W1.delta == 36


# ---------------------------------------------------------------------------
# series

def test_series_one_branch_is_the_membership_indicator():
    W = hilbert_from_parametrization(monomial_branch([4, 11]))
    sd = series(W)
    S = from_generators([4, 11])
    assert sd.tail == "ones-past-conductor"
    for l in range(S.conductor + 1):
        assert sd.coefficients.get((l,), 0) == (1 if l in S else 0)


def test_series_two_branch_numerators():
    for branches in (CURVE_FIVE_COORD, CURVE_SIX_COORD):
        sd = series(hilbert_from_parametrization(curve(branches)))
        assert sd.tail == "zero"
        nonzero = {p: c for p, c in sd.coefficients.items() if c}
        assert nonzero == {(0, 0): 1, (3, 3): 1}


def test_series_of_node():
    # -h(l) + h(l+e1) + h(l+e2) - h(l+e1+e2) collapses to 1 at the origin
    # and vanishes everywhere else: the two lines meet in one simple point
    sd = series(hilbert_from_parametrization(curve(NODE)))
    nonzero = {p: c for p, c in sd.coefficients.items() if c}
    assert nonzero == {(0, 0): 1}


def test_series_matches_the_corner_sum_oracle():
    # the library takes r one-axis differences; the oracle sums 2^r corners per point
    grids = [W for _, _, _, W in oracle_batch()]
    grids += [hilbert_from_parametrization(P) for n in range(2, 7) for P in pair_family(n)]
    grids += [hilbert_from_parametrization(monomial_branch([6, 10, 31]))]
    assert sorted({W.r for W in grids}) == [1, 2, 3]
    for W in grids:
        sd = series(W)
        assert (sd.coefficients, sd.tail) == naive_series(by_point(W, W.h), W.conductor), W.conductor


# ---------------------------------------------------------------------------
# sublevel complexes and cohomology

def _filtration(grid):
    """Every cube of the collared box by (weight, dim, axes, base): ids, weights, dims, boundaries.

    A level lists its new cubes C_m(n) & ~C_m(n - 1), so each level-n complex
    is a prefix; a boundary maps face positions to incidences.
    """
    levels = list(complexes._cube_bases(grid, complexes._sublevel_masks(grid)))
    new = [[C & ~L for C, L in zip(bs, last)] for bs, last in zip(levels, [[0] * (1 << grid.r)] + levels)]
    ids, weights, dims = complexes._cube_ids(grid, new)
    pos, offsets, mask = {c: j for j, c in enumerate(ids)}, complexes._face_offsets(grid), (1 << grid.r) - 1
    return ids, weights, dims, [{pos[c + off]: s for off, s in offsets[c & mask]} for c in ids]


@pytest.mark.parametrize(
    "branches,shape",
    [
        (CURVE_FIVE_COORD, SUBLEVEL_SHAPE_FIVE_COORD),
        (CURVE_SIX_COORD, SUBLEVEL_SHAPE_SIX_COORD),
    ],
    ids=["five", "six"],
)
def test_sublevel_betti_numbers(branches, shape):
    W = hilbert_from_parametrization(curve(branches))
    for n, (b0, b1) in shape.items():
        betti = naive_betti(sublevel_complex(W, n), 2)
        assert betti[0] == b0, (n, betti)
        assert betti[1] == b1, (n, betti)
        lib = cohomology(W, n)
        assert lib[0] == (b0, ())
        assert lib.get(1, (0, ()))[0] == b1
        assert all(not tors for _free, tors in lib.values())


def test_sublevel_complex_is_closed_under_faces():
    W = hilbert_from_parametrization(curve(CURVE_FIVE_COORD))
    K = sublevel_complex(W, 0)
    everything = {cube for cubes in K.values() for cube in cubes}
    for cube in everything:
        for face, _sign in _cube_faces(*cube):
            assert face in everything


def test_sublevel_complexes_are_contractible_at_positive_levels():
    for branches in (CURVE_FIVE_COORD, CURVE_SIX_COORD, NODE):
        W = hilbert_from_parametrization(curve(branches))
        top = max(W.w0)
        for n in range(1, top + 1):
            betti = naive_betti(sublevel_complex(W, n), 2)
            assert betti[0] == 1 and betti[1] == 0 and betti[2] == 0


def test_sublevel_complex_matches_vertex_max_enumeration():
    # each level's cubes against cubes listed from their vertices, one to
    # four branches (16 axis masks), from the empty level below min w0 to the
    # whole box past max w0
    parametrizations = [curve(CURVE_FIVE_COORD), curve(NODE), pair_family(2)[1]]
    parametrizations.append(curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(2, 1)]]]))
    parametrizations.append(curve(FOUR_BRANCH))
    parametrizations.append(monomial_branch((3, 5)))
    grids = [hilbert_from_parametrization(P) for P in parametrizations]
    grids.append(WeightGrid(1, (0,), (0,), [0]))  # conductor 0
    for W in map(weight_grid_extend, grids):
        for n in range(W.min_w0 - 1, max(W.w0) + 3):
            naive = naive_sublevel_cubes(by_point(W, W.w0), n)
            assert sublevel_complex(W, n) == naive, (W.conductor, n)


def test_empty_sublevel_below_minimum():
    W = hilbert_from_parametrization(curve(CURVE_FIVE_COORD))
    assert sublevel_complex(W, W.min_w0 - 1) == {}


@pytest.mark.parametrize("level", ["x", None, 1.5, True])
@pytest.mark.parametrize("one_level", [cohomology, sublevel_complex])
def test_one_level_api_takes_an_int_level(one_level, level):
    W = hilbert_from_parametrization(curve(NODE))
    with pytest.raises(InputError) as err:
        one_level(W, level)
    assert str(err.value) == "level: expected an integer, got %r" % (level,)


# ---------------------------------------------------------------------------
# lattice cohomology

def test_cohomology_of_known_curves():
    H5 = lattice_cohomology(hilbert_from_parametrization(curve(CURVE_FIVE_COORD)))
    assert H5.module == TowerModule(-2, ((0, 0), (0, 0)))
    H6 = lattice_cohomology(hilbert_from_parametrization(curve(CURVE_SIX_COORD)))
    assert H6.module == TowerModule(-4, ((-4, -4), (0, 0)))
    # both have trivial higher cohomology but different rank profiles
    assert all(not qc.towers for qc in H5.per_q[1:])
    assert all(not qc.towers for qc in H6.per_q[1:])
    assert H5.per_q[0].ranks != H6.per_q[0].ranks
    assert not H5.torsion or all(not v for v in H5.torsion.values())


def test_cohomology_rank_bookkeeping():
    H = lattice_cohomology(hilbert_from_parametrization(curve(CURVE_SIX_COORD)))
    q0 = H.per_q[0]
    assert q0.ranks[-4] == 2
    assert q0.ranks[-3] == 1
    assert q0.ranks[0] == 2
    assert q0.ranks[1] == 1
    assert H.rank(0, -4) == 2
    assert H.rank(0, 5) == 1  # infinite tower only
    assert H.rank(1, 0) == 0
    # the connecting map dies exactly where towers start
    assert q0.u_ranks[-4] == 1
    assert q0.u_ranks[0] == 1


def test_persistence_towers_match_the_plain_reduction_oracle(monkeypatch):
    # with two branches no cube is listed or reduced and nothing runs
    # persistence; the Euler guard runs the dual sweep on the grids with a
    # degree-1 tower, and on the others the sweep, called directly, finds none
    def unused(*args):
        raise AssertionError("the planar route lists no cubes")

    real_holes, swept = complexes._hole_towers, []

    def counted(grid, masks):
        swept.append(grid)
        return real_holes(grid, masks)

    monkeypatch.setattr(complexes, "_hole_towers", counted)
    parametrizations = [P for n in range(2, 7) for P in pair_family(n)]
    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    parametrizations += [triple_point, curve(CURVE_SIX_COORD)]
    parametrizations += [curve(b) for b in random_space_curves(ORACLE_SEED, 20)]
    kinds = set()
    for P in parametrizations:
        W = weight_grid_extend(hilbert_from_parametrization(P))
        towers, unpaired = naive_persistence_towers(by_point(W, W.w0))
        swept.clear()
        with monkeypatch.context() as m:
            if W.r == 2:
                m.setattr(complexes, "_cube_ids", unused)
                m.setattr(complexes, "_reduce_unit_pairs", unused)
                m.setattr(complexes, "_persistence_pairs", unused)
            H = lattice_cohomology(W)
        assert unpaired == [(0, W.min_w0)], W.conductor
        assert max(towers, default=0) < W.r
        for qc in H.per_q:
            assert qc.towers == towers.get(qc.q, ()), (W.conductor, qc.q)
        if W.r == 2:
            assert bool(swept) == (1 in towers), W.conductor
            assert swept or real_holes(W, complexes._sublevel_masks(W)) == (), W.conductor
            kinds.add(bool(swept))
    assert kinds == {False, True}


def test_snf_levels_are_recorded():
    # SNF checks every reported level of every grid with four or more
    # branches, where torsion can occur, and no level of a grid in R^2 or
    # R^3, whatever its size
    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    planar = [monomial_branch((6, 15, 31)), curve(CURVE_SIX_COORD), pair_family(4)[0]]
    spatial = [triple_point, formats.read_curve_file(str(THREE_BRANCH_IN)), curve(FOUR_BRANCH)]
    for P in (*planar, *spatial):
        H = lattice_cohomology(hilbert_from_parametrization(P))
        assert H.snf_levels == (tuple(range(H.min_w0, 2)) if P.r >= 4 else ()), P.r


def test_snf_levels_match_the_cube_route():
    parametrizations = [P for n in (2, 3) for P in pair_family(n)]
    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    parametrizations += [triple_point, curve(CURVE_SIX_COORD)]
    parametrizations += [curve(b) for b in random_space_curves(ORACLE_SEED, 20)]
    for P in parametrizations:
        _assert_levels_match_the_cube_route(hilbert_from_parametrization(P))


def _assert_levels_match_the_cube_route(W):
    # every level, whether or not SNF checked it; planar levels have no
    # torsion and nothing in the top degree
    H = lattice_cohomology(W)
    for n in range(H.min_w0, 2):
        hq = cohomology(W, n)
        for q in range(W.r + 1):
            free, invs = hq.get(q, (0, ()))
            assert free == H.rank(q, n), (W.conductor, q, n)
            assert invs == H.torsion.get((q, n), ()), (W.conductor, q, n)
        if W.r <= 2:
            assert all(not invs for _, invs in hq.values()), (W.conductor, n)
            assert hq.get(W.r, (0, ())) == (0, ()), (W.conductor, n)


def test_planar_grid_above_the_old_cube_limit_has_no_torsion():
    # 30 x 30 points, 3481 cubes: above the 2600 at which SNF used to stop
    # checking two branches
    W = hilbert_from_parametrization(pair_family(4)[0])
    assert len(_filtration(weight_grid_extend(W))[0]) == 3481
    _assert_levels_match_the_cube_route(W)


def test_cube_route_ranks_match_the_naive_betti_numbers():
    # the one-level route is the tests' per-level reference, so its free
    # ranks are anchored to an oracle that imports no library code, from the
    # empty level below min w0 to the whole box past max w0
    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    parametrizations = [triple_point, curve(CURVE_SIX_COORD), *pair_family(2)]
    parametrizations += [curve(b) for b in random_space_curves(ORACLE_SEED, 20)[:5]]
    parametrizations.append(monomial_branch((3, 5)))
    grids = [hilbert_from_parametrization(P) for P in parametrizations]
    grids.append(WeightGrid(1, (0,), (0,), [0]))  # conductor 0
    for W in map(weight_grid_extend, grids):
        for n in range(W.min_w0 - 1, max(W.w0) + 3):
            hq = cohomology(W, n)
            betti = naive_betti(naive_sublevel_cubes(by_point(W, W.w0), n), W.r)
            assert {q: hq.get(q, (0, ()))[0] for q in betti} == betti, (W.conductor, n)


def test_face_sorted_after_its_cube_trips_the_snf_check(monkeypatch):
    real_complex = complexes._morse_complex

    def swapped(i, j, columns, *per_position):
        # positions i and j trade places, in the columns and in each list
        swap = {i: j, j: i}
        at = [swap.get(k, k) for k in range(len(per_position[0]))]
        moved = {k: {swap.get(f, f): v for f, v in columns[at[k]].items()} for k in columns}
        return (moved, *([seq[k] for k in at] for seq in per_position))

    def misordered_critical(grid, critical, up):
        # swap the last critical cube of the top degree with a nonzero
        # boundary and its last face: one face now sorts after its cube, and
        # a top-degree column is never cleared
        weights, dims, columns = real_complex(grid, critical, up)
        top = max(dims[j] for j, col in columns.items() if col)
        j = max(j for j, col in columns.items() if col and dims[j] == top)
        moved, weights, dims = swapped(j, max(columns[j]), columns, weights, dims)
        return weights, dims, moved

    # persistence trips on the cube's low entry: on a two-branch filtration,
    # which only the tests build now, and on the critical cubes that the
    # three-branch route reads
    for P in (curve(CURVE_SIX_COORD), formats.read_curve_file(str(THREE_BRANCH_IN))):
        W = hilbert_from_parametrization(P)
        lattice_cohomology(W)
        if P.r == 2:
            # swap the first edge with one of its vertices of the same weight:
            # every level is the same set of cubes, but one face now sorts last
            _ids, weights, dims, boundary = _filtration(weight_grid_extend(W))
            j = dims.index(1)
            i = next(i for i in boundary[j] if weights[i] == weights[j])
            columns, dims = swapped(i, j, dict(enumerate(boundary)), dims)
            with pytest.raises(ValidationError, match="a face sorts after its cube"):
                complexes._persistence_pairs(columns, dims)
        else:
            with monkeypatch.context() as m:
                m.setattr(complexes, "_morse_complex", misordered_critical)
                with pytest.raises(ValidationError, match="a face sorts after its cube"):
                    lattice_cohomology(W)


def test_pair_across_weights_trips_the_snf_rank_check(monkeypatch):
    real = complexes._morse_matching
    real_smith = complexes._smith_invariants

    def forged(grid, levels):
        # the first critical vertex of the lowest level pairs with an edge one
        # level up, whose other vertex it frees: that vertex becomes critical
        # one level up, and the first leaves the levels below the edge
        critical, up = real(grid, levels)
        p = (critical[0][0] & -critical[0][0]).bit_length() - 1
        for k, (s, below) in enumerate(m for m in complexes._axis_moves(grid) for _side in "lu"):
            # the edge from p up (lower side) or down (upper side) axis k // 2,
            # which the other vertex's pass paired with it
            other, freed = (p + s, k + 1) if k % 2 == 0 else (p - s, k - 1)
            if other >= 0 and below >> min(p, other) & 1 and up[freed][0] >> other & 1:
                break
        else:
            raise AssertionError("no edge at the lowest vertex is paired with its other vertex")
        up[freed][0] ^= 1 << other
        up[k][0] |= 1 << p
        critical[0][0] ^= 1 << p
        critical[1][0] |= 1 << other
        return critical, up

    def forged_rank(rows):
        rank, invs = real_smith(rows)
        return rank + 1, invs

    # Persistence reads the critical cubes the forged pair leaves, so its
    # everlasting class or its degree-zero bars disagree with the root.  SNF
    # checks four or more branches only, and a forged Smith rank trips the
    # SNF rank check alone
    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    for P, message in (
        (triple_point, "everlasting class born at"),
        (formats.read_curve_file(str(THREE_BRANCH_IN)), "filtration pairing vs graded root"),
    ):
        W = hilbert_from_parametrization(P)
        assert lattice_cohomology(W).snf_levels == ()
        with monkeypatch.context() as m:
            m.setattr(complexes, "_morse_matching", forged)
            with pytest.raises(ValidationError, match=message):
                lattice_cohomology(W)
    W = hilbert_from_parametrization(curve(FOUR_BRANCH))
    assert lattice_cohomology(W).snf_levels
    with monkeypatch.context() as m:
        m.setattr(complexes, "_smith_invariants", forged_rank)
        with pytest.raises(ValidationError, match="rank at degree 0"):
            lattice_cohomology(W)


def test_three_branch_cohomology_builds_no_filtration(monkeypatch):
    # the route pairs cubes on the level masks and builds boundaries for the
    # critical cubes only: no one-level cube list and no pair reduction, and
    # persistence reads one column per critical cube
    def unused(*args):
        raise AssertionError("the three-branch route builds no filtration")

    real_pairs, columns_read = complexes._persistence_pairs, []

    def counted(columns, dims):
        columns_read.append(len(columns))
        return real_pairs(columns, dims)

    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    parametrizations = [triple_point, formats.read_curve_file(str(THREE_BRANCH_IN))]
    parametrizations += [curve(b) for b in random_space_curves(ORACLE_SEED, 20) if len(b) >= 3]
    parametrizations.append(curve(FOUR_BRANCH))
    assert len(parametrizations) > 3
    for P in parametrizations:
        W = hilbert_from_parametrization(P)
        E = weight_grid_extend(W)
        levels = list(complexes._cube_bases(E, complexes._sublevel_masks(E)))
        critical, _up = complexes._morse_matching(E, levels)
        columns_read.clear()
        with monkeypatch.context() as m:
            m.setattr(complexes, "_level_cubes", unused)
            m.setattr(complexes, "_reduce_unit_pairs", unused)
            m.setattr(complexes, "_persistence_pairs", counted)
            lattice_cohomology(W)
        assert columns_read == [sum(C.bit_count() for U in critical for C in U)], P.r


def test_cohomology_builds_the_level_masks_once(monkeypatch):
    # the graded root, chi(K_n), the hole sweep of a two-branch grid with
    # holes and, with three branches, the cube matching all read one build
    # of the level masks and one pass of cube bases over them
    calls = []

    def counted(name):
        real = getattr(complexes, name)

        def wrapper(grid, *args):
            calls.append((name, grid.r))
            return real(grid, *args)

        monkeypatch.setattr(complexes, name, wrapper)

    counted("_sublevel_masks")
    counted("_cube_bases")
    inputs = [formats.read_curve_file(str(path)) for path in (THREE_BRANCH_IN, TWO_BRANCH_H1_IN)]
    for P in (*inputs, curve(CURVE_SIX_COORD)):
        calls.clear()
        H = lattice_cohomology(hilbert_from_parametrization(P))
        assert calls == [("_sublevel_masks", P.r), ("_cube_bases", P.r)], P.r
        assert (P.r == 2 and bool(H.per_q[1].towers)) == (P is inputs[1])  # the sweep ran


def test_forged_tower_trips_the_level_euler_check(monkeypatch):
    real_module, real_holes = complexes.module_from_root, complexes._hole_towers

    def dropped(root):
        # the graded root loses one degree-0 tower
        module = real_module(root)
        return TowerModule(module.base, module.towers[1:])

    def lengthened(grid, masks):
        # one hole now lives one level longer
        (m, t), *rest = real_holes(grid, masks)
        return ((m, t + 1), *rest)

    W = hilbert_from_parametrization(pair_family(4)[0])
    assert lattice_cohomology(W).per_q[1].towers == ()
    W1 = hilbert_from_parametrization(formats.read_curve_file(str(TWO_BRANCH_H1_IN)))
    assert lattice_cohomology(W1).per_q[1].towers
    for grid, name, forged in ((W, "module_from_root", dropped), (W1, "_hole_towers", lengthened)):
        with monkeypatch.context() as m:
            m.setattr(complexes, name, forged)
            with pytest.raises(ValidationError, match="Euler characteristic at level"):
                lattice_cohomology(grid)


def test_forged_top_degree_tower_trips_the_hole_sweep_check(monkeypatch):
    # with three or more branches the hole sweep runs on every grid, and its
    # towers must be persistence's top degree
    real_holes = complexes._hole_towers

    def dropped(grid, masks):
        return real_holes(grid, masks)[1:]

    def added(grid, masks):
        return (*real_holes(grid, masks), (0, 0))

    voided = _step_grid(sum, [[1, 0], [1, 0], [1, 0]])  # one void, at level 2
    assert lattice_cohomology(voided).per_q[2].towers == ((2, 2),)
    W = hilbert_from_parametrization(formats.read_curve_file(str(THREE_BRANCH_IN)))
    assert lattice_cohomology(W).per_q[2].towers == ()
    for grid, forged in ((voided, dropped), (W, added)):
        with monkeypatch.context() as m:
            m.setattr(complexes, "_hole_towers", forged)
            with pytest.raises(ValidationError) as err:
                lattice_cohomology(grid)
        assert str(err.value) == "cohomology routes disagree: filtration pairing vs hole sweep"


class _StubFiltration:
    """Three vertices 0, 1, 2 and two edges 3, 4 whose columns are not unimodular."""

    dims = [0, 0, 0, 1, 1]

    def __iter__(self):
        return iter(range(5))

    def __getitem__(self, j):
        return {3: {0: 1, 1: 2}, 4: {0: 1, 1: 3}}.get(j, {})


def test_persistence_scales_a_column_the_pivot_does_not_divide():
    # column 3 enters the echelon as the row led by -1 (its low, face 1),
    # with 2 there; column 4 has 3 there, so _add doubles it, takes 3 times
    # that row away and keeps {0: -1} as the row {0: 1} led by 0: over Q,
    # col4 - 3/2 col3 = {0: -1/2}, whose low is face 0
    pairs, infinite = complexes._persistence_pairs(_StubFiltration(), _StubFiltration.dims)
    assert pairs == [(1, 3), (0, 4)]
    assert infinite == [2]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 7), st.integers(-6, 6).filter(bool), max_size=5),
        max_size=10,
    )
)
def test_persistence_pairs_random_integer_columns_like_a_fraction_reduction(columns):
    # edges 8, 9, ... on vertices 0..7 with any integer entries: one degree,
    # so nothing is cleared, and a row's lead often does not divide the entry
    # it clears, so _add scales the column first
    edges = {8 + j: col for j, col in enumerate(columns)}
    pairs, infinite = complexes._persistence_pairs(edges, [0] * 8 + [1] * len(columns))
    lows = naive_low_pairs(columns)
    assert pairs == [(i, 8 + j) for i, j in lows]
    paired = {j for _i, j in lows}
    assert infinite == [8 + j for j in range(len(columns)) if j not in paired]


def test_smith_invariants_on_hand_checked_matrices():
    # d1 = gcd of the entries = 2, d1 d2 = |det| = 8
    assert complexes._smith_invariants([{0: 2, 1: 4}, {0: 6, 1: 8}]) == (2, [2, 4])
    # one unit pivot, then diag(2, 3) ~ diag(1, 6)
    rows = [{0: 1, 1: 1}, {1: 2}, {2: 3}, {}]
    assert complexes._smith_invariants(rows) == (3, [6])
    # the boundary of the projective plane's 2-cell wraps its 1-cell twice
    assert complexes._smith_invariants([{0: 2}]) == (1, [2])
    assert complexes._smith_invariants([{0: 1, 1: -1}, {0: -1, 1: 1}]) == (1, [])


def test_cohomology_assembly_places_torsion_one_degree_up():
    # cells of the projective plane, all of one weight: a vertex, a loop and a
    # disc wrapping it twice.  2 is not a unit, so the pair reduction keeps
    # all three; D^0 = 0 and D^1 = (2), so H^0 = Z, H^1 = 0 and H^2 = Z/2 (no
    # complex of the test curves has torsion)
    cells = complexes._reduce_unit_pairs([{}, {}, {1: 2}])
    assert cells == [(0, {}), (1, {}), (2, {1: 2})]
    hq = complexes._cohomology_of(cells, [0, 1, 2], 2)
    assert hq == {0: (1, ()), 1: (0, ()), 2: (0, (2,))}


def test_pair_reduction_rejects_a_face_sorted_after_its_cell():
    with pytest.raises(ValidationError) as err:
        complexes._reduce_unit_pairs([{1: 1}, {}])
    assert str(err.value) == "cube filtration is not ordered: a face sorts after its cube"


def test_smith_invariants_match_rank_and_determinantal_divisors():
    rng = random.Random(ORACLE_SEED)
    for trial in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        values = (-1, 0, 0, 1) if trial % 2 else tuple(range(-4, 5))
        dense = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
        rank, factors = complexes._smith_invariants(rows)
        assert rank == frac_rank([[Fraction(v) for v in row] for row in dense]), dense
        assert factors == [f for f in naive_invariant_factors(dense) if f > 1], dense


def test_one_branch_grid_root_equals_sequence_root():
    for gens in [(2, 3), (4, 11), (6, 15, 31)]:
        W = hilbert_from_parametrization(monomial_branch(gens))
        R_grid = root_from_grid(W)
        R_seq = root_from_weight(weight_sequence(from_generators(gens)))
        assert R_grid == R_seq
        M_grid = lattice_cohomology(W).module
        assert M_grid == module_from_root(R_seq)


def test_grid_root_matches_breadth_first_oracle():
    parametrizations = [P for n in (2, 3) for P in pair_family(n)]
    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    parametrizations += [curve(CURVE_SIX_COORD), triple_point, monomial_branch([4, 11])]
    parametrizations += [curve(b) for b in random_space_curves(ORACLE_SEED, 5)]
    for P in parametrizations:
        W = hilbert_from_parametrization(P)
        E = weight_grid_extend(W)
        expected = GradedRoot(*naive_grid_root(by_point(E, E.w0)))
        assert root_from_grid(W) == expected, W.conductor


def _checkerboard(conductor):
    # h = ceil(|l| / 2): w0 = |l| mod 2, so every level is a checkerboard
    points = itertools.product(*(range(c + 1) for c in conductor))
    return WeightGrid(len(conductor), conductor, conductor, [(sum(l) + 1) // 2 for l in points])


def _step_grid(combine, steps):
    """h(l) = combine over the axes a of the sum of the first l_a 0/1 steps of steps[a]."""
    conductor = tuple(len(axis) for axis in steps)
    per_axis = [list(itertools.accumulate(axis, initial=0)) for axis in steps]
    points = itertools.product(*(range(c + 1) for c in conductor))
    h = [combine(sums[x] for sums, x in zip(per_axis, l)) for l in points]
    return WeightGrid(len(steps), conductor, conductor, h)


def _walled_grid(box, is_wall, doors):
    """The largest w0 with unit axis steps that is at most 0 on the walls and 1 at their doors.

    Wall points of odd |l| take -1, as w0 has the parity of |l|; the grid is
    shifted to w0(0) = 0.  Rooms far from the walls become holes, born higher
    the larger they are, and a door joins its two sides a level before the
    walls do.
    """
    points = list(itertools.product(*(range(b + 1) for b in box)))
    walls = {}
    for l in filter(is_wall, points):
        v = int(l in doors)
        walls[l] = v - (v - sum(l)) % 2
    w0 = [min(v + abs(l[0] - q[0]) + abs(l[1] - q[1]) for q, v in walls.items()) for l in points]
    return WeightGrid(2, box, box, [(w - w0[0] + sum(l)) // 2 for l, w in zip(points, w0)])


# Two rooms of a walled 17 x 11 box split at l_0 = 10: the smaller, younger
# one joins the elder through its door at level 0, and the elder closes a
# level later.
_ROOMS = _walled_grid(
    (16, 10), lambda l: 1 in l or l[0] in (10, 15) or l[1] == 9, {(10, 5)}
)
# Two square walls around (9, 9) with a door each on the same axis: both doors
# open at one level, where the hole between the walls, the youngest, meets
# the elder centre hole and the outside at once.
_RINGS = _walled_grid(
    (18, 18), lambda l: max(abs(x - 9) for x in l) in (4, 8), {(13, 9), (17, 9)}
)


@st.composite
def _unit_step_grids(draw, least_r=1, most_r=3):
    """Grids whose h is the sum or the maximum of per-axis 0/1 step sequences, or a checkerboard."""
    r = draw(st.integers(least_r, most_r))
    conductor = tuple(draw(st.integers(0, 11 if r < 3 else 6 if r == 3 else 2)) for _ in range(r))
    kind = draw(st.sampled_from(("sum", "max", "checkerboard")))
    if kind == "checkerboard":
        return _checkerboard(conductor)
    steps = [draw(st.lists(st.integers(0, 1), min_size=c, max_size=c)) for c in conductor]
    return _step_grid(sum if kind == "sum" else max, steps)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_unit_step_grids())
@example(_checkerboard((11, 11)))
@example(_step_grid(sum, [[1, 1, 0, 1, 0, 0], [1, 1, 0, 1, 1, 0, 0]]))  # a hole joins an elder hole
@example(_ROOMS)
@example(_RINGS)
@example(_step_grid(sum, [[1, 0], [1, 0], [1, 0]]))  # a void in R^3
@example(_step_grid(sum, [[1, 0], [1, 0], [1, 1, 0], [1, 1, 0]]))  # towers up to degree 3
def test_level_masks_match_the_oracles_on_unit_step_grids(W):
    # the root grown by dilation, chi by popcounts and, with two or more
    # branches, the holes flooded in the complement masks, against a fresh
    # breadth-first search, the explicit cube lists at every level and plain
    # persistence's top degree
    E = weight_grid_extend(W)
    w0 = by_point(E, E.w0)
    assert root_from_grid(W) == GradedRoot(*naive_grid_root(w0))
    masks = complexes._sublevel_masks(E)
    chis = complexes._level_euler(complexes._cube_bases(E, masks))
    assert len(chis) == max(E.w0) - E.min_w0 + 1
    for n, chi in enumerate(chis, E.min_w0):
        cubes = naive_sublevel_cubes(w0, n)
        assert chi == sum((-1) ** q * len(cs) for q, cs in cubes.items()), n
    if W.r >= 2:
        towers, _unpaired = naive_persistence_towers(w0)
        assert complexes._hole_towers(E, masks) == towers.get(W.r - 1, ())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_unit_step_grids(most_r=4))
@example(_step_grid(sum, [[1], [1, 1, 1, 0]]))  # a degree-0 tower at level 2
@example(_step_grid(sum, [[1, 0], [1, 0], [1, 0]]))  # a void at level 2
def test_rank_matches_the_naive_betti_numbers_at_every_level(W):
    # ranks are reported up to level 1, but rank(q, n) reads the towers, so
    # it holds at every level, from below min w0 to past max w0
    H = lattice_cohomology(W)
    E = weight_grid_extend(W)
    w0 = by_point(E, E.w0)
    for n in range(E.min_w0 - 1, max(E.w0) + 2):
        betti = naive_betti(naive_sublevel_cubes(w0, n), W.r)
        assert {q: H.rank(q, n) for q in betti} == betti, n


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_unit_step_grids(least_r=2), st.randoms(use_true_random=False))
def test_persistence_of_scaled_columns_matches_the_plain_reduction_oracle(W, rng):
    # every boundary column times a nonzero integer in [-6, 6]: which earlier
    # columns span a column, and so every low over Q, stays the same, while
    # the entries are no longer units; _add leaves the columns as they were
    E = weight_grid_extend(W)
    _ids, weights, dims, boundary = _filtration(E)
    factors = [k for k in range(-6, 7) if k]
    columns = {}
    for j, col in enumerate(boundary):
        k = rng.choice(factors)
        columns[j] = {i: k * v for i, v in col.items()}
    before = {j: dict(col) for j, col in columns.items()}
    pairs, infinite = complexes._persistence_pairs(columns, dims)
    assert columns == before
    bars = {}
    for i, j in pairs:
        if weights[j] > weights[i]:
            bars.setdefault(dims[i], []).append((weights[i], weights[j] - 1))
    towers, unpaired = naive_persistence_towers(by_point(E, E.w0))
    assert {q: tuple(sorted(t)) for q, t in bars.items()} == towers
    assert [(dims[j], weights[j]) for j in infinite] == unpaired == [(0, E.min_w0)]


def _matching_as_cubes(E, critical, up):
    """The pairs of a cube matching, face -> coface, and its critical cubes -> weight.

    Cubes are (base, axes) pairs, as the oracles list them; the box points
    are enumerated here afresh.
    """
    points = list(itertools.product(*(range(b + 1) for b in E.box)))

    def cubes(bits, m):
        axes = tuple(a for a in range(E.r) if m >> a & 1)
        return [(points[p], axes) for p in range(bits.bit_length()) if bits >> p & 1]

    pairs = {}
    for k, by_mask in enumerate(up):
        a = k // 2
        for m, bits in enumerate(by_mask):
            for base, axes in cubes(bits, m):
                coface = tuple(x - (k % 2 and i == a) for i, x in enumerate(base))
                pairs[base, axes] = (coface, tuple(sorted((*axes, a))))
    crit = {c: n for n, U in enumerate(critical, E.min_w0) for m, bits in enumerate(U) for c in cubes(bits, m)}
    return pairs, crit


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_unit_step_grids(least_r=3, most_r=4))
@example(_step_grid(sum, [[1, 0], [1], [1, 0], [1, 0]]))  # towers up to degree 2
@example(_step_grid(sum, [[1, 0], [1, 0], [1, 1, 0], [1, 1, 0]]))  # towers up to degree 3
def test_three_and_four_branch_route_matches_the_oracles_on_unit_step_grids(W):
    # the cube matching pairs every cube at most once, each face with a
    # coface of its own weight, and no gradient path runs in a cycle; its
    # critical cubes give plain persistence's towers and, at every level, the
    # free ranks and torsion of the one-level route
    E = weight_grid_extend(W)
    w0 = by_point(E, E.w0)
    weight = dict(naive_box_cubes(w0))
    critical, up = complexes._morse_matching(
        E, list(complexes._cube_bases(E, complexes._sublevel_masks(E)))
    )
    pairs, crit = _matching_as_cubes(E, critical, up)
    matched = [*pairs, *pairs.values()]
    assert len(set(matched)) == len(matched) and not set(matched) & set(crit)
    assert set(matched) | set(crit) == set(weight)
    assert all(weight[c] == n for c, n in crit.items())
    faces = {t: [f for f, _sign in _cube_faces(*t)] for t in pairs.values()}
    assert all(weight[s] == weight[t] and s in faces[t] for s, t in pairs.items())
    # peel off the paired faces no gradient path enters, until none is left
    succ = {s: [f for f in faces[t] if f != s and f in pairs] for s, t in pairs.items()}
    entering = Counter(f for fs in succ.values() for f in fs)
    peeled = [s for s in pairs if not entering[s]]
    for s in peeled:  # grows while it is read
        for f in succ[s]:
            entering[f] -= 1
            if not entering[f]:
                peeled.append(f)
    assert len(peeled) == len(pairs), "gradient cycle"

    H = lattice_cohomology(W)
    towers, unpaired = naive_persistence_towers(w0)
    assert unpaired == [(0, E.min_w0)]
    assert {qc.q: qc.towers for qc in H.per_q if qc.towers} == towers
    weights, dims, columns = complexes._morse_complex(E, critical, up)
    for n in range(E.min_w0, max(E.w0) + 1):
        hq = cohomology(W, n)
        level = [cell for cell in columns.items() if weights[cell[0]] <= n]
        assert complexes._cohomology_of(level, dims, E.r) == {
            q: hq.get(q, (0, ())) for q in range(E.r + 1)
        }, n
        for qc in H.per_q:
            alive = sum(1 for m, t in qc.towers if m <= n <= t) + (qc.q == 0)
            assert hq.get(qc.q, (0, ()))[0] == alive, (qc.q, n)
        assert all(invs == H.torsion.get((q, n), ()) for q, (_f, invs) in hq.items() if n <= 1)


def test_euler_delta_identity():
    for branches in (CURVE_FIVE_COORD, CURVE_SIX_COORD, NODE):
        P = curve(branches)
        W = hilbert_from_parametrization(P)
        report = euler_delta_check(W, P)
        assert report.equal
        assert bool(report)
        assert report.euler == report.delta == W.delta


def test_euler_delta_arity_mismatch():
    W = hilbert_from_parametrization(curve(NODE))
    with pytest.raises(InputError):
        euler_delta_check(W, monomial_branch([2, 3]))


# ---------------------------------------------------------------------------
# the pair family

def test_pair_family_smallest_member():
    first, second = pair_family(2)
    Wf = hilbert_from_parametrization(first)
    Ws = hilbert_from_parametrization(second)
    cf, cs = PAIR_FAMILY_CONDUCTORS[2]
    assert Wf.conductor == cf
    assert Ws.conductor == cs
    assert Wf.delta == Ws.delta == PAIR_FAMILY_DELTA[2]
    Hf = lattice_cohomology(Wf)
    Hs = lattice_cohomology(Ws)
    assert Hf.module == Hs.module
    assert roots_isomorphic(Hf.root, Hs.root)
    assert euler_delta_check(Wf, first).equal
    assert euler_delta_check(Ws, second).equal


def test_pair_family_roots_differ_across_n():
    (f2, _), (f3, _) = pair_family(2), pair_family(3)
    R2 = lattice_cohomology(hilbert_from_parametrization(f2)).root
    R3 = lattice_cohomology(hilbert_from_parametrization(f3)).root
    assert not roots_isomorphic(R2, R3)


# ---------------------------------------------------------------------------
# three branches: the coordinate-axes triple point

def test_three_branch_triple_point():
    axes3 = [
        [[(1, 1)], [], []],
        [[], [(1, 1)], []],
        [[], [], [(1, 1)]],
    ]
    P = curve(axes3)
    W = hilbert_from_parametrization(P)
    assert W.conductor == (1, 1, 1)
    assert W.delta == 2
    H = lattice_cohomology(W)
    assert euler_delta_check(W, P).equal
    # the three axes pinch at one point: a single finite tower at level 0
    # carries the whole gap count, and higher cohomology is trivial
    assert H.module == TowerModule(-1, ((0, 0),))
    assert all(not qc.towers for qc in H.per_q[1:])
    frac = [[[(Fraction(c), e) for c, e in coord] for coord in br] for br in axes3]
    naive, h = naive_hilbert_grid(frac, [6, 6, 6], W.box), by_point(W, W.h)
    for point, value in naive.items():
        assert h[point] == value, point


def test_smallest_three_branch_random_grid_matches_dense_rational_oracle():
    batch = [b for b in random_space_curves(ORACLE_SEED, 20) if len(b) == 3]
    grids = [(b, hilbert_from_parametrization(curve(b))) for b in batch]
    branches, W = min(grids, key=lambda item: len(item[1].h))
    assert W.r == 3
    frac = [[[(Fraction(c), e) for c, e in coord] for coord in br] for br in branches]
    # a window past the conductor cuts off only t^n of the normalization,
    # which lies in the local ring, so the dense span is exact there
    bounds = [c + 4 for c in W.conductor]
    assert naive_hilbert_grid(frac, bounds, W.box) == by_point(W, W.h), W.conductor


def test_four_branch_grid_matches_dense_rational_oracle():
    # four branches reach the threshold sweep's projections two axes deep
    W = hilbert_from_parametrization(curve(FOUR_BRANCH))
    assert W.conductor == (4, 4, 4, 4)
    frac = [[[(Fraction(c), e) for c, e in coord] for coord in br] for br in FOUR_BRANCH]
    bounds = [c + 4 for c in W.conductor]
    assert naive_hilbert_grid(frac, bounds, W.box) == by_point(W, W.h)


def test_five_branch_grid_matches_dense_rational_oracle():
    # five lines in 3-space reach the threshold sweep's projections three axes deep
    branches = [
        [[(1, 1)], [], []],
        [[], [(1, 1)], []],
        [[], [], [(1, 1)]],
        [[(1, 1)], [(1, 1)], []],
        [[(1, 1)], [(2, 1)], [(3, 1)]],
    ]
    W = hilbert_from_parametrization(curve(branches))
    assert W.conductor == (2, 2, 2, 2, 2)
    assert len(W.h) == 1024
    frac = [[[(Fraction(c), e) for c, e in coord] for coord in br] for br in branches]
    bounds = [c + 4 for c in W.conductor]
    assert naive_hilbert_grid(frac, bounds, W.box) == by_point(W, W.h)
