"""Hilbert grids, weight grids, sublevel complexes, and graded cohomology."""
import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from latcoh import (
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
from latcoh.multibranch import complexes, hilbert
from oracles import (
    frac_rank,
    naive_betti,
    naive_grid_root,
    naive_hilbert_grid,
    naive_hilbert_values,
    naive_invariant_factors,
    naive_persistence_towers,
    naive_series,
    naive_sublevel_cubes,
)


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
    assert P.coordinate_order(0, 4) == 5
    assert P.coordinate_order(1, 4) == 6


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
    # window of 1065 orders, below the ceiling
    P = curve([[[(1, 2)], [(1, 3)]], [[(4, 2)], [(8, 3)]]])
    with pytest.raises(ValidationError, match="truncation not stabilized"):
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

def collect_cubes(K):
    return {q: [(c.base, c.axes) for c in K.cubes.get(q, ())] for q in K.cubes}


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
        K = sublevel_complex(W, n)
        betti = naive_betti(collect_cubes(K), 2)
        assert betti[0] == b0, (n, betti)
        assert betti[1] == b1, (n, betti)
        lib = cohomology(K)
        assert lib[0] == (b0, ())
        assert lib.get(1, (0, ()))[0] == b1
        assert all(not tors for _free, tors in lib.values())


def test_sublevel_complex_is_closed_under_faces():
    W = hilbert_from_parametrization(curve(CURVE_FIVE_COORD))
    K = sublevel_complex(W, 0)
    everything = set()
    for cubes in K.cubes.values():
        everything.update(cubes)
    for cube in everything:
        for face, _sign in cube.faces():
            assert face in everything
    assert K.cube_count() == sum(len(v) for v in K.cubes.values())


def test_sublevel_complexes_are_contractible_at_positive_levels():
    for branches in (CURVE_FIVE_COORD, CURVE_SIX_COORD, NODE):
        W = hilbert_from_parametrization(curve(branches))
        top = max(W.w0)
        for n in range(1, top + 1):
            betti = naive_betti(collect_cubes(sublevel_complex(W, n)), 2)
            assert betti[0] == 1 and betti[1] == 0 and betti[2] == 0


def test_sublevel_complex_matches_vertex_max_enumeration():
    parametrizations = [curve(CURVE_FIVE_COORD), curve(NODE), pair_family(2)[1]]
    parametrizations.append(curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(2, 1)]]]))
    for P in parametrizations:
        W = weight_grid_extend(hilbert_from_parametrization(P))
        for n in range(W.min_w0 - 1, max(W.w0) + 1):
            naive = naive_sublevel_cubes(by_point(W, W.w0), n)
            assert collect_cubes(sublevel_complex(W, n)) == naive, (W.conductor, n)


def test_empty_sublevel_below_minimum():
    W = hilbert_from_parametrization(curve(CURVE_FIVE_COORD))
    K = sublevel_complex(W, W.min_w0 - 1)
    assert K.cube_count() == 0


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


def test_persistence_towers_match_the_plain_reduction_oracle():
    parametrizations = [P for n in (2, 3) for P in pair_family(n)]
    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    parametrizations += [triple_point, curve(CURVE_SIX_COORD)]
    parametrizations += [curve(b) for b in random_space_curves(ORACLE_SEED, 20)]
    for P in parametrizations:
        W = weight_grid_extend(hilbert_from_parametrization(P))
        towers, unpaired = naive_persistence_towers(by_point(W, W.w0))
        H = lattice_cohomology(W)
        assert unpaired == [(0, W.min_w0)], W.conductor
        assert max(towers, default=0) < W.r
        for qc in H.per_q:
            assert qc.towers == towers.get(qc.q, ()), (W.conductor, qc.q)


def test_snf_levels_are_recorded():
    # small two-branch grids and every three-branch grid are checked by SNF
    for P in (curve(CURVE_SIX_COORD), curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])):
        H = lattice_cohomology(hilbert_from_parametrization(P))
        assert H.snf_levels == tuple(range(H.min_w0, 2))
    # 30 x 30 points, 3481 cubes: over the limit, so only the Euler check runs
    W = hilbert_from_parametrization(pair_family(4)[0])
    assert W.box == (29, 29)
    assert lattice_cohomology(W).snf_levels == ()


def test_snf_levels_match_the_cube_route():
    parametrizations = [P for n in (2, 3) for P in pair_family(n)]
    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    parametrizations += [triple_point, curve(CURVE_SIX_COORD)]
    parametrizations += [curve(b) for b in random_space_curves(ORACLE_SEED, 20)]
    for P in parametrizations:
        W = hilbert_from_parametrization(P)
        H = lattice_cohomology(W)
        assert H.snf_levels, W.conductor
        for n in H.snf_levels:
            hq = cohomology(sublevel_complex(W, n))
            for q in range(W.r + 1):
                free, invs = hq.get(q, (0, ()))
                assert free == H.rank(q, n), (W.conductor, q, n)
                assert invs == H.torsion.get((q, n), ()), (W.conductor, q, n)


def test_cube_route_ranks_match_the_naive_betti_numbers():
    # the cube route shares the pair reduction with lattice_cohomology, so its
    # free ranks are anchored to an oracle that imports no library code
    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    parametrizations = [triple_point, curve(CURVE_SIX_COORD), *pair_family(2)]
    parametrizations += [curve(b) for b in random_space_curves(ORACLE_SEED, 20)[:5]]
    for P in parametrizations:
        W = weight_grid_extend(hilbert_from_parametrization(P))
        for n in range(W.min_w0, max(W.w0) + 1):
            hq = cohomology(sublevel_complex(W, n))
            betti = naive_betti(naive_sublevel_cubes(by_point(W, W.w0), n), W.r)
            assert {q: hq.get(q, (0, ()))[0] for q in betti} == betti, (W.conductor, n)


def test_face_sorted_after_its_cube_trips_the_snf_check(monkeypatch):
    real_init = complexes._Filtration.__init__

    def misordered(filt, grid):
        # swap the first edge with one of its vertices of the same weight:
        # every level is the same set of cubes, but one face now sorts last
        real_init(filt, grid)
        j = filt.dims.index(1)
        i = next(i for i in filt.boundary(j) if filt.weights[i] == filt.weights[j])
        for seq in (filt.ids, filt.dims):
            seq[i], seq[j] = seq[j], seq[i]
        filt.pos[filt.ids[i]], filt.pos[filt.ids[j]] = i, j

    W = hilbert_from_parametrization(curve(CURVE_SIX_COORD))
    assert lattice_cohomology(W).snf_levels
    monkeypatch.setattr(complexes._Filtration, "__init__", misordered)
    with pytest.raises(ValidationError, match="a face sorts after its cube"):
        lattice_cohomology(W)


def test_pair_reduction_leaves_one_cell_pair_per_bar_and_the_everlasting_class():
    # equal-weight unit pairs remove every cube but one birth and one death
    # per bar of positive length, and the vertex of the everlasting class
    parametrizations = [P for n in (2, 3) for P in pair_family(n)]
    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    parametrizations += [triple_point, curve(CURVE_SIX_COORD)]
    parametrizations += [curve(b) for b in random_space_curves(ORACLE_SEED, 20)]
    for P in parametrizations:
        grid = weight_grid_extend(hilbert_from_parametrization(P))
        filt = complexes._Filtration(grid)
        pairs, _ = complexes._persistence_pairs(filt)
        bars = sum(1 for i, j in pairs if filt.weights[j] > filt.weights[i])
        boundary = [filt.boundary(j) for j in range(len(filt.ids))]
        cells = complexes._reduce_equal_weight_pairs(boundary, filt.weights)
        assert len(cells) == 2 * bars + 1, grid.conductor


def test_persistence_on_read_boundaries_leaves_them_as_read():
    # lattice_cohomology hands persistence the boundaries that the SNF check
    # reduces next; every column must be copied before it is reduced
    for P in (curve(CURVE_SIX_COORD), *pair_family(3)):
        filt = complexes._Filtration(weight_grid_extend(hilbert_from_parametrization(P)))
        boundary = [filt.boundary(j) for j in range(len(filt.ids))]
        assert complexes._persistence_pairs(filt, boundary) == complexes._persistence_pairs(filt)
        assert boundary == [filt.boundary(j) for j in range(len(filt.ids))]


def test_pair_across_weights_trips_the_snf_rank_check(monkeypatch):
    real = complexes._reduce_equal_weight_pairs

    def forged(boundary, weights):
        # the first edge heavier than one of its vertices may pair with it, so
        # that vertex leaves the levels below the edge's weight
        j, i = next(
            (j, i)
            for j, faces in enumerate(boundary)
            if len(faces) == 2
            for i in faces
            if weights[i] < weights[j]
        )
        weights = list(weights)
        weights[j] = weights[i]
        return real(boundary, weights)

    triple_point = curve([[[(1, 1)], [], []], [[], [(1, 1)], []], [[], [], [(1, 1)]]])
    for P in (curve(CURVE_SIX_COORD), triple_point):
        W = hilbert_from_parametrization(P)
        assert lattice_cohomology(W).snf_levels
        with monkeypatch.context() as m:
            m.setattr(complexes, "_reduce_equal_weight_pairs", forged)
            with pytest.raises(ValidationError, match="rank at degree 0"):
                lattice_cohomology(W)


def test_forged_tower_trips_the_level_euler_check(monkeypatch):
    real = complexes._persistence_pairs

    def forged(filt, boundary=None):
        # one degree-1 pair that dies at once now lives until the last cube
        pairs, infinite = real(filt, boundary)
        k = next(
            k for k, (i, j) in enumerate(pairs)
            if filt.dims[i] == 1 and filt.weights[i] == filt.weights[j] <= 1
        )
        pairs[k] = (pairs[k][0], len(filt.ids) - 1)
        return pairs, infinite

    W = hilbert_from_parametrization(pair_family(4)[0])
    assert lattice_cohomology(W).per_q[1].towers == ()
    monkeypatch.setattr(complexes, "_persistence_pairs", forged)
    with pytest.raises(ValidationError, match="Euler characteristic at level"):
        lattice_cohomology(W)


class _StubFiltration:
    """Three vertices 0, 1, 2 and two edges 3, 4 whose columns are not unimodular."""

    r = 1
    dims = [0, 0, 0, 1, 1]

    def boundary(self, j):
        return {3: {0: 1, 1: 2}, 4: {0: 1, 1: 3}}[j]


def test_persistence_scales_a_column_the_pivot_does_not_divide():
    # column 3 owns row 1 with pivot 2; column 4 has 3 there, so it is
    # doubled, loses 3 times column 3 and ends as {0: -1}: over Q,
    # col4 - 3/2 col3 = {0: -1/2}
    pairs, infinite = complexes._persistence_pairs(_StubFiltration())
    assert pairs == [(1, 3), (0, 4)]
    assert infinite == [2]


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
    cells = complexes._reduce_equal_weight_pairs([{}, {}, {1: 2}], [0, 0, 0])
    assert cells == [(0, {}), (1, {}), (2, {1: 2})]
    hq = complexes._cohomology_of(cells, [0, 1, 2], 2)
    assert hq == {0: (1, ()), 1: (0, ()), 2: (0, (2,))}


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
    branches = [
        [[(1, 2)], [(1, 3)], [], []],
        [[], [(1, 2)], [(1, 3)], []],
        [[], [], [(1, 2)], [(2, 3)]],
        [[(3, 3)], [], [], [(1, 2)]],
    ]
    W = hilbert_from_parametrization(curve(branches))
    assert W.conductor == (4, 4, 4, 4)
    frac = [[[(Fraction(c), e) for c, e in coord] for coord in br] for br in branches]
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
