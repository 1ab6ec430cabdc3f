"""Acceptance gate: eleven end-to-end criteria with wall-clock budgets, plus
a timed round trip at conductor 40400 that holds the one-branch pipeline to
near-linear time, timed Hilbert grids for twenty random space curves
that hold the truncation window to the certified one, and a timed lattice
cohomology of a 146k-cube grid that holds the cube filtration and its
persistence reduction to near-linear time.

Each test prints one pass/fail line under `pytest -v`.  Expected values are
the frozen hand-checked references from fixtures.py; time budgets are the
contractual bounds, not aspirations.
"""
import time
from collections import Counter

from latcoh import (
    check_gorenstein_symmetry,
    compute_e,
    conjecture_sweep,
    detect_lg1_equals_2,
    enumerate_plane_branch_semigroups,
    euler_delta_check,
    from_generators,
    from_members,
    gcd_chain,
    hilbert_from_parametrization,
    initial_part,
    lattice_cohomology,
    min_w0,
    module_from_root,
    multiplicity_from_module,
    reconstruct_semigroup,
    root_from_weight,
    roots_isomorphic,
    series,
    weight_sequence,
)
from latcoh.formats import weights_tsv
from fixtures import (
    CURVE_FIVE_COORD,
    CURVE_SIX_COORD,
    ORACLE_SEED,
    PAIR_FAMILY_DELTA,
    SPRIME_CONDUCTOR,
    SPRIME_MEMBERS,
    TABLE_FIVE_COORD,
    TABLE_SIX_COORD,
    by_point,
    curve,
    monomial_branch,
    pair_family,
    random_space_curves,
)
from oracles import naive_components, naive_local_minima


def _timed(budget_seconds):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < budget_seconds, "took %.2fs, budget %ss" % (elapsed, budget_seconds)

    return check


def test_criterion_01_conductor_and_initial_level():
    done = _timed(1.0)
    S = from_generators([6, 15, 31])
    assert S.conductor == 72
    M = module_from_root(root_from_weight(weight_sequence(S)))
    assert compute_e(M) == -12
    done()


def test_criterion_02_delta_and_initial_elements():
    done = _timed(1.0)
    S = from_generators([6, 10, 31])
    part = initial_part(module_from_root(root_from_weight(weight_sequence(S))))
    assert part.delta == 23
    assert part.elements == (0, 6, 10, 12, 16, 18, 20, 22)
    done()


def test_criterion_03_lookalike_cofinite_set_shares_the_invariant():
    done = _timed(1.0)
    S = from_generators([4, 11])
    T = from_members(SPRIME_MEMBERS, SPRIME_CONDUCTOR, verify_closed=False)
    RS = root_from_weight(weight_sequence(S))
    RT = root_from_weight(weight_sequence(T))
    assert roots_isomorphic(RS, RT)
    MS = module_from_root(RS)
    MT = module_from_root(RT)
    assert MS == MT
    assert initial_part(MS).elements == (0, 4)
    done()


def test_criterion_04_two_generator_weight_values():
    done = _timed(1.0)
    S = from_generators([11, 14])
    assert S.conductor == 130
    W = weight_sequence(S)
    assert W.values[55] == -27
    assert W.values[58] == -26
    done()


def test_criterion_05_round_trip_every_plane_branch_up_to_120():
    done = _timed(60.0)
    count = 0
    for S in enumerate_plane_branch_semigroups(120):
        M = module_from_root(root_from_weight(weight_sequence(S)))
        assert reconstruct_semigroup(M) == S, S.min_gens
        count += 1
    assert count == 757
    done()


def test_criterion_06_parametrized_branch_matches_semigroup_weights():
    done = _timed(10.0)
    P = curve([[[(1, 6)], [(1, 15), (1, 16)]]])
    W = hilbert_from_parametrization(P)
    S = from_generators([6, 15, 31])
    expected = weight_sequence(S)
    got = W.to_weight_sequence()
    assert got.values == expected.values
    assert got.conductor == expected.conductor
    assert weights_tsv(W) == weights_tsv(expected)
    done()


def test_criterion_07_same_series_different_weight_tables():
    done = _timed(30.0)
    WA = hilbert_from_parametrization(curve(CURVE_FIVE_COORD))
    WB = hilbert_from_parametrization(curve(CURVE_SIX_COORD))
    assert WA.conductor == WB.conductor == (4, 4)
    # both numerators collapse to 1 + t1^3 t2^3
    for W in (WA, WB):
        sd = series(W)
        assert sd.coefficients == {(0, 0): 1, (3, 3): 1}
        assert sd.tail == "zero"
    # weight tables match the hand-computed references entry for entry
    for table, W in ((TABLE_FIVE_COORD, WA), (TABLE_SIX_COORD, WB)):
        w0 = by_point(W, W.w0)
        for l2 in range(6):
            for l1 in range(6):
                assert w0[(l1, l2)] == table[5 - l2][l1], (l1, l2)
    assert min(WA.w0) == -2
    assert min(WB.w0) == -4
    MA = lattice_cohomology(WA).module
    MB = lattice_cohomology(WB).module
    # rank profiles differ, compared over one common range of levels
    levels = range(min(MA.base, MB.base), 2)
    assert [(MA.rank(n), MA.kernel_rank(n)) for n in levels] != [
        (MB.rank(n), MB.kernel_rank(n)) for n in levels
    ]
    done()


def test_criterion_08_euler_characteristic_equals_delta():
    done = _timed(300.0)
    # one-branch: straight from the module, every plane branch up to 120
    for S in enumerate_plane_branch_semigroups(120):
        M = module_from_root(root_from_weight(weight_sequence(S)))
        euler = -M.base + sum(t - m + 1 for m, t in M.towers)
        assert euler == S.delta, S.min_gens
    # one-branch again through the full grid pipeline, up to 40
    for S in enumerate_plane_branch_semigroups(40):
        P = monomial_branch(list(S.min_gens))
        report = euler_delta_check(hilbert_from_parametrization(P), P)
        assert bool(report), S.min_gens
        assert report.euler == S.delta
    # two-branch space curves
    for data, delta in ((CURVE_FIVE_COORD, 4), (CURVE_SIX_COORD, 6)):
        P = curve(data)
        W = hilbert_from_parametrization(P)
        report = euler_delta_check(W, P)
        assert bool(report)
        assert report.euler == report.delta == delta
    # the two-branch pair family
    for n in (2, 3, 4):
        for P in pair_family(n):
            W = hilbert_from_parametrization(P)
            report = euler_delta_check(W, P)
            assert bool(report), n
            assert report.euler == PAIR_FAMILY_DELTA[n]
    done()


def test_criterion_09_pair_family_roots_isomorphic_with_recomputation_oracle():
    done = _timed(120.0)
    for n in (2, 3, 4, 5):
        A, B = pair_family(n)
        WA = hilbert_from_parametrization(A)
        WB = hilbert_from_parametrization(B)
        assert WA.delta == WB.delta == PAIR_FAMILY_DELTA[n]
        HA = lattice_cohomology(WA)
        HB = lattice_cohomology(WB)
        assert roots_isomorphic(HA.root, HB.root), n
        assert HA.module == HB.module, n
        # oracle: recompute at an explicit truncation bound and at twice
        # that bound; all three runs must agree on the stabilized grid
        for P, W in ((A, WA), (B, WB)):
            bound = 2 * max(W.conductor) + 10
            W1 = hilbert_from_parametrization(P, degree_bound=bound)
            W2 = hilbert_from_parametrization(P, degree_bound=2 * bound)
            assert W1.conductor == W.conductor == W2.conductor, n
            assert W1.h == W.h == W2.h, n
    done()


def test_criterion_10_property_suites_up_to_200():
    done = _timed(300.0)
    count = 0
    for S in enumerate_plane_branch_semigroups(200):
        W = weight_sequence(S)
        vals = W.values
        c = S.conductor
        # consecutive weights differ by exactly one
        assert all(abs(vals[i + 1] - vals[i]) == 1 for i in range(c))
        # weights are symmetric about the half-conductor
        assert check_gorenstein_symmetry(W)
        # members never weigh positively below the conductor
        assert all(vals[s] <= 0 for s in S.members_below_conductor())
        R = root_from_weight(W)
        M = module_from_root(R)
        # zero sits in the initial segment: the initial level is never positive
        assert compute_e(M) <= 0
        # every positive sublevel set is connected
        for n in range(1, R.truncation_level + 1):
            assert len(naive_components(list(vals), n)) == 1
        # kernel ranks count the strict local minima, level by level
        per_level = Counter(v for _, v in naive_local_minima(list(vals)))
        for n in range(M.base, R.truncation_level + 1):
            assert M.kernel_rank(n) == per_level.get(n, 0), (S.min_gens, n)
        # multiplicity and delta are recovered from the module alone
        assert multiplicity_from_module(M) == S.multiplicity
        assert initial_part(M).delta == S.delta
        # detector for a final gcd step of two agrees with the chain
        chain = gcd_chain(S.min_gens)
        truth = True if S.min_gens == (1,) else (
            len(chain.l) >= 2 and chain.l[-2] == 2
        )
        assert detect_lg1_equals_2(M) == truth, S.min_gens
        count += 1
    assert count == 2778
    done()


def test_criterion_11_module_collision_sweep_reports_findings():
    done = _timed(600.0)
    report = conjecture_sweep(120)
    assert report.max_conductor == 120
    assert report.tested == 757
    # collisions are findings to surface, not failures
    for a, b in report.hits:
        print("finding: equal modules, non-isomorphic roots: %s vs %s" % (a, b))
    assert isinstance(report.hits, tuple)
    done()


def test_large_branch_round_trip_within_budget():
    # conductor 40400: a root rebuilt level by level needs about half a minute
    done = _timed(5.0)
    S = from_generators([201, 203])
    assert S.conductor == 40400
    M = module_from_root(root_from_weight(weight_sequence(S)))
    assert reconstruct_semigroup(M).min_gens == (201, 203)
    done()


def test_random_space_curve_grids_within_budget():
    # on a shared 2-core VM: 90 s when a grid needed two agreeing doubled
    # windows, about 0.1 s with the certified window
    curves = [curve(branches) for branches in random_space_curves(ORACLE_SEED, 20)]
    done = _timed(1.5)
    for P in curves:
        W = hilbert_from_parametrization(P)
        assert len(W.conductor) == P.r and W.is_extended
    done()


def test_large_grid_cohomology_within_budget():
    # pair_family(10), first member: 191 x 191 points, 146k cubes.  On a
    # shared 2-core VM: 11.6 s with Cube objects and bitmask columns, about
    # 0.8 s with integer cube ids and clearing
    W = hilbert_from_parametrization(pair_family(10)[0])
    done = _timed(4.0)
    H = lattice_cohomology(W)
    assert H.min_w0 == W.min_w0 and H.snf_levels == ()
    lengths = [sum(t - m + 1 for m, t in qc.towers) for qc in H.per_q]
    assert -H.min_w0 + lengths[0] - lengths[1] == W.delta
    done()
