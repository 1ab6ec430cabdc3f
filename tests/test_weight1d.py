"""Weight sequences: direct counting, steps, symmetry, components, minima."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcoh import (
    check_gorenstein_symmetry,
    enumerate_plane_branch_semigroups,
    from_generators,
    from_members,
    min_w0,
    weight_sequence,
)
from oracles import naive_components, naive_local_minima, naive_weight_values


def test_known_weight_values():
    W = weight_sequence(from_generators([11, 14]))
    assert W.conductor == 130
    assert W[55] == -27
    assert W[58] == -26
    assert min_w0(W) == -28
    assert min_w0(weight_sequence(from_generators([4, 11]))) == -5
    assert min_w0(weight_sequence(from_generators([6, 15, 31]))) == -14
    assert min_w0(weight_sequence(from_generators([6, 10, 31]))) == -8


def test_weight_of_whole_naturals():
    W = weight_sequence(from_generators([1]))
    assert W.values == (0,)
    assert W[0] == 0
    assert W[5] == 5  # pure ascent past the conductor


def test_extension_past_conductor():
    W = weight_sequence(from_generators([4, 11]))
    assert W[W.conductor + 7] == W[W.conductor] + 7


@pytest.mark.parametrize("gens", [(2, 3), (4, 11), (6, 10, 31), (3, 4, 5), (5, 7, 9)])
def test_matches_naive_counting(gens):
    S = from_generators(gens)
    W = weight_sequence(S)
    mem = [x in S for x in range(S.conductor + 1)]
    assert list(W.values) == naive_weight_values(mem, S.conductor)


def test_endpoint_identities():
    for gens in [(2, 3), (4, 11), (6, 15, 31), (11, 14)]:
        S = from_generators(gens)
        W = weight_sequence(S)
        assert W[0] == 0
        assert W[S.conductor] == S.conductor - 2 * S.delta


def test_unit_steps_everywhere():
    for S in enumerate_plane_branch_semigroups(60):
        W = weight_sequence(S)
        for l in range(S.conductor):
            assert abs(W[l + 1] - W[l]) == 1


def test_symmetry_detector():
    assert check_gorenstein_symmetry(weight_sequence(from_generators([4, 11])))
    assert check_gorenstein_symmetry(weight_sequence(from_generators([6, 10, 31])))
    assert not check_gorenstein_symmetry(weight_sequence(from_generators([5, 7, 9])))
    assert not check_gorenstein_symmetry(weight_sequence(from_generators([3, 4, 5])))


def test_members_have_nonpositive_weight():
    for gens in [(2, 3), (4, 11), (6, 10, 31), (11, 14)]:
        S = from_generators(gens)
        W = weight_sequence(S)
        for s in range(S.conductor + 1):
            if s in S:
                assert W[s] <= 0


def test_sublevel_below_minimum_is_empty_and_top_is_single():
    for gens in [(2, 7), (6, 15, 31)]:
        W = weight_sequence(from_generators(gens))
        vals = list(W.values)
        assert naive_components(vals, min_w0(W) - 1) == []
        assert len(naive_components(vals, max(vals))) == 1


def test_strict_valleys_are_zero_and_the_members_after_a_gap():
    """The walk's strict valleys, read off its shape (past the conductor
    through ``W[c + 1]``) and by the oracle, are exactly 0 and the members
    that follow a gap."""
    W = weight_sequence(from_generators([2, 7]))
    # values walk 0 1 0 1 0 1 0: valleys at the interior dips and both ends
    assert naive_local_minima(list(W.values)) == [(0, 0), (2, 0), (4, 0), (6, 0)]
    assert naive_local_minima(list(weight_sequence(from_generators([1])).values)) == [(0, 0)]
    for gens in [(4, 11), (6, 10, 31), (5, 7, 9)]:
        S = from_generators(gens)
        W = weight_sequence(S)
        by_membership = [
            l for l in range(W.conductor + 1) if l in S and (l == 0 or (l - 1) not in S)
        ]
        by_shape = [
            l
            for l in range(W.conductor + 1)
            if (l == 0 or W[l - 1] > W[l]) and W[l + 1] > W[l]
        ]
        assert by_shape == by_membership, gens
        assert [p for p, _v in naive_local_minima(list(W.values))] == by_membership, gens


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=25), min_size=0, max_size=10))
def test_weight_walk_on_arbitrary_cofinite_sets(extra):
    """The weight recursion holds for any cofinite set, closed or not."""
    conductor = 26
    members = sorted({0} | extra)
    T = from_members(members, conductor, verify_closed=False)
    W = weight_sequence(T)
    mem = [x in T for x in range(T.conductor + 1)]
    assert list(W.values) == naive_weight_values(mem, T.conductor)


def test_window_of_multiplicity_size_sees_the_running_max():
    """On [l, delta] the maximal weight is already attained within the first
    multiplicity-many positions, for every enumerated semigroup."""
    for S in enumerate_plane_branch_semigroups(200):
        vals = weight_sequence(S).values
        m = S.multiplicity
        d = S.delta
        suffix = list(vals[: d + 1])
        for i in range(d - 1, -1, -1):
            suffix[i] = max(suffix[i], suffix[i + 1])
        for l in range(d + 1):
            hi = min(l + m - 1, d)
            assert max(vals[l : hi + 1]) == suffix[l], (S.min_gens, l)


def test_bounded_multi_point_components_reach_the_level_below():
    """A bounded component of a sublevel set spanning more than one point
    contains a position of strictly smaller weight."""
    for S in enumerate_plane_branch_semigroups(120):
        W = weight_sequence(S)
        vals = W.values
        top = max(1, max(vals))
        for n in range(min(vals), top + 1):
            for start, end in naive_components(list(vals), n):
                unbounded = end == S.conductor and vals[end] <= n
                if unbounded or end == start:
                    continue
                assert any(
                    vals[p] <= n - 1 for p in range(start, end + 1)
                ), (S.min_gens, n, start, end)
