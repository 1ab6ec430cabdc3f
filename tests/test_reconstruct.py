"""Inverting the semigroup -> module pipeline, and rejecting impostors."""
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcoh import (
    InputError,
    TowerModule,
    ValidationError,
    compute_e,
    detect_lg1_equals_2,
    enumerate_plane_branch_semigroups,
    from_generators,
    from_members,
    gcd_chain,
    initial_part,
    module_from_root,
    module_from_weight,
    multiplicity_from_module,
    reconstruct_semigroup,
    root_from_weight,
    weight_sequence,
)
from fixtures import SPRIME_CONDUCTOR, SPRIME_MEMBERS
from oracles import (
    naive_components,
    naive_initial_elements,
    naive_minimal_generators,
    naive_weight_values,
)


def module_of(S):
    return module_from_root(root_from_weight(weight_sequence(S)))


KNOWN_INITIAL = {
    (1,): (0, (0,)),
    (2, 3): (0, (0,)),
    (2, 7): (0, (0, 2)),
    (3, 4): (-1, (0, 3)),
    (4, 5): (0, (0,)),
    (4, 11): (-3, (0, 4)),
    (6, 10, 31): (-8, (0, 6, 10, 12, 16, 18, 20, 22)),
    (6, 15, 31): (-12, (0, 6, 12, 15, 18, 21, 24)),
    (11, 14): (-25, None),  # elements checked structurally below
}


@pytest.mark.parametrize("gens,expect", sorted(KNOWN_INITIAL.items()))
def test_initial_level_and_elements(gens, expect):
    S = from_generators(gens)
    M = module_of(S)
    e, elements = expect
    ip = initial_part(M)
    assert compute_e(M) == e
    assert ip.e == e
    if elements is not None:
        assert ip.elements == elements
    # the initial elements are semigroup members up to delta, starting at 0
    assert all(x in S for x in ip.elements)
    assert ip.elements[0] == 0
    assert all(x <= S.delta for x in ip.elements[1:])
    assert ip.delta == S.delta
    assert ip.min_w0 == M.base


def test_initial_part_from_root_agrees():
    # the rank route on the module against vertex counts on a naive root
    sets = list(enumerate_plane_branch_semigroups(120))
    sets.append(from_members(SPRIME_MEMBERS, SPRIME_CONDUCTOR, verify_closed=False))
    assert len(sets) == 758
    for S in sets:
        mem = [x in S for x in range(S.conductor + 1)]
        values = naive_weight_values(mem, S.conductor)
        M = module_from_weight(weight_sequence(S))
        assert initial_part(M).elements == naive_initial_elements(values), S


def test_module_below_the_conductor_ceiling_is_rejected_at_once():
    # a branch module has base level min w0 >= 2 - c; reading the levels of
    # this one from its base up would take seconds and gigabytes
    M = TowerModule(-10**7, ())
    start = time.monotonic()
    for call in (reconstruct_semigroup, initial_part):
        with pytest.raises(InputError, match="^module base level -10000000 is below -2000000"):
            call(M)
    assert time.monotonic() - start < 0.1


def test_initial_part_of_unclosed_lookalike():
    T = from_members(SPRIME_MEMBERS, SPRIME_CONDUCTOR, verify_closed=False)
    M = module_of(T)
    ip = initial_part(M)
    assert ip.e == -3
    assert ip.elements == (0, 4)
    assert ip.delta == 15


def test_multiplicity_from_module():
    for gens in [(1,), (2, 3), (2, 7), (3, 4), (4, 11), (6, 10, 31), (11, 14)]:
        S = from_generators(gens)
        assert multiplicity_from_module(module_of(S)) == S.multiplicity


@st.composite
def tower_modules(draw):
    base = draw(st.integers(-12, 2))
    starts = draw(st.lists(st.integers(base - 2, 2), max_size=8))
    towers = sorted((m, m + draw(st.integers(0, 4))) for m in starts)
    return TowerModule(base, tuple(towers))


@settings(max_examples=300, deadline=None)
@given(tower_modules())
def test_multiplicity_from_tower_starts_matches_the_rank_profile_rule(M):
    if M.base > 0:
        with pytest.raises(ValidationError):
            multiplicity_from_module(M)
        return
    # the kernel-rank rule it replaces: the shallowest level below 0 with a
    # kernel element sits at 2 - m
    if M.base == 0:
        expected = 1 if M.rank(0) == 1 else 2
    else:
        expected = 2 - max(n for n in range(M.base, 0) if M.kernel_rank(n) > 0)
    assert multiplicity_from_module(M) == expected


def _lg1_by_rank_profile(M):
    # the rule the tower reading replaces: even base and rank 1 at every odd
    # level strictly between base and 0
    if M.base % 2 != 0:
        return False
    return all(M.rank(n) == 1 for n in range(M.base + 1, 0) if n % 2 != 0)


@settings(max_examples=300, deadline=None)
@given(tower_modules())
def test_last_gcd_two_detector_matches_the_rank_profile_rule_on_any_module(M):
    assert detect_lg1_equals_2(M) == _lg1_by_rank_profile(M)


def test_last_gcd_two_detector_matches_the_rank_profile_rule():
    plane = enumerate_plane_branch_semigroups(200)
    modules = [module_from_weight(weight_sequence(S)) for S in plane]
    assert len(modules) == 2778
    for gaps, _gens in _genus_walk(len(SEMIGROUPS_BY_GENUS) - 1):
        c = max(gaps) + 1 if gaps else 0
        S = from_members([x for x in range(c) if x not in gaps], c)
        modules.append(module_from_weight(weight_sequence(S)))
    assert len(modules) == 2778 + sum(SEMIGROUPS_BY_GENUS)
    for M in modules:
        assert detect_lg1_equals_2(M) == _lg1_by_rank_profile(M), M


def test_last_gcd_two_detector_matches_chain():
    for S in enumerate_plane_branch_semigroups(80):
        if S.min_gens == (1,):
            truth = True  # vacuously: there is no proper gcd step to fail
        else:
            truth = gcd_chain(S.min_gens).l[-2] == 2
        assert detect_lg1_equals_2(module_of(S)) == truth


@pytest.mark.parametrize(
    "gens",
    [(1,), (2, 3), (2, 7), (3, 4), (4, 5), (4, 11), (6, 10, 31), (6, 15, 31), (11, 14)],
)
def test_reconstruction_of_known_semigroups(gens):
    S = from_generators(gens)
    back = reconstruct_semigroup(module_of(S))
    assert back == S
    assert back.min_gens == S.min_gens


def test_reconstruction_sweep_small():
    for S in enumerate_plane_branch_semigroups(60):
        assert reconstruct_semigroup(module_of(S)) == S


def test_reconstruction_from_unclosed_lookalike_finds_the_semigroup():
    """The module of the unclosed set is honestly a plane-branch module."""
    T = from_members(SPRIME_MEMBERS, SPRIME_CONDUCTOR, verify_closed=False)
    back = reconstruct_semigroup(module_of(T))
    assert back.min_gens == (4, 11)


def test_rejects_module_of_non_plane_branch():
    # <3,4,5> is not symmetric; its module has even rank at level 0
    M = module_of(from_generators([3, 4, 5]))
    with pytest.raises(ValidationError):
        reconstruct_semigroup(M)
    M = module_of(from_generators([5, 7, 9]))
    with pytest.raises(ValidationError):
        reconstruct_semigroup(M)


def test_rejects_structurally_sound_but_alien_modules():
    # towers stacked so no semigroup can produce them
    bad = TowerModule(-3, ((-3, -3), (-3, -3), (-3, -3), (-3, -3), (0, 0)))
    with pytest.raises(ValidationError):
        reconstruct_semigroup(bad)
    # single long tower spanning several levels forces e past 0
    bad2 = TowerModule(-2, ((-2, 1),))
    with pytest.raises(ValidationError):
        reconstruct_semigroup(bad2)
    # rank 1 at levels -1 and 0 puts the one initial element at 1
    with pytest.raises(ValidationError, match="^inconsistent module: 0 is not an initial element$"):
        initial_part(TowerModule(-1, ()))


# Numerical semigroups of genus 0, 1, ..., 14 (Bras-Amoros, "Fibonacci-like
# behavior of the number of numerical semigroups of a given genus", 2008).
SEMIGROUPS_BY_GENUS = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693)


def _zariski_plane(gens):
    """Zariski's criterion on minimal generators b_0 < ... < b_g.

    The gcds e_i = gcd(b_0, ..., b_i) fall strictly to 1 and
    (e_{i-1} / e_i) * b_i < b_{i+1} for 1 <= i < g.
    """
    e = [gens[0]]
    for b in gens[1:]:
        e.append(gcd(e[-1], b))
    if e[-1] != 1 or any(a <= b for a, b in zip(e, e[1:])):
        return False
    return all(e[i - 1] // e[i] * gens[i] < gens[i + 1] for i in range(1, len(gens) - 1))


def _genus_walk(max_genus):
    """(gaps, brute-force minimal generators) of every numerical semigroup of
    genus <= max_genus, by the semigroup tree (Bras-Amoros 2008;
    Fromentin-Hivert 2016): the children of S are S minus each minimal
    generator above its Frobenius number."""
    stack = [frozenset()]
    while stack:
        gaps = stack.pop()
        c = max(gaps) + 1 if gaps else 0
        gens = naive_minimal_generators(gaps)
        yield gaps, gens
        if len(gaps) < max_genus:
            stack.extend(gaps | {g} for g in gens if g >= c)


def test_every_semigroup_of_genus_at_most_14():
    """Walk the semigroup tree.  On every node the Apery generators equal the
    brute-force ones, a plane module round-trips, and a non-plane module is
    rejected."""
    by_genus = [0] * len(SEMIGROUPS_BY_GENUS)
    plane = []
    for gaps, gens in _genus_walk(len(SEMIGROUPS_BY_GENUS) - 1):
        by_genus[len(gaps)] += 1
        c = max(gaps) + 1 if gaps else 0
        S = from_members([x for x in range(c) if x not in gaps], c)
        assert S.min_gens == gens
        M = module_from_weight(weight_sequence(S))
        if _zariski_plane(gens):
            plane.append(gens)
            assert reconstruct_semigroup(M) == S, gens
        else:
            with pytest.raises(ValidationError):
                reconstruct_semigroup(M)
    assert tuple(by_genus) == SEMIGROUPS_BY_GENUS
    # plane semigroups are symmetric, so genus <= 14 means conductor <= 28
    assert sorted(plane) == sorted(S.min_gens for S in enumerate_plane_branch_semigroups(28))


def test_compute_e_reads_tower_spans():
    assert compute_e(TowerModule(0, ())) == 0
    assert compute_e(TowerModule(-4, ((-4, -4), (0, 0)))) == -4
    assert compute_e(TowerModule(-4, ((-4, -2), (0, 0)))) == -1
    assert compute_e(TowerModule(-5, ((-5, -4), (-4, -4)))) == -3


def test_initial_level_is_never_positive_for_real_modules():
    for S in enumerate_plane_branch_semigroups(60):
        assert compute_e(module_of(S)) <= 0


def test_sublevel_sets_have_the_three_block_shape():
    """At or above the initial level e, each sublevel set is k isolated
    points climbing by twos, a central interval (possibly empty), and the
    mirror image of the points, with k read off the module rank."""
    for S in enumerate_plane_branch_semigroups(120):
        W = weight_sequence(S)
        vals = W.values
        c = S.conductor
        R = root_from_weight(W)
        M = module_from_root(R)
        e = compute_e(M)
        for n in range(e, R.truncation_level + 1):
            k = M.rank(n) // 2
            s_n = next(p for p in range(c + 1) if vals[p] <= n)
            expected = [(s_n + 2 * i, s_n + 2 * i) for i in range(k)]
            if s_n + 2 * k <= c - s_n - 2 * k:
                expected.append((s_n + 2 * k, c - s_n - 2 * k))
            expected.extend(
                (c - s_n - 2 * j, c - s_n - 2 * j) for j in range(k - 1, -1, -1)
            )
            assert naive_components(list(vals), n) == expected, (S.min_gens, n)


def test_second_largest_generator_lies_in_the_initial_part():
    # needs at least three generators: with two, the next-to-last one is
    # the multiplicity and nothing forces it below the cutoff
    hit = 0
    for S in enumerate_plane_branch_semigroups(120):
        if len(S.min_gens) < 3:
            continue
        part = initial_part(module_of(S))
        assert S.min_gens[-2] in part.elements, S.min_gens
        hit += 1
    assert hit > 0


def test_final_gcd_step_two_gives_the_whole_initial_segment():
    """When the last proper gcd step is 2, the recovered elements are all
    members up to delta, and delta stays below the largest generator."""
    hit = 0
    for S in enumerate_plane_branch_semigroups(120):
        chain = gcd_chain(S.min_gens)
        if len(chain.l) < 2 or chain.l[-2] != 2:
            continue
        part = initial_part(module_of(S))
        members = [x for x in S.members_below_conductor() if x <= part.delta]
        assert list(part.elements) == members, S.min_gens
        assert part.delta < S.min_gens[-1], S.min_gens
        hit += 1
    assert hit > 0


def test_sparse_prefix_running_maxima_stay_at_or_above_e():
    """If no two consecutive integers below l are both members and the
    weight at l is maximal over [l, delta], then w(l) >= e."""
    for S in enumerate_plane_branch_semigroups(120):
        W = weight_sequence(S)
        vals = W.values
        d = S.delta
        e = compute_e(module_of(S))
        suffix = list(vals[: d + 1])
        for i in range(d - 1, -1, -1):
            suffix[i] = max(suffix[i], suffix[i + 1])
        for l in range(d + 1):
            if l >= 2 and (l - 2) in S and (l - 1) in S:
                break  # consecutive members below every larger l too
            if vals[l] == suffix[l]:
                assert vals[l] >= e, (S.min_gens, l)
