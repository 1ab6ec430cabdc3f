"""Semigroup arithmetic against naive recomputation and hand-checked values."""
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcoh import (
    CofiniteSet,
    InputError,
    NumericalSemigroup,
    enumerate_plane_branch_semigroups,
    from_generators,
    from_members,
    gcd_chain,
    is_plane_branch,
    is_symmetric,
)
from latcoh import semigroup
from oracles import (
    brute_force_symmetric_semigroups,
    naive_closure,
    naive_conductor,
    naive_first_unclosed_pair,
    naive_minimal_generators,
)

KNOWN = {
    (1,): (0, 0, 1),
    (2, 3): (2, 1, 2),
    (2, 7): (6, 3, 2),
    (3, 4): (6, 3, 3),
    (4, 11): (30, 15, 4),
    (6, 10, 31): (46, 23, 6),
    (6, 15, 31): (72, 36, 6),
    (11, 14): (130, 65, 11),
}


@pytest.mark.parametrize("gens,expect", sorted(KNOWN.items()))
def test_known_invariants(gens, expect):
    S = from_generators(gens)
    conductor, delta, mult = expect
    assert S.conductor == conductor
    assert S.delta == delta
    assert S.multiplicity == mult
    assert S.min_gens == gens
    # the same set without its generators: the multiplicity comes from membership
    T = from_members(S.members_below_conductor(), S.conductor, verify_closed=False)
    assert T.multiplicity == mult


def test_membership_basics():
    S = from_generators([6, 10, 31])
    assert 0 in S and 6 in S and 16 in S and 31 in S and 47 in S
    assert 1 not in S and 5 not in S and 45 not in S
    assert -3 not in S
    assert S.members_below_conductor()[:5] == [0, 6, 10, 12, 16]
    assert len(S.gaps()) == S.delta


def test_redundant_generators_are_dropped():
    assert from_generators([6, 10, 31, 16, 47]).min_gens == (6, 10, 31)
    assert from_generators([2, 3, 4, 5]).min_gens == (2, 3)
    assert from_generators([1, 7]).min_gens == (1,)


def test_generator_input_errors():
    with pytest.raises(InputError):
        from_generators([])
    with pytest.raises(InputError):
        from_generators([0, 3])
    with pytest.raises(InputError):
        from_generators([-2, 3])
    with pytest.raises(InputError):
        from_generators([4, 6])  # gcd 2: complement would be infinite


def test_from_members_closed_gives_semigroup():
    gens = (4, 11)
    S = from_generators(gens)
    T = from_members(S.members_below_conductor(), S.conductor)
    assert isinstance(T, NumericalSemigroup)
    assert T == S


def test_from_members_rejects_unclosed():
    from fixtures import SPRIME_CONDUCTOR, SPRIME_MEMBERS

    with pytest.raises(InputError):
        from_members(SPRIME_MEMBERS, SPRIME_CONDUCTOR)
    T = from_members(SPRIME_MEMBERS, SPRIME_CONDUCTOR, verify_closed=False)
    assert isinstance(T, CofiniteSet) and not isinstance(T, NumericalSemigroup)
    assert T.delta == 15
    assert T.conductor == 30
    assert T.multiplicity == 4


def test_from_members_names_the_first_unclosed_pair():
    # semigroups with a few members toggled, closed or not: the Apery check
    # accepts exactly the closed ones, and a rejection names the pair that a
    # scan over every pair a <= b meets first
    rng = random.Random("from-members")
    closed = 0
    for _ in range(600):
        S = from_generators(rng.sample(range(2, 30), rng.randint(2, 4)) + [31])
        members = set(S.members_below_conductor())
        for _ in range(rng.randint(0, 3)):
            members ^= {rng.randrange(1, S.conductor + 5)}
        c = max([S.conductor] + [x + 1 for x in members])
        pair = naive_first_unclosed_pair(members, c)
        if pair is None:
            closed += 1
            T = from_members(sorted(members), c)
            assert all((x in T) == (x in members) for x in range(c))
        else:
            with pytest.raises(InputError) as exc:
                from_members(sorted(members), c)
            assert str(exc.value) == "not closed under addition: %d + %d" % pair
    assert closed > 100 and 600 - closed > 100, closed


def test_from_members_input_errors():
    with pytest.raises(InputError):
        from_members([0, 2], -1)
    with pytest.raises(InputError):
        from_members([2, 4], 6)  # 0 missing
    with pytest.raises(InputError):
        from_members([0, -2], 6)
    with pytest.raises(InputError):
        from_members([0, 7], 6)  # member past the conductor


@pytest.mark.parametrize(
    "build",
    [
        lambda: from_generators(["a", 3]),
        lambda: from_generators([2.5, 3]),  # was read as <2, 3>
        lambda: from_generators([True, 3]),  # was read as N
        lambda: from_members([0, 2.5], 4),
        lambda: from_members([0, 2], 4.5),
        lambda: from_generators(5),
        lambda: from_members(5, 4),
        # raised at the call, not at the first next()
        lambda: enumerate_plane_branch_semigroups("x"),
        lambda: enumerate_plane_branch_semigroups(3.9),  # ran to 3
    ],
    ids=[
        "gens-str", "gens-float", "gens-bool", "member-float",
        "conductor-float", "gens-not-iterable", "members-not-iterable",
        "max-conductor-str", "max-conductor-float",
    ],
)
def test_constructors_reject_non_integers(build):
    with pytest.raises(InputError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: from_generators([10007, 10009]),  # c = 10006 * 10008
        lambda: from_generators([3_000_001, 3_000_002]),  # m above the ceiling
        lambda: from_generators([1500, 1501]),  # c = 2,248,500 just above it
        lambda: from_members([0], semigroup._MAX_CONDUCTOR + 1),
        lambda: from_members([0], 10**30, verify_closed=False),
    ],
    ids=["two-near-10^4", "huge-multiplicity", "just-above", "members", "members-unverified"],
)
def test_conductors_above_the_ceiling_are_rejected_at_once(build):
    tracemalloc.start()
    start = time.monotonic()
    try:
        with pytest.raises(InputError, match="above the ceiling of %d$" % semigroup._MAX_CONDUCTOR):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 0.5
    assert peak < 1 << 20


def test_conductor_ceiling_names_the_predicted_conductor():
    with pytest.raises(InputError, match="^conductor 100140048 is above the ceiling"):
        from_generators([10007, 10009])
    with pytest.raises(InputError, match="^conductor of at least 3000001 is above the ceiling"):
        from_generators([3_000_001, 3_000_002])
    # <999, 1000> stays below the ceiling
    assert from_generators([999, 1000]).conductor == 997_002 < semigroup._MAX_CONDUCTOR


def test_multiplicity_at_the_conductor():
    # {0} and all from c on: m = c and every nonzero Apery element c + 1 ..
    # 2c - 1 is a minimal generator, as no two of them sum to 2c - 1 or less
    c = 200_000
    start = time.monotonic()
    S = from_members([0], c)
    assert time.monotonic() - start < 1.0
    assert S.min_gens == tuple(range(c, 2 * c))


def test_conductor_renormalized():
    # declared conductor 10 but everything from 4 on is present
    T = from_members([0, 4, 5, 6, 7, 8, 9], 10)
    assert T.conductor == 4


def test_symmetry_detector():
    assert is_symmetric(from_generators([4, 11]))
    assert is_symmetric(from_generators([4, 6, 7]))
    assert not is_symmetric(from_generators([3, 4, 5]))
    assert not is_symmetric(from_generators([5, 7, 9]))
    assert is_symmetric(from_generators([1]))


def test_gcd_chain_values():
    ch = gcd_chain((6, 10, 31))
    assert ch.l == (6, 2, 1)
    assert ch.n == (3, 2)
    assert ch.partial_conductors == (0, 16, 46)
    ch = gcd_chain((6, 15, 31))
    assert ch.l == (6, 3, 1)
    assert ch.n == (2, 3)
    assert ch.partial_conductors == (0, 12, 72)


def test_plane_branch_criterion():
    for gens in [(1,), (2, 3), (2, 7), (4, 11), (6, 10, 31), (6, 15, 31), (11, 14)]:
        ok, chain = is_plane_branch(from_generators(gens))
        assert ok, gens
        assert chain is not None
    for gens in [(3, 4, 5), (4, 6, 7), (4, 5, 6, 7), (5, 7, 9)]:
        ok, chain = is_plane_branch(from_generators(gens))
        assert not ok, gens
        assert chain is None


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_plane_branch_semigroups(14)) == 13
    assert sum(1 for _ in enumerate_plane_branch_semigroups(30)) == 43


def test_enumeration_builds_the_chain_list_in_order():
    chains = semigroup.plane_branch_chains(200)
    assert len(chains) == 2778
    semigroups = list(enumerate_plane_branch_semigroups(200))
    assert semigroups == [from_generators(g) for g in chains]
    assert [S.min_gens for S in semigroups] == chains


def test_enumeration_above_its_ceiling_is_rejected_before_the_search():
    ceiling = semigroup._MAX_ENUMERATED_CONDUCTOR
    assert ceiling == 1000
    start = time.monotonic()
    with pytest.raises(InputError, match="^max_conductor 2000 is above the enumeration ceiling of 1000$"):
        enumerate_plane_branch_semigroups(2000)
    with pytest.raises(InputError, match="above the enumeration ceiling"):
        enumerate_plane_branch_semigroups(ceiling + 1)
    assert time.monotonic() - start < 0.5


def test_enumeration_matches_brute_force():
    """Exhaustive bitmap search finds exactly the same semigroups."""
    brute = set()
    for members, c in brute_force_symmetric_semigroups(14):
        S = from_members(list(members), c)
        ok, _ = is_plane_branch(S)
        if ok:
            brute.add(S.min_gens)
    enumerated = set(S.min_gens for S in enumerate_plane_branch_semigroups(14))
    assert enumerated == brute
    # and the criterion is strictly stronger than symmetry
    assert len(brute) < len(brute_force_symmetric_semigroups(14))


def test_enumeration_is_sorted_and_within_bound():
    seen = []
    for S in enumerate_plane_branch_semigroups(30):
        assert S.conductor <= 30
        ok, _ = is_plane_branch(S)
        assert ok
        seen.append(S.min_gens)
    assert len(set(seen)) == len(seen)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=5))
def test_closure_matches_naive(raw):
    # 1, repeated generators and multiples of the multiplicity all occur
    if math.gcd(*raw) != 1:
        raw = raw + [raw[-1] + 1]
    S = from_generators(raw)
    bound = S.conductor + 2 * max(raw) + 1
    mem = naive_closure(sorted(set(raw)), bound)
    assert S.conductor == naive_conductor(mem)
    for x in range(bound + 1):
        assert (x in S) == mem[x]
    assert S.min_gens == naive_minimal_generators(set(S.gaps()))


@pytest.mark.parametrize("a", [101, 257, 499])
@pytest.mark.parametrize("step", [1, 2])
def test_two_generator_closed_forms_far_past_the_generators(a, step):
    # conductor (a - 1)(b - 1), far beyond 2b: the Apery set needs no window
    b = a + step
    S = from_generators([b, a])
    assert S.conductor == (a - 1) * (b - 1)
    assert S.delta == S.conductor // 2
    assert S.min_gens == (a, b)
    assert len(S.membership) == S.conductor + 1 and S.membership[-1]
    assert S.conductor - 1 not in S


def test_three_generators_sharing_a_factor_with_the_multiplicity():
    # gcd(44, 50) = 2: the round robin walks two residue cycles of 50 mod 44
    S = from_generators([1101, 50, 44])
    assert S.min_gens == (44, 50, 1101)
    assert S.conductor == gcd_chain(S.min_gens).partial_conductors[-1] == 2108
    assert S.delta == S.conductor // 2
    assert list(S.membership) == naive_closure([44, 50, 1101], S.conductor)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=14))
def test_two_generator_invariants(a):
    """For coprime pairs the conductor and gap count have closed forms."""
    b = a + 1
    S = from_generators([a, b])
    assert S.conductor == (a - 1) * (b - 1)
    assert S.delta == (a - 1) * (b - 1) // 2
    assert is_symmetric(S)


def test_enumerated_semigroups_are_structurally_sound():
    """Symmetry, the chain conductor identity, generators clearing the
    partial conductors, and involutive generator recovery, exhaustively."""
    for S in enumerate_plane_branch_semigroups(200):
        assert is_symmetric(S), S.min_gens
        chain = gcd_chain(S.min_gens)
        assert chain.partial_conductors[-1] == S.conductor, S.min_gens
        for i in range(1, len(S.min_gens)):
            assert S.min_gens[i] > chain.partial_conductors[i - 1], S.min_gens
        assert from_generators(list(S.min_gens)) == S
