"""Graded roots, tower modules, isomorphism, and the module-equality sweep."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latcoh.graded
from latcoh import (
    GradedRoot,
    InputError,
    TowerModule,
    WeightSequence,
    conjecture_sweep,
    enumerate_plane_branch_semigroups,
    from_generators,
    from_members,
    min_w0,
    module_from_root,
    module_from_weight,
    root_from_weight,
    roots_isomorphic,
    weight_sequence,
)
from fixtures import SPRIME_CONDUCTOR, SPRIME_MEMBERS, example_root_pair
from oracles import naive_isomorphic, naive_local_minima, naive_root


def pipeline(S):
    W = weight_sequence(S)
    R = root_from_weight(W)
    return W, R, module_from_root(R)


KNOWN_MODULES = {
    (1,): (0, ()),
    (2, 3): (0, ((0, 0),)),
    (2, 7): (0, ((0, 0), (0, 0), (0, 0))),
    (3, 4): (-1, ((0, 0), (0, 0))),
    (3, 4, 5): (-1, ((0, 0),)),
    (4, 5): (-2, ((-2, -1), (0, 0), (0, 0))),
    (4, 11): (
        -5,
        ((-5, -4), (-5, -4), (-4, -4), (-4, -4), (-2, -2), (-2, -2), (0, 0), (0, 0)),
    ),
    (6, 10, 31): (
        -8,
        (
            (-8, -8), (-8, -8), (-8, -8), (-8, -8), (-8, -8), (-8, -8), (-8, -8),
            (-6, -6), (-6, -6), (-6, -6), (-6, -6),
            (-4, -4), (-4, -4),
            (0, 0), (0, 0),
        ),
    ),
}


@pytest.mark.parametrize("gens,expect", sorted(KNOWN_MODULES.items()))
def test_known_modules(gens, expect):
    base, towers = expect
    _W, _R, M = pipeline(from_generators(gens))
    assert M.base == base
    assert tuple(sorted(M.towers)) == tuple(sorted(towers))


def test_root_shape_for_whole_naturals():
    _W, R, M = pipeline(from_generators([1]))
    assert R.truncation_level == 1
    assert M == TowerModule(0, ())
    assert len(R.levels()[1]) == 1


def test_root_is_deterministic():
    S = from_generators([6, 10, 31])
    _, R1, _ = pipeline(S)
    _, R2, _ = pipeline(S)
    assert R1 == R2


def test_root_validates():
    for gens in [(2, 3), (4, 11), (6, 15, 31), (5, 7, 9)]:
        _, R, _ = pipeline(from_generators(gens))
        R.validate()


def test_root_from_weight_matches_level_by_level_oracle():
    sets = list(enumerate_plane_branch_semigroups(60)) + [from_generators([43, 47])]
    sets.append(from_members(SPRIME_MEMBERS, SPRIME_CONDUCTOR, verify_closed=False))
    for S in sets:
        W = weight_sequence(S)
        assert root_from_weight(W) == GradedRoot(*naive_root(W.values)), S


# the branch-ladder semigroups of the benchmark, conductors 1932 to 7216
LADDER = ((43, 47), (61, 67), (83, 89), (44, 50, 1101))


def assert_module_routes_agree(W):
    """The stack barcode, the root read off the walk and the oracle's root agree."""
    M = module_from_weight(W)
    R = root_from_weight(W)
    assert R == GradedRoot(*naive_root(W.values))
    assert M == module_from_root(R)


def test_module_from_weight_matches_root_route_and_oracle():
    sets = list(enumerate_plane_branch_semigroups(200)) + [from_generators(g) for g in LADDER]
    sets.append(from_members(SPRIME_MEMBERS, SPRIME_CONDUCTOR, verify_closed=False))
    for S in sets:
        assert_module_routes_agree(weight_sequence(S))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=40))
def test_module_from_weight_on_arbitrary_cofinite_sets(bits):
    """Walks that need not come from a semigroup: any membership on [1, c)."""
    members = [0] + [x for x, b in enumerate(bits, 1) if b]
    T = from_members(members, len(bits) + 1, verify_closed=False)
    assert_module_routes_agree(weight_sequence(T))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=30))
def test_module_from_weight_on_walks_with_plateaus_and_jumps(values):
    """Any integer sequence, not only unit-step walks: plateaus open one branch."""
    assert_module_routes_agree(WeightSequence(tuple(values), len(values) - 1, None))


def test_rank_and_kernel_rank_profile():
    _W, R, M = pipeline(from_generators([4, 11]))
    assert (M.base, R.truncation_level) == (-5, 1)
    profile = [(M.rank(n), M.kernel_rank(n)) for n in range(-5, 2)]
    assert profile == [(3, 3), (5, 2), (1, 0), (3, 2), (1, 0), (3, 2), (1, 0)]


def test_rank_monotone_tail():
    _W, _R, M = pipeline(from_generators([6, 15, 31]))
    assert M.rank(M.base - 1) == 0
    assert M.rank(M.base) >= 1
    assert M.rank(10) == 1  # far above everything only the infinite tower lives


def test_kernel_rank_equals_local_minima_count():
    for S in enumerate_plane_branch_semigroups(60):
        W, R, M = pipeline(S)
        by_level = {}
        for _pos, v in naive_local_minima(list(W.values)):
            by_level[v] = by_level.get(v, 0) + 1
        for n in range(M.base - 1, R.truncation_level + 2):
            assert M.kernel_rank(n) == by_level.get(n, 0)


def test_unclosed_set_shares_module_with_4_11():
    T = from_members(SPRIME_MEMBERS, SPRIME_CONDUCTOR, verify_closed=False)
    _WT, RT, MT = pipeline(T)
    _WS, RS, MS = pipeline(from_generators([4, 11]))
    assert MT == MS
    assert roots_isomorphic(RT, RS)


def test_example_pair_modules_equal_roots_not():
    R1, R2 = example_root_pair()
    R1.validate()
    R2.validate()
    M1 = module_from_root(R1)
    M2 = module_from_root(R2)
    assert M1 == M2
    assert M1 == TowerModule(-2, ((-2, -2), (-2, -2), (-2, -1)))
    assert not roots_isomorphic(R1, R2)
    assert (M1.rank(-2), M1.kernel_rank(-2)) == (4, 4)


def test_tie_policy_does_not_change_the_module():
    roots = [example_root_pair()[0], example_root_pair()[1]]
    for S in enumerate_plane_branch_semigroups(40):
        roots.append(pipeline(S)[1])
    for R in roots:
        # reversing the ids within each level flips every tie between
        # equally deep leaves
        relabel = {}
        for ids in R.levels().values():
            relabel.update(zip(ids, reversed(ids)))
        flipped = GradedRoot(
            tuple(sorted((relabel[v], c) for v, c in R.vertices)),
            tuple(sorted((relabel[lo], relabel[hi]) for lo, hi in R.edges)),
            R.truncation_level,
        )
        flipped.validate()
        assert module_from_root(flipped) == module_from_root(R)


def test_isomorphism_is_label_independent():
    R1, _ = example_root_pair()
    relabel = {0: 3, 1: 2, 2: 1, 3: 0, 4: 5, 5: 4, 6: 6, 7: 7}
    verts = tuple(sorted((relabel[v], c) for v, c in R1.vertices))
    edges = tuple(sorted(tuple(sorted((relabel[a], relabel[b]))) for a, b in R1.edges))
    # keep lower-id-below orientation: chi increases along each edge
    chi = dict(verts)
    edges = tuple(sorted((a, b) if chi[b] == chi[a] + 1 else (b, a) for a, b in edges))
    R1p = GradedRoot(verts, edges, R1.truncation_level)
    R1p.validate()
    assert roots_isomorphic(R1, R1p)


@st.composite
def small_roots(draw):
    """A graded root of up to five levels and four vertices a level, ids shuffled.

    Built top-down: one vertex at the top, and every vertex on a lower level
    gets its one edge to a vertex drawn from the level above.
    """
    top = draw(st.integers(min_value=-3, max_value=2))
    base = top - draw(st.integers(min_value=0, max_value=4))
    levels = [[(top, 0)]]
    edges = []
    for n in range(top - 1, base - 1, -1):
        above = levels[-1]
        here = [(n, i) for i in range(draw(st.integers(min_value=1, max_value=4)))]
        edges.extend((v, above[draw(st.integers(0, len(above) - 1))]) for v in here)
        levels.append(here)
    named = [v for level in levels for v in level]
    ids = dict(zip(named, draw(st.permutations(range(len(named))))))
    return GradedRoot(
        tuple(sorted((ids[v], v[0]) for v in named)),
        tuple(sorted((ids[lo], ids[hi]) for lo, hi in edges)),
        top,
    )


def _relabelled(R, perm):
    ids = dict(zip(sorted(v for v, _n in R.vertices), perm))
    return GradedRoot(
        tuple(sorted((ids[v], n) for v, n in R.vertices)),
        tuple(sorted((ids[lo], ids[hi]) for lo, hi in R.edges)),
        R.truncation_level,
    )


def _leaf_moved(R, pick):
    """R with one leaf below the top re-hung from another vertex one level up, if any."""
    kids = R.children()
    by = R.levels()
    moves = [
        (leaf, up)
        for leaf, n in sorted(R.vertices)
        if not kids[leaf] and n < R.truncation_level
        for up in by[n + 1]
        if (leaf, up) not in R.edges
    ]
    if not moves:
        return R
    leaf, up = moves[pick % len(moves)]
    return GradedRoot(
        R.vertices,
        tuple(sorted((lo, up if lo == leaf else hi) for lo, hi in R.edges)),
        R.truncation_level,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_roots(), small_roots(), st.data())
def test_isomorphism_matches_the_nested_form_oracle(R, other, data):
    """On random roots, relabelled copies, a leaf moved and a shift by one level."""
    perm = data.draw(st.permutations(range(len(R.vertices))))
    shifted = GradedRoot(
        tuple((v, n + 1) for v, n in R.vertices), R.edges, R.truncation_level + 1
    )
    copies = [
        other,
        _relabelled(R, perm),
        _leaf_moved(R, data.draw(st.integers(min_value=0, max_value=50))),
        shifted,
    ]
    for copy in copies:
        copy.validate()
        assert roots_isomorphic(R, copy) == naive_isomorphic(R, copy)
        assert roots_isomorphic(copy, R) == naive_isomorphic(R, copy)
    assert roots_isomorphic(R, copies[1])
    assert not roots_isomorphic(R, shifted)


def test_isomorphism_distinguishes_known_trees():
    _, R1, _ = pipeline(from_generators([4, 11]))
    _, R2, _ = pipeline(from_generators([6, 10, 31]))
    assert not roots_isomorphic(R1, R2)
    assert roots_isomorphic(R1, R1)
    # the same tree one level up: isomorphisms preserve levels
    up = GradedRoot(tuple((v, n + 1) for v, n in R1.vertices), R1.edges, R1.truncation_level + 1)
    assert not roots_isomorphic(R1, up)


def test_validate_rejects_broken_trees():
    verts = ((0, 0), (1, 1))
    GradedRoot(verts, ((0, 1),), 1).validate()
    with pytest.raises(InputError):
        GradedRoot(((0, 0), (0, 1)), (), 1).validate()  # duplicate id
    with pytest.raises(InputError):
        GradedRoot(verts, ((1, 0),), 1).validate()  # edge goes downward
    with pytest.raises(InputError):
        GradedRoot(verts, (), 1).validate()  # vertex 0 has no parent
    with pytest.raises(InputError):
        GradedRoot(((0, 0), (1, 2)), (), 2).validate()  # level gap
    with pytest.raises(InputError):
        GradedRoot(verts, ((0, 1),), 5).validate()  # truncation level off
    with pytest.raises(InputError):
        # two vertices on the top level
        GradedRoot(((0, 0), (1, 0)), (), 0).validate()
    with pytest.raises(InputError):
        # vertex 0 has two upward neighbors
        GradedRoot(((0, 0), (1, 1), (2, 1), (3, 2)), ((0, 1), (0, 2), (1, 3), (2, 3)), 2).validate()



_EXAMPLE, _ = example_root_pair()
_UNSORTED = GradedRoot(
    tuple(reversed(_EXAMPLE.vertices)), tuple(reversed(_EXAMPLE.edges)), _EXAMPLE.truncation_level
)


def _example_with(vertices=_EXAMPLE.vertices, edges=_EXAMPLE.edges, truncation_level=1):
    return GradedRoot(tuple(vertices), tuple(edges), truncation_level)


# validate on tuples as they are given, in their order: the first bad edge and
# the first orphan are the first in that order
VALIDATE_MESSAGES = {
    "empty": (GradedRoot((), (), 0), "root has no vertices"),
    "empty-with-an-edge": (GradedRoot((), ((0, 1),), 0), "edge endpoint (0, 1) is not a vertex"),
    "duplicate-id": (_example_with(_EXAMPLE.vertices + ((3, 1),)), "duplicate vertex id"),
    "duplicate-id-out-of-order": (_example_with(((7, 1),) + _UNSORTED.vertices), "duplicate vertex id"),
    "edge-from-a-negative-id": (_example_with(edges=_EXAMPLE.edges + ((-1, 0),)), "edge endpoint (-1, 0) is not a vertex"),
    "edge-to-a-negative-id": (_example_with(edges=((6, -2),) + _EXAMPLE.edges), "edge endpoint (6, -2) is not a vertex"),
    "edge-past-the-last-id": (_example_with(edges=_EXAMPLE.edges + ((7, 8),)), "edge endpoint (7, 8) is not a vertex"),
    "first-bad-edge-as-listed": (
        _example_with(edges=((5, 9), (0, 7)) + _EXAMPLE.edges), "edge endpoint (5, 9) is not a vertex",
    ),
    "two-parents-as-listed": (
        _example_with(edges=((0, 5),) + _EXAMPLE.edges), "vertex 0 has two upward neighbors",
    ),
    "level-jump-ids-out-of-order": (
        _example_with(_UNSORTED.vertices, _UNSORTED.edges + ((1, 6),)), "edge (1, 6) does not span consecutive levels",
    ),
    "levels-not-contiguous": (_example_with(_EXAMPLE.vertices + ((8, 3),)), "levels are not contiguous"),
    "truncation-level": (_example_with(truncation_level=0), "truncation_level disagrees with the top level"),
    "two-top-vertices": (_example_with(_EXAMPLE.vertices + ((8, 1),)), "top level must hold a single vertex"),
    "first-orphan-as-listed": (
        _example_with(_UNSORTED.vertices, [e for e in _UNSORTED.edges if e not in ((4, 6), (2, 4))]),
        "vertex 4 has no upward neighbor",
    ),
    "orphan-ids-not-from-zero": (
        GradedRoot(((10, -1), (12, -1), (11, 0)), ((10, 11),), 0), "vertex 12 has no upward neighbor",
    ),
}


@pytest.mark.parametrize("name", sorted(VALIDATE_MESSAGES))
def test_validate_messages(name):
    R, message = VALIDATE_MESSAGES[name]
    with pytest.raises(InputError) as raised:
        R.validate()
    assert str(raised.value) == message


def test_validate_accepts_any_order_and_any_ids():
    _UNSORTED.validate()
    GradedRoot(((10, -1), (12, -1), (11, 0)), ((10, 11), (12, 11)), 0).validate()
    GradedRoot(((-3, 0),), (), 0).validate()


def _iso_with_itself(R):
    return roots_isomorphic(R, R)


_FORGED = {
    # name: (root, the reader that used to fail on it with another error)
    "empty": (GradedRoot((), (), 0), module_from_root),
    "empty-compared": (GradedRoot((), (), 0), _iso_with_itself),
    "two-top-vertices": (GradedRoot(((0, 0), (1, 1), (2, 1)), ((0, 1),), 1), _iso_with_itself),
    "no-upward-neighbor": (GradedRoot(((0, 0), (1, 0), (2, 1)), ((0, 2),), 1), _iso_with_itself),
    "edge-to-missing-vertex": (GradedRoot(((0, 0), (1, 1)), ((0, 5),), 1), module_from_root),
    "edge-from-missing-vertex": (GradedRoot(((0, 0), (1, 1)), ((5, 1),), 1), module_from_root),
    "edge-goes-downward": (GradedRoot(((0, 0), (1, 1)), ((1, 0),), 1), module_from_root),
    "two-upward-neighbors": (
        GradedRoot(((0, 0), (1, 1), (2, 1)), ((0, 1), (0, 2)), 1),
        module_from_root,
    ),
}


@pytest.mark.parametrize("name", sorted(_FORGED))
def test_forged_roots_raise_the_validate_message(name):
    # the lookup that fails on a forged root names the defect as validate does
    R, reader = _FORGED[name]
    with pytest.raises(InputError) as expected:
        R.validate()
    with pytest.raises(InputError, match="^%s$" % re.escape(str(expected.value))):
        reader(R)


def test_two_top_vertices_with_upward_edges_are_named():
    # every top-level vertex has an edge up to a vertex that does not exist
    # (validate names that edge first); the labelling used to step past the
    # end of its sorted vertex list with IndexError
    R = GradedRoot(((0, 0), (1, 1), (2, 1)), ((0, 1), (1, 7), (2, 7)), 1)
    with pytest.raises(InputError, match="^top level must hold a single vertex$"):
        roots_isomorphic(R, R)


def test_sweep_small():
    rep = conjecture_sweep(40)
    assert rep.max_conductor == 40
    assert rep.tested == sum(1 for _ in enumerate_plane_branch_semigroups(40))
    assert rep.module_classes <= rep.tested
    assert rep.hits == ()
    # sanity: groups sharing a module account for the pairs checked
    assert rep.pairs_checked >= 0
    assert rep.shared_module_groups >= 0


def test_sweep_compares_roots_inside_a_shared_module_group(monkeypatch):
    """With every module equal, all semigroups fall into one group and each
    root is compared with the first one's."""
    monkeypatch.setattr(latcoh.graded, "module_from_weight", lambda W: TowerModule(0, ()))
    rep = conjecture_sweep(30)
    sets = list(enumerate_plane_branch_semigroups(30))
    assert (rep.tested, rep.module_classes, rep.shared_module_groups) == (len(sets), 1, 1)
    assert rep.pairs_checked == rep.tested - 1
    first = root_from_weight(weight_sequence(sets[0]))
    expect = tuple(
        (sets[0].min_gens, S.min_gens)
        for S in sets[1:]
        if not roots_isomorphic(first, root_from_weight(weight_sequence(S)))
    )
    assert rep.hits == expect


def _grouping_oracle(max_conductor):
    """conjecture_sweep's report by grouping modules in one pass, serially."""
    groups = {}
    for S in enumerate_plane_branch_semigroups(max_conductor):
        groups.setdefault(latcoh.graded.module_from_weight(weight_sequence(S)), []).append(S)
    shared = [members for members in groups.values() if len(members) > 1]
    hits = []
    for first, *rest in shared:
        R = root_from_weight(weight_sequence(first))
        hits.extend(
            (first.min_gens, S.min_gens)
            for S in rest
            if not roots_isomorphic(R, root_from_weight(weight_sequence(S)))
        )
    tested = sum(len(members) for members in groups.values())
    return (tested, len(groups), len(shared), tested - len(groups), tuple(hits))


@pytest.mark.parametrize(
    "digest",
    [lambda M: 0, lambda M: int(M.base in (0, 4))],
    ids=["constant", "two-valued"],
)
def test_sweep_survives_digest_collisions(digest, monkeypatch):
    """Modules forged into five classes by conductor mod 5 (first members at
    c = 0, 2, 4, 6, 8) and module hashes forced to collide: the sweep, pooled
    where it can be, regroups each shared digest by equality and reads the
    groups in enumeration order.  The two-valued digest puts the classes of
    c = 0 and 4 under one digest, first seen before the other's."""
    monkeypatch.setattr(
        latcoh.graded, "module_from_weight", lambda W: TowerModule(W.conductor % 5, ())
    )
    monkeypatch.setattr(TowerModule, "__hash__", digest)
    rep = conjecture_sweep(120)
    expect = _grouping_oracle(120)
    assert expect[:3] == (757, 5, 5) and expect[4]
    got = (rep.tested, rep.module_classes, rep.shared_module_groups, rep.pairs_checked, rep.hits)
    assert got == expect


def test_module_euler_characteristic_counts_gaps():
    """-base plus the total tower length equals the gap count, and the
    module base is the minimal weight, for every enumerated semigroup."""
    for S in enumerate_plane_branch_semigroups(200):
        W = weight_sequence(S)
        M = module_from_root(root_from_weight(W))
        assert M.base == min_w0(W), S.min_gens
        assert -M.base + sum(t - m + 1 for m, t in M.towers) == S.delta, S.min_gens
