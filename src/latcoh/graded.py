"""Graded roots and their tower modules.

A graded root is a connected tree whose vertices carry integer levels chi:
at each level n the vertices are the connected components of the sublevel
set S_n, and edges record containment between consecutive levels.  Above
some level the picture is a single infinite chain; we store the tree up to
a truncation level and treat everything above as that chain.

Two builders make roots.  One branch reads its root straight off the weight
walk (``root_from_weight``): on a path every component is a run, named by
its left end, so no merging is needed.  Lattice grids of several branches
read theirs off the level masks (``multibranch.complexes.root_from_grid``),
as the hole sweep of a planar grid does its degree-1 towers.

Collapsing the root along upward containment produces a module built from
"towers": one infinite tower starting at the base level b = min chi, and a
finite tower (m, t) for every branch of the tree that is born at level m
(a leaf) and absorbed into an older branch at level t + 1.  At each merge
the branch whose leaf sits lowest survives; among equally low leaves the
tie is broken by id, which provably does not change the resulting multiset.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter, sub

from .errors import InputError, ValidationError
from ._pool import sweep
from .semigroup import from_generators, plane_branch_chains
from .weight1d import WeightSequence, weight_sequence


@dataclass(frozen=True)
class GradedRoot:
    """Vertices as (id, chi) pairs, edges as (lower_id, upper_id) pairs.

    Ids are assigned sorted by (chi, leftmost lattice point of the
    component), so two runs over the same data produce identical objects.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    truncation_level: int

    def chi(self) -> dict[int, int]:
        return dict(self.vertices)

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {v: [] for v, _ in self.vertices}
        try:
            for lo, hi in self.edges:
                kids[hi].append(lo)
        except KeyError:
            raise _edge_error(self.chi(), lo, hi) from None
        for v in kids:
            kids[v].sort()
        return kids

    def levels(self) -> dict[int, list[int]]:
        """Sorted vertex ids per level; ``InputError`` when there are none."""
        by: dict[int, list[int]] = {}
        for v, ch in self.vertices:
            by.setdefault(ch, []).append(v)
        if not by:
            raise InputError("root has no vertices")
        for n in by:
            by[n].sort()
        return by

    def validate(self) -> None:
        """Structural sanity: raise InputError when this is not a graded root.

        Each check is a whole-list pass over the tuples as given; chi is
        looked up in a list indexed by id when the ids are 0..V-1 in order,
        as every latcoh writer emits them, and in a dict otherwise.  Only a
        failing edge or vertex check walks the entries, in their order, to
        name the first offender.
        """
        ids = list(map(itemgetter(0), self.vertices))
        chis = list(map(itemgetter(1), self.vertices))
        chi = chis if ids == list(range(len(ids))) else dict(self.vertices)
        if len(chi) != len(ids):
            raise InputError("duplicate vertex id")
        los = list(map(itemgetter(0), self.edges))
        his = list(map(itemgetter(1), self.edges))
        try:
            if chi is chis and min(min(los, default=0), min(his, default=0)) < 0:
                raise IndexError  # a list would read a negative id from its end
            steps = set(map(sub, map(chi.__getitem__, his), map(chi.__getitem__, los)))
        except (IndexError, KeyError):
            steps = None
        if steps is None or not steps <= {1} or len(set(los)) != len(los):
            chi = dict(self.vertices)
            up: set[int] = set()
            for lo, hi in self.edges:
                if lo not in chi or hi not in chi or chi[hi] != chi[lo] + 1 or lo in up:
                    raise _edge_error(chi, lo, hi)
                up.add(lo)
        if not chis:
            raise InputError("root has no vertices")
        top = max(chis)
        if len(set(chis)) != top - min(chis) + 1:
            raise InputError("levels are not contiguous")
        if self.truncation_level != top:
            raise InputError("truncation_level disagrees with the top level")
        if chis.count(top) != 1:
            raise InputError("top level must hold a single vertex")
        # connectivity: every vertex but the top needs its one upward edge,
        # and the edges, checked above, start at distinct non-top vertices
        if len(los) != len(ids) - 1:
            top_id, up = ids[chis.index(top)], set(los)
            for v in ids:
                if v != top_id and v not in up:
                    raise InputError("vertex %d has no upward neighbor" % v)


@dataclass(frozen=True)
class TowerModule:
    """Degree-level data of the module attached to a graded root.

    ``base`` is the starting level of the infinite tower; ``towers`` holds
    (start, end) level pairs of the finite towers, sorted.  Levels here are
    chi values; serialized files also carry the doubled "degree" 2 * chi.
    """

    base: int
    towers: tuple[tuple[int, int], ...]

    def rank(self, n: int) -> int:
        r = 1 if n >= self.base else 0
        return r + sum(1 for m, t in self.towers if m <= n <= t)

    def kernel_rank(self, n: int) -> int:
        k = 1 if n == self.base else 0
        return k + sum(1 for m, _t in self.towers if m == n)

    @property
    def top_level(self) -> int:
        return max([self.base] + [t for _m, t in self.towers])


def root_from_weight(W: WeightSequence) -> GradedRoot:
    """Graded root of a weight sequence, read straight off the walk.

    Levels run from min w0 up to T = max(1, max w0); above T the root is a
    single chain and is not materialized.  A vertex at level n is a maximal
    run of {l : w0(l) <= n} in [0, c], named by its left end.  A point l > 0
    starts a run at every level n with w0(l) <= n < w0(l - 1), which is one
    level at each descent of a unit-step walk; point 0 starts one at every
    level from w0(0) up to T.  This holds for any integer sequence, plateaus
    and jumps included.  Each start is keyed (n - min w0) * (c + 1) + l and
    the keys sorted once, so a vertex's id is its key's index and ids run by
    (n, left end).  Below T a run's one edge goes to the run at n + 1 holding
    its left end l, the one with the largest start <= l at that level: the
    last key <= key + c + 1.  Only point 0 starts a run at T, so the top
    vertex is the last.  No union-find; O(c + V log V) for V vertices.
    """
    vals = W.values
    step = W.conductor + 1
    lo = min(vals)
    top = max(1, max(vals))
    keys = [(n - lo) * step for n in range(vals[0], top + 1)]
    for l in range(1, step):
        for n in range(vals[l], vals[l - 1]):
            keys.append((n - lo) * step + l)
    keys.sort()
    return GradedRoot(
        tuple((i, k // step + lo) for i, k in enumerate(keys)),
        tuple((i, bisect_right(keys, k + step) - 1) for i, k in enumerate(keys[:-1])),
        top,
    )


def module_from_root(R: GradedRoot) -> TowerModule:
    """Collapse a graded root into its module tower data.

    Walking levels upward, each leaf opens a branch; when several branches
    meet at a vertex, the one with the lowest-origin leaf survives and every
    other branch closes into a finite tower (origin, merge level - 1).  Ties
    between equally deep origins are closed preferring the larger leaf id
    (relabelling the leaves flips that; the resulting multiset is the same,
    which the tests exercise).

    A root with no vertices, or an edge with an end that is not a vertex or
    whose lower end is not open when its upper end is reached, raises
    ``InputError`` with the message of ``GradedRoot.validate``; other malformed roots must pass
    ``validate`` first, as every reader of a root file does.
    """
    chi = R.chi()
    kids = R.children()
    by_level = R.levels()
    towers = []
    alive: dict[int, tuple[int, int]] = {}  # vertex -> (origin chi, origin leaf id)
    for n in sorted(by_level):
        for v in by_level[n]:
            try:
                branches = [alive.pop(k) for k in kids[v]]
            except KeyError as missing:
                raise _edge_error(chi, missing.args[0], v) from None
            if not branches:
                alive[v] = (n, v)
                continue
            survivor = min(branches)
            for br in branches:
                if br is not survivor:
                    towers.append((br[0], n - 1))
            alive[v] = survivor
    if len(alive) != 1:
        raise ValidationError("root did not collapse to a single chain")
    (origin, _leaf) = alive.popitem()[1]
    base = min(chi.values())
    if origin != base:
        raise ValidationError("surviving branch does not start at the base level")
    return TowerModule(base, tuple(sorted(towers)))


def _edge_error(chi: dict[int, int], lo: int, hi: int) -> InputError:
    """``GradedRoot.validate``'s message for the edge (lo, hi) that a walk could not follow."""
    if lo not in chi or hi not in chi:
        return InputError("edge endpoint %s is not a vertex" % ((lo, hi),))
    if chi[hi] != chi[lo] + 1:
        return InputError("edge (%d, %d) does not span consecutive levels" % (lo, hi))
    return InputError("vertex %d has two upward neighbors" % lo)


def module_from_weight(W: WeightSequence) -> TowerModule:
    """The module of ``root_from_weight(W)`` without building the root.

    The degree-0 barcode of the sublevel filtration of the walk on [0, c],
    read in one left-to-right stack pass by the elder rule
    (Edelsbrunner-Harer, Computational Topology, 2010).  A branch opens at
    every point lower than its left neighbour and no higher than its right
    one (a local minimum, or the left end of a plateau).  The stack holds the
    open branches, births not decreasing upward; ``high[i]`` is the highest
    weight between branch i and the next one up (or the current point, for
    the top).  A new branch at x closes every branch born above x: each dies
    at the lower of its two barriers, the highest weight on the way to an
    elder branch on either side, and leaves the tower (birth, death - 1)
    unless that is empty.  Among equal births the left branch is the elder;
    the multiset does not depend on that choice.  Past c the walk only
    climbs, so branches still open at the end die at their left barrier, and
    the bottom one is the infinite tower.  O(c).
    """
    vals = W.values
    c = W.conductor
    towers: list[tuple[int, int]] = []
    births: list[int] = []
    lefts: list[int | None] = []  # barrier to the elder branch on the left
    high: list[int] = []
    for l, x in enumerate(vals):
        if (l and vals[l - 1] <= x) or (l < c and vals[l + 1] < x):
            if high and x > high[-1]:
                high[-1] = x
            continue
        right = x
        while births and births[-1] > x:
            h, left, birth = high.pop(), lefts.pop(), births.pop()
            if h > right:
                right = h
            death = right if left is None or right < left else left
            if death > birth:  # a plateau that runs on downhill opens no branch
                towers.append((birth, death - 1))
        if high:
            if high[-1] > right:
                right = high[-1]
            high[-1] = right
            lefts.append(right)
        else:
            lefts.append(None)
        births.append(x)
        high.append(x)
    towers.extend((b, left - 1) for b, left in zip(births[1:], lefts[1:]))
    return TowerModule(births[0], tuple(sorted(towers)))


def _rank_steps(M: TowerModule, hi: int) -> list[int]:
    """rank(n) - rank(n - 1) for n from base up, by one difference-array pass.

    Its running sums are the ranks from base up to hi; one more entry may
    follow, which callers drop.  O(towers + levels).
    """
    steps = [1] + [0] * max(0, hi - M.base + 1)  # the infinite tower opens at base
    for m, t in M.towers:
        lo, top = max(m, M.base), min(t, hi)
        if lo <= top:
            steps[lo - M.base] += 1
            steps[top - M.base + 1] -= 1
    return steps


def rank_profile(M: TowerModule, up_to: int | None = None) -> dict[int, tuple[int, int]]:
    """Per-level (rank, kernel rank) from base up to max(1, top tower level).

    Above the returned range the module is the bare infinite tower: rank 1,
    kernel rank 0.  Built from difference arrays: O(towers + levels).
    """
    hi = max(1, M.top_level) if up_to is None else up_to
    born = [1] + [0] * max(0, hi - M.base + 1)  # the infinite tower is born at base
    for m, _t in M.towers:
        if M.base <= m <= hi:
            born[m - M.base] += 1
    return dict(zip(range(M.base, hi + 1), zip(accumulate(_rank_steps(M, hi)), born)))


def _canonical_label(R: GradedRoot, table: dict[tuple, int]) -> int:
    """AHU canonical label of R, from a label table shared between roots.

    The tree is read from the lowest level t* at which everything above is a
    single chain; the uniform chain higher up carries no information.  In one
    pass over the vertices sorted by level (Aho-Hopcroft-Ullman, 1974), a
    vertex's label is the table index of (chi, sorted child labels), a flat
    tuple of ints, and is appended to the list kept for its upper neighbour;
    neither the labelling nor hashing recurses.
    """
    if not R.vertices:
        raise InputError("root has no vertices")  # as ``GradedRoot.levels`` does
    order = sorted(R.vertices, key=itemgetter(1))
    # t*: walk down from the top while each level holds one vertex
    i = len(order) - 1
    while i and order[i - 1][1] != order[i][1]:
        i -= 1
    if i:
        i += 1  # order[i - 1] shares a level with order[i], so t* is one up
    if i == len(order):
        raise InputError("top level must hold a single vertex")
    up = dict(R.edges)
    kids: dict[int, list[int]] = {}
    for v, n in order[:i]:
        label = table.setdefault((n, tuple(sorted(kids.pop(v, ())))), len(table))
        try:
            kids.setdefault(up[v], []).append(label)
        except KeyError:
            raise InputError("vertex %d has no upward neighbor" % v) from None
    v, n = order[i]
    return table.setdefault((n, tuple(sorted(kids.pop(v, ())))), len(table))


def roots_isomorphic(R1: GradedRoot, R2: GradedRoot) -> bool:
    """Level-preserving tree isomorphism (truncation chains disregarded).

    Both roots are labelled bottom-up with one shared AHU label table and
    their labels at t* compared: O(V log V) for V vertices, iterative.  A
    root with no vertices, a top level with two vertices, or a vertex below
    t* with no upward edge raises ``InputError`` with the message of
    ``GradedRoot.validate`` for that defect; other malformed roots must pass
    ``validate`` first, as every reader of a root file does.
    """
    table: dict[tuple, int] = {}
    return _canonical_label(R1, table) == _canonical_label(R2, table)


@dataclass(frozen=True)
class SweepReport:
    max_conductor: int
    tested: int
    module_classes: int
    shared_module_groups: int
    pairs_checked: int
    hits: tuple  # (gens_a, gens_b) pairs with equal module, non-iso roots


def _weights(gens: tuple[int, ...]) -> WeightSequence:
    return weight_sequence(from_generators(gens))


def _module_digest(gens: tuple[int, ...]) -> int:
    """``hash`` of the semigroup's module: one int for a worker to send back."""
    return hash(module_from_weight(_weights(gens)))


def conjecture_sweep(max_conductor: int) -> SweepReport:
    """Group plane-branch semigroups by module; check roots agree per group.

    Modules come from ``module_from_weight``, mapped over the generator
    chains through ``_pool.sweep``, which returns only each module's digest
    (its ``hash``), so a pooled worker sends back one int per semigroup.
    Semigroups are grouped by digest; the modules of a digest shared by two
    or more are rebuilt here and regrouped by equality, so a hash collision
    never merges two classes.  Graded roots are built only inside module
    groups of two or more semigroups, and each member's root is compared with
    the first member's.  A pair with equal modules but non-isomorphic roots
    is recorded as a hit (a finding to report, not an error).  Groups are
    read in the order of their first member in the enumeration, on every
    route.
    """
    chains = plane_branch_chains(max_conductor)
    by_digest: dict[int, list[int]] = {}
    for i, digest in enumerate(sweep(_module_digest, chains)):
        by_digest.setdefault(digest, []).append(i)
    classes = 0
    shared: list[list[int]] = []  # indices into chains, one list per group
    for members in by_digest.values():
        if len(members) < 2:
            classes += 1
            continue
        exact: dict[TowerModule, list[int]] = {}
        for i in members:
            exact.setdefault(module_from_weight(_weights(chains[i])), []).append(i)
        classes += len(exact)
        shared.extend(group for group in exact.values() if len(group) > 1)
    shared.sort()  # by first member: groups are disjoint, so firsts differ
    pairs = 0
    hits = []
    for first, *rest in shared:
        first_root = root_from_weight(_weights(chains[first]))
        for i in rest:
            pairs += 1
            if not roots_isomorphic(first_root, root_from_weight(_weights(chains[i]))):
                hits.append((chains[first], chains[i]))
    return SweepReport(
        max_conductor=max_conductor,
        tested=len(chains),
        module_classes=classes,
        shared_module_groups=len(shared),
        pairs_checked=pairs,
        hits=tuple(hits),
    )
