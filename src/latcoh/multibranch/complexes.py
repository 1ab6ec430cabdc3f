"""Sublevel cube complexes of a weight grid and their graded cohomology.

The weight function on the box decomposes it into unit cubes; the level-n
sublevel complex K_n collects every cube whose maximal vertex weight is at
most n.  Each sublevel set S_n = {w0 <= n} is held as one int, bit i for
box point i.  The graded root grows each component by one masked dilation
per level; the masks ANDed with their shifts give the base points C_m(n) of
the cubes of K_n spanning the axes m, and chi(K_n) is an alternating sum of
their popcounts.  With one or two branches K_n is planar, so
b_1(n) = b_0(n) - chi(K_n): degree zero is the graded root, and only where
b_1 is not zero is degree one read off the holes of K_n.  That hole sweep,
flooding the complements of the masks as n falls, gives the top degree
r - 1 for every r (``_hole_towers``).  With three or more branches each
level's new cubes C_m(n) & ~C_m(n - 1) are paired along the axes by word
operations (Robins-Wood-Sheppard 2011); persistence over the rationals reads
the critical cubes left, with their boundaries along gradient paths
(Mischaikow-Nanda 2013), through the Hilbert span's sparse echelon
(``hilbert._add``), as Smith normal form does from four branches on.  The
one-level ``cohomology(W, n)`` reduces the unit pairs of the cubes of K_n
alone instead.  A box point is its index in the grid's lexicographic order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from ..errors import InputError, ValidationError, as_int
from ..graded import GradedRoot, TowerModule, _rank_steps, module_from_root
from .hilbert import WeightGrid, _add, box_point, weight_grid_extend
from .parametrization import BranchParametrization

_MISORDERED = "cube filtration is not ordered: a face sorts after its cube"


def _sublevel_masks(grid: WeightGrid) -> list[int]:
    """S_n = {i : w0[i] <= n} for n = min w0 .. max w0, as ints with bit i for box index i.

    The points are bucketed by weight, each sets its bit in one ``bytearray``
    and every level is read off it by one ``int.from_bytes``: O(p) Python
    steps for p box points.
    """
    w0, bottom = grid.w0, grid.min_w0
    at: list[list[int]] = [[] for _ in range(max(w0) - bottom + 1)]
    for i, w in enumerate(w0):
        at[w - bottom].append(i)
    bits = bytearray((len(w0) + 7) >> 3)
    masks = []
    for level in at:
        for i in level:
            bits[i >> 3] |= 1 << (i & 7)
        masks.append(int.from_bytes(bits, "little"))
    return masks


def _axis_moves(grid: WeightGrid) -> list[tuple[int, int]]:
    """Per axis a, its stride and the mask of the box indices below the top of axis a.

    Point i has the neighbour i + stride_a when its bit is in the mask, and
    i - stride_a when the bit of i - stride_a is; a mask is one block of its
    axis, doubled until it spans the box.
    """
    size = len(grid.w0)
    moves = []
    for s, b in zip(grid.strides, grid.box):
        below, period = (1 << b * s) - 1, s * (b + 1)
        while period < size:
            below |= below << period
            period <<= 1
        moves.append((s, below & ((1 << size) - 1)))
    return moves


def _cube_bases(grid: WeightGrid, masks: list[int]):
    """Per level mask S_n, the list of C_m(n) for m < 2^r: the cubes of K_n spanning m.

    A cube is the base point of its lowest vertex: C_0 = S_n, and
    C_m = C_l & (C_l >> stride_a) & below_a for a in m and l = m - {a}, since
    such a cube lies in K_n exactly when its two faces along a do.  O(2^r)
    word-parallel operations per level, for every r.
    """
    moves = _axis_moves(grid)
    steps = [(m ^ 1 << a, *moves[a]) for m in range(1, 1 << grid.r) for a in [m.bit_length() - 1]]
    for S in masks:
        bases = [S]
        for lower, s, below in steps:
            face = bases[lower]
            bases.append(face & face >> s & below)
        yield bases


def _level_euler(levels) -> list[int]:
    """chi(K_n) per level: the alternating sum of the popcounts of ``_cube_bases``."""
    chis = []
    for bases in levels:
        chi = 0
        for m, C in enumerate(bases):
            chi += -C.bit_count() if m.bit_count() & 1 else C.bit_count()
        chis.append(chi)
    return chis


def _face_offsets(grid: WeightGrid) -> list[list[tuple[int, int]]]:
    """Per m, (id offset, incidence) of each face of the cube ``p << r | m``: base p, axes m.

    Along the k-th axis a of m the faces sit at ``-(1 << a) + (stride_a << r)``
    (upper, incidence (-1)^k) and ``-(1 << a)`` (lower): no lookups."""
    offsets = [[] for _ in range(1 << grid.r)]
    for m, faces in enumerate(offsets):
        sign = 1
        for a, s in enumerate(grid.strides):
            if m >> a & 1:
                faces += [(-(1 << a) + (s << grid.r), sign), (-(1 << a), -sign)]
                sign = -sign
    return offsets


def _cube_ids(grid: WeightGrid, levels) -> tuple[list[int], list[int], list[int]]:
    """The cubes of ``levels[n - min w0][m]`` as ids, weights and dims, by (n, dim, m, p)."""
    ids, weights, dims = [], [], []
    for n, bases in enumerate(levels, grid.min_w0):
        for m in sorted(range(1 << grid.r), key=int.bit_count):
            bits = bin(bases[m])[:1:-1]  # bit p at index p
            p = bits.find("1")
            while p >= 0:
                ids.append(p << grid.r | m)
                p = bits.find("1", p + 1)
            dims += [m.bit_count()] * (len(ids) - len(dims))
        weights += [n] * (len(ids) - len(weights))
    return ids, weights, dims


def _level_cubes(W: WeightGrid, n: int) -> tuple[WeightGrid, list[int], list[int]]:
    """The collared grid and K_n's cubes as ``_face_offsets`` ids and dims.

    One ``_cube_bases`` step on the level-n mask {w0 <= n} (the whole box past
    max w0, empty below min w0) lists them by (dim, axes, base).
    """
    n = as_int(n, "level")
    grid = weight_grid_extend(W)
    S = int("".join("01"[w <= n] for w in reversed(grid.w0)), 2)
    ids, _weights, dims = _cube_ids(grid, _cube_bases(grid, [S]))
    return grid, ids, dims


def sublevel_complex(
    W: WeightGrid, n: int
) -> dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The cubes of the collared box of maximal vertex weight <= n, per degree.

    Each cube is a (base point, axes) pair; each degree's list is sorted.
    """
    grid, ids, dims = _level_cubes(W, n)
    cubes: dict[int, list] = {}
    for c, q in zip(ids, dims):
        axes = tuple(a for a in range(grid.r) if c >> a & 1)
        cubes.setdefault(q, []).append((box_point(c >> grid.r, grid.strides), axes))
    return {q: sorted(qs) for q, qs in cubes.items()}


# ---------------------------------------------------------------------------
# integral cohomology of one complex (Smith normal form)
# ---------------------------------------------------------------------------


def _smith_invariants(rows: list[dict[int, int]]) -> tuple[int, list[int]]:
    """Rank and nontrivial invariant factors of an integer matrix.

    A row maps columns to their nonzero values.  A classic dense Smith
    reduction: callers pass the coboundaries of the critical cubes of
    ``_morse_matching`` or of the cells ``_reduce_unit_pairs`` leaves, so
    the matrices are small.
    """
    rows = [r for r in rows if r]
    if not rows:
        return 0, []
    cols = sorted({c for r in rows for c in r})
    M = [[r.get(c, 0) for c in cols] for r in rows]
    m, n = len(M), len(cols)
    factors: list[int] = []
    top = 0
    while top < m and top < n:
        # the first nonzero entry of least magnitude; a unit ends the search
        best, least = None, 0
        for i in range(top, m):
            for j in range(top, n):
                v = abs(M[i][j])
                if v and (best is None or v < least):
                    best, least = (i, j), v
            if least == 1:
                break
        if best is None:
            break
        bi, bj = best
        M[top], M[bi] = M[bi], M[top]
        for row in M:
            row[top], row[bj] = row[bj], row[top]
        pivot_row = M[top]
        p = pivot_row[top]
        dirty = False
        for row in M[top + 1 :]:
            f, rest = divmod(row[top], p)
            if f:
                for j in range(top, n):
                    row[j] -= f * pivot_row[j]
            dirty = dirty or rest != 0
        if not dirty:
            # the column below the pivot is clear, so column operations
            # change only the pivot row
            for j in range(top + 1, n):
                pivot_row[j] %= p
            dirty = any(pivot_row[top + 1 :])
        if dirty:
            continue  # remainders appeared; repeat on the same corner
        factors.append(abs(p))
        top += 1
    # divisibility fixup so the factors are genuine invariant factors
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
        factors.sort()
    return len(factors), [f for f in factors if f > 1]


def _cohomology_of(
    cells: list[tuple[int, dict[int, int]]], dims: list[int], top: int
) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Free rank and invariant factors > 1 of H^q for q <= top.

    ``cells`` lists the cells as (position, boundary), the boundary mapping
    face positions to incidences, and ``dims[position]`` is a cell's degree.
    The boundaries of the (q+1)-cells are the rows of D^q.
    """
    counts = [0] * (top + 1)
    coboundaries: list[list[dict[int, int]]] = [[] for _ in range(top)]
    for j, faces in cells:
        counts[dims[j]] += 1
        if dims[j]:
            coboundaries[dims[j] - 1].append(faces)
    ranks, torsion = [0], [()]  # rank and factors of D^(q-1), from D^(-1) = 0
    for rows in coboundaries:
        rank, invs = _smith_invariants(rows)
        ranks.append(rank)
        torsion.append(tuple(invs))
    ranks.append(0)
    return {q: (count - ranks[q + 1] - ranks[q], torsion[q]) for q, count in enumerate(counts)}


def cohomology(W: WeightGrid, n: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Integral cohomology of level n per degree: (free rank, invariant factors > 1).

    The cubes of K_n alone, with boundaries from ``_face_offsets``, are
    reduced by ``_reduce_unit_pairs``, and the cells left go to Smith normal
    form: a reference that shares no cube matching with ``lattice_cohomology``.
    """
    grid, ids, dims = _level_cubes(W, n)
    pos, offsets, mask = {c: j for j, c in enumerate(ids)}, _face_offsets(grid), (1 << grid.r) - 1
    cells = _reduce_unit_pairs([{pos[c + off]: s for off, s in offsets[c & mask]} for c in ids])
    return _cohomology_of(cells, dims, max(dims, default=-1))


def _reduce_unit_pairs(boundary: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Surviving cells of a complex, with their reduced boundaries, in order.

    ``boundary[j]`` maps each face of the cell at position j to its
    incidence; the dicts are reduced in place.  A face that sorts after its
    cell raises ``ValidationError`` (the coface lists are built first).
    Walking the cells in order, each cell j is paired with its first face i
    of current incidence +-1, and both are removed: every other coface c of
    i takes ``dc -= dc[i] * dj[i] * dj`` and every coface of j drops j
    (Kaczynski-Mrozek-Slusarek 1998), which keeps the integral cohomology.
    Vertices survive with an empty boundary.  Only ``cohomology`` calls it.
    """
    count = len(boundary)
    # every cell whose boundary holds i, and possibly some that no longer do
    cofaces: list[list[int]] = [[] for _ in range(count)]
    for j, col in enumerate(boundary):
        for i in col:
            if i > j:
                raise ValidationError(_MISORDERED)
            cofaces[i].append(j)
    alive = [True] * count
    for j in range(count):
        col = boundary[j]
        if not col or not alive[j]:
            continue
        for i, v in col.items():
            if v == 1 or v == -1:
                break
        else:
            continue
        alive[i] = alive[j] = False
        for d in cofaces[j]:
            boundary[d].pop(j, None)
        for c in cofaces[i]:
            row = boundary[c]
            if not alive[c] or i not in row:
                continue
            k = row[i] * v  # the quotient row[i] / v, exact since v = +-1
            for e, x in col.items():
                nx = row.get(e, 0) - k * x
                if nx:
                    if e not in row:
                        cofaces[e].append(c)
                    row[e] = nx
                else:
                    del row[e]
    return [(j, boundary[j]) for j in range(count) if alive[j]]


def _morse_matching(grid: WeightGrid, levels: list[list[int]]):
    """Pair the cubes of each weight along the axes; return (critical, up).

    At level n the new cubes spanning m are U_m = C_m(n) & ~C_m(n - 1).  One
    pass per axis a and side, (0, lower), (0, upper), (1, lower), ..., pairs
    each unpaired (p, m), a not in m, with the unpaired (p, m | a) (lower) or
    (p - stride_a, m | a) (upper): U_m & U_(m|a) << s, s = 0 or stride_a.
    ``critical[n - min w0][m]`` keeps the unpaired cubes; ``up[2a + side][m]``
    the bases of the cubes (p, m) that pass paired up.  Pairs keep one weight,
    so the critical cubes of weight <= n compute K_n (Mischaikow-Nanda 2013).

    No gradient path is a cycle.  A cycle keeps one weight; let (a, side) be
    its first pass, so other axes' passes on it follow (a, upper).  A pass
    pairs all it can: a cube paired after (b, lower) has a lower b-face not
    new or paired before it, and likewise upper.  So the cycle never steps to
    a lower a-face, and to an upper one only onto or off an (a, lower) pair.
    Point and interval alternate in axis a; in half steps (a, lower) pairs
    and upper a-faces add one, (a, upper) pairs take one.  So no (a, lower)
    pair is on it, nor (no a-face step if side is upper) an (a, upper) pair.
    """
    R, moves = 1 << grid.r, _axis_moves(grid)
    sides = [(k, k >> 1, moves[k >> 1][0] * (k & 1)) for k in range(2 * grid.r)]
    passes = [(k, m, m | 1 << a, s) for k, a, s in sides for m in range(R) if not m >> a & 1]
    up, critical = [[0] * R for _ in range(2 * grid.r)], []
    for bases, last in zip(levels, [[0] * R] + levels):
        U = [C & ~L for C, L in zip(bases, last)]
        for k, m, top, s in passes:
            M = U[m] & U[top] << s
            U[m] ^= M
            U[top] ^= M >> s
            up[k][m] |= M
        critical.append(U)
    return critical, up


def _morse_complex(grid: WeightGrid, critical, up):
    """The critical cubes of a matching as (weights, dims, boundaries), in filtration order.

    A boundary maps face positions to incidences: the sum of the faces' flows
    along gradient paths (Forman 1998).  A critical face flows to itself, a
    face paired down to nothing, and a face sigma paired up with tau to
    -[tau:sigma] (a unit) times the sum of [tau:rho] times the flow of rho
    over tau's other faces rho, each flow once, depth first (no cycles).
    """
    r, mask, offsets = grid.r, (1 << grid.r) - 1, _face_offsets(grid)
    ids, weights, dims = _cube_ids(grid, critical)
    shifts = [(1 << (k >> 1)) - (grid.strides[k >> 1] << r if k & 1 else 0) for k in range(2 * r)]
    flows: dict[int, dict[int, int]] = {c: {j: 1} for j, c in enumerate(ids)}
    open_: dict[int, list[tuple[int, int]]] = {}  # cube -> its partner's faces, while open

    def faces_of(c: int) -> list[tuple[int, int]]:
        return [(c + off, t) for off, t in offsets[c & mask]]

    def flow_of(faces, c=None) -> dict[int, int]:  # times -[tau:c], or 1 with no c
        sign, chain = -next((t for f, t in faces if f == c), -1), {}
        for f, t in faces:
            for j, v in flows.get(f, {}).items():
                chain[j] = chain.get(j, 0) + sign * t * v
        return {j: v for j, v in chain.items() if v}

    columns = {}
    for j, kappa in enumerate(ids):
        todo = [f for f, _t in faces_of(kappa)]
        while todo:
            c = todo[-1]
            if c in open_:  # every flow it needs is in
                flows[c] = flow_of(open_.pop(c), c)
            ks = () if c in flows else [k for k, U in enumerate(up) if U[c & mask] >> (c >> r) & 1]
            if not ks:  # its flow is known, or it is paired down
                todo.pop()
            else:  # the flows of its partner's other faces first
                open_[c] = faces_of(c + shifts[ks[0]])
                todo += [f for f, _t in open_[c] if f != c]
        columns[j] = flow_of(faces_of(kappa))
    return weights, dims, columns


# ---------------------------------------------------------------------------
# barcodes of the weight filtration: merge trees and persistence
# ---------------------------------------------------------------------------


def root_from_grid(W: WeightGrid, masks: list[int] | None = None) -> GradedRoot:
    """Connected components of the sublevel filtration, as a graded tree.

    Read off the level masks of the collared box: ``masks`` when given (so
    ``lattice_cohomology`` builds them once for this and ``_level_euler``),
    else ``_sublevel_masks``.  ``WeightGrid`` holds every axis step of h to 0 or
    1, so neighbouring weights differ by exactly 1 and the points entering at
    level n are pairwise non-adjacent: a component of S_n is either one new
    point or components of S_(n-1) joined through the new points next to
    them.  So each component at n - 1 grows by one masked dilation (r shifts
    each way, kept below the top of their axis, then to the new points),
    grown components that meet share a new point and merge, and the new
    points no component reaches are the new leaves.  Each component at level
    n is a vertex, ids ordered by (n, lowest point), joined to the component
    holding it one level up.  Cost: O(p) Python steps for p box points plus
    O((L + V) r p / 30) word operations for L levels and V root vertices.
    """
    grid = weight_grid_extend(W)
    if masks is None:
        masks = _sublevel_masks(grid)
    moves = _axis_moves(grid)
    bottom, top = grid.min_w0, max(1, max(grid.w0))
    vertices: list[tuple[int, int]] = []
    edges: list[tuple[int, int]] = []
    comps: list[int] = []  # the components one level down, by lowest point
    old = 0
    group: list[int] = []

    def find(k: int) -> int:
        while group[k] != k:
            group[k] = k = group[group[k]]
        return k

    for n in range(bottom, top + 1):
        S = masks[min(n - bottom, len(masks) - 1)]  # past max w0 every point is in
        new, old = S ^ old, S
        grown, once, twice = [], 0, 0
        for C in comps:
            reach = 0
            for s, below in moves:
                reach |= (C & below) << s | C >> s & below
            reach &= new
            twice |= once & reach  # new points reached twice join components
            once |= reach
            grown.append(C | reach)
        group = list(range(len(comps)))
        if twice:
            owner: dict[int, int] = {}  # a shared new point -> the first component reaching it
            for k, G in enumerate(grown):
                shared = G & twice
                while shared:
                    point = shared & -shared
                    shared ^= point
                    i, j = find(owner.setdefault(point.bit_length(), k)), find(k)
                    group[max(i, j)] = min(i, j)
        joined: dict[int, int] = {}
        for k, G in enumerate(grown):
            i = find(k)
            joined[i] = joined.get(i, 0) | G
        lows = {i: (G & -G).bit_length() for i, G in joined.items()}  # lowest point + 1
        level = [(lows[i], G) for i, G in joined.items()]
        leaves = new & ~once
        while leaves:
            point = leaves & -leaves
            leaves ^= point
            level.append((point.bit_length(), point))
        level.sort()
        first = len(vertices)
        ids = {low: first + i for i, (low, _G) in enumerate(level)}
        edges.extend((first - len(comps) + k, ids[lows[find(k)]]) for k in range(len(comps)))
        vertices.extend((vid, n) for vid in ids.values())
        comps = [G for _low, G in level]
    return GradedRoot(tuple(vertices), tuple(edges), top)


def _hole_towers(grid: WeightGrid, masks: list[int]) -> tuple[tuple[int, int], ...]:
    """Top-degree towers, degree r - 1: the merge tree of the holes of K_n.

    By Alexander duality H^(r-1)(K_n) counts the bounded components of
    R^r - K_n, and as K_n joins points only along the axes, those are the
    (3^r - 1)-connected components of U_n = box - S_n with no point on the
    box's edge (Bleile, Garin, Heiss, Maggs and Robins, "The persistent
    homology of dual digital image constructions", 2022).  Walking n down
    from max w0 to min w0 - 1, U_n gains the points of weight n + 1, read
    off the level ``masks``.  The outside, the eldest component, takes the
    new points on the edge, and every component floods into the new points
    by dilation (the ``_axis_moves`` shifts of each axis in turn) until it
    reaches no more.  Components whose floods meet join by the elder rule:
    the one born highest survives and each other closes as the hole
    (n + 1, its birth).  New points no component reaches are new holes born
    at n, one per cluster.  Cost: a few word operations on p-bit ints per
    live component, flood round and level, for p box points.
    """
    moves = _axis_moves(grid)
    edge = 0  # the points on the box's edge, and every bit past the box
    for s, below in moves:
        edge |= ~(below & below << s)

    def flood(G: int, room: int) -> int:
        # G and the points of room 8-connected to it through room
        front = G
        while front:
            for s, below in moves:
                front |= (front & below) << s | front >> s & below
            front &= room & ~G
            G |= front
        return G

    towers, top, bottom = [], max(grid.w0), grid.min_w0
    comps = [[top, 0]]  # [birth level, points], eldest first: the outside never closes
    for n in range(top - 1, bottom - 2, -1):
        new = masks[n + 1 - bottom] & ~masks[n - bottom] if n >= bottom else masks[0]
        comps[0][1] |= new & edge
        level, left = [], new
        for birth, C in comps:
            G = flood(C, new)
            left &= ~G
            met = [j for j, (_b, H) in enumerate(level) if H & G] + [len(level)]
            level.append([birth, G])
            for j in reversed(met[1:]):  # the eldest survives, each younger one closes
                towers.append((n + 1, level[j][0]))
                G |= level.pop(j)[1]
            level[met[0]][1] |= G
        while left:  # new points no component reached: new holes
            level.append([n, flood(left & -left, new)])
            left &= ~level[-1][1]
        comps = level
    return tuple(sorted(towers))


def _persistence_pairs(columns, dims: list[int]):
    """Persistence pairing over the rationals, on sparse integer columns.

    ``columns`` maps each cell's position to its boundary (face position ->
    incidence) in filtration order, as ``_morse_complex`` gives the critical
    cubes; ``dims[position]`` is a cell's degree.
    Top degree first, each degree in order, every column goes into one
    echelon through ``hilbert._add`` with its positions negated, so that the
    row's lead is the column's low entry: None means it reduced to zero, and
    a lead -i pairs face i with the cell.  A cell that is already the low of
    a higher column would reduce to zero, so it is skipped and never read
    (clearing, Chen-Kerber 2011).  ``_add`` scales and subtracts rows of
    earlier columns only, which keeps every low, so the pairs are those of
    the plain reduction over Q.  A low that sorts after its column's cell
    raises ``ValidationError``.  The columns themselves are not changed.
    """
    rows: dict[int, dict[int, int]] = {}
    pairs: list[tuple[int, int]] = []
    for q in range(max(dims, default=0), 0, -1):
        for j in columns:
            if dims[j] != q or -j in rows:
                continue
            row = _add(rows, {-i: v for i, v in columns[j].items()})
            if row is not None:
                low = -min(row)
                if low > j:
                    raise ValidationError(_MISORDERED)
                pairs.append((low, j))
    paired = {i for pair in pairs for i in pair}
    return pairs, [j for j in columns if j not in paired]


# ---------------------------------------------------------------------------
# the full graded package
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QCohomology:
    """One cohomological degree: towers, ranks per level, connecting ranks."""

    q: int
    towers: tuple[tuple[int, int], ...]
    ranks: dict[int, int]
    u_ranks: dict[int, int]


@dataclass(frozen=True)
class LatticeCohomology:
    """All degrees of the weight filtration's cohomology, with the q=0 module."""

    r: int
    min_w0: int
    root: GradedRoot
    module: TowerModule
    per_q: tuple[QCohomology, ...]
    torsion: dict[tuple[int, int], tuple[int, ...]]
    snf_levels: tuple[int, ...] = ()  # levels checked by Smith normal form: all when r >= 4

    def rank(self, q: int, n: int) -> int:
        """Rank of H^q(K_n): the towers alive at n, and the everlasting class in degree 0."""
        towers = self.per_q[q].towers if 0 <= q < len(self.per_q) else ()
        return sum(1 for m, t in towers if m <= n <= t) + (q == 0 and n >= self.min_w0)


def lattice_cohomology(W: WeightGrid) -> LatticeCohomology:
    """Cohomology of every sublevel complex, graded by level, per degree.

    Degree zero is the module of the graded root.  At every level n from min
    w0 to max w0, the everlasting class and the towers alive at n must count,
    with alternating signs, to chi(K_n).  The level masks S_n are built once
    (``_sublevel_masks``): ``root_from_grid`` grows components by dilation,
    ``_level_euler`` counts their ``_cube_bases`` by popcounts and
    ``_hole_towers`` floods holes through their complements.  With one or
    two branches K_n is a proper compact subset of the plane, so Alexander
    duality gives H~^2(K_n) = H~_{-1}(S^2 - K_n) = 0 (Hatcher, Algebraic
    Topology, 3.44), and H^2 = Hom(H_2, Z) + Ext(H_1, Z) = 0 makes H_1, so
    H^1 and H^0, free: there is no torsion, and b_1(n) = b_0(n) - chi(K_n).
    Only where that is not zero at some level does ``_hole_towers`` read the
    degree-1 towers off the holes of K_n, by digital 4/8 duality (Garin,
    Heiss, Maggs, Bleile and Robins, "Duality in persistent homology of
    images", SoCG 2020, arXiv:2005.04597); no persistence runs.  With three or
    more branches ``_morse_matching`` pairs the new cubes of the same cube
    bases level by level, and persistence of the critical cubes, with their
    ``_morse_complex`` boundaries, gives every tower; its degree zero must be
    the graded root's, with one everlasting class born at min w0, and its
    top degree r - 1 the hole sweep's.  With three branches K_n lies in R^3,
    so by Alexander duality again H^3 = 0 and nothing has torsion: the root,
    the sweep and the Euler check fix every rank.  From four branches on
    Smith normal form of the critical cubes checks every level up to 1
    (``snf_levels``) for torsion.  chi counts every cube by popcounts, so the
    Euler check holds the towers to the whole complex, not only to the
    critical cubes.
    """
    grid = weight_grid_extend(W)
    bottom, hi = grid.min_w0, max(grid.w0)
    masks = _sublevel_masks(grid)
    root = root_from_grid(grid, masks)
    module = module_from_root(root)
    # planar grids stream their cube bases; the cube matching needs every level's
    bases = _cube_bases(grid, masks) if grid.r <= 2 else list(_cube_bases(grid, masks))
    chis = _level_euler(bases)
    b0 = list(accumulate(_rank_steps(module, hi)))[: len(chis)]
    towers = {0: module.towers}
    if grid.r == 2 and b0 != chis:
        towers[1] = _hole_towers(grid, masks)
    elif grid.r >= 3:
        weights, dims, columns = _morse_complex(grid, *_morse_matching(grid, bases))
        pairs, infinite = _persistence_pairs(columns, dims)
        if len(infinite) != 1 or dims[infinite[0]]:
            raise ValidationError(
                "cohomology routes disagree: box complex must have exactly one"
                " everlasting class, in degree zero"
            )
        if weights[infinite[0]] != bottom:
            raise ValidationError(
                "cohomology routes disagree: everlasting class born at %d, min weight %d"
                % (weights[infinite[0]], bottom)
            )
        bars = sorted(
            (dims[i], weights[i], weights[j] - 1) for i, j in pairs if weights[j] > weights[i]
        )
        towers = {q: tuple((m, t) for d, m, t in bars if d == q) for q in range(grid.r)}
        if towers[0] != module.towers:
            raise ValidationError("cohomology routes disagree: filtration pairing vs graded root")
        if towers[grid.r - 1] != _hole_towers(grid, masks):
            raise ValidationError("cohomology routes disagree: filtration pairing vs hole sweep")
    alive = [0] * (len(chis) + 1)  # steps of the alternating count of towers of degree >= 1
    for q in range(1, grid.r):
        for m, t in towers.get(q, ()):
            alive[m - bottom] += (-1) ** q
            alive[min(t, hi) + 1 - bottom] -= (-1) ** q
    for n, chi, rank0, rest in zip(range(bottom, hi + 1), chis, b0, accumulate(alive)):
        from_ranks = rank0 + rest
        if chi != from_ranks:
            raise ValidationError(
                "cohomology routes disagree: Euler characteristic at level %d is"
                " %d from the cubes, %d from the ranks" % (n, chi, from_ranks)
            )

    per_q: list[QCohomology] = []
    levels = range(bottom, 2)  # ranks are reported up to level 1
    for q in range(grid.r):
        tq, everlasting = towers.get(q, ()), int(q == 0)
        ranks = {n: everlasting + sum(1 for m, t in tq if m <= n <= t) for n in levels}
        u_ranks = {n: everlasting + sum(1 for m, t in tq if m <= n < t) for n in levels}
        per_q.append(QCohomology(q, tq, ranks, u_ranks))

    torsion: dict[tuple[int, int], tuple[int, ...]] = {}
    snf_levels: tuple[int, ...] = ()
    if grid.r >= 4:
        snf_levels = tuple(levels)
        for n in snf_levels:
            level = [cell for cell in columns.items() if weights[cell[0]] <= n]
            hq = _cohomology_of(level, dims, grid.r)
            top = hq.pop(grid.r)
            for q, (free, invs) in hq.items():
                if free != per_q[q].ranks[n]:
                    raise ValidationError(
                        "cohomology routes disagree: rank at degree %d level %d" % (q, n)
                    )
                if invs:
                    torsion[(q, n)] = invs
            if top != (0, ()):
                raise ValidationError(
                    "cohomology routes disagree: nonzero cohomology in degree %d" % grid.r
                )

    return LatticeCohomology(grid.r, bottom, root, module, tuple(per_q), torsion, snf_levels)


# ---------------------------------------------------------------------------
# Euler characteristic vs delta invariant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EulerDeltaReport:
    """Outcome of the Euler-characteristic/delta-invariant comparison."""

    equal: bool
    euler: int
    delta: int

    def __bool__(self) -> bool:
        return self.equal


def euler_delta_check(W: WeightGrid, P: BranchParametrization) -> EulerDeltaReport:
    """Compare the graded Euler characteristic with the delta invariant.

    The Euler side is the minimal weight and finite tower lengths of
    ``lattice_cohomology``: the graded root and hole sweep for r <= 2, the
    critical cubes of the cube matching for r >= 3.  The delta side is pure
    Hilbert-function counting at the conductor.  The two are computed along
    genuinely different routes, so agreement is a real consistency certificate.
    """
    if P.r != W.r:
        raise InputError("parametrization and grid have different branch counts")
    coh = lattice_cohomology(W)
    total = 0
    for qc in coh.per_q:
        length = sum(t - m + 1 for m, t in qc.towers)
        total += length if qc.q % 2 == 0 else -length
    euler = -coh.min_w0 + total
    delta = W.delta
    return EulerDeltaReport(euler == delta, euler, delta)
