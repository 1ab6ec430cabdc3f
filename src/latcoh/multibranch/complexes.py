"""Sublevel cube complexes of a weight grid and their graded cohomology.

The weight function on the box decomposes it into unit cubes; the level-n
sublevel complex collects every cube whose maximal vertex weight is at most
n.  All cubes are integer ids in one filtration sorted by weight, so every
level is a prefix of it.  The whole graded package (all levels at once,
with the connecting-map ranks) comes from one persistence-style matrix
reduction of that filtration over the rationals, on integer columns, for
every branch count, cross-checked on degree zero against the graded root
route and on every level against the Euler characteristic of the cubes.
The reduction reads a cube's faces from the filtration only when it reduces
that cube's column.  Integral cohomology comes from Smith normal form, which
only ever sees pair-reduced complexes: a filtration (or, in ``cohomology``,
one complex as a single weight class) is reduced once by eliminating pairs
of a cube and a face of the same weight with incidence +-1, and each level's
cohomology is that of the few cells of weight <= n left, with their reduced
coboundaries.  A box point is its index in the grid's lexicographic order:
the filtration and the graded root read ``grid.w0`` and ``grid.strides`` as
they are, and only ``sublevel_complex``, the entry point of ``cohomology``
for the oracles, builds ``Cube`` objects and point tuples.
"""
from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd

from ..errors import InputError, ValidationError
from ..graded import GradedRoot, TowerModule, _merge_tree, module_from_root
from .hilbert import WeightGrid, box_point, weight_grid_extend
from .parametrization import BranchParametrization


@dataclass(frozen=True, order=True)
class Cube:
    """A unit cube of the lattice: a base vertex plus a set of spanned axes."""

    base: tuple[int, ...]
    axes: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.axes)

    def faces(self):
        """Boundary faces with orientation signs: sum of sign*(upper - lower)."""
        for k, a in enumerate(self.axes):
            rest = self.axes[:k] + self.axes[k + 1 :]
            sign = -1 if k % 2 else 1
            upper = self.base[:a] + (self.base[a] + 1,) + self.base[a + 1 :]
            yield Cube(upper, rest), sign
            yield Cube(self.base, rest), -sign


@dataclass(frozen=True)
class CubicalComplex:
    """A finite cubical complex inside the weight-grid box."""

    r: int
    level: int
    cubes: dict[int, tuple[Cube, ...]]

    def __post_init__(self) -> None:
        present: set[Cube] = set()
        for q, qs in self.cubes.items():
            for c in qs:
                if c.dim != q:
                    raise InputError("cube filed under the wrong dimension")
                present.add(c)
        for q, qs in self.cubes.items():
            if q == 0:
                continue
            for c in qs:
                for f, _ in c.faces():
                    if f not in present:
                        raise InputError("complex is not closed under faces")

    def cube_count(self) -> int:
        return sum(len(qs) for qs in self.cubes.values())


def _top_axes(grid: WeightGrid) -> list[int]:
    """Per box index, the mask of the axes along which its point is at the top."""
    tops = [0] * len(grid.w0)
    for a, (s, b) in enumerate(zip(grid.strides, grid.box)):
        block = [0] * (b * s) + [1 << a] * s  # the top of axis a ends every block
        tops = list(map(operator.or_, tops, block * (len(tops) // len(block))))
    return tops


class _Filtration:
    """Every cube of a collared box, as integer ids sorted for persistence.

    A cube is ``p << r | mask``: p is the lexicographic index of its base
    point and bit a of mask says it spans axis a.  Its two faces along axis a
    sit at the offsets ``-(1 << a)`` (lower) and ``-(1 << a) + (stride_a << r)``
    (upper), so boundaries need no lookups.  A cube weighs the max of its
    vertex weights, computed in one pass over the masks in increasing order as
    the max over its two faces along its last axis.  ``ids`` lists the cubes
    sorted by (weight, dim, base, axes), so the level-n sublevel complex is
    the prefix of the cubes of weight <= n.
    """

    def __init__(self, grid: WeightGrid) -> None:
        r, strides = grid.r, grid.strides
        npts, R = len(grid.w0), 1 << r
        wt = [0] * (npts << r)
        wt[::R] = grid.w0
        for mask in range(1, R):
            a = mask.bit_length() - 1
            lower = mask ^ (1 << a)
            # ids of cells that leave the box get junk here; none is listed below
            wt[mask : (npts - strides[a]) << r : R] = map(
                max, wt[lower::R], wt[lower + (strides[a] << r) :: R]
            )
        self.axes = [tuple(a for a in range(r) if m >> a & 1) for m in range(R)]
        by_dim = [
            sorted((m for m in range(R) if m.bit_count() == q), key=self.axes.__getitem__)
            for q in range(r + 1)
        ]
        tops = _top_axes(grid)
        ids = [
            p << r | m for masks in by_dim for p in range(npts) for m in masks if not m & tops[p]
        ]
        ids.sort(key=wt.__getitem__)  # stable: (dim, base, axes) within a weight
        self.r, self.mask = r, R - 1
        self.ids = ids
        self.weights = [wt[c] for c in ids]
        self.dims = [len(self.axes[c & (R - 1)]) for c in ids]
        self.pos = [0] * (npts << r)
        for j, c in enumerate(ids):
            self.pos[c] = j
        self.face_offsets = [
            [
                (off, s)
                for k, a in enumerate(self.axes[m])
                for off, s in (
                    (-(1 << a) + (strides[a] << r), -1 if k % 2 else 1),
                    (-(1 << a), 1 if k % 2 else -1),
                )
            ]
            for m in range(R)
        ]

    def boundary(self, j: int) -> dict[int, int]:
        """Faces of the cube at position j: face position -> sign."""
        c, pos = self.ids[j], self.pos
        return {pos[c + off]: s for off, s in self.face_offsets[c & self.mask]}

    def end(self, n: int) -> int:
        """Number of cubes of weight <= n: the level-n prefix."""
        return bisect_right(self.weights, n)


def sublevel_complex(W: WeightGrid, n: int) -> CubicalComplex:
    """All cubes of the (collared) box whose maximal vertex weight is <= n, per degree."""
    grid = weight_grid_extend(W)
    filt = _Filtration(grid)
    cubes: dict[int, list[Cube]] = {}
    for c in filt.ids[: filt.end(n)]:
        axes = filt.axes[c & filt.mask]
        cubes.setdefault(len(axes), []).append(Cube(box_point(c >> grid.r, grid.strides), axes))
    return CubicalComplex(grid.r, n, {q: tuple(sorted(qs)) for q, qs in sorted(cubes.items())})


# ---------------------------------------------------------------------------
# integral cohomology of one complex (Smith normal form)
# ---------------------------------------------------------------------------


def _smith_invariants(rows: list[dict[int, int]]) -> tuple[int, list[int]]:
    """Rank and nontrivial invariant factors of an integer matrix.

    A row maps columns to their nonzero values.  A classic dense Smith
    reduction: callers pass coboundaries whose unit pairs
    ``_reduce_equal_weight_pairs`` has already eliminated, so the matrices
    are small.
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
    cells: list[tuple[int, dict[int, int]]],
    dims: list[int],
    top: int,
    known: dict[tuple[int, int], tuple[int, list[int]]] | None = None,
) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Free rank and invariant factors > 1 of H^q for q <= top.

    ``cells`` lists the cells as (position, boundary), the boundary mapping
    face positions to incidences, and ``dims[position]`` is a cell's degree.
    The boundaries of the (q+1)-cells are the rows of D^q.  ``known`` keeps
    the Smith invariants of D^q by (q, row count) across prefixes of one
    cell list: a prefix's rows fix D^q, since a q-cell that no row holds
    only adds a zero column.
    """
    counts = [0] * (top + 1)
    coboundaries: list[list[dict[int, int]]] = [[] for _ in range(top)]
    for j, faces in cells:
        counts[dims[j]] += 1
        if dims[j]:
            coboundaries[dims[j] - 1].append(faces)
    ranks, torsion = [0], [()]  # rank and factors of D^(q-1), from D^(-1) = 0
    known = {} if known is None else known
    for q, rows in enumerate(coboundaries):
        if (q, len(rows)) not in known:
            known[q, len(rows)] = _smith_invariants(rows)
        rank, invs = known[q, len(rows)]
        ranks.append(rank)
        torsion.append(tuple(invs))
    ranks.append(0)
    return {q: (count - ranks[q + 1] - ranks[q], torsion[q]) for q, count in enumerate(counts)}


def cohomology(K: CubicalComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Integral cohomology per degree: (free rank, invariant factors > 1).

    K's cubes, ordered by degree, are reduced as one weight class by
    ``_reduce_equal_weight_pairs``, and the cells left go to Smith normal
    form.
    """
    cubes = [c for q in sorted(K.cubes) for c in K.cubes[q]]
    index = {c: j for j, c in enumerate(cubes)}
    boundary = [{index[f]: sign for f, sign in c.faces()} for c in cubes]
    cells = _reduce_equal_weight_pairs(boundary, [0] * len(cubes))
    return _cohomology_of(cells, [c.dim for c in cubes], max(K.cubes, default=-1))


def _reduce_equal_weight_pairs(
    boundary: list[dict[int, int]], weights: list[int]
) -> list[tuple[int, dict[int, int]]]:
    """Surviving cells of the filtration, with their reduced boundaries, in order.

    ``boundary[j]`` maps each face of the cell at position j to its
    incidence; the dicts are reduced in place.  Every face must sort before
    its cell, so that every prefix is a complex: the coface lists are built
    first, and a face that sorts after its cell raises ``ValidationError``.
    Walking the cells in filtration order, each cell j is paired with a face
    i of the same weight whose current incidence is +-1 (the first such
    face), and both are removed: every other coface c of i takes
    ``dc -= dc[i] * dj[i] * dj`` and every coface of j drops j
    (Kaczynski-Mrozek-Slusarek 1998), which keeps the integral cohomology.
    A boundary only ever gains cells no heavier than its cell, and no pair
    crosses a weight, so the cells of weight <= n left here, with their
    reduced boundaries, are the reduction of the level-n complex
    (Mischaikow-Nanda 2013): one pass serves every level.  Vertices survive
    with an empty boundary.
    """
    count = len(boundary)
    # every cell whose boundary holds i, and possibly some that no longer do
    cofaces: list[list[int]] = [[] for _ in range(count)]
    for j, col in enumerate(boundary):
        for i in col:
            if i > j:
                raise ValidationError("cube filtration is not ordered: a face sorts after its cube")
            cofaces[i].append(j)
    alive = [True] * count
    for j in range(count):
        col = boundary[j]
        if not col or not alive[j]:
            continue
        w = weights[j]
        for i, v in col.items():
            if (v == 1 or v == -1) and weights[i] == w:
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


# ---------------------------------------------------------------------------
# graded root of the grid (degree-zero route)
# ---------------------------------------------------------------------------


def root_from_grid(W: WeightGrid) -> GradedRoot:
    """Connected components of the sublevel filtration, as a graded tree.

    The merge tree of the collared box's grid graph, built by the same
    union-find sweep as the one-branch root over the points in lexicographic
    order, where point i's neighbours along axis a are i +- stride_a: each
    component at level n is a vertex ordered by (n, smallest point), joined
    to the component that absorbs it one level up.  Cost: O(p log p + r p)
    for p box points plus O(log k) per vertex of the root.
    """
    grid = weight_grid_extend(W)
    neighbors: list[list[int]] = [[] for _ in grid.w0]
    for i, top in enumerate(_top_axes(grid)):
        for a, s in enumerate(grid.strides):
            if not top >> a & 1:
                neighbors[i].append(i + s)
                neighbors[i + s].append(i)
    return _merge_tree(grid.w0, neighbors, max(1, max(grid.w0)))


# ---------------------------------------------------------------------------
# persistence of the weight filtration
# ---------------------------------------------------------------------------


def _persistence_pairs(filt: _Filtration, boundary: list[dict[int, int]] | None = None):
    """Persistence pairing over the rationals, on sparse integer columns.

    Columns are reduced top dimension first, each degree in filtration
    order; a column whose cube is already the pivot of a higher column would
    reduce to zero, so it is skipped and its faces are never read (clearing,
    Chen-Kerber 2011).  Every other column is read by ``filt.boundary``, or
    taken from ``boundary`` when every cube's boundary was already read; such
    a column is copied before its first reduction step, so ``boundary`` stays
    as it was.  To clear its low entry a column subtracts k times the column
    owning that pivot when the pivot divides the entry, and is scaled by the
    pivot first when it does not; scaling keeps every column's low, so the
    pairs are those of the plain reduction over Q.
    """
    read = filt.boundary if boundary is None else boundary.__getitem__
    owner: dict[int, dict[int, int]] = {}
    pairs: list[tuple[int, int]] = []
    for q in range(filt.r, 0, -1):
        for j, d in enumerate(filt.dims):
            if d != q or j in owner:
                continue
            col = read(j)
            while col:
                low = max(col)
                prev = owner.get(low)
                if prev is None:
                    owner[low] = col
                    pairs.append((low, j))
                    break
                pivot = prev[low]
                if col[low] % pivot:
                    col = {i: v * pivot for i, v in col.items()}
                elif boundary is not None and col is boundary[j]:
                    col = dict(col)
                k = col[low] // pivot
                for i, v in prev.items():
                    nv = col.get(i, 0) - k * v
                    if nv:
                        col[i] = nv
                    else:
                        col.pop(i, None)
    paired = [False] * len(filt.dims)
    for i, j in pairs:
        paired[i] = paired[j] = True
    return pairs, [j for j, p in enumerate(paired) if not p]


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
    snf_levels: tuple[int, ...] = ()  # levels checked by Smith normal form

    def rank(self, q: int, n: int) -> int:
        if 0 <= q < len(self.per_q):
            return self.per_q[q].ranks.get(n, 1 if q == 0 and n > 1 else 0)
        return 0


_VERIFY_CUBE_LIMIT = 2600


def _check_level_euler(filt: _Filtration, per_q: list[QCohomology], bottom: int, top: int) -> None:
    """Euler characteristic of every level from its cube counts and its ranks.

    At each level n the alternating count of the cubes of weight <= n (a
    prefix of the sorted filtration) must equal the alternating sum of the
    ranks; the counts share nothing with the reduction that gave the ranks.
    """
    chi, done = 0, 0
    for n in range(bottom, top + 1):
        end = filt.end(n)
        chi += sum(-1 if q & 1 else 1 for q in filt.dims[done:end])
        done = end
        from_ranks = sum(-qc.ranks[n] if qc.q & 1 else qc.ranks[n] for qc in per_q)
        if chi != from_ranks:
            raise ValidationError(
                "cohomology routes disagree: Euler characteristic at level %d is"
                " %d from the cubes, %d from the ranks" % (n, chi, from_ranks)
            )


def lattice_cohomology(W: WeightGrid) -> LatticeCohomology:
    """Cohomology of every sublevel complex, graded by level, per degree.

    One persistence reduction of the weight filtration yields all ranks and
    all connecting-map ranks at once; the degree-zero result is recomputed
    through connected components and the graded root, and the two routes
    must agree.  On small grids (and always for three or more branches) the
    ranks are additionally verified level by level against integral Smith
    normal form cohomology, which also reports any torsion; those levels are
    recorded in ``snf_levels``.  For that check every cube's boundary is
    read from the filtration once, before persistence, which reads its
    columns from the same list; then the filtration is reduced by its
    equal-weight unit pairs, which first checks that every face sorts before
    its cube, so that every prefix is a complex; each level n is then the
    prefix of the surviving cells of weight <= n, with their reduced
    coboundaries, and goes to Smith normal form.  On every grid the Euler
    characteristic of each level is checked against its cube counts.
    """
    grid = weight_grid_extend(W)
    filt = _Filtration(grid)
    weights, dims = filt.weights, filt.dims
    boundary = None
    if grid.r >= 3 or len(filt.ids) <= _VERIFY_CUBE_LIMIT:  # the SNF check runs
        boundary = [filt.boundary(j) for j in range(len(filt.ids))]
    pairs, infinite = _persistence_pairs(filt, boundary)
    bottom = grid.min_w0
    top_report = 1
    towers: dict[int, list[tuple[int, int]]] = {}
    for i, j in pairs:
        birth, death = weights[i], weights[j]
        if death > birth:
            towers.setdefault(dims[i], []).append((birth, death - 1))
    inf_by_q: dict[int, list[int]] = {}
    for j in infinite:
        inf_by_q.setdefault(dims[j], []).append(weights[j])
    if sorted(inf_by_q.keys()) != [0] or len(inf_by_q[0]) != 1:
        raise ValidationError(
            "cohomology routes disagree: box complex must have exactly one"
            " everlasting class, in degree zero"
        )
    if inf_by_q[0][0] != bottom:
        raise ValidationError(
            "cohomology routes disagree: everlasting class born at %d, min weight %d"
            % (inf_by_q[0][0], bottom)
        )

    root = root_from_grid(grid)
    module = module_from_root(root)
    q0 = sorted(towers.get(0, []))
    if module.base != bottom or tuple(q0) != module.towers:
        raise ValidationError(
            "cohomology routes disagree: filtration pairing vs graded root"
        )

    per_q: list[QCohomology] = []
    for q in range(grid.r):
        tq = tuple(sorted(towers.get(q, [])))
        ranks: dict[int, int] = {}
        u_ranks: dict[int, int] = {}
        for n in range(bottom, top_report + 1):
            alive = sum(1 for m, t in tq if m <= n <= t)
            holding = sum(1 for m, t in tq if m <= n and t >= n + 1)
            if q == 0:
                alive += 1
                holding += 1
            ranks[n] = alive
            u_ranks[n] = holding
        per_q.append(QCohomology(q, tq, ranks, u_ranks))
    _check_level_euler(filt, per_q, bottom, top_report)

    torsion: dict[tuple[int, int], tuple[int, ...]] = {}
    snf_levels: tuple[int, ...] = ()
    if boundary is not None:
        snf_levels = tuple(range(bottom, top_report + 1))
        cells = _reduce_equal_weight_pairs(boundary, weights)
        known: dict[tuple[int, int], tuple[int, list[int]]] = {}
        for n in snf_levels:
            level = [cell for cell in cells if weights[cell[0]] <= n]
            hq = _cohomology_of(level, dims, grid.r, known)
            for q, (free, invs) in hq.items():
                if q == grid.r:
                    if free or invs:
                        raise ValidationError(
                            "cohomology routes disagree: nonzero cohomology in"
                            " degree %d" % q
                        )
                elif free != per_q[q].ranks[n]:
                    raise ValidationError(
                        "cohomology routes disagree: rank at degree %d level %d"
                        % (q, n)
                    )
                elif invs:
                    torsion[(q, n)] = invs

    return LatticeCohomology(
        grid.r, bottom, root, module, tuple(per_q), torsion, snf_levels
    )


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

    The Euler side comes from the cohomology filtration (minimal weight and
    finite tower lengths); the delta side is pure Hilbert-function counting
    at the conductor.  The two are computed along genuinely different
    routes, so agreement is a real consistency certificate.
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
