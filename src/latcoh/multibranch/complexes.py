"""Sublevel cube complexes of a weight grid and their graded cohomology.

The weight function on the box decomposes it into unit cubes; the level-n
sublevel complex collects every cube whose maximal vertex weight is at most
n.  Integral cohomology of a single level comes from Smith normal form of
the coboundary matrices; the whole graded package (all levels at once, with
the connecting-map ranks) comes from a persistence-style matrix reduction
of the weight filtration, cross-checked on degree zero against the graded
root route.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ..errors import InputError, ValidationError
from ..graded import GradedRoot, TowerModule, _merge_tree, module_from_root
from .hilbert import WeightGrid, weight_grid_extend
from .parametrization import BranchParametrization


@dataclass(frozen=True, order=True)
class Cube:
    """A unit cube of the lattice: a base vertex plus a set of spanned axes."""

    base: tuple[int, ...]
    axes: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.axes)

    def vertices(self):
        for eps in itertools.product((0, 1), repeat=len(self.axes)):
            v = list(self.base)
            for e, a in zip(eps, self.axes):
                v[a] += e
            yield tuple(v)

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


def _cube_weight(w0: dict[tuple[int, ...], int], cube: Cube) -> int:
    return max(w0[v] for v in cube.vertices())


def _all_box_cubes(box: tuple[int, ...]):
    r = len(box)
    axes_all = range(r)
    for base in itertools.product(*(range(b + 1) for b in box)):
        free = [a for a in axes_all if base[a] + 1 <= box[a]]
        for size in range(len(free) + 1):
            for axes in itertools.combinations(free, size):
                yield Cube(base, axes)


def sublevel_complex(W: WeightGrid, n: int) -> CubicalComplex:
    """All cubes of the (collared) box whose maximal vertex weight is <= n."""
    grid = weight_grid_extend(W)
    cubes: dict[int, list[Cube]] = {}
    for cube in _all_box_cubes(grid.box):
        if _cube_weight(grid.w0, cube) <= n:
            cubes.setdefault(cube.dim, []).append(cube)
    return CubicalComplex(
        grid.r, n, {q: tuple(sorted(qs)) for q, qs in cubes.items()}
    )


# ---------------------------------------------------------------------------
# integral cohomology of one complex (Smith normal form)
# ---------------------------------------------------------------------------


def _smith_invariants(rows: list[dict[int, int]], ncols: int) -> tuple[int, list[int]]:
    """Rank and nontrivial invariant factors of an integer matrix.

    Greedy elimination on unit pivots (which is complete for cubical
    incidence matrices most of the time), then a classic Smith reduction on
    whatever small block is left.
    """
    rows = [dict(r) for r in rows if r]
    rank = 0
    # greedy unit pivots
    progress = True
    while progress:
        progress = False
        pick = None
        for i, row in enumerate(rows):
            for c, v in row.items():
                if v in (1, -1):
                    pick = (i, c, v)
                    break
            if pick:
                break
        if pick is None:
            break
        i, c, v = pick
        pivot_row = rows.pop(i)
        rank += 1
        progress = True
        for row in rows:
            x = row.get(c)
            if x:
                f = x // v  # exact since v = ±1
                for cc, vv in pivot_row.items():
                    nv = row.get(cc, 0) - f * vv
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
        rows = [r for r in rows if r]
    if not rows:
        return rank, []
    # dense Smith reduction of the leftover block
    cols = sorted({c for r in rows for c in r})
    cmap = {c: i for i, c in enumerate(cols)}
    M = [[r.get(c, 0) for c in cols] for r in rows]
    m, n = len(M), len(cols)
    factors: list[int] = []
    top = 0
    while top < m and top < n:
        # find the nonzero entry of least magnitude
        best = None
        for i in range(top, m):
            for j in range(top, n):
                if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        M[top], M[bi] = M[bi], M[top]
        for row in M:
            row[top], row[bj] = row[bj], row[top]
        dirty = False
        for i in range(top + 1, m):
            if M[i][top] % M[top][top]:
                dirty = True
            f = M[i][top] // M[top][top]
            if f:
                for j in range(top, n):
                    M[i][j] -= f * M[top][j]
        for j in range(top + 1, n):
            if M[top][j] % M[top][top]:
                dirty = True
            f = M[top][j] // M[top][top]
            if f:
                for i in range(top, m):
                    M[i][j] -= f * M[i][top]
        if dirty or any(M[i][top] for i in range(top + 1, m)) or any(
            M[top][j] for j in range(top + 1, n)
        ):
            continue  # remainders appeared; repeat on the same corner
        factors.append(abs(M[top][top]))
        top += 1
    rank += len(factors)
    # divisibility fixup so the factors are genuine invariant factors
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a:
                from math import gcd as _gcd

                g = _gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
        factors.sort()
    return rank, [f for f in factors if f > 1]


def cohomology(K: CubicalComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Integral cohomology per degree: (free rank, invariant factors > 1)."""
    maxdim = max(K.cubes.keys(), default=-1)
    index: dict[int, dict[Cube, int]] = {}
    for q, qs in K.cubes.items():
        index[q] = {c: i for i, c in enumerate(qs)}
    rank_d: dict[int, int] = {}
    torsion_of_d: dict[int, list[int]] = {}
    for q in range(maxdim + 1):
        qs = K.cubes.get(q, ())
        higher = index.get(q + 1, {})
        # coboundary D^q: rows indexed by (q+1)-cubes, columns by q-cubes
        rows: dict[int, dict[int, int]] = {}
        for c, j in higher.items():
            row: dict[int, int] = {}
            for f, sign in c.faces():
                i = index[q][f]
                row[i] = row.get(i, 0) + sign
            rows[j] = {i: v for i, v in row.items() if v}
        rank, invs = _smith_invariants(list(rows.values()), len(qs))
        rank_d[q] = rank
        torsion_of_d[q] = invs
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    for q in range(maxdim + 1):
        free = len(K.cubes.get(q, ())) - rank_d.get(q, 0) - rank_d.get(q - 1, 0)
        out[q] = (free, tuple(torsion_of_d.get(q - 1, [])))
    return out


# ---------------------------------------------------------------------------
# graded root of the grid (degree-zero route)
# ---------------------------------------------------------------------------


def root_from_grid(W: WeightGrid) -> GradedRoot:
    """Connected components of the sublevel filtration, as a graded tree.

    The merge tree of the collared box's grid graph, built by the same
    union-find sweep as the one-branch root over the points in lexicographic
    order: each component at level n is a vertex ordered by (n, smallest
    point), joined to the component that absorbs it one level up.  Cost:
    O(p log p + r p) for p box points plus O(log k) per vertex of the root.
    """
    grid = weight_grid_extend(W)
    pts = sorted(grid.w0.keys())
    pidx = {p: i for i, p in enumerate(pts)}
    neighbors: list[list[int]] = [[] for _ in pts]
    for p, i in pidx.items():
        for j in range(grid.r):
            up = p[:j] + (p[j] + 1,) + p[j + 1 :]
            if up in pidx:
                neighbors[i].append(pidx[up])
                neighbors[pidx[up]].append(i)
    return _merge_tree([grid.w0[p] for p in pts], neighbors, max(1, max(grid.w0.values())))


# ---------------------------------------------------------------------------
# persistence of the weight filtration
# ---------------------------------------------------------------------------


def _filtration(grid: WeightGrid) -> tuple[list[Cube], list[int]]:
    cubes = list(_all_box_cubes(grid.box))
    weights = [_cube_weight(grid.w0, c) for c in cubes]
    order = sorted(range(len(cubes)), key=lambda i: (weights[i], cubes[i].dim, cubes[i]))
    return [cubes[i] for i in order], [weights[i] for i in order]


def _persistence_pairs_f2(cubes: list[Cube], cidx: dict[Cube, int]):
    """Persistence pairing over the two-element field, columns as bitmasks."""
    low_owner: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    zeroed: list[bool] = [False] * len(cubes)
    for j, cube in enumerate(cubes):
        col = 0
        for f, _ in cube.faces():
            col ^= 1 << cidx[f]
        while col:
            low = col.bit_length() - 1
            owner = low_owner.get(low)
            if owner is None:
                break
            col ^= owner
        if col:
            low_owner[col.bit_length() - 1] = col
            pairs.append((col.bit_length() - 1, j))
        else:
            zeroed[j] = True
    paired_as_birth = {i for i, _ in pairs}
    infinite = [j for j in range(len(cubes)) if zeroed[j] and j not in paired_as_birth]
    return pairs, infinite


def _persistence_pairs_q(cubes: list[Cube], cidx: dict[Cube, int]):
    """Persistence pairing over the rationals, sparse columns."""
    low_owner: dict[int, dict[int, Fraction]] = {}
    pairs: list[tuple[int, int]] = []
    zeroed = [False] * len(cubes)
    for j, cube in enumerate(cubes):
        col: dict[int, Fraction] = {}
        for f, sign in cube.faces():
            i = cidx[f]
            col[i] = col.get(i, Fraction(0)) + sign
        col = {i: v for i, v in col.items() if v}
        while col:
            low = max(col)
            owner = low_owner.get(low)
            if owner is None:
                break
            factor = col[low] / owner[low]
            for i, v in owner.items():
                nv = col.get(i, Fraction(0)) - factor * v
                if nv:
                    col[i] = nv
                else:
                    col.pop(i, None)
        if col:
            low_owner[max(col)] = col
            pairs.append((max(col), j))
        else:
            zeroed[j] = True
    paired_as_birth = {i for i, _ in pairs}
    infinite = [j for j in range(len(cubes)) if zeroed[j] and j not in paired_as_birth]
    return pairs, infinite


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
    fit: str


@dataclass(frozen=True)
class LatticeCohomology:
    """All degrees of the weight filtration's cohomology, with the q=0 module."""

    r: int
    min_w0: int
    root: GradedRoot
    module: TowerModule
    per_q: tuple[QCohomology, ...]
    torsion: dict[tuple[int, int], tuple[int, ...]]

    def rank(self, q: int, n: int) -> int:
        if 0 <= q < len(self.per_q):
            return self.per_q[q].ranks.get(n, 1 if q == 0 and n > 1 else 0)
        return 0


_VERIFY_CUBE_LIMIT = 2600


def lattice_cohomology(W: WeightGrid) -> LatticeCohomology:
    """Cohomology of every sublevel complex, graded by level, per degree.

    One persistence reduction of the weight filtration yields all ranks and
    all connecting-map ranks at once; the degree-zero result is recomputed
    through connected components and the graded root, and the two routes
    must agree.  On small grids (and always for three or more branches) the
    ranks are additionally verified level by level against integral Smith
    normal form cohomology, which also reports any torsion.
    """
    grid = weight_grid_extend(W)
    cubes, weights = _filtration(grid)
    cidx = {c: i for i, c in enumerate(cubes)}
    if grid.r <= 2:
        pairs, infinite = _persistence_pairs_f2(cubes, cidx)
    else:
        pairs, infinite = _persistence_pairs_q(cubes, cidx)
    bottom = grid.min_w0
    top_report = 1
    towers: dict[int, list[tuple[int, int]]] = {}
    for i, j in pairs:
        birth, death = weights[i], weights[j]
        if death > birth:
            towers.setdefault(cubes[i].dim, []).append((birth, death - 1))
    inf_by_q: dict[int, list[int]] = {}
    for j in infinite:
        inf_by_q.setdefault(cubes[j].dim, []).append(weights[j])
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
            if q == 0 and n >= bottom:
                alive += 1
                holding += 1
            ranks[n] = alive
            u_ranks[n] = holding
        per_q.append(QCohomology(q, tq, ranks, u_ranks, "exact"))

    torsion: dict[tuple[int, int], tuple[int, ...]] = {}
    if grid.r >= 3 or len(cubes) <= _VERIFY_CUBE_LIMIT:
        for n in range(bottom, top_report + 1):
            K = sublevel_complex(grid, n)
            hq = cohomology(K)
            for q in range(grid.r):
                free, invs = hq.get(q, (0, ()))
                if free != per_q[q].ranks[n]:
                    raise ValidationError(
                        "cohomology routes disagree: rank at degree %d level %d"
                        % (q, n)
                    )
                if invs:
                    torsion[(q, n)] = invs
            for q, (free, invs) in hq.items():
                if q >= grid.r and (free or invs):
                    raise ValidationError(
                        "cohomology routes disagree: nonzero cohomology in"
                        " degree %d" % q
                    )

    return LatticeCohomology(grid.r, bottom, root, module, tuple(per_q), torsion)


# ---------------------------------------------------------------------------
# Euler characteristic vs delta invariant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EulerDeltaReport:
    """Outcome of the Euler-characteristic/delta-invariant comparison."""

    equal: bool
    euler: int
    delta: int
    conclusive: bool

    def __bool__(self) -> bool:
        return self.equal and self.conclusive


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
    conclusive = True
    for qc in coh.per_q:
        if qc.fit != "exact":
            conclusive = False
        length = sum(t - m + 1 for m, t in qc.towers)
        total += length if qc.q % 2 == 0 else -length
    euler = -coh.min_w0 + total
    delta = W.delta
    return EulerDeltaReport(euler == delta, euler, delta, conclusive)
