"""Independent, deliberately naive reference implementations.

Everything here recomputes quantities from first principles with none of the
library's machinery (no shared echelon code, no incremental updates, no
union-find), so agreement is meaningful.  Slow on purpose; only run on small
inputs.
"""
from __future__ import annotations

import itertools
from collections import Counter, deque
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# Semigroups, the slow way

def naive_closure(gens, bound):
    """Membership bitmap of the monoid generated by gens, up to bound."""
    mem = [False] * (bound + 1)
    mem[0] = True
    changed = True
    while changed:
        changed = False
        for x in range(bound + 1):
            if mem[x]:
                continue
            for g in gens:
                if g <= x and mem[x - g]:
                    mem[x] = True
                    changed = True
                    break
    return mem


def naive_conductor(mem):
    last_gap = -1
    for x, m in enumerate(mem):
        if not m:
            last_gap = x
    return last_gap + 1


def naive_first_unclosed_pair(members, c):
    """First pair a <= b of positive members, in scan order, whose sum below c is not a member."""
    member = [x in set(members) for x in range(c)]
    for a in range(1, c):
        for b in range(a, c - a):
            if member[a] and member[b] and not member[a + b]:
                return a, b
    return None


def naive_minimal_generators(gaps):
    """Minimal generators of the numerical semigroup N minus ``gaps``.

    A positive element is a minimal generator when it is not the sum of two
    positive elements, tried here against every split.  With c = max gap + 1
    the multiplicity m is at most c and anything from c + m on is m plus an
    element, so every minimal generator lies below 2c + 2.
    """
    c = max(gaps) + 1 if gaps else 0
    member = [x not in gaps for x in range(2 * c + 2)]
    return tuple(
        s
        for s in range(1, 2 * c + 2)
        if member[s] and not any(member[a] and member[s - a] for a in range(1, s))
    )


def naive_w0(members, l):
    """2 * #(members strictly below l) - l."""
    return 2 * sum(1 for s in members if s < l) - l


def naive_weight_values(mem, conductor):
    members = [x for x, m in enumerate(mem) if m]
    return [naive_w0(members, l) for l in range(conductor + 1)]


def naive_components(values, n):
    """Maximal runs of positions with value <= n, as (start, end) pairs."""
    runs, start = [], None
    for i, v in enumerate(values):
        if v <= n and start is None:
            start = i
        if v > n and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(values) - 1))
    return runs


def naive_root(values):
    """Graded root of a weight walk, rebuilt level by level.

    Every level n from min(values) to max(1, max(values)) is rescanned with
    naive_components; each run is a vertex, ids sorted by (n, run start), and
    each run gets one edge to the run one level up that contains it.
    Returns (vertices, edges, truncation level) as sorted tuples.
    """
    top = max(1, max(values))
    runs = {n: naive_components(values, n) for n in range(min(values), top + 1)}
    ids = {key: i for i, key in enumerate(sorted((n, a) for n in runs for a, _b in runs[n]))}
    edges = []
    for n in range(min(values), top):
        for a, b in runs[n]:
            (up,) = [c for c, d in runs[n + 1] if c <= a and b <= d]
            edges.append((ids[(n, a)], ids[(n + 1, up)]))
    return tuple((i, n) for (n, _a), i in ids.items()), tuple(sorted(edges)), top


def _nested_form(root, level):
    """The root read down from ``level`` as nested (chi, sorted child forms) tuples.

    Above its truncation level the root is continued as a single chain up to
    ``level``.
    """
    chi = dict(root.vertices)
    kids = {v: [] for v in chi}
    for lo, hi in root.edges:
        kids[hi].append(lo)

    def form(v):
        return (chi[v], tuple(sorted(form(k) for k in kids[v])))

    (top,) = [v for v, n in chi.items() if n == root.truncation_level]
    nested = form(top)
    for n in range(root.truncation_level + 1, level + 1):
        nested = (n, (nested,))
    return nested


def naive_isomorphic(first, second):
    """Level-preserving isomorphism of two graded roots, by the definition.

    Each root is continued upward as a single chain to the higher of the two
    truncation levels; the two are isomorphic exactly when their nested forms
    read down from that level agree.  Recursive; small roots only.
    """
    level = max(first.truncation_level, second.truncation_level)
    return _nested_form(first, level) == _nested_form(second, level)


def naive_initial_elements(values):
    """Initial elements of a one-branch weight walk, by counting root vertices.

    On naive_root(values): e is one above the highest level where two
    vertices have children (the base level if there is none).  Every level n
    from 0 down to e keeps half of its vertices, rounding up only at an odd
    base level e; with the kept levels sorted from high to low, the i-th
    kept level n_i gives the element 2 * i - n_i.
    """
    vertices, edges, _top = naive_root(values)
    level = dict(vertices)
    count = Counter(level.values())
    parents_at = Counter(level[p] for p in {p for _child, p in edges})
    base = min(count)
    e = max([base] + [n + 1 for n, k in parents_at.items() if k >= 2])
    kept = []
    for n in range(0, e - 1, -1):
        keep = count[n] // 2
        if n == e == base and count[n] % 2 == 1:
            keep += 1
        kept.extend([n] * keep)
    kept.sort(reverse=True)
    return tuple(sorted(2 * i - n for i, n in enumerate(kept)))


def naive_grid_root(w0):
    """Graded root of a weight function on a box, by breadth-first search.

    w0 maps lattice points (tuples) to weights.  At every level n from the
    minimum weight to max(1, max weight) the points of weight <= n are split
    into components along unit steps by a fresh search; each component is a
    vertex, ids sorted by (n, lexicographically smallest point), with one
    edge to the component one level up that holds its smallest point.
    Returns (vertices, edges, truncation level) as sorted tuples.
    """
    top = max(1, max(w0.values()))
    comps = {}
    for n in range(min(w0.values()), top + 1):
        low = {p for p, w in w0.items() if w <= n}
        seen, comps[n] = set(), []
        for p in sorted(low):
            if p in seen:
                continue
            seen.add(p)
            comp, queue = {p}, deque([p])
            while queue:
                q = queue.popleft()
                for axis in range(len(q)):
                    for step in (-1, 1):
                        nb = q[:axis] + (q[axis] + step,) + q[axis + 1 :]
                        if nb in low and nb not in seen:
                            seen.add(nb)
                            comp.add(nb)
                            queue.append(nb)
            comps[n].append((p, comp))
    ids = {key: i for i, key in enumerate(sorted((n, p) for n in comps for p, _c in comps[n]))}
    edges = []
    for n in range(min(w0.values()), top):
        for p, _comp in comps[n]:
            (up,) = [q for q, comp in comps[n + 1] if p in comp]
            edges.append((ids[(n, p)], ids[(n + 1, up)]))
    return tuple((i, n) for (n, _p), i in ids.items()), tuple(sorted(edges)), top


def brute_force_symmetric_semigroups(max_conductor):
    """All additively closed symmetric sets with conductor <= max_conductor.

    Pure exhaustion over membership bitmaps; feasible up to ~16.  Returns
    sorted tuples of members below the conductor.
    """
    found = []
    for c in range(0, max_conductor + 1):
        if c == 0:
            found.append(((), 0))
            continue
        if c % 2 != 0:
            continue  # symmetric sets have even conductor
        inner = list(range(1, c - 1))  # 0 is in, c-1 must be out
        for bits in itertools.product([False, True], repeat=len(inner)):
            mem = [True] + list(bits) + [False, True]
            members = [x for x in range(c) if mem[x]]
            mset = set(members)
            closed = all(
                (a + b in mset or a + b >= c)
                for a in members
                for b in members
            )
            if not closed:
                continue
            symmetric = all((x in mset) != ((c - 1 - x) in mset) for x in range(c))
            if not symmetric:
                continue
            found.append((tuple(members), c))
    return found


# ---------------------------------------------------------------------------
# Dense exact linear algebra over Q

def frac_rank(rows):
    """Row rank of a list of Fraction lists."""
    return _sparse_rank([{c: Fraction(v) for c, v in enumerate(r) if v} for r in rows])


def _sparse_rank(rows):
    """Row rank over Q of rows given as {column: nonzero exact number}."""
    return sum(_new_directions(rows))


def _new_directions(rows):
    """For each row, whether it is independent of the rows before it, over Q.

    Each row is reduced against the pivot rows kept so far, always on its
    largest column: while that column holds a pivot row p, scaled to 1
    there, the row becomes row - row[col] * p.  A row left nonzero becomes
    the pivot row of its largest column; a row reduced to nothing depends
    on the rows before it.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row and (col := max(row)) in pivots:
            f = row[col]
            for c, v in pivots[col].items():
                nv = row.get(c, 0) - f * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
        if row:
            lead = row[col]
            inv = lead if lead in (1, -1) else 1 / Fraction(lead)  # integer rows stay integer
            pivots[col] = {c: v * inv for c, v in row.items()}
        yield bool(row)


def _det(rows):
    """Determinant of a square Fraction matrix by elimination."""
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, len(rows)):
            f = rows[i][col] / rows[col][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return det


def naive_invariant_factors(dense):
    """Invariant factors of an integer matrix from its determinantal divisors.

    d_k is the gcd of all k x k minors; the k-th factor is d_k / d_(k-1), for
    every k up to the rank.  Exponential in the size; small matrices only.
    """
    m, n = len(dense), len(dense[0])
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        d = 0
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                minor = _det([[Fraction(dense[i][j]) for j in cs] for i in rs])
                d = gcd(d, int(minor))
        if d == 0:
            break
        divisors.append(d)
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


# ---------------------------------------------------------------------------
# Hilbert grids, the slow way: brute-force monomials, dense Fractions

def _series_mul(a, b, cut):
    out = [Fraction(0)] * cut
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j >= cut:
                break
            if y != 0:
                out[i + j] += x * y
    return out


def naive_hilbert_grid(branches, bounds, box):
    """h on the lattice box, from scratch: h(l) for every l with 0 <= l <= box.

    See :func:`naive_hilbert_values` for the arguments and the method.
    """
    return naive_hilbert_values(branches, bounds, itertools.product(*(range(b + 1) for b in box)))


def naive_hilbert_values(branches, bounds, points):
    """h at the given lattice points, from scratch, as a dict keyed by point.

    branches: per branch, a list of coordinate series given as
    [(coeff, exponent), ...] with Fraction coefficients.  bounds: truncation
    window per branch.  points: the points l to compute h(l) at.

    The local algebra is spanned by monomials in the coordinates; exponent
    vectors are enumerated exhaustively up to the window size.  Each monomial
    becomes one dense vector over all branches; h(l) = dim V - dim of the
    subspace vanishing below l componentwise.
    """
    r = len(branches)
    k = len(branches[0])
    cuts = list(bounds)

    # per coordinate, per branch: dense truncated series
    dense = []
    for i in range(k):
        per_branch = []
        for j in range(r):
            v = [Fraction(0)] * cuts[j]
            for coeff, e in branches[j][i]:
                if e < cuts[j]:
                    v[e] += Fraction(coeff)
            per_branch.append(v)
        dense.append(per_branch)

    ords = []
    for i in range(k):
        o = min(
            next((e for e, x in enumerate(dense[i][j]) if x != 0), cuts[j])
            for j in range(r)
        )
        ords.append(max(o, 1))

    # every exponent vector that can still touch some window: a monomial's
    # order in each branch is at least its weighted degree in the global
    # minimal orders, so degree > max window means the zero vector
    vectors = []
    max_deg = max(cuts)
    max_pow = [max_deg // ords[i] for i in range(k)]
    for expo in itertools.product(*(range(m + 1) for m in max_pow)):
        if sum(e * o for e, o in zip(expo, ords)) > max_deg:
            continue
        per_branch = []
        for j in range(r):
            acc = [Fraction(0)] * cuts[j]
            acc[0] = Fraction(1)
            for i in range(k):
                for _ in range(expo[i]):
                    acc = _series_mul(acc, dense[i][j], cuts[j])
            per_branch.append(acc)
        vectors.append([x for chunk in per_branch for x in chunk])

    # h(l) reads only the span: keep the monomials independent of those before
    sparse = [{c: x for c, x in enumerate(v) if x} for v in vectors]
    vectors = [v for v, new in zip(vectors, _new_directions(sparse)) if new]

    offs = [sum(cuts[:j]) for j in range(r)]
    h = {}
    for l in points:
        # h(l) = codimension of the vanishing-to-order-l subspace, which is
        # the rank of the evaluation on the coefficients below l
        low = []
        for j in range(r):
            low.extend(range(offs[j], offs[j] + min(l[j], cuts[j])))
        proj = [[row[c] for c in low] for row in vectors]
        proj = [p for p in proj if any(x != 0 for x in p)]
        h[l] = frac_rank(proj)
    return h


def naive_series(h, conductor):
    """Hilbert series numerator from h, summing the corners at every point.

    h maps each point of the collared box [0, conductor + 1] (componentwise)
    to its Hilbert value.  The coefficient at l in [0, conductor] is the
    sum over every set S of axes of (-1)^(|S|+1) h(l + e_S), the 2^r corners
    of the unit cube above l.  Returns the nonzero coefficients by point,
    and the tail: "ones-past-conductor" for one branch, otherwise "zero"
    when no coefficient with some l_j = c_j is nonzero, else "nonzero".
    """
    r = len(conductor)
    coefficients = {}
    for l in itertools.product(*(range(c + 1) for c in conductor)):
        total = 0
        for size in range(r + 1):
            for axes in itertools.combinations(range(r), size):
                corner = tuple(x + (a in axes) for a, x in enumerate(l))
                total += (-1) ** (size + 1) * h[corner]
        if total:
            coefficients[l] = total
    if r == 1:
        return coefficients, "ones-past-conductor"
    on_far_face = any(any(x == c for x, c in zip(l, conductor)) for l in coefficients)
    return coefficients, "nonzero" if on_far_face else "zero"


# ---------------------------------------------------------------------------
# Cubical cohomology, the slow way: coboundaries over Q from scratch

def _cube_faces(base, axes):
    """Faces of the cube (base, axes) with incidence signs, from scratch."""
    out = []
    for pos, a in enumerate(axes):
        rest = tuple(x for x in axes if x != a)
        sign = -1 if pos % 2 else 1
        upper = tuple(b + (1 if i == a else 0) for i, b in enumerate(base))
        out.append(((upper, rest), sign))
        out.append(((base, rest), -sign))
    return out


def naive_box_cubes(w0):
    """Every cube (base, axes) of the box under w0, with its weight.

    w0 maps each point of a box [0, b_1] x ... x [0, b_r] to its weight.  A
    cube's weight is the max of w0 over its 2^dim vertices, each vertex
    listed explicitly.  Returned sorted by (weight, dim, base, axes).
    """
    r = len(next(iter(w0)))
    box = tuple(max(p[a] for p in w0) for a in range(r))
    out = []
    for base in sorted(w0):
        free = [a for a in range(r) if base[a] < box[a]]
        for size in range(len(free) + 1):
            for axes in itertools.combinations(free, size):
                verts = [
                    tuple(b + (1 if a in step else 0) for a, b in enumerate(base))
                    for k in range(size + 1)
                    for step in itertools.combinations(axes, k)
                ]
                out.append(((base, axes), max(w0[v] for v in verts)))
    out.sort(key=lambda cw: (cw[1], len(cw[0][1]), cw[0]))
    return out


def naive_sublevel_cubes(w0, n):
    """The cubes of weight <= n, as dict q -> sorted list of (base, axes)."""
    out = {}
    for cube, weight in naive_box_cubes(w0):
        if weight <= n:
            out.setdefault(len(cube[1]), []).append(cube)
    return {q: sorted(cs) for q, cs in out.items()}


def naive_persistence_towers(w0):
    """Finite towers per degree of the sublevel filtration of w0.

    Columns are the boundaries of naive_box_cubes in filtration order,
    reduced over Q left to right against every earlier column, with no
    clearing and no shortcut.  A pair (i, j) with weight(j) > weight(i) is the
    tower [weight(i), weight(j) - 1] in degree dim(i).  Returns (towers, the
    (degree, weight) of each unpaired cube), towers as q -> sorted tuple.
    """
    cubes = naive_box_cubes(w0)
    index = {cube: i for i, (cube, _w) in enumerate(cubes)}
    owner, paired = {}, set()
    towers = {}
    for j, (cube, weight) in enumerate(cubes):
        col = {}
        for face, sign in _cube_faces(*cube):
            col[index[face]] = col.get(index[face], 0) + Fraction(sign)
        col = {i: v for i, v in col.items() if v}
        while col and max(col) in owner:
            prev = owner[max(col)]
            factor = col[max(col)] / prev[max(prev)]
            for i, v in prev.items():
                col[i] = col.get(i, 0) - factor * v
            col = {i: v for i, v in col.items() if v}
        if col:
            low = max(col)
            owner[low] = col
            paired.update((low, j))
            birth = cubes[low][1]
            if weight > birth:
                towers.setdefault(len(cubes[low][0][1]), []).append((birth, weight - 1))
    unpaired = [(len(c[1]), w) for j, (c, w) in enumerate(cubes) if j not in paired]
    return {q: tuple(sorted(t)) for q, t in towers.items()}, unpaired


def naive_betti(cubes_by_dim, max_q):
    """Rational Betti numbers of a cubical complex.

    cubes_by_dim: dict q -> list of cubes, each cube a (base, axes) pair with
    base a tuple and axes a sorted tuple of axis indices.  Coboundary of a
    q-cube: all (q+1)-cubes having it as a face, with the incidence signs
    recomputed here from scratch.
    """
    betti = {}
    ranks = {}
    for q in range(max_q + 1):
        rows_idx = {c: i for i, c in enumerate(cubes_by_dim.get(q, []))}
        cols = cubes_by_dim.get(q + 1, [])
        mat = []
        for big in cols:
            row = {}
            for face, sign in _cube_faces(*big):
                row[rows_idx[face]] = row.get(rows_idx[face], 0) + sign
            mat.append({c: v for c, v in row.items() if v})
        ranks[q] = _sparse_rank(mat)
    for q in range(max_q + 1):
        n_q = len(cubes_by_dim.get(q, []))
        betti[q] = n_q - ranks.get(q, 0) - ranks.get(q - 1, 0)
    return betti


# ---------------------------------------------------------------------------
# Plane curve topology: closed formulas

def hironaka_delta(first, second):
    """delta of the plane curve of two monomial branches (t^x, t^y), gcd(x, y) = 1.

    Hironaka's formula delta = delta_1 + delta_2 + (C_1 . C_2).  The branch
    (t^x, t^y) has the semigroup <x, y>, so delta_i = (x_i - 1)(y_i - 1) / 2,
    and C_1 . C_2 is the order in u of y^x_1 - x^y_1 at (u^x_2, u^y_2),
    min(x_1 y_2, x_2 y_1) when the two differ (else the branches coincide).
    """
    (x1, y1), (x2, y2) = first, second
    if gcd(x1, y1) != 1 or gcd(x2, y2) != 1 or x1 * y2 == x2 * y1:
        raise ValueError("need two distinct primitive branches")
    return (x1 - 1) * (y1 - 1) // 2 + (x2 - 1) * (y2 - 1) // 2 + min(x1 * y2, x2 * y1)


def zariski_generators(n, exponents):
    """Minimal generators of the semigroup of the plane branch (t^n, sum a_k t^k).

    exponents are the k with a_k != 0, every one above n.  The characteristic
    exponents are beta_0 = n and, in turn, the least exponent that the
    running gcd e_i of those before it does not divide, until e_g = 1; then
    Zariski's recursion gives the generators: bar beta_0 = n, bar beta_1 =
    beta_1, and bar beta_{i+1} = (e_{i-1} / e_i) bar beta_i - beta_i + beta_{i+1}
    (Zariski, Le probleme des modules pour les branches planes, 1973; Wall,
    Singular Points of Plane Curves, 2004, ch. 4).
    """
    betas, es = [n], [n]
    for k in sorted(exponents):
        if k <= n:
            raise ValueError("every exponent must exceed n")
        if k % es[-1]:
            betas.append(k)
            es.append(gcd(es[-1], k))
    if es[-1] != 1:
        raise ValueError("need gcd(n, exponents) = 1")
    bars = betas[:2]
    for i in range(1, len(betas) - 1):
        bars.append(es[i - 1] // es[i] * bars[i] - betas[i] + betas[i + 1])
    return bars
