"""Exact multigraded Hilbert functions of curve germs from parametrizations.

Everything here is exact integer linear algebra on plain Python integers.
The local algebra of the germ is approximated by the span of all truncated
monomials in the coordinate functions, closed once per window; window-pure
orders and h are both read off its echelon.  The truncation window is
certified rather than guessed: once the window-pure orders of every branch
contain a run of multiplicity length right after the candidate conductor,
Nakayama's lemma proves that the conductor ideal lies in the local ring, the
span is exactly the local ring modulo the window, and its codimension counts
are exactly the Hilbert function values h(l) on the conductor box (the proof
is in :func:`hilbert_from_parametrization`).
"""
from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod

from ..errors import InputError, ValidationError, as_ints
from ..semigroup import from_members as _semigroup_from_members
from ..weight1d import WeightSequence, weight_sequence
from .parametrization import BranchParametrization


# ---------------------------------------------------------------------------
# exact integer row echelon form on sparse rows
# ---------------------------------------------------------------------------


def _add(rows: dict[int, dict[int, int]], vec: dict[int, int]) -> dict[int, int] | None:
    """Reduce vec by an echelon and insert it; return the new row, or None if it vanishes.

    Vectors and rows map window columns to nonzero integers, and ``rows``
    maps each row's leading column to the row, whose content is 1 and whose
    leading entry is positive.  vec is reduced fraction-free at every pivot
    column it meets, lowest first (a heap of its pending pivot columns; a
    row only touches columns from its lead on, so a column once cleared
    stays clear), which leaves it with no entry at any pivot column.  Then
    its content is divided out and it is inserted under its lowest column.
    vec itself is changed.  The span closure, the pure orders and the
    threshold sweep here, and ``complexes._persistence_pairs`` (a boundary
    column with its face positions negated, so the lead is its low), all
    reduce through this one echelon.
    """
    heap = [k for k in vec if k in rows]
    heapify(heap)
    while heap:
        k = heappop(heap)
        c = vec.get(k)
        if c is None:
            continue  # cancelled since it was pushed
        row = rows[k]
        g = gcd(row[k], c)
        p, c = row[k] // g, c // g
        if p != 1:
            for i in vec:
                vec[i] *= p
        for i, y in row.items():
            x = vec.pop(i, 0)
            if not x and i in rows:
                heappush(heap, i)
            x -= c * y
            if x:
                vec[i] = x
    if not vec:
        return None
    lead = min(vec)
    g = gcd(*vec.values())
    if vec[lead] < 0:
        g = -g
    if g != 1:
        vec = {i: x // g for i, x in vec.items()}
    rows[lead] = vec
    return vec


# ---------------------------------------------------------------------------
# truncated coordinate series and the monomial span
# ---------------------------------------------------------------------------


def _integer_coordinates(P: BranchParametrization) -> list[list[tuple[tuple[int, int], ...]]]:
    """Coordinate series with integer coefficients, as [coord][branch] term lists.

    Each ambient coordinate is rescaled by the least common multiple of its
    coefficient denominators across all branches; rescaling a coordinate
    function does not change the algebra the coordinates generate.
    """
    out = []
    for k in range(P.ambient_dim):
        terms = [P.branches[j][k] for j in range(P.r)]
        denom = lcm(*(coeff.denominator for branch in terms for coeff, _ in branch))
        out.append([tuple((exp, int(coeff * denom)) for coeff, exp in branch) for branch in terms])
    return out


def _mult_coordinate(vec: dict[int, int], terms_per_branch, offs: list[int]) -> dict[int, int]:
    """Truncated product of a window vector with one coordinate function."""
    res: dict[int, int] = {}
    for a, x in vec.items():
        j = bisect_right(offs, a) - 1
        for exp, c in terms_per_branch[j]:
            if a + exp < offs[j + 1]:
                res[a + exp] = res.get(a + exp, 0) + c * x
    return {i: x for i, x in res.items() if x}


def _monomial_span(coords, bounds: tuple[int, ...]) -> tuple[dict[int, dict[int, int]], list[int]]:
    """Echelon basis of the span of all truncated coordinate monomials.

    Closure by repeated multiplication: every basis row is multiplied by
    every coordinate, new directions are inserted and queued, so the final
    span contains the truncation of every monomial.  Branch blocks are laid
    out in branch order.
    """
    offs = list(itertools.accumulate(bounds, initial=0))
    rows: dict[int, dict[int, int]] = {}
    queue = deque([_add(rows, dict.fromkeys(offs[:-1], 1))])  # the unit is never zero
    while queue:
        v = queue.popleft()
        for terms_per_branch in coords:
            added = _add(rows, _mult_coordinate(v, terms_per_branch, offs))
            if added is not None:
                queue.append(added)
    return rows, offs


# ---------------------------------------------------------------------------
# window-pure orders and the conductor certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Analysis:
    bounds: tuple[int, ...]
    offs: list[int]
    rows: dict[int, dict[int, int]]
    pure: tuple[frozenset[int], ...]


def _pure_orders(rows: dict[int, dict[int, int]], lo: int, hi: int) -> frozenset[int]:
    """Orders on block [lo, hi) of span elements vanishing on every other block.

    The echelon rows leading at or past column t span the elements vanishing
    below t.  So an element vanishing before the block with order k on it is,
    up to scale, the row leading at lo + k plus a combination of the rows
    above it, and it can vanish past the block exactly when that row's
    projection onto the columns from hi on lies in the span of theirs.
    Walking the rows down to lo and adding each projection to one echelon
    finds those rows: their projections reduce to zero.  On the last block
    the projections are empty and every lead is pure.
    """
    proj: dict[int, dict[int, int]] = {}
    pure = set()
    for lead in sorted(rows, reverse=True):
        if lead < lo:
            break
        if _add(proj, {k: x for k, x in rows[lead].items() if k >= hi}) is None and lead < hi:
            pure.add(lead - lo)
    return frozenset(pure)


def _analyze(coords, r: int, bounds: tuple[int, ...]) -> _Analysis:
    """The span in branch order, and the window-pure orders of every branch."""
    rows, offs = _monomial_span(coords, bounds)
    pure = tuple(_pure_orders(rows, offs[j], offs[j + 1]) for j in range(r))
    return _Analysis(bounds, offs, rows, pure)


def _candidate_conductor(pure: frozenset[int], nj: int) -> int:
    """One past the last order below nj that is not window-pure (0 if none)."""
    return next((x + 1 for x in range(nj - 1, -1, -1) if x not in pure), 0)


# ---------------------------------------------------------------------------
# codimension grids from the span
# ---------------------------------------------------------------------------


def _h_box(an: _Analysis, box: tuple[int, ...]) -> list[int]:
    """Exact h on the box in its lexicographic order, by one threshold sweep.

    h(l) = dim V - F(l), where F(l) is the dimension of the subspace of the
    span V vanishing below l_j on every branch j.  The sweep fixes the
    thresholds one axis at a time, in branch order, each from the top of the
    box down, so that every axis only ever activates more rows.  Each step
    is exact for these reasons.

    - Axis 0 reads the natural echelon of V.  A row's leading index in
      block 0 is its order on branch 0, and a row leading in a later block
      vanishes on all of block 0.  In an echelon form the rows leading at or
      past l_0 span exactly the elements vanishing below l_0, so they are
      the active rows.  Nothing is re-eliminated.
    - At every later axis below the last, the active rows span the
      elements U vanishing below the thresholds fixed so far.  Every
      threshold left lies inside the box, so whether an element of U counts
      reads only the box columns of the remaining blocks.  The kernel of U's
      projection onto those columns (active rows minus the projection's
      rank) vanishes there and always counts; the rest of F is the same
      count on the projection.  So each newly active row is projected onto
      those columns and added to one incremental echelon; the sweep counts
      its kernel and goes on with its rows, again only when the active set
      grew.  Columns keep their window numbers, so the next block comes
      first and its leads, less its first column, are again orders.
    - At the last axis the rows are an echelon of the last block's box
      columns.  The projection of their span onto the columns below l_last
      has rank equal to the number of pivots below l_last, and the elements
      vanishing below l_last are its kernel: F = rows - pivots below
      l_last.  With one branch the echelon of V is that echelon already.
    """
    r, offs = len(an.bounds), an.offs
    if any(b + 1 > n for b, n in zip(box, an.bounds)):
        raise ValidationError("truncation not stabilized")
    block = {c: j for j in range(r) for c in range(offs[j], offs[j] + box[j])}  # box column -> j

    def last_axis(leads, free: int) -> list[int]:
        # h at l_last = 0 .. box[-1]: free plus the pivots below l_last
        steps = [free] + [0] * box[-1]
        for lead in leads:
            if lead < box[-1]:
                steps[lead + 1] += 1
        return list(itertools.accumulate(steps))

    def sweep(rows: dict[int, dict[int, int]], k: int, free: int) -> list[int]:
        # rows: an echelon leading in blocks k .. r-1; free: dim V minus the
        # kernels counted so far.  Returns h over the points of axes k .. r-1
        # in lexicographic order.
        if k == r - 1:
            return last_axis((lead - offs[k] for lead in rows), free - len(rows))
        proj: dict[int, dict[int, int]] = {}
        leads = sorted(rows, reverse=True)
        per_l: list = [None] * (box[k] + 1)
        sub = None
        idx = 0
        for l in range(box[k], -1, -1):
            start = idx
            while idx < len(leads) and leads[idx] >= offs[k] + l:
                _add(proj, {c: x for c, x in rows[leads[idx]].items() if block.get(c, -1) > k})
                idx += 1
            if sub is None or idx > start:
                sub = sweep(proj, k + 1, free - idx + len(proj))
            per_l[l] = sub
        return list(itertools.chain.from_iterable(per_l))

    return sweep(an.rows, 0, len(an.rows))


# ---------------------------------------------------------------------------
# the weight grid
# ---------------------------------------------------------------------------


def box_strides(box: tuple[int, ...]) -> tuple[int, ...]:
    """Index step of each axis in the lexicographic order of the box [0, box].

    Point l sits at index sum(l_a * strides[a]); the last axis varies fastest.
    """
    return tuple(prod(b + 1 for b in box[a + 1 :]) for a in range(len(box)))


def box_point(i: int, strides: tuple[int, ...]) -> tuple[int, ...]:
    """The point at index i of a box with these strides: l_a = i % strides[a-1] // strides[a]."""
    return tuple(i % above // s for above, s in zip((i + 1,) + strides, strides))


def _axis_steps(h: list[int], strides: tuple[int, ...], box: tuple[int, ...], a: int):
    """h(l + e_a) - h(l) below the top of axis a, per block of points equal before a.

    Yields each block's first index i and its steps, step t belonging to index i + t.
    """
    s = strides[a]
    period = s * (box[a] + 1)
    for i in range(0, len(h), period):
        yield i, list(map(operator.sub, h[i + s : i + period], h[i : i + period - s]))


@dataclass(frozen=True, eq=True)
class WeightGrid:
    """Hilbert values and weights on the rectangle spanned by the conductor.

    ``h`` lists, for each lattice point l of the stored box (componentwise
    from 0 to ``box``, inclusive), the codimension of functions vanishing to
    at least that multi-order; ``w0`` lists the derived weight 2*h(l) - |l|.
    Both are in the box's lexicographic order: l sits at index
    sum(l_a * strides[a]), see ``box_strides`` and ``box_point``.  The box is
    either the conductor rectangle itself or that rectangle plus a one-step
    collar; grids fresh from a parametrization carry the collar.
    """

    r: int
    conductor: tuple[int, ...]
    box: tuple[int, ...]
    h: list[int]
    w0: list[int] = field(init=False, default=None, compare=False, repr=False)
    strides: tuple[int, ...] = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.r < 1 or len(self.conductor) != self.r or len(self.box) != self.r:
            raise InputError("grid arity mismatch")
        if any(c < 0 for c in self.conductor):
            raise InputError("conductor entries must be nonnegative")
        if any(b not in (c, c + 1) for b, c in zip(self.box, self.conductor)):
            raise InputError("box must be the conductor rectangle or its one-step collar")
        h, strides = self.h, box_strides(self.box)
        size = strides[0] * (self.box[0] + 1)
        if not isinstance(h, list) or len(h) != size:
            raise InputError("grid needs a list of %d values, one per box point" % size)
        if h[0] != 0:
            raise ValidationError("grid invariant violated: h(0) must be 0")
        bad = []  # the first bad step along each axis, as (index, axis, step)
        for a, c in enumerate(self.conductor):
            top = c * strides[a]  # steps from offset top on start past the conductor
            for start, steps in _axis_steps(h, strides, self.box, a):
                if not (set(steps[:top]) <= {0, 1} and set(steps[top:]) <= {1}):
                    t = next(
                        t for t, d in enumerate(steps) if d not in (0, 1) or t >= top and d != 1
                    )
                    bad.append((start + t, a, steps[t]))
                    break
        if bad:
            i, a, step = min(bad)
            where = "along axis %d at %r" % (a, box_point(i, strides))
            if step not in (0, 1):
                raise ValidationError("grid invariant violated: step %d %s" % (step, where))
            raise ValidationError("grid invariant violated: flat step beyond the conductor " + where)
        norms = [0]  # |l| in lexicographic order
        for b in self.box:
            norms = [x + t for x in norms for t in range(b + 1)]
        object.__setattr__(self, "strides", strides)
        object.__setattr__(self, "w0", [2 * x - n for x, n in zip(h, norms)])

    @property
    def is_extended(self) -> bool:
        return all(b == c + 1 for b, c in zip(self.box, self.conductor))

    @property
    def min_w0(self) -> int:
        return min(self.w0)

    @property
    def delta(self) -> int:
        at_conductor = sum(c * s for c, s in zip(self.conductor, self.strides))
        return sum(self.conductor) - self.h[at_conductor]

    def to_weight_sequence(self) -> WeightSequence:
        """The one-branch weight sequence, rebuilt through the semigroup.

        Membership below the conductor is read off the unit steps of h, and
        the resulting semigroup is run through the ordinary one-variable
        weight walk.  The walk then reproduces this grid's weights exactly
        when the semigroup's conductor is the grid's, which is checked.
        """
        if self.r != 1:
            raise InputError("weight sequence requires a single branch")
        c, h = self.conductor[0], self.h
        members = [l for l in range(c) if h[l + 1] == h[l] + 1]
        W = weight_sequence(_semigroup_from_members(members, c))
        if W.conductor != c:
            raise ValidationError(
                "weight routes disagree: grid conductor %d, semigroup conductor %d"
                % (c, W.conductor)
            )
        return W


def weight_grid_extend(W: WeightGrid) -> WeightGrid:
    """Extend a grid to the one-step collar around the conductor rectangle.

    Beyond the conductor h grows by exactly 1 per step, so the collar
    values are determined: each axis without its collar gets, in every
    block, a top slab equal to its last slab plus one.  Extending an
    already extended grid returns it unchanged.
    """
    if W.is_extended:
        return W
    h, box = W.h, list(W.box)
    for a, c in enumerate(W.conductor):
        if box[a] == c:
            s = box_strides(box)[a]
            period = s * (c + 1)
            blocks = (h[i : i + period] for i in range(0, len(h), period))
            h = [x for block in blocks for x in block + [y + 1 for y in block[-s:]]]
            box[a] = c + 1
    return WeightGrid(W.r, W.conductor, tuple(box), h)


# ---------------------------------------------------------------------------
# main entry point
# ---------------------------------------------------------------------------


_BAD_BOUND = "degree bound must be an integer, a tuple, or 'auto'"
_BAD_HINT = "conductor needs one nonnegative entry per branch"

# Windows grow by at least half each round, so the last window tried is at
# least 8 * 1.5**12 ≈ 1000 orders per branch.  This bounds rounds, not time:
# a germ that never certifies raises InputError (exit 2) after the last round,
# which takes about 0.04 s for (t^2, t^3) and (4t^2, 8t^3) (a branch repeated
# under t -> 2t, which make_parametrization rejects but BranchParametrization
# takes as given) but 1.8-2.6 s for (t^2, t^3) with its t -> t + t^2 image,
# which nothing rejects up front (shared 2-core VM).
_MAX_ROUNDS = 13

# No window may exceed this many orders on any branch.  The cost depends on
# the germ: at 1000, 2000 and 4096 orders the curves of
# tests/data/curve_six_coord_in.json and curve_three_branch_in.json take
# 0.04/0.09/0.21 s and 0.09/0.16/0.38 s, but (t^2, t^3) with its t -> t + t^2
# image takes 1.4/5.0/39 s (shared 2-core VM).  Every window of the tests and
# the benchmark stays below it, 1065 being the automatic loop's last.
_MAX_WINDOW = 4096


def hilbert_from_parametrization(
    P: BranchParametrization,
    degree_bound: object = "auto",
    conductor: tuple[int, ...] | None = None,
) -> WeightGrid:
    """Exact Hilbert grid of a parametrized germ, with certified conductor.

    Write O for the local ring of the germ, Ō = ⊕ C{t_j} for its
    normalization, m for the maximal ideal of O, m_j for the multiplicity
    of branch j, and n = (n_j) for the truncation window.  The span computed
    here is the image V of O in Ō/t^n Ō.  An order k < n_j is *window-pure*
    on branch j when some element of V vanishes on every other branch and
    has order k on branch j.  The certificate for c is: on every branch,
    c_j + max(m_j, 2) <= n_j and the orders c_j .. c_j+m_j-1 are
    window-pure.  It is exact, by these four steps.

    1. Window-pure orders include every truly pure order below the window:
       an element of O that vanishes on the other branches truncates to
       one of V.
    2. The certificate gives t^c Ō ⊆ O.  Each window-pure order k in the
       run comes from an element of O that has order k on branch j and
       order >= n_i >= c_i + m_i on every other branch i.  Those elements
       span t^c Ō modulo t^{c+m} Ō, so t^c Ō ⊆ O + t^{c+m} Ō.  As m Ō is
       ⊕ t_j^{m_j} C{t_j}, t^{c+m} Ō = m·t^c Ō, and Nakayama's lemma on
       the finite O-module (t^c Ō + O)/O gives t^c Ō ⊆ O.
    3. Once t^c Ō ⊆ O and n >= c, window-pure and truly pure orders
       agree: the tail of a window-pure element on the other branches lies
       in t^c Ō ⊆ O and can be subtracted.  So if c_j - 1 is not
       window-pure, it is a true gap, and c is the conductor: not larger,
       since c_j - 1 is not pure, and not smaller, since t^c Ō ⊆ O.
    4. Then O ∩ t^n Ō = t^n Ō, so V = O/t^n Ō, and h on the box up to
       c + 1 is exact since n >= c + 2.

    One loop analyses one window at a time.  The first window is the
    pinned ``degree_bound`` (an int, or one int per branch), or
    c_j + max(m_j, 2) for a ``conductor`` hint c, or else
    max(8, 2 m_j + 4); pinned and hinted windows get one round.  Each round
    takes the candidate c_j one past the last order below n_j that is not
    window-pure, so every order from c_j to the window edge is window-pure
    by construction, and the certificate for the candidate is the room
    check c_j + max(m_j, 2) <= n_j.  The first window with room on every
    branch gives the grid.  Otherwise each window grows to
    max(c_j + max(m_j, 2) + 1, ⌈3 n_j / 2⌉); when the ``_MAX_ROUNDS``
    rounds run out the result is an ``InputError`` naming the last window: by
    step 1 the germ is not reduced, or its conductor lies past that window.
    A pinned or hinted window without room is
    ``ValidationError("truncation not stabilized")``.  A round
    whose window exceeds ``_MAX_WINDOW`` orders on some branch raises
    ``InputError`` before any work, so pinned, hinted and grown windows are
    bounded alike.  A window
    past the true conductor by max(m_j, 2) always has room, by step 1.

    A hint needs the same room, and is accepted exactly when it equals the
    candidate.  Window-pure orders are closed under adding m_j below n_j
    (multiply by a coordinate of order m_j on branch j), so the hint's run
    is window-pure exactly when the candidate is at most the hint, and
    hint - 1 is window-pure exactly when the candidate is below the hint.
    Branch by branch, a hint without room is "truncation not stabilized"
    and one below the candidate is "not confirmed"; then a hint above the
    candidate is "not minimal".  By steps 2 and 3 an accepted hint is the
    conductor.
    """
    r = P.r
    mults = tuple(P.branch_multiplicity(j) for j in range(r))
    hint = None
    if conductor is not None:
        hint = as_ints(conductor, "conductor", _BAD_HINT)
        if len(hint) != r or min(hint) < 0:
            raise InputError(_BAD_HINT)
    rounds = 1
    if degree_bound != "auto":
        if isinstance(degree_bound, int) and not isinstance(degree_bound, bool):
            degree_bound = (degree_bound,) * r
        bounds = as_ints(degree_bound, "degree bound", _BAD_BOUND)
        if len(bounds) != r:
            raise InputError("degree bound needs one entry per branch")
        if min(bounds) < 4:
            raise InputError("degree bound must be at least 4")
    elif hint is not None:
        bounds = tuple(c + max(m, 2) for c, m in zip(hint, mults))
    else:
        bounds = tuple(max(8, 2 * m + 4) for m in mults)
        rounds = _MAX_ROUNDS

    coords = _integer_coordinates(P)
    for _ in range(rounds):
        for j, n in enumerate(bounds):
            if n > _MAX_WINDOW:
                raise InputError(
                    "truncation window of %d orders on branch %d is above the"
                    " ceiling of %d" % (n, j, _MAX_WINDOW)
                )
        an = _analyze(coords, r, bounds)
        cand = tuple(_candidate_conductor(p, n) for p, n in zip(an.pure, bounds))
        c = cand if hint is None else hint
        for j in range(r):
            if c[j] + max(mults[j], 2) > bounds[j]:
                break
            if cand[j] > c[j]:
                raise ValidationError(
                    "conductor not confirmed within the truncation window"
                    " on branch %d" % j
                )
        else:
            for j in range(r):
                if cand[j] < c[j]:
                    raise ValidationError("conductor not minimal on branch %d" % j)
            box = tuple(x + 1 for x in c)
            return WeightGrid(r, c, box, _h_box(an, box))
        if rounds == 1:
            raise ValidationError("truncation not stabilized")
        last, bounds = bounds, tuple(
            max(x + max(m, 2) + 1, -(-3 * n // 2))
            for x, m, n in zip(cand, mults, bounds)
        )
    raise InputError(
        "no conductor certified up to the truncation window %s: the curve is not"
        " reduced (a repeated or multiply covered branch), or its conductor needs"
        " a larger window, which a pinned window or a conductor hint can reach"
        " up to the ceiling of %d orders" % (list(last), _MAX_WINDOW)
    )


# ---------------------------------------------------------------------------
# the numerator series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesData:
    """Hilbert series data: the numerator coefficients inside the conductor box.

    For one branch the numerator support is the value semigroup clipped to
    the conductor, with an implicit tail of ones past it; for several
    branches the numerator is an honest polynomial supported inside the
    conductor rectangle and the tail is zero.
    """

    r: int
    conductor: tuple[int, ...]
    coefficients: dict[tuple[int, ...], int]
    tail: str


def series(W: WeightGrid) -> SeriesData:
    """Numerator of the multigraded Hilbert series, from differences of h.

    The coefficient at l is the inclusion-exclusion sum of h over the
    corners of the unit cube above l, (-1)^(r+1) D_1 ... D_r h(l) with D_a
    the forward difference along axis a.  On the collared grid the
    differences run one axis at a time; each shortens its axis by one and
    leaves the strides of the later axes alone, and the last leaves the
    conductor rectangle in lexicographic order.  For one branch the
    coefficient is h(l+1) - h(l), the membership indicator of l in the
    semigroup, which is 1 at l = c and stays 1 past it.
    """
    grid = weight_grid_extend(W)
    c, r, diffs = grid.conductor, grid.r, grid.h
    for a in range(r):
        diffs = [d for _, steps in _axis_steps(diffs, grid.strides, grid.box, a) for d in steps]
    sign = 1 if r % 2 else -1
    strides = box_strides(c)
    coeffs: dict[tuple[int, ...], int] = {}
    for i, d in enumerate(diffs):
        if d:
            l = box_point(i, strides)
            if r >= 2 and any(l[j] == c[j] for j in range(r)):
                raise ValidationError(
                    "nonzero tail: numerator does not vanish at %r" % (l,)
                )
            coeffs[l] = sign * d
    return SeriesData(r, c, coeffs, "ones-past-conductor" if r == 1 else "zero")
