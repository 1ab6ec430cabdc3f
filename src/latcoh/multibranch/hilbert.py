"""Exact multigraded Hilbert functions of curve germs from parametrizations.

Everything here is exact integer linear algebra on plain Python integers.
The local algebra of the germ is approximated by the span of all truncated
monomials in the coordinate functions.  The truncation window is certified
rather than guessed: once the window-pure orders of every branch contain a
run of multiplicity length right after the candidate conductor, Nakayama's
lemma proves that the conductor ideal lies in the local ring, the span is
exactly the local ring modulo the window, and its codimension counts are
exactly the Hilbert function values h(l) on the conductor box (the proof is
in :func:`hilbert_from_parametrization`).
"""
from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from math import gcd, lcm

from ..errors import InputError, ValidationError, as_ints
from ..semigroup import from_members as _semigroup_from_members
from ..weight1d import WeightSequence, weight_sequence
from .parametrization import BranchParametrization


# ---------------------------------------------------------------------------
# exact integer row echelon form
# ---------------------------------------------------------------------------


def _lead(v: list[int]) -> int:
    """Index of the first nonzero entry, or -1."""
    return next((i for i, x in enumerate(v) if x), -1)


def _normalize(v: list[int], lead: int) -> list[int]:
    """Divide out the content and make the leading entry positive."""
    g = gcd(*v)
    if v[lead] < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


class _Echelon:
    """Integer row echelon form, rows kept sorted by leading index."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, int, list[int]]] = []  # (lead, pivot, vector)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: list[int]):
        """Fully reduce vec; return (lead, pivot, vec) or None if it vanishes."""
        steps = 0
        for lead, piv, row in self.rows:
            c = vec[lead]
            if c:
                vec = [piv * x - c * y for x, y in zip(vec, row)]
                steps += 1
                if steps % 16 == 0:
                    lv = _lead(vec)
                    if lv < 0:
                        return None
                    vec = _normalize(vec, lv)
        lv = _lead(vec)
        if lv < 0:
            return None
        vec = _normalize(vec, lv)
        return (lv, vec[lv], vec)

    def insert(self, triple) -> None:
        insort(self.rows, triple, key=lambda t: t[0])

    def add(self, vec: list[int]):
        """Reduce and insert; return the inserted triple or None."""
        triple = self.reduce(vec)
        if triple is not None:
            self.insert(triple)
        return triple

    def leads(self) -> list[int]:
        return [lead for lead, _, _ in self.rows]


# ---------------------------------------------------------------------------
# truncated coordinate series and the monomial span
# ---------------------------------------------------------------------------


def _integer_coordinates(P: BranchParametrization) -> list[list[tuple[tuple[int, int], ...]]]:
    """Coordinate series with integer coefficients, as [coord][branch] term lists.

    Each ambient coordinate is rescaled by the least common multiple of its
    coefficient denominators across all branches; rescaling a coordinate
    function does not change the algebra the coordinates generate.
    """
    d = P.ambient_dim
    out: list[list[tuple[tuple[int, int], ...]]] = []
    for k in range(d):
        denom = 1
        for j in range(P.r):
            for coeff, _ in P.branches[j][k]:
                denom = lcm(denom, coeff.denominator)
        per_branch = []
        for j in range(P.r):
            per_branch.append(
                tuple(
                    (exp, int(coeff * denom))
                    for coeff, exp in P.branches[j][k]
                )
            )
        out.append(per_branch)
    return out


def _mult_coordinate(vec: list[int], terms_per_branch, offs: list[int]) -> list[int]:
    """Truncated product of a window vector with one coordinate function."""
    res = [0] * offs[-1]
    for j, terms in enumerate(terms_per_branch):
        top = offs[j + 1]
        for exp, c in terms:
            for a in range(offs[j], top - exp):
                x = vec[a]
                if x:
                    res[a + exp] += c * x
    return res


def _monomial_span(coords, bounds: tuple[int, ...]) -> tuple[_Echelon, list[int]]:
    """Echelon basis of the span of all truncated coordinate monomials.

    Closure by repeated multiplication: every basis row is multiplied by
    every coordinate, new directions are inserted and queued, so the final
    span contains the truncation of every monomial.  Branch blocks are laid
    out in the order of ``bounds`` and of each coordinate's term lists.
    """
    offs = [0]
    for nj in bounds:
        offs.append(offs[-1] + nj)
    ech = _Echelon()
    queue: deque = deque()
    one = [0] * offs[-1]
    for off in offs[:-1]:
        one[off] = 1
    added = ech.add(one)
    if added is not None:
        queue.append(added[2])
    while queue:
        v = queue.popleft()
        for terms_per_branch in coords:
            added = ech.add(_mult_coordinate(v, terms_per_branch, offs))
            if added is not None:
                queue.append(added[2])
    return ech, offs


# ---------------------------------------------------------------------------
# window-pure orders and the conductor certificate
# ---------------------------------------------------------------------------


def _last_block_orders(ech: _Echelon, offs: list[int]) -> frozenset[int]:
    """Orders on the last block of span elements vanishing on all others.

    Rows whose leading entry lands inside the last block are exactly (a
    basis of) the elements that are zero on every earlier block.
    """
    return frozenset(lead - offs[-2] for lead in ech.leads() if lead >= offs[-2])


@dataclass(frozen=True)
class _Analysis:
    bounds: tuple[int, ...]
    offs: list[int]
    ech: _Echelon
    pure: tuple[frozenset[int], ...]


def _analyze(coords, r: int, bounds: tuple[int, ...]) -> _Analysis:
    """The span in branch order, and the window-pure orders of every branch.

    Branch j's window-pure orders come from the span closed again with
    branch j's block last.  Closing from the monomials keeps the integers
    smaller: re-eliminating the first span's rows in the new column order
    let them grow, and made three-branch grids at two and four times the
    certified window 2-5x slower.
    """
    ech, offs = _monomial_span(coords, bounds)
    pure = []
    for j in range(r - 1):
        order = [i for i in range(r) if i != j] + [j]
        ech_j, offs_j = _monomial_span(
            [[terms[i] for i in order] for terms in coords],
            tuple(bounds[i] for i in order),
        )
        pure.append(_last_block_orders(ech_j, offs_j))
    pure.append(_last_block_orders(ech, offs))
    return _Analysis(bounds, offs, ech, tuple(pure))


def _candidate_conductor(pure: frozenset[int], nj: int) -> int:
    """One past the last order below nj that is not window-pure (0 if none)."""
    return next((x + 1 for x in range(nj - 1, -1, -1) if x not in pure), 0)


# ---------------------------------------------------------------------------
# codimension grids from the span
# ---------------------------------------------------------------------------


def _h_box(an: _Analysis, box: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Exact h on the box, for every branch count, by one threshold sweep.

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
      grew.  Blocks stay in branch order, so the next block comes first and
      its leading indices are again orders.
    - At the last axis the rows are an echelon of the last block's box
      columns.  The projection of their span onto the columns below l_last
      has rank equal to the number of pivots below l_last, and the elements
      vanishing below l_last are its kernel: F = rows - pivots below
      l_last.  With one branch the echelon of V is that echelon already.
    """
    r = len(an.bounds)
    if any(b + 1 > n for b, n in zip(box, an.bounds)):
        raise ValidationError("truncation not stabilized")

    def last_axis(leads, free: int) -> list[int]:
        # h at l_last = 0 .. box[-1]: free plus the pivots below l_last
        steps = [free] + [0] * box[-1]
        for lead in leads:
            if lead < box[-1]:
                steps[lead + 1] += 1
        return list(itertools.accumulate(steps))

    def sweep(rows, starts: list[int], k: int, free: int) -> list[int]:
        # rows: echelon rows sorted by lead, block k at column 0, block j at
        # starts[j - k]; free: dim V minus the kernels counted so far.
        # Returns h over the points of axes k .. r-1 in lexicographic order.
        if k == r - 1:
            return last_axis((lead for lead, _, _ in rows), free - len(rows))
        cols = [slice(s, s + b) for s, b in zip(starts[1:], box[k + 1 :])]
        sub_starts = list(itertools.accumulate(box[k + 1 : -1], initial=0))
        proj = _Echelon()
        rows = rows[::-1]
        per_l: list = [None] * (box[k] + 1)
        sub = None
        idx = 0
        for l in range(box[k], -1, -1):
            start = idx
            while idx < len(rows) and rows[idx][0] >= l:
                proj.add(sum((rows[idx][2][c] for c in cols), []))
                idx += 1
            if sub is None or idx > start:
                sub = sweep(proj.rows, sub_starts, k + 1, free - idx + len(proj))
            per_l[l] = sub
        return list(itertools.chain.from_iterable(per_l))

    points = itertools.product(*(range(b + 1) for b in box))
    return dict(zip(points, sweep(an.ech.rows, an.offs[:-1], 0, len(an.ech))))


# ---------------------------------------------------------------------------
# the weight grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class WeightGrid:
    """Hilbert values and weights on the rectangle spanned by the conductor.

    ``h`` maps each lattice point of the stored box (componentwise from 0 to
    ``box``, inclusive) to the codimension of functions vanishing to at
    least that multi-order; ``w0`` is the derived weight 2*h(l) - |l|.  The
    box is either the conductor rectangle itself or that rectangle plus a
    one-step collar; grids fresh from a parametrization carry the collar.
    """

    r: int
    conductor: tuple[int, ...]
    box: tuple[int, ...]
    h: dict[tuple[int, ...], int]
    w0: dict[tuple[int, ...], int] = field(
        init=False, default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.r < 1 or len(self.conductor) != self.r or len(self.box) != self.r:
            raise InputError("grid arity mismatch")
        if any(c < 0 for c in self.conductor):
            raise InputError("conductor entries must be nonnegative")
        for b, c in zip(self.box, self.conductor):
            if b not in (c, c + 1):
                raise InputError(
                    "box must be the conductor rectangle or its one-step collar"
                )
        pts = list(itertools.product(*(range(b + 1) for b in self.box)))
        for l in pts:
            if l not in self.h:
                raise InputError("grid is missing the value at %r" % (l,))
        origin = (0,) * self.r
        if self.h[origin] != 0:
            raise ValidationError("grid invariant violated: h(0) must be 0")
        for l in pts:
            for j in range(self.r):
                up = l[:j] + (l[j] + 1,) + l[j + 1 :]
                if up[j] > self.box[j]:
                    continue
                step = self.h[up] - self.h[l]
                if step not in (0, 1):
                    raise ValidationError(
                        "grid invariant violated: step %d along axis %d at %r"
                        % (step, j, l)
                    )
                if l[j] >= self.conductor[j] and step != 1:
                    raise ValidationError(
                        "grid invariant violated: flat step beyond the conductor"
                        " along axis %d at %r" % (j, l)
                    )
        w0 = {l: 2 * self.h[l] - sum(l) for l in pts}
        object.__setattr__(self, "w0", w0)

    @property
    def is_extended(self) -> bool:
        return all(b == c + 1 for b, c in zip(self.box, self.conductor))

    @property
    def min_w0(self) -> int:
        return min(self.w0.values())

    @property
    def delta(self) -> int:
        return sum(self.conductor) - self.h[self.conductor]

    def to_weight_sequence(self) -> WeightSequence:
        """The one-branch weight sequence, rebuilt through the semigroup.

        Membership below the conductor is read off the unit steps of h; the
        resulting semigroup is then run through the ordinary one-variable
        weight walk, and the walk must reproduce this grid's weights
        exactly.
        """
        if self.r != 1:
            raise InputError("weight sequence requires a single branch")
        grid = weight_grid_extend(self)
        c = grid.conductor[0]
        members = [l for l in range(c) if grid.h[(l + 1,)] == grid.h[(l,)] + 1]
        S = _semigroup_from_members(members, c)
        W = weight_sequence(S)
        if any(W.values[l] != grid.w0[(l,)] for l in range(c + 1)):
            raise ValidationError(
                "weight routes disagree: grid weights vs semigroup walk"
            )
        return W


def delta_from_grid(W: WeightGrid) -> int:
    """Gap count of the germ: total conductor minus h at the conductor."""
    return W.delta


def weight_grid_extend(W: WeightGrid) -> WeightGrid:
    """Extend a grid to the one-step collar around the conductor rectangle.

    Beyond the conductor h grows by exactly 1 per step, so the collar
    values are determined; extending an already extended grid returns it
    unchanged.
    """
    if W.is_extended:
        return W
    c = W.conductor
    newh: dict[tuple[int, ...], int] = {}
    for l in itertools.product(*(range(cj + 2) for cj in c)):
        clamped = tuple(min(x, cj) for x, cj in zip(l, c))
        excess = sum(x - y for x, y in zip(l, clamped))
        newh[l] = W.h[clamped] + excess
    return WeightGrid(W.r, c, tuple(cj + 1 for cj in c), newh)


# ---------------------------------------------------------------------------
# main entry point
# ---------------------------------------------------------------------------


_BAD_BOUND = "degree bound must be an integer, a tuple, or 'auto'"
_BAD_HINT = "conductor needs one nonnegative entry per branch"

# Windows grow by at least half each round, so the last window tried is at
# least 8 * 1.5**12 ≈ 1000 orders per branch.  A germ that never certifies
# (a branch repeated under t -> 2t, say: (t^2, t^3) and (4t^2, 8t^3)) fails
# after about 2.7 s on a shared 2-core VM.
_MAX_ROUNDS = 13

# No window may exceed this many orders on any branch: the cost grows about
# quadratically with the window (2000 orders take 34 s on the two-branch curve
# of tests/data/curve_six_coord_in.json, shared 2-core VM), and every window
# of the tests and the benchmark stays below it, 1065 being the automatic
# loop's last.
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
    max(c_j + max(m_j, 2) + 1, ⌈3 n_j / 2⌉); when the rounds run out the
    result is ``ValidationError("truncation not stabilized")``.  A round
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
        bounds = tuple(
            max(x + max(m, 2) + 1, -(-3 * n // 2))
            for x, m, n in zip(cand, mults, bounds)
        )
    raise ValidationError("truncation not stabilized")


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
    corners of the unit cube above l.  For one branch that is
    h(l+1) - h(l), the membership indicator of l in the semigroup, which is
    1 at l = c and stays 1 past it.
    """
    grid = weight_grid_extend(W)
    c = grid.conductor
    r = grid.r
    coeffs: dict[tuple[int, ...], int] = {}
    axes = list(range(r))
    for l in itertools.product(*(range(cj + 1) for cj in c)):
        total = 0
        for size in range(r + 1):
            for subset in itertools.combinations(axes, size):
                pt = list(l)
                for j in subset:
                    pt[j] += 1
                sign = -1 if size % 2 == 0 else 1
                total += sign * grid.h[tuple(pt)]
        if total:
            if r >= 2 and any(l[j] == c[j] for j in range(r)):
                raise ValidationError(
                    "nonzero tail: numerator does not vanish at %r" % (l,)
                )
            coeffs[l] = total
    return SeriesData(r, c, coeffs, "ones-past-conductor" if r == 1 else "zero")
