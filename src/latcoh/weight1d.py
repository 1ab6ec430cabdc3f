"""Weight sequences of cofinite subsets of the naturals.

For a cofinite set S with conductor c the weight of a lattice point l is

    w0(l) = #([0, l) intersect S) - #([0, l) minus S),

so w0 walks up by one across a member and down by one across a gap.  Past
the conductor it climbs forever, so everything interesting happens on
[0, c].  Sublevel sets S_n = {l : w0(l) <= n} (together with the unit
segments whose endpoints both lie in S_n) are the spaces whose component
structure builds the graded root.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import ValidationError
from .semigroup import CofiniteSet


@dataclass(frozen=True)
class Interval:
    """A connected component of a sublevel set, clipped to [0, conductor].

    ``unbounded`` marks the component that keeps going past the conductor
    (the weight keeps climbing out there, so no new components ever appear
    beyond the box, but the last one may extend).
    """

    start: int
    end: int
    unbounded: bool = False


@dataclass(frozen=True)
class WeightSequence:
    """w0 tabulated on [0, conductor], plus the set it came from."""

    values: tuple[int, ...]
    conductor: int
    source: CofiniteSet

    def __getitem__(self, l: int) -> int:
        """w0(l) for any l >= 0; past the conductor the walk is all ascents."""
        if l <= self.conductor:
            return self.values[l]
        return self.values[self.conductor] + (l - self.conductor)


def weight_sequence(S: CofiniteSet) -> WeightSequence:
    """w0 on [0, c] by the step recursion, checked at the conductor.

    Membership is read from ``S.membership`` below the conductor; every
    point at or past it is a member.  The walk must end at
    w0(c) = (c - delta) - delta, with delta the separately counted gaps.
    """
    c = S.conductor
    vals = tuple(accumulate(map((-1, 1).__getitem__, S.membership[:c]), initial=0))
    if vals[c] != c - 2 * S.delta:
        raise ValidationError(
            "weight walk ends at %d, but c - 2 delta is %d" % (vals[c], c - 2 * S.delta)
        )
    return WeightSequence(vals, c, S)


def min_w0(W: WeightSequence) -> int:
    return min(W.values)


def sublevel_components(W: WeightSequence, n: int) -> list[Interval]:
    """Connected components of S_n as maximal intervals, left to right.

    A unit segment [l, l+1] belongs to S_n exactly when both endpoint
    weights are <= n, so components are maximal runs of low vertices.
    Returns [] when n is below the minimum weight.
    """
    c = W.conductor
    out = []
    l = 0
    while l <= c:
        if W.values[l] <= n:
            r = l
            while r + 1 <= c and W.values[r + 1] <= n:
                r += 1
            out.append([l, r])
            l = r + 1
        else:
            l += 1
    comps = []
    for a, b in out:
        unbounded = b == c and W.values[c] <= n
        comps.append(Interval(a, b, unbounded))
    return comps


def local_minima(W: WeightSequence) -> list[tuple[int, int]]:
    """(position, weight) of every local minimum point of w0, ascending.

    Two equivalent characterizations are computed and compared: the walk
    shape (l = 0 or w0(l-1) > w0(l) < w0(l+1)) and the membership one
    (l in S with l - 1 a gap).
    """
    S = W.source
    c = W.conductor
    by_shape = []
    for l in range(c + 1):
        left_ok = l == 0 or W[l - 1] > W[l]
        if left_ok and W[l] < W[l + 1]:
            by_shape.append((l, W[l]))
    by_membership = [
        (l, W[l]) for l in range(c + 1) if l in S and (l == 0 or (l - 1) not in S)
    ]
    if by_shape != by_membership:
        raise ValidationError("local minimum characterizations disagree")
    return by_shape


def check_gorenstein_symmetry(W: WeightSequence) -> bool:
    """w0(l) == w0(c - l) on the whole box; holds iff the source is symmetric."""
    c = W.conductor
    return all(W.values[l] == W.values[c - l] for l in range(c + 1))
