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

from .errors import InputError, as_int
from .semigroup import CofiniteSet


@dataclass(frozen=True)
class WeightSequence:
    """w0 tabulated on [0, conductor], plus the set it came from."""

    values: tuple[int, ...]
    conductor: int
    source: CofiniteSet

    def __getitem__(self, l: int) -> int:
        """w0(l) for any int l >= 0; past the conductor the walk is all ascents."""
        if as_int(l, "position") < 0:
            raise InputError("position must be non-negative, got %d" % l)
        if l <= self.conductor:
            return self.values[l]
        return self.values[self.conductor] + (l - self.conductor)


def weight_sequence(S: CofiniteSet) -> WeightSequence:
    """w0 on [0, c] by the step recursion.

    Membership is read from ``S.membership`` below the conductor; every
    point at or past it is a member.  The walk ends at w0(c) = c - 2 delta,
    since delta counts the gaps of the same slice.
    """
    c = S.conductor
    vals = tuple(accumulate(map((-1, 1).__getitem__, S.membership[:c]), initial=0))
    return WeightSequence(vals, c, S)


def min_w0(W: WeightSequence) -> int:
    return min(W.values)


def check_gorenstein_symmetry(W: WeightSequence) -> bool:
    """w0(l) == w0(c - l) on the whole box; holds iff the source is symmetric."""
    c = W.conductor
    return all(W.values[l] == W.values[c - l] for l in range(c + 1))
