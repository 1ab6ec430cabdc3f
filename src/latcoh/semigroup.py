"""Numerical semigroups and the plane-branch criterion.

A numerical semigroup is an additively closed, cofinite subset of the
non-negative integers containing 0.  The central structural data here are
the conductor c (smallest element with [c, oo) inside the set), the gap
count delta, and the minimal generating set.  A semigroup arises as the
value semigroup of an irreducible plane curve germ exactly when its minimal
generators b_0 < b_1 < ... < b_g satisfy, with l_i = gcd(b_0, ..., b_i) and
n_i = l_{i-1} / l_i:

    l_g = 1,   l_0 > l_1 > ... > l_g,   and   n_i * b_i < b_{i+1}
    for 1 <= i <= g - 1.

Along the way one gets partial conductors c_0 = 0 and

    c_i = c_{i-1} + (l_{i-1} - l_i) * (b_i - l_i) / l_i,

with c_g equal to the conductor of the full semigroup.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf
from typing import Iterator

from .errors import InputError, as_int, as_ints


@dataclass(frozen=True)
class CofiniteSet:
    """A cofinite subset of the naturals containing 0.

    ``membership[x]`` answers x in S for 0 <= x <= conductor; everything past
    the conductor belongs to the set.  The conductor is normalized: either it
    is 0 (the set is all of N) or conductor - 1 is a gap.
    """

    membership: tuple[bool, ...]
    conductor: int

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        if x >= self.conductor:
            return True
        return self.membership[x]

    @property
    def delta(self) -> int:
        """Number of gaps (elements of N outside the set)."""
        return self.membership[: self.conductor].count(False)

    @property
    def multiplicity(self) -> int:
        """Smallest positive element."""
        return self.membership.index(True, 1) if self.conductor else 1

    def members_below_conductor(self) -> list[int]:
        return [x for x in range(self.conductor) if self.membership[x]]

    def gaps(self) -> list[int]:
        return [x for x in range(self.conductor) if not self.membership[x]]


@dataclass(frozen=True)
class NumericalSemigroup(CofiniteSet):
    min_gens: tuple[int, ...] = ()


@dataclass(frozen=True)
class GcdChain:
    """The gcd ladder of a minimal generating set.

    l runs l_0 .. l_g, n runs n_1 .. n_g, partial_conductors runs c_0 .. c_g.
    """

    generators: tuple[int, ...]
    l: tuple[int, ...]
    n: tuple[int, ...]
    partial_conductors: tuple[int, ...]


# No semigroup may have a larger conductor.  The one-branch pipeline holds about
# 400 bytes per unit of conductor (<999,1000>, c = 997,002, round-trips at a peak
# RSS of 390 MB, shared 2-core VM): under 1 GB here, where two generators near
# 10**4 would give c near 10**8.
_MAX_CONDUCTOR = 2_000_000
_ABOVE_CEILING = "conductor %s is above the ceiling of %d"

# No plane-branch enumeration may go past this conductor.  The generator chains
# are searched before the first semigroup is built, and that search grows fast:
# 0.2 s at 500, 2.1-2.8 s at 1000 and 76 s at 2000 (shared 2-core VM).  Every
# test and benchmark sweep stays at or below 200.
_MAX_ENUMERATED_CONDUCTOR = 1000


def _apery(gens: tuple[int, ...]) -> list[int]:
    """Apery set w of m = gens[0] for sorted coprime ``gens``: w[r] is the least
    element congruent to r mod m.  Round robin (Bocker-Liptak, "A fast and
    simple algorithm for the money changing problem", 2007): each further
    generator walks each residue cycle of its step once, from the cycle's
    smallest entry, in O(len(gens) * m) steps.
    """
    m = gens[0]
    w = [0] + [inf] * (m - 1)
    for g in gens[1:]:
        d = gcd(m, g)
        for p in range(d):
            n = min(w[p::d])
            if n == inf:
                continue
            for _ in range(m // d - 1):
                n += g
                r = n % m
                if w[r] < n:
                    n = w[r]
                w[r] = n
    return w


def _from_apery(apery: list[int]) -> tuple[NumericalSemigroup, str]:
    """The semigroup with Apery set w of m = len(w), and the sums of two
    nonzero Apery elements up to max(w).

    The conductor is max(w) - m + 1 (Selmer, 1977), membership is filled one
    residue class at a time, and the minimal generators are m and each
    nonzero w_r that is not such a sum (Rosales-Garcia-Sanchez, Numerical
    Semigroups, 2009).  The nonzero w are held reversed, as the bits
    max(w) - w of one integer built from a digit string: shifting it right by
    w gives the sums w + v <= max(w) and drops the rest, and a shift with
    w + min(w) > max(w) is skipped.  Each step is O(max(w)), with no integer
    wider than max(w) + 2 bits.  The sums come back as a digit string whose
    index x + 3 is "1" exactly when x <= max(w) is such a sum.
    """
    m = len(apery)
    top = max(apery)
    c = top - m + 1
    if c > _MAX_CONDUCTOR:
        raise InputError(_ABOVE_CEILING % (c, _MAX_CONDUCTOR))
    mem = [False] * (c + 1)
    for w in apery:
        if w <= c:  # the slice of a w past c is empty
            mem[w::m] = [True] * ((c - w) // m + 1)
    ws = apery[1:]
    digits = bytearray(b"0") * (top + 1)
    for w in ws:
        digits[w] = 49  # "1": bit top - w
    rev = int(digits, 2)
    span = rev.bit_length()  # top - min(w) + 1
    sums = 1 << top + 1  # a leading 1 keeps every digit of bin(sums)
    for w in ws:
        if w < span:
            sums |= rev >> w  # bit top - (w + v) for each v with w + v <= top
    sums = bin(sums)  # "0b1" and then the digit of x at index x + 3
    gens = (m,) + tuple(sorted([w for w in ws if sums[w + 3] == "0"]))
    return NumericalSemigroup(tuple(mem), c, gens), sums


def from_generators(gens) -> NumericalSemigroup:
    """Numerical semigroup generated by ``gens``.

    Built from the Apery set w of m = min(gens) (round robin, no membership
    window to grow) by ``_from_apery``.

    Raises InputError("no generators") for an empty list,
    InputError("not cofinite") when the gcd of the generators exceeds 1,
    InputError for an argument that is not an iterable of ints (bools
    and floats included), and InputError naming a conductor above
    ``_MAX_CONDUCTOR`` before membership (or, as c >= m > 1, the Apery set of
    an m above it) is allocated.
    """
    gens = as_ints(gens, "generator", "generators must be a list of integers")
    gens = tuple(sorted(set(gens)))
    if not gens:
        raise InputError("no generators")
    if any(g <= 0 for g in gens):
        raise InputError("generators must be positive integers")
    g0 = 0
    for g in gens:
        g0 = gcd(g0, g)
    if g0 != 1:
        raise InputError("not cofinite: generators have gcd %d" % g0)

    m = gens[0]
    if m > _MAX_CONDUCTOR:
        raise InputError(_ABOVE_CEILING % ("of at least %d" % m, _MAX_CONDUCTOR))
    return _from_apery(_apery(gens))[0]


def from_members(members_below, conductor: int, verify_closed: bool = True):
    """Build a set from an explicit member list on [0, conductor).

    With verify_closed (the default) the result must be additively closed and
    a NumericalSemigroup is returned; otherwise a plain CofiniteSet.  The
    conductor is re-normalized to be minimal; above ``_MAX_CONDUCTOR`` the
    argument is rejected before anything is allocated.

    Closure is read off the semigroup that ``_from_apery`` builds from the
    set's Apery set w of its multiplicity m (the least member of each
    residue class mod m): the set is closed exactly when no member x has
    x + m a gap (then every residue class is w_r + mN) and no gap is a sum of
    two nonzero Apery elements, which the builder's digit string holds, as
    gaps lie below c <= max(w).  Membership below c is held as the bits of
    one integer, so each test is a shift and a mask.  A set that is not
    closed names the least pair a <= b of members with a + b a gap; a is m
    or a nonzero Apery element, as a + b a gap makes (a - m) + b one once
    x + m is a member for every member x.
    """
    conductor = as_int(conductor, "conductor")
    if conductor < 0:
        raise InputError("conductor must be non-negative")
    if conductor > _MAX_CONDUCTOR:
        raise InputError(_ABOVE_CEILING % (conductor, _MAX_CONDUCTOR))
    members = set(as_ints(members_below, "member", "members must be a list of integers"))
    if any(x < 0 for x in members):
        raise InputError("negative member")
    if conductor == 0:
        # the whole of N
        if verify_closed:
            return NumericalSemigroup((True,), 0, (1,))
        return CofiniteSet((True,), 0)
    if 0 not in members:
        raise InputError("0 must be a member")
    if any(x >= conductor for x in members):
        raise InputError("member at or past the conductor is redundant")
    membership = bytearray(b"0") * (conductor + 1)  # the digit "1" at each member
    for x in members:
        membership[x] = 49
    membership[conductor] = 49
    c = membership.rfind(b"0") + 1  # one past the last gap

    if not verify_closed:
        return CofiniteSet(tuple(d == 49 for d in membership[: c + 1]), c)

    m = membership.index(b"1", 1) if c else 1
    apery = [c + (r - c) % m for r in range(m)]  # the least members from c on
    for x in sorted((x for x in members if x < c), reverse=True):
        apery[x % m] = x
    S, sums = _from_apery(apery)
    mem = int(b"0" + membership[:c], 2)  # bit c - 1 - x: x is a member
    gaps = mem ^ ((1 << c) - 1)
    if not (mem & gaps << m or int("0" + sums[3 : c + 3], 2) & gaps):
        return S
    hits = ((a, mem & gaps << a) for a in [m] + sorted(w for w in apery if 0 < w < c))
    a, bits = next((a, bits) for a, bits in hits if bits)  # bits: members b with a + b a gap
    raise InputError("not closed under addition: %d + %d" % (a, c - bits.bit_length()))


def gcd_chain(gens) -> GcdChain:
    """gcd ladder, Zariski exponents n_i, and partial conductors of a chain."""
    gens = tuple(gens)
    l = [gens[0]]
    for b in gens[1:]:
        l.append(gcd(l[-1], b))
    n = tuple(l[i - 1] // l[i] for i in range(1, len(gens)))
    cs = [0]
    for i in range(1, len(gens)):
        cs.append(cs[-1] + (l[i - 1] - l[i]) * (gens[i] - l[i]) // l[i])
    return GcdChain(gens, tuple(l), n, tuple(cs))


def is_plane_branch(S: NumericalSemigroup):
    """Decide whether S is the value semigroup of an irreducible plane germ.

    Returns (flag, chain): chain is the GcdChain of the minimal generators
    when the criterion holds, None otherwise.  N itself (the smooth branch)
    passes with the trivial chain.
    """
    bets = S.min_gens
    if bets == (1,):
        return True, GcdChain((1,), (1,), (), (0,))
    chain = gcd_chain(bets)
    g = len(bets) - 1
    if chain.l[-1] != 1:
        return False, None
    # each gcd step must strictly descend (every n_i is at least 2)
    if any(chain.l[i] <= chain.l[i + 1] for i in range(g)):
        return False, None
    for i in range(1, g):
        if not chain.n[i - 1] * bets[i] < bets[i + 1]:
            return False, None
    # the ladder's conductor formula must reproduce the true conductor
    if chain.partial_conductors[-1] != S.conductor:
        return False, None
    return True, chain


def plane_branch_chains(max_conductor: int) -> list[tuple[int, ...]]:
    """Minimal generators of every plane-branch semigroup with conductor <= max_conductor.

    Sorted by (conductor, generators), the smooth branch (1,) first.  Only
    generator chains are searched; no semigroup is built.  The argument is
    checked first, and a max_conductor above ``_MAX_ENUMERATED_CONDUCTOR``
    raises InputError before the search.
    """
    max_conductor = as_int(max_conductor, "max_conductor")
    if max_conductor < 0:
        raise InputError("max_conductor must be non-negative")
    if max_conductor > _MAX_ENUMERATED_CONDUCTOR:
        raise InputError(
            "max_conductor %d is above the enumeration ceiling of %d"
            % (max_conductor, _MAX_ENUMERATED_CONDUCTOR)
        )

    found = [(0, (1,))]

    def extend(bets, l, c_part, n):
        # Eq-(1) lower bound: the next generator must exceed n_i * b_i,
        # where n_i = l_{i-1} / l_i (n = 1 before the second generator)
        lo = n * bets[-1] + 1
        # conductor grows by at least b - l/2, so b <= max_c - c_part + l
        for b in range(lo, max_conductor - c_part + l + 1):
            l2 = gcd(l, b)
            if l2 == l:
                continue
            inc = (l - l2) * (b - l2) // l2
            if c_part + inc > max_conductor:
                continue
            if l2 == 1:
                found.append((c_part + inc, tuple(bets) + (b,)))
            else:
                extend(bets + [b], l2, c_part + inc, l // l2)

    for b0 in range(2, max_conductor + 1):
        extend([b0], b0, 0, 1)

    return [gens for _c, gens in sorted(set(found))]


def enumerate_plane_branch_semigroups(max_conductor: int) -> Iterator[NumericalSemigroup]:
    """All plane-branch value semigroups with conductor <= max_conductor.

    Emitted sorted by (conductor, minimal generators).  The smooth branch
    (all of N, conductor 0) is always first.  The argument is checked and
    the generator chains are found (``plane_branch_chains``) when the
    function is called; the semigroups are built as the result is iterated.
    A max_conductor above ``_MAX_ENUMERATED_CONDUCTOR`` raises InputError
    before the search.
    """
    return map(from_generators, plane_branch_chains(max_conductor))
