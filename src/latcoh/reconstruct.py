"""Reconstruction of a plane-branch value semigroup from its tower module.

The module alone determines the semigroup.  The pipeline is:

1. read the initial level e and the sorted "initial elements" E out of the
   per-level ranks (``initial_part``),
2. read the multiplicity out of the kernel ranks (``multiplicity_from_module``),
3. take the additively irreducible initial elements as generators; when
   their gcd is not 1 there is exactly one missing top generator, pinned by
   the delta invariant and the partial conductor of the known prefix,
4. rebuild the semigroup, check that it is a plane branch with the module's
   delta and multiplicity (``_candidate``), and verify that it reproduces the
   input module exactly (``_check_round_trip``, the closing rebuild).
   ``reconstruct_semigroup`` and ``latcoh reconstruct`` run both; ``latcoh
   roundtrip`` starts from a semigroup S and its module, so it only compares
   the candidate with S, which implies the module check.

Every consistency failure raises ValidationError: these inputs are
syntactically fine modules that do not come from any plane branch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .errors import InputError, ValidationError
from .graded import TowerModule, _rank_steps, module_from_weight
from .semigroup import (
    _MAX_CONDUCTOR,
    GcdChain,
    NumericalSemigroup,
    _apery,
    from_generators as _from_generators,
    is_plane_branch as _is_plane_branch,
)
from .weight1d import weight_sequence


@dataclass(frozen=True)
class InitialPart:
    """Initial level, initial elements, delta and the module's base level."""

    e: int
    elements: tuple[int, ...]
    delta: int
    min_w0: int


def compute_e(M: TowerModule) -> int:
    """Smallest level above which the degree-raising action is injective.

    This is the base level unless some finite tower spans more than one
    level; those towers push e up to just above their top.
    """
    tops = [t + 1 for m, t in M.towers if m < t]
    return max([M.base] + tops)


def initial_part(M: TowerModule) -> InitialPart:
    """Extract e and the initial elements E from per-level ranks.

    Scanning levels from 0 down to e, the rank at each level fixes how many
    elements live there ((rank - 1) / 2, except possibly at the base) and
    the running offset s fixes where they sit.  Every scanned rank is at
    least 1, since e >= base puts the infinite tower in it.  delta is the
    sum of the ranks from the base to 0, less 1, so no element exceeds it:
    level n places elements up to s + rank(n) - 1, and s + rank(n) is at
    most that sum.

    A branch module has base level min w0 >= 2 - c, so a base below
    -``_MAX_CONDUCTOR`` raises InputError naming the conductor ceiling
    before any level is read.
    """
    if M.base < -_MAX_CONDUCTOR:
        raise InputError(
            "module base level %d is below -%d: no semigroup under the conductor"
            " ceiling of %d has it" % (M.base, _MAX_CONDUCTOR, _MAX_CONDUCTOR)
        )
    e = compute_e(M)
    if e > 0:
        raise ValidationError("inconsistent module: positive initial level")
    ranks = list(accumulate(_rank_steps(M, 0)))  # ranks[n - base] = rank(n)
    delta = sum(ranks[: 1 - M.base]) - 1
    s = 0
    elements: list[int] = []
    for n in range(0, e - 1, -1):
        r = ranks[n - M.base]
        if n == M.base:
            count = (r + 1) // 2
        elif r % 2 == 0:
            raise ValidationError("inconsistent module: rank parity off at level %d" % n)
        else:
            count = r // 2
        elements.extend(s + 2 * j for j in range(count))
        s += r
    elements.sort()
    if not elements or elements[0] != 0:
        raise ValidationError("inconsistent module: 0 is not an initial element")
    return InitialPart(e, tuple(elements), delta, M.base)


def multiplicity_from_module(M: TowerModule) -> int:
    """Multiplicity of the branch, read from the tower starts alone.

    The shallowest level below 0 carrying a kernel element, that is where a
    tower (the infinite one included) starts, sits at 2 - m.  Base level 0
    means the branch is smooth or double: rank 1 or 2 at level 0.
    """
    if M.base > 0:
        raise ValidationError("not a branch module")
    if M.base == 0:
        return 1 if M.rank(0) == 1 else 2
    return 2 - max(m for m in (M.base, *(m for m, _t in M.towers)) if m < 0)


def detect_lg1_equals_2(M: TowerModule) -> bool:
    """True exactly when the last proper gcd in the generator ladder is 2.

    Such branches have even base level and a bare rank-1 module at every odd
    level strictly between base and 0: no finite tower covers such a level.
    """
    if M.base % 2 != 0:
        return False
    for m, t in M.towers:
        lo, hi = max(m, M.base + 1), min(t, -1)
        if lo + (lo % 2 == 0) <= hi:  # the tower covers an odd level in (base, 0)
            return False
    return True


def _prefix_conductor(prefix: tuple[int, ...]) -> tuple[int, int]:
    """(gcd l, partial conductor) of a sorted generator prefix with gcd l > 1.

    The partial conductor is l times the conductor of the semigroup the
    prefix generates after dividing out l, read off the Apery set w of its
    multiplicity m as max(w) - m + 1 (Selmer).
    """
    l = math.gcd(*prefix)
    reduced = tuple(p // l for p in prefix)
    return l, l * (max(_apery(reduced)) - reduced[0] + 1)


def reconstruct_semigroup(M: TowerModule) -> NumericalSemigroup:
    """Rebuild the unique plane-branch semigroup whose module is M.

    Raises ValidationError when no plane branch produces M.
    """
    S = _candidate(M)[0]
    _check_round_trip(S, M)
    return S


def _candidate(M: TowerModule) -> tuple[NumericalSemigroup, InitialPart, GcdChain]:
    """The plane-branch semigroup read off M, the initial part and the gcd chain.

    Steps 1-3 and the plane-branch, delta and multiplicity checks of step 4;
    whether the candidate's own module is M is left to ``_check_round_trip``.
    """
    ip = initial_part(M)
    delta = ip.delta
    m = multiplicity_from_module(M)
    positive = [x for x in ip.elements if x > 0]
    if not positive:
        if m == 1:
            gens = [1]
        else:
            if (2 * delta) % (m - 1) != 0:
                raise ValidationError("non-integral top generator")
            gens = [m, 2 * delta // (m - 1) + 1]
    else:
        bits, sums = sum(1 << x for x in positive), 0
        for a in positive:
            sums |= bits << a  # bit x set: x = a + b with a, b in positive
        P = tuple(x for x in positive if not sums >> x & 1)
        g0 = math.gcd(*P)
        if g0 == 1:
            gens = list(P)
        else:
            l, c_prefix = _prefix_conductor(P)
            if (2 * delta - c_prefix) % (l - 1) != 0:
                raise ValidationError("non-integral top generator")
            top = (2 * delta - c_prefix) // (l - 1) + 1
            gens = list(P) + [top]
    try:
        S = _from_generators(gens)
    except InputError as exc:
        raise ValidationError("validation failed: %s" % exc) from exc
    ok, chain = _is_plane_branch(S)
    if not ok:
        raise ValidationError("validation failed: reconstruction is not a plane branch")
    if S.delta != delta:
        raise ValidationError("validation failed: delta mismatch")
    if S.multiplicity != m:
        raise ValidationError("validation failed: multiplicity mismatch")
    return S, ip, chain


def _check_round_trip(S: NumericalSemigroup, M: TowerModule) -> None:
    """Raise ValidationError unless the module of S is M (the closing rebuild)."""
    if module_from_weight(weight_sequence(S)) != M:
        raise ValidationError("validation failed: module mismatch after round trip")
