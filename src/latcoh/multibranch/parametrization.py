"""Exact parametrizations of curve germs with finitely many branches.

A curve germ in d-space with r branches is given by r tuples of truncated
power series with rational coefficients, one series per ambient coordinate.
All arithmetic downstream is exact, so coefficients are stored as Fractions
and exponents as plain ints.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from ..errors import InputError

# One monomial of a coordinate series: (coefficient, exponent).
Term = tuple[Fraction, int]
# One coordinate series, exponents strictly increasing.
Series = tuple[Term, ...]


@dataclass(frozen=True)
class BranchParametrization:
    """An r-branch curve germ, one tuple of coordinate series per branch.

    Instances are produced by :func:`make_parametrization`, which validates
    and normalizes raw input; the constructor itself trusts its arguments.
    """

    branches: tuple[tuple[Series, ...], ...]

    @property
    def r(self) -> int:
        """Number of branches."""
        return len(self.branches)

    @property
    def ambient_dim(self) -> int:
        """Number of ambient coordinates."""
        return len(self.branches[0])

    def branch_multiplicity(self, branch: int) -> int:
        """Smallest positive coordinate order on the branch."""
        orders = [s[0][1] for s in self.branches[branch] if s]
        if not orders:
            raise InputError("zero branch: branch %d has no nonzero coordinate" % branch)
        return min(orders)


def _as_fraction(x: object) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (Rational, int)):
        raise InputError("coefficients must be rational numbers, got %r" % (x,))
    return Fraction(x)


def _normalize_series(raw: object, where: str) -> Series:
    """Validate one coordinate series: rational coeffs, nonzero, increasing exps."""
    try:
        items = list(raw)  # type: ignore[arg-type]
    except TypeError:
        raise InputError("%s: series must be a sequence of (coeff, exp) terms" % where)
    terms: list[Term] = []
    for item in items:
        try:
            coeff_raw, exp = item
        except (TypeError, ValueError):
            raise InputError("%s: each term must be a (coeff, exp) pair" % where)
        coeff = _as_fraction(coeff_raw)
        if not isinstance(exp, int) or isinstance(exp, bool) or exp < 0:
            raise InputError("%s: exponents must be nonnegative integers" % where)
        if coeff == 0:
            raise InputError("%s: zero coefficient at exponent %d" % (where, exp))
        if terms and exp <= terms[-1][1]:
            raise InputError("%s: exponents must be strictly increasing" % where)
        terms.append((coeff, exp))
    return tuple(terms)


def _exact_root(n: int, e: int) -> int | None:
    """The integer r >= 1 with r**e == n, for n >= 1; None when there is none.

    Bisection between 2 and 2**(bits(n)/e + 1), so no power built is much
    larger than n, however large e is.
    """
    if n == 1:
        return 1
    if n.bit_length() <= e:  # below 2**e, the smallest e-th power above 1
        return None
    lo, hi = 2, 1 << (n.bit_length() // e + 1)
    while lo < hi:  # the largest r with r**e <= n
        mid = (lo + hi + 1) // 2
        if mid**e <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**e == n else None


def _rescaling(a: tuple[Series, ...], b: tuple[Series, ...]) -> Fraction | None:
    """A rational lambda with b(t) = a(lambda*t), or None when there is none.

    Both branches need the same exponents in every coordinate and, term by
    term, c_b = lambda^e * c_a: every ratio c_b / c_a is an exact rational
    e-th power of the same |lambda|, the even-order ratios are positive and
    the odd-order ones share the sign of lambda.
    """
    if [[e for _c, e in s] for s in a] != [[e for _c, e in s] for s in b]:
        return None
    ratios = [(e, cb / ca) for sa, sb in zip(a, b) for (ca, e), (cb, _e) in zip(sa, sb)]
    size = None
    for e, ratio in ratios:
        if ratio < 0 and e % 2 == 0:
            return None
        num = _exact_root(abs(ratio.numerator), e)
        den = _exact_root(ratio.denominator, e)
        if num is None or den is None or size not in (None, Fraction(num, den)):
            return None
        size = Fraction(num, den)
    signs = {ratio > 0 for e, ratio in ratios if e % 2}
    if len(signs) > 1:
        return None
    return size if signs != {False} else -size


def make_parametrization(branches: object) -> BranchParametrization:
    """Build a validated parametrization from nested (coeff, exp) data.

    ``branches`` is a sequence of branches; each branch is a sequence of
    coordinate series; each series is a sequence of (coefficient, exponent)
    pairs.  Constant terms are allowed in the input but every branch must
    share the same constant in each coordinate (the branches must pass
    through one common point); the common point is translated to the origin.

    Two branches that are equal after t -> lambda*t for a rational lambda
    (lambda = 1 and lambda = -1 included) describe one branch twice: the germ
    is not reduced, so it has no conductor, and they raise ``InputError``.
    A branch with one nonzero coordinate lies on that coordinate's axis: it
    raises ``InputError`` when that coordinate's order m is above 1, since
    the branch then covers the axis m times, and so does a second branch on
    the same axis, which is the same branch again.  Other reparametrizations
    of a repeated branch (t -> t + t^2, ...) and other branches covered k:1
    are not detected here; no window certifies a conductor for such a germ,
    and the automatic window loop of ``hilbert_from_parametrization`` raises
    ``InputError`` when its rounds run out.
    """
    try:
        branch_list = list(branches)  # type: ignore[arg-type]
    except TypeError:
        raise InputError("parametrization must be a sequence of branches")
    if not branch_list:
        raise InputError("parametrization needs at least one branch")
    normalized: list[list[Series]] = []
    for j, br in enumerate(branch_list):
        try:
            coords = list(br)
        except TypeError:
            raise InputError("branch %d must be a sequence of coordinate series" % j)
        if not coords:
            raise InputError("branch %d has no coordinates" % j)
        normalized.append(
            [
                _normalize_series(c, "branch %d coordinate %d" % (j, k))
                for k, c in enumerate(coords)
            ]
        )
    dim = len(normalized[0])
    for j, coords in enumerate(normalized):
        if len(coords) != dim:
            raise InputError(
                "branch %d has %d coordinates, branch 0 has %d"
                % (j, len(coords), dim)
            )
    # The branches must agree at parameter value 0; translate that point away.
    for k in range(dim):
        constants = []
        for coords in normalized:
            s = coords[k]
            constants.append(s[0][0] if s and s[0][1] == 0 else Fraction(0))
        if any(c != constants[0] for c in constants):
            raise InputError(
                "branches do not pass through a common point (coordinate %d)" % k
            )
    shifted: list[tuple[Series, ...]] = []
    axes: dict[int, int] = {}  # coordinate -> the branch lying on its axis
    for j, coords in enumerate(normalized):
        branch = tuple(
            tuple(t for t in s if t[1] > 0)
            for s in coords
        )
        nonzero = [k for k, s in enumerate(branch) if s]
        if not nonzero:
            raise InputError(
                "zero branch: branch %d has no coordinate of positive order" % j
            )
        for k, earlier in enumerate(shifted):
            lam = _rescaling(earlier, branch)
            if lam is not None:
                raise InputError(
                    "branches %d and %d are the same branch (up to t -> %s)"
                    % (k, j, "-t" if abs(lam) == 1 else "%s*t" % lam)
                )
        if len(nonzero) == 1:  # the branch lies on the coordinate-k axis
            (k,) = nonzero
            m = branch[k][0][1]
            if m > 1:
                raise InputError("branch %d covers the coordinate-%d axis %d times" % (j, k, m))
            if k in axes:
                raise InputError(
                    "branches %d and %d are the same branch (the coordinate-%d axis)"
                    % (axes[k], j, k)
                )
            axes[k] = j
        shifted.append(branch)
    return BranchParametrization(tuple(shifted))
