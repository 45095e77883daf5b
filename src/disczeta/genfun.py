"""Generating functions for discriminant strata and their stable limits.

The series built here (all truncated in t):

* ``zeta_series``     -- Z_X(t) = sum [Sym^n X] t^n: ``models.zeta_coeffs`` itself.
* ``zeta_s_series``   -- Z^[s]_X(t) = sum over partitions with s parts of
  w_lambda t^(sum lambda): configurations supported on exactly s points;
  ``zeta_colored_series`` gives Z^[m], the same over colors of points.
* ``k_lt_a_nu``       -- K_(<a)nu(t): configurations of points with all
  unmarked multiplicities < a decorating a fixed pattern nu.
* ``kbar_nu``         -- Kbar_{1*nu}(t) = sum_j [wbar_{1^j nu}] t^j, closures.
* ``sym_s_series``    -- configurations with exactly s multiple points.
* ``zinv_series``     -- the inverse-zeta analogue zinv_lambda(t), graded by
  point count (what ``series zetainv`` prints).
* ``zinv_lambda``     -- the same series as the defining signed sum over Q;
  the second route that checks ``zinv_series``.
* densities and stable limits expressed through motivic zeta values.

One stratum: ``_w_profile`` is [w_lambda] by multiplicity profile, ``w_of`` its image
through an X-model, and the memoized ``wbar_class`` sums it over the profile counts
of ``partitions.closure_profiles``.
One grower, ``_joint_profiles``, counts (joint profile, total) for Z^[m] and for
the members of A_<a(nu) that the K recursion subtracts.

A stable class is lim_j Y_j/[Sym^j X] = E(M^-1) with E = Y/Z_X, so the K, Kbar
and Sym_s recursions run on E (``k_over_zeta``, ``kbar_over_zeta``,
``sym_s_over_zeta``) and ``stable_limit`` takes E; only the ``series`` verb
multiplies by Z_X, through ``k_lt_a_nu``, ``kbar_nu`` and ``sym_s_series``.

Two t-gradings coexist and must not be mixed silently: configuration series
grade t by total multiplicity, the hypersurface series by number of points.
They meet in one identity, zinv_lambda(t) = Z^[m](t) * Z(t)^-1 read
coefficientwise, m the multiplicity profile of lambda; tier-1 checks it
against the sum over Q.  Densities are computed multiplicity-graded only.

Each coefficient the recursions build is one ``motive._dot`` of (int, value)
pairs, a product such as w(c) w(rest) or w * c passed in as one more pair.  The
K recursion reads its own earlier coefficients: no series is inverted inside it.

Evaluation at t = L^-m happens in a target ring (``_ring``): motivic-L,
count(q) or Hodge-Deligne.  Only the ring classes know which one it is; the
graded two share ``motive.eval_at_L_power``.

Coefficient of t^n never involves S_k with k > n, so truncation at N keeps
all symmetric-power generators at index <= N.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

from . import partitions as pt
from .errors import (
    DivergenceError,
    GuardExceeded,
    InputError,
    InternalCheckError,
    SymbolicEvaluationError,
)
from .models import COUNT, HODGE, MOTIVIC, Specialization, UVPoly, XModel, generalized_binomial
from .models import zeta_coeffs as zeta_series
from .motive import (
    GRADING_MULT,
    GRADING_POINTS,
    MotivicClass,
    TruncSeries,
    _dot,
    dim_grade,
    eval_at_L_power,
)
from .partitions import GenPartition, int_partition
from .records import strict

ZINV_GUARD = 10**4  # sum_{k <= N-|lambda|} p(k), the monomials of a symbolic zetainv: admits t^25, stops t^26
Q_GUARD = 2**16  # elements of Q for zinv_lambda: admits N - |lambda| <= 16

# ---------------------------------------------------------------------------
# universal classes of strata


def _collisions(rest: tuple[int, ...], c: int):
    """The vectors (k_1, ..., k_r) with 0 <= k_j <= m_j and 1 <= sum k_j <= c."""

    def walk(j: int, room: int):
        if j == len(rest) or not room:
            yield (0,) * (len(rest) - j)
            return
        for k in range(min(rest[j], room) + 1):
            for tail in walk(j + 1, room - k):
                yield (k, *tail)

    return (ks for ks in walk(0, c) if any(ks))


@lru_cache(maxsize=None)
def _w_profile(profile: tuple[int, ...]) -> MotivicClass:
    """[w_lambda] for any lambda with multiplicity profile ``profile``.

    Two routes, both equivalent to the signed sum over <<-chains:

    * a single repeated value (c,): the closure of a free c-fold value runs
      over integer partitions of c;
    * several values: the product rule, peeling the smallest multiplicity c.
      Configurations labeled a^c times configurations labeled by the rest
      decompose as the disjoint pattern plus collision strata, one for each
      choice of how many points k_j of each remaining value land on distinct
      a-points, so sum k_j <= c.  For (1,...,1) this is
      w(1^k) = (S_1 - (k-1)) w(1^(k-1)).
    """
    if not profile:
        return MotivicClass.one()
    minus: Counter = Counter()  # profile -> how many times its class is subtracted
    if len(profile) == 1:
        c = profile[0]
        head = (1, MotivicClass.sym(c))
        for k in range(1, c):
            for pi in pt.enumerate_k_parts(k, c):
                if sum(pi) == c:
                    minus[pt.multiplicity_profile(pi)] += 1
    else:
        c, rest = profile[-1], profile[:-1]
        head = (_w_profile((c,)), _w_profile(rest))
        for ks in _collisions(rest, c):
            total = sum(ks)
            collided: list[int] = [] if total == c else [c - total]
            for m, k in zip(rest, ks):
                if k:
                    collided.append(k)
                if m - k:
                    collided.append(m - k)
            minus[tuple(sorted(collided, reverse=True))] += 1
    return MotivicClass.dot([head] + [(-n, _w_profile(p)) for p, n in minus.items()])


@lru_cache(maxsize=None)  # GenPartition is immutable and hashable, so no entry goes stale
def wbar_class(lam: GenPartition) -> MotivicClass:
    """The closed stratum [wbar_lambda] = sum of w_mu over the merge closure,
    from the profile counts of ``partitions.closure_profiles``: no mu is built."""
    return MotivicClass.dot((n, _w_profile(p)) for p, n in pt.closure_profiles(lam).items())


@lru_cache(maxsize=None)
def _w_image(X: XModel, spec: Specialization | None, profile: tuple[int, ...]):
    return X.specialize(_w_profile(profile), spec)


def w_of(X: XModel, profile: tuple[int, ...], spec: Specialization | None = None):
    """[w_lambda] specialized through an X-model."""
    return _w_image(X, spec, tuple(sorted(profile, reverse=True)))


# ---------------------------------------------------------------------------
# configuration series


def zeta_s_series(X: XModel, s: int, N: int, spec: Specialization | None = None) -> TruncSeries:
    """Z^[s]_X(t): the locus of Sym^n X supported on exactly s geometric points."""
    if s < 0:
        raise InputError("s must be >= 0")
    return zeta_colored_series(X, (s,), N, spec)


def zeta_colored_series(X: XModel, m: tuple[int, ...], N: int, spec: Specialization | None = None) -> TruncSeries:
    """Z^[m]_X(t), m = (s_1, ..., s_r): sum of w_{pi_1 ... pi_r} t^(|pi_1| + ... + |pi_r|).

    Each pi_i is an integer partition with exactly s_i parts, the points of
    color i.  Colors are distinct, so the profiles of the pi_i concatenate.
    """
    colors = (((pt.multiplicity_profile(pi), sum(pi)) for pi in pt.enumerate_k_parts(s, N)) for s in m)
    terms: list = [[] for _ in range(N + 1)]
    for (joint, n), count in _joint_profiles(colors, N).items():
        terms[n].append((count, w_of(X, joint, spec)))
    return TruncSeries.from_coeffs(map(_dot, terms))


def _joint_profiles(factors, bound: int) -> Counter:
    """(joint profile, total) -> in how many ways one (profile, size) is picked from
    each factor, sizes summing to total <= bound: the profiles, of distinct values,
    concatenate, and a partial total past ``bound`` is dropped."""
    acc = Counter({((), 0): 1})
    for factor in factors:
        grown: Counter = Counter()
        for profile, size in factor:
            for (joint, total), n in acc.items():
                if total + size <= bound:
                    grown[tuple(sorted(joint + profile, reverse=True)), total + size] += n
        acc = grown
    return acc


def k_lt_a_nu(X: XModel, nu, a: int, N: int, spec: Specialization | None = None) -> TruncSeries:
    """K_(<a)nu(t): multiplicity-< a configurations decorating the pattern nu."""
    return zeta_series(X, N, spec) * k_over_zeta(X, nu, a, N, spec)


def k_over_zeta(X: XModel, nu, a: int, N: int, spec: Specialization | None = None) -> TruncSeries:
    """K_(<a)nu(t) / Z_X(t).

    nu must have all parts at least a (the recursion formalizes nu, which is
    only sound when its parts cannot collide with the small parts).
    """
    nu = int_partition(nu)
    if a < 2:
        raise InputError(f"a must be >= 2, got {a}")
    if any(p < a for p in nu):
        raise InputError(f"all parts of nu must be >= a={a}, got {nu}")
    return _k_profile(X, spec, pt.multiplicity_profile(nu), a, N)


def _member_counts(profile: tuple[int, ...], a: int, order: int) -> Counter:
    """(multiplicity profile, excess <= order) -> how many members of A_<a(nu), nu of profile ``profile``.

    A member adds a multiset of k in [0, a) to the m copies of each value of nu:
    its profile joins those multisets' profiles, its excess sums all the k."""
    splits = (((pt.multiplicity_profile(ks), sum(ks)) for ks in combinations_with_replacement(range(a), m))
              for m in profile)
    return _joint_profiles(splits, order)


@lru_cache(maxsize=None)
def _k_profile(X: XModel, spec: Specialization | None, profile: tuple[int, ...], a: int, order: int) -> TruncSeries:
    """E = K_(<a)nu(t) / Z_X(t), nu of profile ``profile``: the cache holds K/Z, and
    only ``k_lt_a_nu`` (the ``series`` verb) multiplies by Z_X.

    The base, the empty profile, is Z(t^a)^-1, taken as (Z^-1)(t^a) from the
    inverse at order // a.  Otherwise E[i] = w_nu B[i] - sum n E'[i - e] over the
    members of A_<a(nu) but nu, one ``_dot``: E' is K/Z of a strictly finer profile,
    or E itself, read at a coefficient already built, for nu's own profile."""
    if not profile:
        return zeta_series(X, order // a, spec).inverse().compose_power(a, order)
    base = _k_profile(X, spec, (), a, order)
    members = _member_counts(profile, a, order)
    if members.pop((profile, 0), 0) != 1:  # nu is the only member of excess 0
        raise InternalCheckError("denominator of the K-recursion lost its constant term 1")
    E: list = []
    terms = [(n, e, E if split == profile else _k_profile(X, spec, split, a, order))
             for (split, e), n in members.items()]
    w = w_of(X, profile, spec)
    for i, b in enumerate(base.coeffs):
        E.append(_dot([(w, b)] + [(-n, K[i - e]) for n, e, K in terms if e <= i]))
    return TruncSeries.from_coeffs(E)


def kbar_nu(X: XModel, nu, N: int, spec: Specialization | None = None) -> TruncSeries:
    """Kbar_{1*nu}(t) = sum_j [wbar_{1^j nu}] t^j for nu with all parts >= 2."""
    return zeta_series(X, N, spec) * kbar_over_zeta(X, nu, N, spec)


def kbar_over_zeta(X: XModel, nu, N: int, spec: Specialization | None = None) -> TruncSeries:
    """Kbar_{1*nu}(t) / Z_X(t), from Kbar_{1*()} / Z = 1.

    Peels the smallest part a of nu:
    Kbar_{1*(a nu')} = (Kbar_{1*nu'} - sum_{mu in S(nu',a)} K_(<a)mu
    t^(sum mu - sum nu')) / t^a, read divided by Z, asserting that every
    negative power of t cancels.  The mu are grouped by (excess, profile),
    and each coefficient is one ``_dot`` over the cached K/Z: no series is inverted.
    """
    nu = int_partition(nu)
    if any(p < 2 for p in nu):
        raise InputError(f"kbar_nu needs all parts >= 2, got {nu}")
    return _kbar_rec(X, spec, nu, N)


def _kbar_rec(X: XModel, spec: Specialization | None, nu: tuple[int, ...], order: int) -> TruncSeries:
    if not nu:
        return TruncSeries.one(order)
    a, rest = nu[0], nu[1:]
    acc = _kbar_rec(X, spec, rest, order + a)
    groups = Counter((sum(mu) - sum(rest), pt.multiplicity_profile(mu)) for mu in pt.s_set(rest, a))
    smaller = [(n, e, _k_profile(X, spec, p, a, order + a)) for (e, p), n in groups.items()]
    coeffs = (_dot([(1, c)] + [(-n, K[i - e]) for n, e, K in smaller if e <= i])
              for i, c in enumerate(acc.coeffs))
    return TruncSeries.from_coeffs(coeffs).shift_down(a)


def kbar_abr_closed(
    X: XModel, a: int, b: int, r: int, N: int, spec: Specialization | None = None
) -> TruncSeries:
    """Closed form of Kbar_{1*(a b^r)}(t):

    t^(-a-rb) ( Z(t) - Z(t)/Z(t^b) * sum_{i<r} [Sym^i X] t^(bi)
                      - Z(t)/Z(t^a) * [Sym^r X] t^(rb) ).
    """
    if not (1 < a <= b) or r < 0:
        raise InputError(f"need 1 < a <= b and r >= 0, got a={a}, b={b}, r={r}")
    shift = a + r * b
    order = N + shift
    Z = zeta_series(X, order, spec)
    acc = Z
    ratio_b = Z * Z.compose_power(b).inverse()
    for i in range(r):
        acc = acc - ratio_b.scale(X.sym(i, spec)).shift_up(b * i)
    ratio_a = Z * Z.compose_power(a).inverse()
    acc = acc - ratio_a.scale(X.sym(r, spec)).shift_up(r * b)
    return acc.shift_down(shift)


def sym_s_series(X: XModel, s: int, N: int, spec: Specialization | None = None) -> TruncSeries:
    """sum_j [Sym^j_s X] t^j = Z^[s](t^2) Z(t) / Z(t^2): exactly s multiple points."""
    return zeta_series(X, N, spec) * sym_s_over_zeta(X, s, N, spec)


def sym_s_over_zeta(X: XModel, s: int, N: int, spec: Specialization | None = None) -> TruncSeries:
    """``sym_s_series`` / Z_X(t) = (Z^[s] Z^-1)(t^2), the product taken at order N // 2."""
    if s < 0:
        raise InputError("s must be >= 0")
    return colored_over_zeta(X, (s,), N // 2, spec).compose_power(2, N)


def colored_over_zeta(X: XModel, m: tuple[int, ...], N: int, spec: Specialization | None = None) -> TruncSeries:
    """Z^[m]_X(t) * Z_X(t)^-1 to order N."""
    return zeta_colored_series(X, m, N, spec) * zeta_series(X, N, spec).inverse()


def zinv_lambda(
    X: XModel, lam: GenPartition, N_pts: int, spec: Specialization | None = None, guard: int = Q_GUARD
) -> TruncSeries:
    """Z^-1_{X,lambda}(t) = sum over mu in Q of (-1)^||mu|| w_{lambda.mu} t^|lambda.mu|.

    The t-exponent counts points (not multiplicity); lambda.mu is the disjoint
    concatenation, so only the profiles are joined.  The 2^k elements of Q of
    size <= k = N_pts - |lambda| must not exceed ``guard``.
    """
    base_profile = pt.multiplicity_profile(lam)
    s0 = len(lam)
    if N_pts < 0:
        raise InputError("N_pts must be >= 0")
    size = 2 ** max(N_pts - s0, 0)
    if size > guard:
        raise GuardExceeded(f"the sum over Q to t^{N_pts} needs {size} elements of Q, guard is {guard}")
    coeffs: list = [0] * (N_pts + 1)
    for mu in pt.enumerate_Q(N_pts - s0) if N_pts >= s0 else ():
        sign = -1 if pt.q_distinct(mu) % 2 else 1
        coeffs[s0 + len(mu)] += sign * w_of(X, base_profile + pt.multiplicity_profile(mu), spec)
    return TruncSeries.from_coeffs(coeffs, GRADING_POINTS)


def zinv_series(
    X: XModel, lam: GenPartition, N_pts: int, spec: Specialization | None = None, guard: int = ZINV_GUARD
) -> TruncSeries:
    """``zinv_lambda`` as Z^[m](t) * Z(t)^-1 read by point count, m the profile of lambda.

    Only w of |lambda| points enter.  The guard bounds sum_{k <= N_pts-|lambda|} p(k),
    the monomials of the answer on the symbolic model; it applies to that model only.
    """
    if N_pts < 0:
        raise InputError("N_pts must be >= 0")
    profiles = pt.profile_count(N_pts - len(lam), guard) if X.kind == "symbolic" else 0
    if profiles > guard:
        raise GuardExceeded(f"zetainv to t^{N_pts} needs at least {profiles} multiplicity profiles, guard is {guard}")
    return colored_over_zeta(X, pt.multiplicity_profile(lam), N_pts, spec).regraded(GRADING_POINTS)


# ---------------------------------------------------------------------------
# evaluation at powers of L, by target ring


class _Ring:
    """A target ring for evaluating series at t = L^-m.

    A subclass fixes the image of L and what truncating at a codimension
    cutoff means there; ``_ring`` picks the one for a specialization.  The
    graded rings (values of class ``poly``) keep the monomials whose
    ``grade`` is at least -scale * cutoff, through ``eval_at_L_power``.  The
    euler target (L -> 1, where no cutoff truncates) has no ring, and neither
    has the symbolic model, whose series keep the generators S_i.
    """

    symbol = "L"
    scale = 1

    def __init__(self, dim: int, L_image):
        self.dim = dim
        self.L_image = L_image

    def L(self, exp: int):
        """L^exp in the target ring."""
        return self.L_image**exp

    def evaluate(self, f: TruncSeries, m: int, cutoff: int):
        """(sum_n f_n L^(-mn) truncated at codimension cutoff, the tail left out).

        Needs m > dim, where the terms of a configuration series decay.
        """
        if m <= self.dim:
            raise DivergenceError(
                f"evaluation at {self.symbol}^-{m} diverges for dimension {self.dim}"
            )
        return self._evaluate(f, m, cutoff)

    def evaluate_at_M(self, E: TruncSeries, cutoff: int):
        """E(M^-1) = E(L^-dim), verifying decay over a tail window of E."""
        d = self.dim
        if d < 1:  # E(L^0) = E(1) has no codimension to truncate by
            raise InputError(f"stable limits need a model of dimension >= 1, got {d}")
        res = self._evaluate(E, d, cutoff)
        for n in range(max(1, E.order - max(3, E.order // 4) + 1), E.order + 1):
            if self._visible(E.coeffs[n], d * n, cutoff):
                raise DivergenceError(
                    f"E({self.symbol}^-{d}) does not visibly converge at term {n}"
                )
        return res

    def geometric(self, m: int, cutoff: int):
        """L^-m / (1 - L^-m), truncated at codimension cutoff."""
        value, _ = self._evaluate(TruncSeries.from_coeffs([0] + [1] * cutoff), m, cutoff)
        return value

    def _evaluate(self, f, m, cutoff):
        return eval_at_L_power(f, self.L(-m), self.grade, -self.scale * cutoff)

    def _visible(self, c, shift, cutoff):
        """Whether c * L^-shift reaches codimension cutoff."""
        return self.poly.coerce(c).degree(self.grade) >= self.scale * (shift - cutoff)

    def truncate(self, value, cutoff: int):
        return value.truncated(self.grade, -self.scale * cutoff)[0]

    def height(self, value) -> int:
        """How far value reaches above dimension 0, in units of L: 0 if it does not."""
        return math.ceil(max(0, self.poly.coerce(value).degree(self.grade)) / self.scale)


class _MotivicRing(_Ring):
    poly = MotivicClass

    def __init__(self, dim: int, L_image):
        super().__init__(dim, MotivicClass.lefschetz())  # X.L_image is None: the classes keep L
        self.grade = dim_grade(dim)


class _CountRing(_Ring):
    """L -> q, exactly: nothing is truncated, and the tail is the last term."""

    symbol = "q"

    def __init__(self, dim: int, q: int):
        super().__init__(dim, Fraction(q))

    def _evaluate(self, f, m, cutoff):
        total = Fraction(0)
        last = Fraction(0)
        for n, c in enumerate(f.coeffs):
            term = Fraction(c) / self.L_image ** (m * n)
            total += term
            if term:
                last = term
        return total, abs(last)

    def _visible(self, c, shift, cutoff):
        return abs(Fraction(c)) / self.L_image**shift >= self.L_image**-cutoff

    def geometric(self, m, cutoff):
        return self.L(-m) / (1 - self.L(-m))

    def truncate(self, value, cutoff):
        return value

    height = staticmethod(lambda value: 0)


class _HodgeRing(_Ring):
    """L -> uv; codimension c is weight p + q = -2c."""

    symbol = "(uv)"
    poly = UVPoly
    scale = 2
    grade = staticmethod(UVPoly.weight)


_RINGS = {MOTIVIC: _MotivicRing, COUNT: _CountRing, HODGE: _HodgeRing}


def _ring(X: XModel, spec: Specialization | None) -> _Ring:
    """The evaluation ring of the target of ``spec`` (X's natural one by default)."""
    target = (spec or X.natural_spec()).target
    if target not in _RINGS:
        raise SymbolicEvaluationError(
            f"the {target} target does not support evaluation at powers of L"
        )
    if X.kind == "symbolic":
        raise SymbolicEvaluationError(
            "series coefficients contain symmetric-power generators; "
            "specialize via an X-model before evaluating at a power of L"
        )
    return _RINGS[target](X.dim, X.L_image(spec))


# ---------------------------------------------------------------------------
# densities of singular divisors


@strict
class HypersurfaceDensity(NamedTuple):
    """A limiting density of divisors in a very positive linear system on X: what ``hyper`` prints."""

    value: object
    expression: str
    codim_cutoff: int
    tail_indicator: object


def hyper_density(X: XModel, s: int, cutoff: int, spec: Specialization | None = None) -> HypersurfaceDensity:
    """Limiting density of divisors with exactly s singular geometric points:
    zeta^[s]_X(d+1) / zeta_X(d+1), d = ``X.dim``.

    Computed as Z^[s] * Z^-1 evaluated at t = L^-(d+1).  The second route,
    through the point-graded inverse series zinv_{*^s}, is held by the tier-1
    test ``tests/test_genfun.py::TestSecondRoutes::test_zinv_star_bridge``.
    """
    _check_hyper_args(X, cutoff, s)
    m = X.dim + 1
    # term k has dimension <= -k, so order cutoff+1 already covers the cutoff
    E = colored_over_zeta(X, (s,), cutoff + 1, spec)
    value, tail = _ring(X, spec).evaluate(E, m, cutoff)
    expr = f"zeta^[{s}]_X({m})/zeta_X({m})" if s else f"1/zeta_X({m})"
    return HypersurfaceDensity(value, expr, cutoff, tail)


def hyper_ordered_density(X: XModel, s: int, cutoff: int, spec: Specialization | None = None) -> HypersurfaceDensity:
    """Limiting density with a choice of s ordered singular points, d = ``X.dim``:
    [X^s - diagonal] / zeta_X(d+1) * (L^-(d+1) / (1 - L^-(d+1)))^s.
    """
    _check_hyper_args(X, cutoff, s)
    m = X.dim + 1
    inner = cutoff + s * X.dim + 2
    w_img = w_of(X, (1,) * s, spec)
    zeta_inv = zeta_series(X, inner, spec).inverse()
    ring = _ring(X, spec)
    value, tail = ring.evaluate(zeta_inv, m, inner)
    geom = ring.geometric(m, inner)
    for _ in range(s):
        value = value * geom
    value = ring.truncate(w_img * value, cutoff)
    expr = f"[X^{s}-diag]/zeta_X({m}) * (L^-{m}/(1-L^-{m}))^{s}"
    return HypersurfaceDensity(value, expr, cutoff, tail)


def multi_point_density(X: XModel, m: int, cutoff: int, spec: Specialization | None = None) -> HypersurfaceDensity:
    """Limiting density of divisors with no m-multiple point: 1/zeta_X(C(d+m-1, d)), d = ``X.dim``."""
    _check_hyper_args(X, cutoff)
    if m < 2:
        raise InputError("m must be >= 2")
    arg = math.comb(X.dim + m - 1, X.dim)
    zeta_inv = zeta_series(X, cutoff + 2, spec).inverse()
    value, tail = _ring(X, spec).evaluate(zeta_inv, arg, cutoff)
    return HypersurfaceDensity(value, f"1/zeta_X({arg})", cutoff, tail)


def _check_hyper_args(X: XModel, cutoff: int, s: int = 0) -> None:
    _check_cutoff(cutoff)
    if X.dim < 1:
        raise InputError(f"hypersurface densities need a model of dimension >= 1, got {X.dim}")
    if s < 0:
        raise InputError("s must be >= 0")


def _check_cutoff(cutoff: int) -> None:
    if cutoff < 0:
        raise InputError("codimension cutoff must be >= 0")


# ---------------------------------------------------------------------------
# stable limits of configuration series


@strict
class LimitReport(NamedTuple):
    """A stable-limit value with its cutoff, tail indicator and provenance."""

    value: object
    codim_cutoff: int
    tail_indicator: object
    normalization: str
    zeta_expression: str


def default_limit_order(cutoff: int) -> int:
    return 2 * cutoff + 8


def stable_limit(
    E: TruncSeries,
    X: XModel,
    normalization: str = "Sym",
    cutoff: int = 10,
    spec: Specialization | None = None,
    expression: str = "E(M^-1) with E = Y/Z_X",
) -> LimitReport:
    """lim_j Y_j / [Sym^j X] (or / M^j) = E(M^-1), given E = Y/Z_X itself; only
    the ``series`` verb multiplies E by Z_X.  The Sym normalization is E(M^-1);
    the M-power normalization multiplies by the stable symmetric-power class
    of X, which is only available for the rational models built in.

    E(M^-1) reaches dimension g = ``_Ring.height`` >= 0, so the class is built to codimension
    cutoff + g and the product truncated once, at the cutoff.  The tail covers E(M^-1) alone.
    """
    _check_cutoff(cutoff)
    if normalization not in ("Sym", "M"):
        raise InputError("normalization must be 'Sym' or 'M'")
    if E.grading != GRADING_MULT:
        raise InputError("stable limits apply to multiplicity-graded series")
    ring = _ring(X, spec)
    value, tail = ring.evaluate_at_M(E, cutoff)
    if normalization == "M":
        value = ring.truncate(value * _stable_sym_class(X, spec, ring, cutoff + ring.height(value)), cutoff)
    label = "by M^j" if normalization == "M" else "by Sym^j"
    return LimitReport(value, cutoff, tail, label, expression)


def _stable_sym_class(X: XModel, spec: Specialization | None, ring: _Ring, cutoff: int):
    """lim [Sym^n X]/M^n = prod_{i=1..k} 1/(1 - L^-i), k = ``X.stable_sym_poles()``, to codimension cutoff."""
    out = X.sym(0, spec)
    for i in range(1, X.stable_sym_poles() + 1):
        out = out * (1 + ring.geometric(i, cutoff))
    return out


def distinct_nu_limit(X: XModel, nu, cutoff: int, spec: Specialization | None = None) -> LimitReport:
    """lim_j [w_{1^j nu}]/[Sym^(j+sum nu) X] for nu with distinct parts all > 1:

    (w_nu / zeta_X(2d)) * L^(-d sum nu) / (1 + L^-d)^|nu|.

    Computed from this closed form.  Its agreement with the K_(<2)nu
    recursion is held by the tier-1 test
    ``tests/test_genfun.py::TestSecondRoutes::test_distinct_nu_closed_form_matches_recursion``.
    """
    _check_cutoff(cutoff)
    nu = int_partition(nu)
    if any(p < 2 for p in nu):
        raise InputError(f"distinct_nu_limit needs all parts > 1, got {nu}")
    if len(set(nu)) != len(nu):
        raise InputError(f"distinct_nu_limit needs distinct parts, got {nu}")
    d = X.dim
    shift = d * sum(nu)
    inner_cutoff = cutoff + shift
    order = default_limit_order(inner_cutoff)
    k = len(nu)
    binomials = TruncSeries.from_coeffs([generalized_binomial(-k, n) for n in range(order + 1)])  # (1+t)^-k
    E = (k_over_zeta(X, (), 2, order, spec) * binomials).scale(w_of(X, (1,) * k, spec))  # Z(t^2)^-1 = K_(<2)/Z
    ring = _ring(X, spec)
    value, tail = ring.evaluate_at_M(E, inner_cutoff)
    value = ring.truncate(value * ring.L(-shift), cutoff)
    expr = f"(w_nu/zeta_X({2 * d})) * L^-{shift} / (1+L^-{d})^{len(nu)}"
    return LimitReport(value, cutoff, tail, "by Sym^(j+sum nu)", expr)
