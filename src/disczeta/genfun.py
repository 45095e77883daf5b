"""Generating functions for discriminant strata and their stable limits.

The series built here (all truncated in t):

* ``zeta_series``     -- Z_X(t) = sum [Sym^n X] t^n.
* ``zeta_s_series``   -- Z^[s]_X(t) = sum over partitions with s parts of
  w_lambda t^(sum lambda): configurations supported on exactly s points.
* ``k_lt_a_nu``       -- K_(<a)nu(t): configurations of points with all
  unmarked multiplicities < a decorating a fixed pattern nu.
* ``kbar_nu``         -- Kbar_{1*nu}(t) = sum_j [wbar_{1^j nu}] t^j, closures.
* ``sym_s_series``    -- configurations with exactly s multiple points.
* ``zinv_profiles``   -- the inverse-zeta analogues graded by point count,
  summed over multiplicity profiles (what ``series zetainv`` prints).
* ``zinv_lambda``     -- the same series as the defining signed sum over Q;
  the second route that checks ``zinv_profiles``.
* densities and stable limits expressed through motivic zeta values.

Two t-gradings coexist and must not be mixed silently: configuration series
grade t by total multiplicity, the hypersurface series by number of points.
The one sanctioned bridge is the identity
``Z^[s](t) = zinv_{*^s}(t) * Z(t)``.  The densities are computed on the
multiplicity-graded side only; the bridge is checked in the tier-1 test
``tests/test_genfun.py::TestSecondRoutes::test_zinv_star_bridge``.

Evaluation at t = L^-m happens in a target ring (``_ring``): motivic-L,
count(q) or Hodge-Deligne.  Only the ring classes know which one it is.

Coefficient of t^n never involves S_k with k > n, so truncation at N keeps
all symmetric-power generators at index <= N.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import partitions as pt
from .errors import (
    DivergenceError,
    GuardExceeded,
    InputError,
    InternalCheckError,
    SymbolicEvaluationError,
)
from .models import COUNT, HODGE, MOTIVIC, Specialization, UVPoly, XModel, zeta_coeffs
from .motive import (
    GRADING_MULT,
    GRADING_POINTS,
    NEG_INF,
    MotivicClass,
    TruncSeries,
    dim_grade,
    eval_at_L_power,
)
from .partitions import GenPartition, int_partition

ZINV_GUARD = 10**4  # multiplicity profiles for zinv_profiles: admits t^25, stops t^26

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
        head = MotivicClass.sym(c)
        for k in range(1, c):
            for pi in pt.enumerate_k_parts(k, c):
                if sum(pi) == c:
                    minus[_profile_of_ints(pi)] += 1
    else:
        c, rest = profile[-1], profile[:-1]
        head = _w_profile((c,)) * _w_profile(rest)
        for ks in _collisions(rest, c):
            total = sum(ks)
            collided: list[int] = [] if total == c else [c - total]
            for m, k in zip(rest, ks):
                if k:
                    collided.append(k)
                if m - k:
                    collided.append(m - k)
            minus[tuple(sorted(collided, reverse=True))] += 1
    return MotivicClass.combination([(1, head)] + [(-n, _w_profile(p)) for p, n in minus.items()])


def _formalization_with_profile(profile: tuple[int, ...]) -> GenPartition:
    parts = []
    for i, m in enumerate(profile, start=1):
        parts.extend([pt.Part.gen(f"a{i}")] * m)
    return GenPartition.of(parts)


def w_class(lam: GenPartition | tuple[int, ...]) -> MotivicClass:
    """The open stratum [w_lambda] as a polynomial in S_1, S_2, ...

    Depends only on the multiplicity profile of lambda.
    """
    profile = lam if isinstance(lam, tuple) else pt.multiplicity_profile(lam)
    return _w_profile(tuple(sorted(profile, reverse=True)))


def wbar_class(lam: GenPartition) -> MotivicClass:
    """The closed stratum [wbar_lambda] = sum of w_mu over the merge closure."""
    acc = MotivicClass.zero()
    for mu in pt.merge_closure(lam):
        acc = acc + _w_profile(pt.multiplicity_profile(mu))
    return acc


@lru_cache(maxsize=None)
def _w_image(X: XModel, spec: Specialization | None, profile: tuple[int, ...]):
    return X.specialize(_w_profile(profile), spec)


def w_of(X: XModel, profile: tuple[int, ...], spec: Specialization | None = None):
    """[w_lambda] specialized through an X-model."""
    return _w_image(X, spec, tuple(sorted(profile, reverse=True)))


# ---------------------------------------------------------------------------
# configuration series


def zeta_series(X: XModel, N: int, spec: Specialization | None = None) -> TruncSeries:
    """Z_X(t) truncated at order N."""
    return zeta_coeffs(X, N, spec)


def zeta_s_series(X: XModel, s: int, N: int, spec: Specialization | None = None) -> TruncSeries:
    """Z^[s]_X(t): the locus of Sym^n X supported on exactly s geometric points."""
    if s < 0:
        raise InputError("s must be >= 0")
    coeffs: list = [0] * (N + 1)
    for lam in pt.enumerate_k_parts(s, N):
        coeffs[sum(lam)] = coeffs[sum(lam)] + w_of(X, _profile_of_ints(lam), spec)
    return TruncSeries.from_coeffs(coeffs)


def _profile_of_ints(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(Counter(lam).values(), reverse=True))


def k_lt_a_nu(
    X: XModel, nu, a: int, N: int, spec: Specialization | None = None
) -> TruncSeries:
    """K_(<a)nu(t): multiplicity-< a configurations decorating the pattern nu.

    nu must have all parts at least a (the recursion formalizes nu, which is
    only sound when its parts cannot collide with the small parts).
    """
    nu = int_partition(nu)
    if a < 2:
        raise InputError(f"a must be >= 2, got {a}")
    if any(p < a for p in nu):
        raise InputError(f"all parts of nu must be >= a={a}, got {nu}")
    return _k_profile(X, spec, _profile_of_ints(nu), a, N)


@lru_cache(maxsize=None)
def _k_profile(
    X: XModel, spec: Specialization | None, profile: tuple[int, ...], a: int, order: int
) -> TruncSeries:
    Z = zeta_series(X, order, spec)
    base = Z * Z.compose_power(a).inverse()
    if not profile:
        return base
    nu = _formalization_with_profile(profile)
    members = pt.add_lt_a(nu, a)
    numerator = base.scale(w_of(X, profile, spec))
    den = [0] * (order + 1)
    smaller: dict[tuple[tuple[int, ...], int], int] = {}
    for member, same in members:
        excess = pt.stats(member).total.coeff(pt.UNIT)
        if same:
            if excess <= order:
                den[excess] += 1
        else:
            prof2 = pt.multiplicity_profile(member)
            if not pt.leq_profiles(prof2, profile):
                raise InternalCheckError(
                    f"profiles {prof2} and {profile} are incomparable in the merge order"
                )
            key = (prof2, excess)
            smaller[key] = smaller.get(key, 0) + 1
    if den[0] != 1:
        raise InternalCheckError("denominator of the K-recursion lost its constant term 1")
    for (prof2, excess), count in smaller.items():
        term = _k_profile(X, spec, prof2, a, order).shift_up(excess).scale(count)
        numerator = numerator - term
    return numerator * TruncSeries.from_coeffs(den).inverse()


def kbar_nu(X: XModel, nu, N: int, spec: Specialization | None = None) -> TruncSeries:
    """Kbar_{1*nu}(t) = sum_j [wbar_{1^j nu}] t^j for nu with all parts >= 2.

    Peels the smallest part a of nu:
    Kbar_{1*(a nu')} = (Kbar_{1*nu'} - sum_{mu in S(nu',a)} K_(<a)mu
    t^(sum mu - sum nu')) / t^a, asserting that every negative power of t
    cancels.
    """
    nu = int_partition(nu)
    if any(p < 2 for p in nu):
        raise InputError(f"kbar_nu needs all parts >= 2, got {nu}")
    return _kbar_rec(X, spec, nu, N)


def _kbar_rec(
    X: XModel, spec: Specialization | None, nu: tuple[int, ...], order: int
) -> TruncSeries:
    if not nu:
        return zeta_series(X, order, spec)
    a, rest = nu[0], nu[1:]
    acc = _kbar_rec(X, spec, rest, order + a)
    total_rest = sum(rest)
    for mu in sorted(pt.s_set(rest, a)):
        excess = sum(mu) - total_rest
        K = _k_profile(X, spec, _profile_of_ints(mu), a, order + a)
        acc = acc - K.shift_up(excess)
    return acc.shift_down(a)


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
    if s < 0:
        raise InputError("s must be >= 0")
    zs = zeta_s_series(X, s, N, spec)
    Z = zeta_series(X, N, spec)
    return zs.compose_power(2) * Z * Z.compose_power(2).inverse()


def zinv_lambda(
    X: XModel, lam: GenPartition, N_pts: int, spec: Specialization | None = None
) -> TruncSeries:
    """Z^-1_{X,lambda}(t) = sum over mu in Q of (-1)^||mu|| w_{lambda.mu} t^|lambda.mu|.

    The t-exponent counts points (not multiplicity); lambda.mu is the disjoint
    concatenation, so only the profiles are joined.
    """
    base_profile = pt.multiplicity_profile(lam)
    s0 = len(lam)
    if N_pts < 0:
        raise InputError("N_pts must be >= 0")
    coeffs: list = [0] * (N_pts + 1)
    for mu in pt.enumerate_Q(max(N_pts - s0, 0)):
        k = s0 + len(mu)
        if k > N_pts:
            continue
        sign = -1 if pt.q_distinct(mu) % 2 else 1
        prof = tuple(sorted(base_profile + _profile_of_ints(mu), reverse=True))
        coeffs[k] = coeffs[k] + sign * w_of(X, prof, spec)
    return TruncSeries.from_coeffs(coeffs, GRADING_POINTS)


def zinv_profiles(
    X: XModel, lam: GenPartition, N_pts: int, spec: Specialization | None = None, guard: int = ZINV_GUARD
) -> TruncSeries:
    """``zinv_lambda`` summed over the multiplicity profiles of mu, not over Q.

    mu in Q is fixed by its multiplicities (c_1, ..., c_m).  The mu whose
    multiplicities form the partition pi of k are the m!/prod_v mult_pi(v)!
    orderings of pi, each with sign (-1)^m, so coefficient |lambda| + k sums
    over the p(k) partitions pi of k instead of the 2^(k-1) elements of Q.
    """
    if N_pts < 0:
        raise InputError("N_pts must be >= 0")
    base_profile = pt.multiplicity_profile(lam)
    s0 = len(lam)
    profiles = pt.profile_count(N_pts - s0, guard)
    if profiles > guard:
        raise GuardExceeded(f"zetainv to t^{N_pts} needs at least {profiles} multiplicity profiles, guard is {guard}")
    terms: list = [[] for _ in range(N_pts + 1)]  # the (n, w) pairs of each coefficient
    for m in range(N_pts - s0 + 1):
        for pi in pt.enumerate_k_parts(m, N_pts - s0):
            orderings = math.factorial(m) // math.prod(map(math.factorial, _profile_of_ints(pi)))
            terms[s0 + sum(pi)].append(((-1) ** m * orderings, w_of(X, base_profile + pi, spec)))
    return TruncSeries.from_coeffs(map(_combination, terms), GRADING_POINTS)


def _combination(pairs: list):
    """sum n * value over the pairs, in one dict when the values are sparse polynomials."""
    poly = next((type(v) for _, v in pairs if hasattr(v, "combination")), None)
    return poly.combination(pairs) if poly else sum(n * v for n, v in pairs)


# ---------------------------------------------------------------------------
# evaluation at powers of L, by target ring


class _Ring:
    """A target ring for evaluating series at t = L^-m.

    A subclass fixes the image of L and what truncating at a codimension
    cutoff means there; ``_ring`` picks the one for a specialization.  The
    graded rings (values of class ``poly``) keep the monomials whose
    ``grade`` is at least -scale * cutoff.
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
        res = self._evaluate(E, max(d, 1), cutoff)
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
        total = self.poly.zero()
        dropped = NEG_INF
        for n, c in enumerate(f.coeffs):
            term, drop = (c * self.L(-m * n)).truncated(self.grade, -self.scale * cutoff)
            dropped = max(dropped, drop)
            total = total + term
        return total, dropped

    def _visible(self, c, shift, cutoff):
        """Whether c * L^-shift reaches codimension cutoff."""
        return self.poly.coerce(c).degree(self.grade) >= self.scale * (shift - cutoff)

    def truncate(self, value, cutoff: int):
        return value.truncated(self.grade, -self.scale * cutoff)[0]


class _MotivicRing(_Ring):
    poly = MotivicClass

    def __init__(self, dim: int, L_image):
        super().__init__(dim, L_image)
        self.grade = dim_grade(dim)

    def L(self, exp: int):
        return MotivicClass.lefschetz(exp)

    def _evaluate(self, f, m, cutoff):
        return eval_at_L_power(f, m, self.dim, cutoff, require_margin=False)


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


class _HodgeRing(_Ring):
    """L -> uv; codimension c is weight p + q = -2c."""

    symbol = "(uv)"
    poly = UVPoly
    scale = 2
    grade = staticmethod(lambda key: sum(UVPoly.exponents(key)))


_RINGS = {MOTIVIC: _MotivicRing, COUNT: _CountRing, HODGE: _HodgeRing}


def _ring(X: XModel, spec: Specialization | None) -> _Ring:
    """The evaluation ring of the target of ``spec`` (X's natural one by default)."""
    target = (spec or X.natural_spec()).target
    if target not in _RINGS:
        raise SymbolicEvaluationError(
            f"the {target} target does not support evaluation at powers of L"
        )
    return _RINGS[target](X.dim, X.L_image(spec))


# ---------------------------------------------------------------------------
# densities of singular divisors


class HypersurfaceDensity(NamedTuple):
    """A limiting density of divisors in a very positive linear system."""

    d: int
    s: int | None
    value: object
    expression: str
    codim_cutoff: int
    tail_indicator: object


def hyper_density(
    X: XModel, d: int, s: int, cutoff: int, spec: Specialization | None = None
) -> HypersurfaceDensity:
    """Limiting density of divisors with exactly s singular geometric points:
    zeta^[s]_X(d+1) / zeta_X(d+1).

    Computed as Z^[s] * Z^-1 evaluated at t = L^-(d+1).  The second route,
    through the point-graded inverse series zinv_{*^s}, is held by the tier-1
    test ``tests/test_genfun.py::TestSecondRoutes::test_zinv_star_bridge``.
    """
    _check_hyper_args(X, d, s)
    # term k has dimension <= -k, so order cutoff+1 already covers the cutoff
    order = cutoff + 1
    Z = zeta_series(X, order, spec)
    E = zeta_s_series(X, s, order, spec) * Z.inverse()
    value, tail = _ring(X, spec).evaluate(E, d + 1, cutoff)
    expr = f"zeta^[{s}]_X({d + 1})/zeta_X({d + 1})" if s else f"1/zeta_X({d + 1})"
    return HypersurfaceDensity(d, s, value, expr, cutoff, tail)


def hyper_ordered_density(
    X: XModel, d: int, s: int, cutoff: int, spec: Specialization | None = None
) -> HypersurfaceDensity:
    """Limiting density with a choice of s ordered singular points:
    [X^s - diagonal] / zeta_X(d+1) * (L^-(d+1) / (1 - L^-(d+1)))^s.
    """
    _check_hyper_args(X, d, s)
    m = d + 1
    inner = cutoff + s * d + 2
    w_img = w_of(X, (1,) * s, spec)
    zeta_inv = zeta_series(X, inner, spec).inverse()
    ring = _ring(X, spec)
    value, tail = ring.evaluate(zeta_inv, m, inner)
    geom = ring.geometric(m, inner)
    for _ in range(s):
        value = value * geom
    value = ring.truncate(w_img * value, cutoff)
    expr = f"[X^{s}-diag]/zeta_X({m}) * (L^-{m}/(1-L^-{m}))^{s}"
    return HypersurfaceDensity(d, s, value, expr, cutoff, tail)


def multi_point_density(
    X: XModel, d: int, m: int, cutoff: int, spec: Specialization | None = None
) -> HypersurfaceDensity:
    """Limiting density of divisors with no m-multiple point: 1/zeta_X(C(d+m-1, d))."""
    _check_hyper_args(X, d)
    if m < 2:
        raise InputError("m must be >= 2")
    arg = math.comb(d + m - 1, d)
    order = cutoff + 2
    zeta_inv = zeta_series(X, order, spec).inverse()
    value, tail = _ring(X, spec).evaluate(zeta_inv, arg, cutoff)
    return HypersurfaceDensity(d, None, value, f"1/zeta_X({arg})", cutoff, tail)


def _check_hyper_args(X: XModel, d: int, s: int = 0) -> None:
    if d < 1:
        raise InputError("hypersurface densities need d >= 1")
    if X.dim != d:
        raise InputError(f"model dimension {X.dim} does not match d={d}")
    if s < 0:
        raise InputError("s must be >= 0")


# ---------------------------------------------------------------------------
# stable limits of configuration series


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
    Y: TruncSeries,
    X: XModel,
    normalization: str = "Sym",
    cutoff: int = 10,
    spec: Specialization | None = None,
    expression: str = "E(M^-1) with E = Y/Z_X",
) -> LimitReport:
    """lim_j Y_j / [Sym^j X] (or / M^j): write Y = E * Z_X and evaluate E(M^-1).

    The Sym normalization is E(M^-1) itself; the M-power normalization
    multiplies by the stable symmetric-power class of X, which is only
    available for the rational models built in.
    """
    if normalization not in ("Sym", "M"):
        raise InputError("normalization must be 'Sym' or 'M'")
    if Y.grading != GRADING_MULT:
        raise InputError("stable limits apply to multiplicity-graded series")
    Z = zeta_series(X, Y.order, spec)
    E = Y * Z.inverse()
    ring = _ring(X, spec)
    value, tail = ring.evaluate_at_M(E, cutoff)
    if normalization == "M":
        value = ring.truncate(value * _stable_sym_class(X, spec, ring, cutoff), cutoff)
    label = "by M^j" if normalization == "M" else "by Sym^j"
    return LimitReport(value, cutoff, tail, label, expression)


def _stable_sym_class(X: XModel, spec: Specialization | None, ring: _Ring, cutoff: int):
    """lim [Sym^n X]/M^n = prod_{i=1..dim} 1/(1 - L^-i) for the built-in rational models."""
    if X.kind == "affine" or (X.kind == "counts" and X.params[1] is None):
        return X.ring_one(spec)
    if X.kind in ("projline", "projspace"):
        out = 1
        for i in range(1, X.dim + 1):
            out = out * (1 + ring.geometric(i, cutoff))
        return ring.truncate(out, cutoff)
    raise InputError(
        f"the M-power normalization needs the stable symmetric-power class, "
        f"which is not available for the {X.kind} model; use Sym"
    )


def distinct_nu_limit(
    X: XModel, nu, cutoff: int, spec: Specialization | None = None
) -> LimitReport:
    """lim_j [w_{1^j nu}]/[Sym^(j+sum nu) X] for nu with distinct parts all > 1:

    (w_nu / zeta_X(2d)) * L^(-d sum nu) / (1 + L^-d)^|nu|.

    Computed from this closed form.  Its agreement with the K_(<2)nu
    recursion is held by the tier-1 test
    ``tests/test_genfun.py::TestSecondRoutes::test_distinct_nu_closed_form_matches_recursion``.
    """
    nu = int_partition(nu)
    if any(p < 2 for p in nu):
        raise InputError(f"distinct_nu_limit needs all parts > 1, got {nu}")
    if len(set(nu)) != len(nu):
        raise InputError(f"distinct_nu_limit needs distinct parts, got {nu}")
    d = X.dim
    shift = d * sum(nu)
    inner_cutoff = cutoff + shift
    order = default_limit_order(inner_cutoff)
    Z = zeta_series(X, order, spec)
    one_plus_t = TruncSeries.from_coeffs([1, 1] + [0] * (order - 1))
    denom = TruncSeries.one(order)
    for _ in range(len(nu)):
        denom = denom * one_plus_t
    E = Z.compose_power(2).inverse() * denom.inverse()
    E = E.scale(w_of(X, (1,) * len(nu), spec))
    ring = _ring(X, spec)
    value, tail = ring.evaluate_at_M(E, inner_cutoff)
    value = ring.truncate(value * ring.L(-shift), cutoff)
    expr = f"(w_nu/zeta_X({2 * d})) * L^-{shift} / (1+L^-{d})^{len(nu)}"
    return LimitReport(value, cutoff, tail, "by Sym^(j+sum nu)", expr)
