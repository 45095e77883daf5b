"""<<-chains of generalized partitions, the test suite's reference route to [w_lambda]
(a signed sum of ``sym_product`` over chains), with formalization, a
breadth-first merge closure, S(nu, a) by the merge closure and the profile sum
for zinv_lambda as references; the K, Kbar and Sym^j_s series computed as Y
itself rather than as E = Y/Z_X; Kbar from its definition, the partitions into
whose parts nu packs, with no S(nu, a); and the regex-chain parsers of ``--X`` and
``--spec`` that try every pattern in turn, as references for the parsers that
dispatch on the prefix."""

import math
import re
from collections import Counter
from functools import lru_cache

from disczeta import genfun as G
from disczeta import partitions as pt
from disczeta.errors import InputError
from disczeta.models import COUNT, EULER, HODGE, MOTIVIC, Specialization, XModel
from disczeta.motive import GRADING_POINTS, MotivicClass, TruncSeries, _dot
from disczeta.partitions import GenPartition, Part, elementary_merges, merge_closure


def sym_product(profile: tuple[int, ...]) -> MotivicClass:
    """prod_i S_{m_i} for a multiplicity profile."""
    out = MotivicClass.one()
    for m in profile:
        out = out * MotivicClass.sym(m)
    return out


def generators(lam: GenPartition) -> set[str]:
    """The generator names that occur in the parts of lam."""
    return {g for p in lam.parts for g, _ in p.coeffs}


def formalize(lam: GenPartition) -> GenPartition:
    """Replace each distinct part value by a fresh generator, keeping multiplicities.

    Fresh generators are named a1, a2, ... in canonical order of the distinct
    values (the prefix grows if the input already uses such names), so the
    result is reproducible.  Any two sub-multisets of the result with equal
    sums are equal.
    """
    existing = generators(lam)
    prefix = "a"
    distinct = sorted(set(lam.parts), key=lambda p: p.coeffs)
    while any(f"{prefix}{i}" in existing for i in range(1, len(distinct) + 1)):
        prefix += "a"
    rename = {p: Part.gen(f"{prefix}{i}") for i, p in enumerate(distinct, start=1)}
    return GenPartition.of(rename[p] for p in lam.parts)


def formalization_with_profile(profile: tuple[int, ...]) -> GenPartition:
    """The formalization a1^m1 a2^m2 ... whose multiplicity profile is ``profile``."""
    parts = []
    for i, m in enumerate(profile, start=1):
        parts.extend([Part.gen(f"a{i}")] * m)
    return GenPartition.of(parts)


def s_set_by_closure(nu: tuple[int, ...], a: int, j: int | None = None) -> frozenset[tuple[int, ...]]:
    """S(nu, a) by its definition: the parts >= a of each member of the merge
    closure of 1^j nu that is not in the closure of 1^(j-a) a nu (none is
    dropped when j < a).  j defaults to |nu|(a-1)."""
    if j is None:
        j = len(nu) * (a - 1)
    dropped = merge_closure(GenPartition.integers((1,) * (j - a) + (a,) + nu)) if j >= a else frozenset()
    kept = merge_closure(GenPartition.integers((1,) * j + nu)) - dropped
    return frozenset(tuple(v for v in lam.as_integers() if v >= a) for lam in kept)


def merge_closure_bfs(lam: GenPartition) -> frozenset[GenPartition]:
    """{mu : lam <= mu} by breadth-first search over elementary merges, without memos."""
    seen = frontier = {lam}
    while frontier:
        frontier = {mu for nu in frontier for mu in elementary_merges(nu)} - seen
        seen = seen | frontier
    return frozenset(seen)


def zinv_by_profiles(X, lam: GenPartition, N_pts: int, spec=None) -> TruncSeries:
    """``zinv_lambda`` summed over the multiplicity profiles of mu, not over Q.

    mu in Q is fixed by its multiplicities (c_1, ..., c_m).  The mu whose
    multiplicities form the partition pi of k are the m!/prod_v mult_pi(v)!
    orderings of pi, each with sign (-1)^m, so coefficient |lambda| + k sums
    over the p(k) partitions pi of k instead of the 2^(k-1) elements of Q.
    No series inverse is taken.
    """
    base_profile = pt.multiplicity_profile(lam)
    s0 = len(lam)
    terms: list = [[] for _ in range(N_pts + 1)]  # the (n, w) pairs of each coefficient
    for m in range(N_pts - s0 + 1):
        for pi in pt.enumerate_k_parts(m, N_pts - s0):
            orderings = math.factorial(m) // math.prod(map(math.factorial, pt.multiplicity_profile(pi)))
            terms[s0 + sum(pi)].append(((-1) ** m * orderings, G.w_of(X, base_profile + pi, spec)))
    return TruncSeries.from_coeffs(map(_dot, terms), GRADING_POINTS)


@lru_cache(maxsize=None)
def k_profile_y(X, spec, profile: tuple[int, ...], a: int, order: int) -> TruncSeries:
    """K_(<a)nu(t) itself, nu of profile ``profile``: the base Z(t) Z(t^a)^-1,
    rebuilt for each profile, with the members of A_<a(nu) as in ``genfun._k_profile``."""
    Z = G.zeta_series(X, order, spec)
    base = Z * Z.compose_power(a).inverse()
    if not profile:
        return base
    den = [0] * (order + 1)
    smaller = []  # (count, excess, K of the finer profile)
    for (split, excess), n in G._member_counts(profile, a, order).items():
        if split == profile:
            den[excess] += n
        else:
            smaller.append((n, excess, k_profile_y(X, spec, split, a, order)))
    w = G.w_of(X, profile, spec)
    numerator = (_dot([(w, c)] + [(-n, K[i - e]) for n, e, K in smaller if e <= i])
                 for i, c in enumerate(base.coeffs))
    return TruncSeries.from_coeffs(numerator) * TruncSeries.from_coeffs(den).inverse()


def kbar_y(X, spec, nu: tuple[int, ...], order: int) -> TruncSeries:
    """Kbar_{1*nu}(t) itself, nu ascending, from Kbar_{1*()} = Z: one shifted
    series subtracted for each mu in S(nu', a)."""
    if not nu:
        return G.zeta_series(X, order, spec)
    a, rest = nu[0], nu[1:]
    acc = kbar_y(X, spec, rest, order + a)
    for mu in sorted(pt.s_set(rest, a)):
        K = k_profile_y(X, spec, pt.multiplicity_profile(mu), a, order + a)
        acc = acc - K.shift_up(sum(mu) - sum(rest))
    return acc.shift_down(a)


def partitions(n: int, low: int, high: int):
    """The partitions of n into parts in [low, high], parts descending."""
    if not n:
        yield ()
        return
    for first in range(min(n, high), low - 1, -1):
        for rest in partitions(n - first, low, first):
            yield (first, *rest)


def packs(parts: tuple[int, ...], bins: tuple[int, ...]) -> bool:
    """Whether ``parts``, descending, fit into bins of capacities ``bins``: each part in
    turn is tried in each distinct capacity left that holds it, once."""
    if not parts:
        return True
    head, rest = parts[0], parts[1:]
    for c in set(bins):
        if c >= head:
            i = bins.index(c)
            if packs(rest, bins[:i] + (c - head,) + bins[i + 1:]):
                return True
    return False


def kbar_by_packing(X, spec, nu: tuple[int, ...], order: int) -> TruncSeries:
    """Kbar_{1*nu}(t) from its definition, with no S-set and no K: [wbar_{1^j nu}] sums
    w_mu over the merge closure of 1^j nu, which is the partitions mu of j + |nu|
    into whose parts nu packs (ones fill what nu leaves).  A part below min(nu) holds
    no part of nu, so mu is its big parts b, into which nu packs, and any parts below
    min(nu); the mu are counted by profile, the two sides' profiles joined."""
    low, size = min(nu, default=1), sum(nu)
    desc = tuple(sorted(nu, reverse=True))
    big = Counter((pt.multiplicity_profile(b), sum(b) - size) for n in range(size, size + order + 1)
                  for b in partitions(n, low, n) if packs(desc, b))
    small = Counter((pt.multiplicity_profile(s), n) for n in range(order + 1) for s in partitions(n, 1, low - 1))
    terms: list = [[] for _ in range(order + 1)]
    for (pb, jb), cb in big.items():
        for (ps, js), cs in small.items():
            if jb + js <= order:
                terms[jb + js].append((cb * cs, G.w_of(X, pb + ps, spec)))
    return TruncSeries.from_coeffs(map(_dot, terms))


def sym_s_y(X, s: int, N: int, spec=None) -> TruncSeries:
    """sum_j [Sym^j_s X] t^j as the product Z^[s](t^2) Z(t) Z(t^2)^-1 at order N."""
    Z = G.zeta_series(X, N, spec)
    return G.zeta_s_series(X, s, N, spec).compose_power(2) * Z * Z.compose_power(2).inverse()


def ll_chains(lam: GenPartition, max_len: int | None = None) -> list[tuple[GenPartition, ...]]:
    """All chains lam = mu_0 << mu_1 << ... << mu_k with k <= max_len.

    mu << mu' means formalize(mu) < mu'.  Each step strictly reduces the part
    count, so max_len = |lam| always suffices (and is the default).
    """
    if max_len is None:
        max_len = len(lam)
    chains: list[tuple[GenPartition, ...]] = []

    def extend(chain: list[GenPartition]) -> None:
        chains.append(tuple(chain))
        if len(chain) - 1 >= max_len:
            return
        f = formalize(chain[-1])
        for nxt in sorted(merge_closure(f) - {f}):
            extend(chain + [nxt])

    extend([lam])
    return chains


def parse_model_chain(text: str) -> XModel:
    """``models.parse_model`` as a chain of regex matches, tried in order."""
    text = text.strip()
    if text == "pt":
        return XModel.point()
    m = re.match(r"^A\^?(\d+)$", text)
    if m:
        return XModel.affine_space(int(m.group(1)))
    m = re.match(r"^P(\d+)$", text)
    if m:
        return XModel.proj_space(int(m.group(1)))
    m = re.match(r"^counts:q=(\d+)(?:,N=\[([\d,\s]*)\])?(?:,d=(\d+))?$", text)
    if m:
        q = int(m.group(1))
        counts = None
        if m.group(2) is not None:
            counts = [int(x) for x in m.group(2).split(",") if x.strip()] or []
        dim = int(m.group(3)) if m.group(3) else 1
        return XModel.point_counts(q, counts, dim)
    m = re.match(r"^euler:(-?\d+)$", text)
    if m:
        return XModel.euler_char(int(m.group(1)))
    m = re.match(r"^hd:(.+?)(?:,d=(\d+))?$", text)
    if m:
        return XModel.hodge_deligne(m.group(1), int(m.group(2)) if m.group(2) else None)
    m = re.match(r"^symbolic(?::(\d+))?$", text)
    if m:
        return XModel.symbolic(int(m.group(1)) if m.group(1) else 1)
    raise InputError(f"cannot parse X-model {text!r}")


def parse_spec_chain(text: str) -> Specialization:
    """``models.Specialization.parse`` with its ``count`` pattern tried on every input."""
    text = text.strip()
    if text in (MOTIVIC, "motivic", "L"):
        return Specialization(MOTIVIC)
    if text in (EULER, HODGE, "hd"):
        return Specialization(EULER if text == EULER else HODGE)
    m = re.match(r"^count(?::q=(\d+))?$", text)
    if m:
        return Specialization(COUNT, int(m.group(1)) if m.group(1) else None)
    raise InputError(f"cannot parse specialization {text!r}")
