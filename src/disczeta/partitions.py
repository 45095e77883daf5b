"""Generalized partitions and their merge order.

A generalized partition is a finite multiset of nonzero vectors with
nonnegative integer coordinates over an alphabet of named generators.  The
distinguished unit generator ``1`` represents the integer one, so ordinary
integer partitions embed as multisets of multiples of the unit.

The refinement (merge) order, formalizations, multiplicity profiles and the
derived sets built here drive every generating-function recursion in
:mod:`disczeta.genfun`.

All values are immutable and all functions are pure; the module-level memo
caches are only ever written idempotently, so concurrent use is safe.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, NamedTuple

from .errors import InputError

#: Name of the distinguished unit generator; the integer n is the part n*UNIT.
UNIT = "1"

_TERM_RE = re.compile(r"^(\d+)?([A-Za-z][A-Za-z0-9_]*)?$")


class Part(NamedTuple):
    """One element of a generalized partition: a nonzero vector over generators.

    ``coeffs`` is stored sorted by generator name with no zero entries, so
    equal vectors compare and hash equal.
    """

    coeffs: tuple[tuple[str, int], ...]

    @staticmethod
    def of(mapping: dict[str, int]) -> "Part":
        items = tuple(sorted((g, c) for g, c in mapping.items() if c != 0))
        if any(c < 0 for _, c in items):
            raise InputError(f"negative coefficient in part {mapping!r}")
        return Part(items)

    @staticmethod
    def integer(n: int) -> "Part":
        if n <= 0:
            raise InputError(f"integer part must be positive, got {n}")
        return Part(((UNIT, n),))

    @staticmethod
    def gen(name: str, coeff: int = 1) -> "Part":
        return Part.of({name: coeff})

    def __add__(self, other: "Part") -> "Part":
        acc = dict(self.coeffs)
        for g, c in other.coeffs:
            acc[g] = acc.get(g, 0) + c
        return Part(tuple(sorted(acc.items())))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, gen: str) -> int:
        for g, c in self.coeffs:
            if g == gen:
                return c
        return 0

    def generators(self) -> set[str]:
        return {g for g, _ in self.coeffs}

    def as_integer(self) -> int | None:
        """The value n if this part is n*UNIT, else None."""
        if len(self.coeffs) == 1 and self.coeffs[0][0] == UNIT:
            return self.coeffs[0][1]
        return None

    def __sub__(self, other: "Part") -> "Part":
        acc = dict(self.coeffs)
        for g, c in other.coeffs:
            acc[g] = acc.get(g, 0) - c
            if acc[g] < 0:
                raise InputError("part subtraction went negative")
        return Part(tuple(sorted((g, c) for g, c in acc.items() if c)))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        # non-unit generators alphabetically, the integer term last: "2x+1"
        for g, c in self.coeffs:
            if g == UNIT:
                continue
            terms.append(g if c == 1 else f"{c}{g}")
        u = self.coeff(UNIT)
        if u:
            terms.append(str(u))
        return "+".join(terms)


ZERO_PART = Part(())


class GenPartition:
    """A finite multiset of parts, stored canonically sorted.  Immutable, hashed
    as (parts,), and not a tuple: ``genfun.w_class`` reads tuples as profiles."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Part, ...]):
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, *_):
        raise AttributeError("GenPartition is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is GenPartition else NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __repr__(self) -> str:
        return f"GenPartition(parts={self.parts!r})"

    @staticmethod
    def of(parts: Iterable[Part]) -> "GenPartition":
        ps = tuple(sorted(parts, key=lambda p: p.coeffs))
        if any(not p for p in ps):
            raise InputError("a partition cannot contain the zero part")
        return GenPartition(ps)

    @staticmethod
    def integers(values: Iterable[int]) -> "GenPartition":
        return GenPartition.of(Part.integer(v) for v in values)

    @staticmethod
    def empty() -> "GenPartition":
        return GenPartition(())

    def __iter__(self) -> Iterator[Part]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __lt__(self, other: "GenPartition") -> bool:
        # arbitrary but deterministic total order, used only for stable output
        return tuple(p.coeffs for p in self.parts) < tuple(p.coeffs for p in other.parts)

    def as_integers(self) -> tuple[int, ...] | None:
        """The underlying integer partition (ascending) if all parts are integers."""
        vals = []
        for p in self.parts:
            n = p.as_integer()
            if n is None:
                return None
            vals.append(n)
        return tuple(sorted(vals))

    def generators(self) -> set[str]:
        out: set[str] = set()
        for p in self.parts:
            out |= p.generators()
        return out

    def __str__(self) -> str:
        if not self.parts:
            return "-"
        groups = []
        for part, copies in itertools.groupby(self.parts):
            k = len(list(copies))
            groups.append(str(part) if k == 1 else f"{part}^{k}")
        return ",".join(groups)

    @staticmethod
    def parse(text: str) -> "GenPartition":
        """Inverse of str: comma-separated parts, ``^`` for multiplicity.

        Examples: ``1^3,2^2`` and ``x^2,2x+1``.  The empty partition is ``""``
        or ``-``.
        """
        text = text.strip()
        if text in ("", "-"):
            return GenPartition.empty()
        parts: list[Part] = []
        for clause in text.split(","):
            clause = clause.strip()
            if "^" in clause:
                body, _, mult_s = clause.rpartition("^")
                try:
                    mult = int(mult_s)
                except ValueError:
                    raise InputError(f"bad multiplicity in {clause!r}") from None
                if mult < 1:
                    raise InputError(f"multiplicity must be >= 1 in {clause!r}")
            else:
                body, mult = clause, 1
            acc: dict[str, int] = {}
            for term in body.split("+"):
                m = _TERM_RE.match(term.strip())
                if not m or (m.group(1) is None and m.group(2) is None):
                    raise InputError(f"cannot parse part term {term!r}")
                coeff = int(m.group(1)) if m.group(1) else 1
                gen = m.group(2) if m.group(2) else UNIT
                acc[gen] = acc.get(gen, 0) + coeff
            parts.extend([Part.of(acc)] * mult)
        return GenPartition.of(parts)


def int_partition(values: Iterable[int]) -> tuple[int, ...]:
    """Canonical (ascending) tuple form of an integer partition."""
    vals = tuple(sorted(values))
    if any(v < 1 for v in vals):
        raise InputError(f"integer partition parts must be >= 1, got {vals}")
    return vals


class Stats(NamedTuple):
    size: int          # |lambda|, the number of parts
    distinct: int      # ||lambda||, the number of distinct parts
    total: Part        # vector sum of all parts (zero part when empty)


def multiplicity_profile(lam: GenPartition) -> tuple[int, ...]:
    """Multiplicities of the distinct part values, weakly decreasing.

    m([a,a,b]) = (2, 1); the profile of the empty partition is ().
    """
    counts = [len(list(g)) for _, g in itertools.groupby(lam.parts)]
    return tuple(sorted(counts, reverse=True))


def stats(lam: GenPartition) -> Stats:
    total = ZERO_PART
    for p in lam.parts:
        total = total + p
    distinct = len(set(lam.parts))
    return Stats(len(lam.parts), distinct, total)


def formalize(lam: GenPartition) -> GenPartition:
    """Replace each distinct part value by a fresh generator, keeping multiplicities.

    Fresh generators are named a1, a2, ... in canonical order of the distinct
    values (the prefix grows if the input already uses such names), so the
    result is reproducible.  Any two sub-multisets of the result with equal
    sums are equal.
    """
    existing = lam.generators()
    prefix = "a"
    distinct = sorted(set(lam.parts), key=lambda p: p.coeffs)
    while any(f"{prefix}{i}" in existing for i in range(1, len(distinct) + 1)):
        prefix += "a"
    rename = {p: Part.gen(f"{prefix}{i}") for i, p in enumerate(distinct, start=1)}
    return GenPartition.of(rename[p] for p in lam.parts)


def is_formalization(lam: GenPartition) -> bool:
    """True when every part is a bare non-unit generator (coefficient one)."""
    for p in lam.parts:
        if len(p.coeffs) != 1:
            return False
        g, c = p.coeffs[0]
        if c != 1 or g == UNIT:
            return False
    return True


def elementary_merges(lam: GenPartition) -> frozenset[GenPartition]:
    """All partitions obtained by replacing one unordered pair of parts by its sum."""
    if len(lam) < 2:
        return frozenset()
    out = set()
    seen_pairs = set()
    for i in range(len(lam.parts)):
        for j in range(i + 1, len(lam.parts)):
            pair = (lam.parts[i].coeffs, lam.parts[j].coeffs)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            rest = list(lam.parts[:i]) + list(lam.parts[i + 1 : j]) + list(lam.parts[j + 1 :])
            out.add(GenPartition.of(rest + [lam.parts[i] + lam.parts[j]]))
    return frozenset(out)


_closure_cache: dict[GenPartition, frozenset[GenPartition]] = {}


def merge_closure(lam: GenPartition) -> frozenset[GenPartition]:
    """{mu : lam <= mu} under the refinement ordering, including lam itself.

    Finite because each elementary merge strictly decreases the part count.
    """
    cached = _closure_cache.get(lam)
    if cached is not None:
        return cached
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for merged in elementary_merges(mu):
                if merged not in seen:
                    seen.add(merged)
                    nxt.append(merged)
        frontier = nxt
    result = frozenset(seen)
    _closure_cache[lam] = result
    return result


def leq(lam: GenPartition, mu: GenPartition) -> bool:
    """Refinement order: can mu be obtained from lam by a sequence of merges?

    Decided by searching for a set-partition of lam's parts into |mu| blocks
    whose block sums realize mu, backtracking over parts sorted largest-first.
    """
    if lam == mu:
        return True
    if len(lam) <= len(mu):
        return False
    if stats(lam).total != stats(mu).total:
        return False

    items = sorted(lam.parts, key=lambda p: (-sum(c for _, c in p.coeffs), p.coeffs))
    targets = [dict(p.coeffs) for p in mu.parts]

    def fits(part: Part, target: dict[str, int]) -> bool:
        return all(target.get(g, 0) >= c for g, c in part.coeffs)

    def place(idx: int) -> bool:
        if idx == len(items):
            return all(all(v == 0 for v in t.values()) for t in targets)
        part = items[idx]
        tried: set[tuple[tuple[str, int], ...]] = set()
        for t in targets:
            key = tuple(sorted(t.items()))
            if key in tried:
                continue
            tried.add(key)
            if not fits(part, t):
                continue
            for g, c in part.coeffs:
                t[g] -= c
            if place(idx + 1):
                for g, c in part.coeffs:
                    t[g] += c
                return True
            for g, c in part.coeffs:
                t[g] += c
        return False

    return place(0)


def leq_profiles(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """Merge order on multiplicity profiles, viewed as integer partitions."""
    return leq(GenPartition.integers(p), GenPartition.integers(q))


def add_lt_a(nu: GenPartition, a: int) -> list[tuple[GenPartition, bool]]:
    """The set A_<a(nu): add k*UNIT, 0 <= k <= a-1, independently to each part.

    ``nu`` must be a formalization.  Returns (member, same_profile) pairs in
    canonical order, where same_profile records m(member) == m(nu); otherwise
    m(member) < m(nu) in the merge order.  nu itself always appears (all k=0).
    """
    if a < 1:
        raise InputError(f"a must be >= 1, got {a}")
    if not is_formalization(nu):
        raise InputError(f"add_lt_a requires a formalization, got {nu}")
    base_profile = multiplicity_profile(nu)
    members: set[GenPartition] = set()
    choices = [range(a) for _ in nu.parts]
    for ks in itertools.product(*choices):
        parts = []
        for p, k in zip(nu.parts, ks):
            parts.append(p + Part.integer(k) if k else p)
        members.add(GenPartition.of(parts))
    out = []
    for member in sorted(members):
        out.append((member, multiplicity_profile(member) == base_profile))
    return out


def big_parts(lam: GenPartition, a: int) -> tuple[int, ...]:
    """b(lam): the sub-multiset of integer parts >= a, as an integer partition."""
    vals = []
    for p in lam.parts:
        n = p.as_integer()
        if n is None:
            raise InputError("big_parts expects an integer partition")
        if n >= a:
            vals.append(n)
    return tuple(sorted(vals))


def s_set(nu: tuple[int, ...], a: int, j: int | None = None) -> frozenset[tuple[int, ...]]:
    """The set S(nu, a) of 'big parts' partitions of the merge recursion.

    With j0 = |nu|(a-1), enumerate the merge closure of 1^j0 * nu, discard
    lambda with 1^(j0-a) a nu <= lambda (vacuous when j0 < a), and collect the
    deduplicated big parts b(lambda).  Whether a closure element is discarded
    depends only on b(lambda); this is asserted.  The optional ``j`` overrides
    j0 (only upward), for stabilization tests.
    """
    nu = int_partition(nu)
    if a < 2:
        raise InputError(f"a must be >= 2, got {a}")
    if any(v < a for v in nu):
        raise InputError(f"all parts of nu must be >= a={a}, got {nu}")
    j0 = len(nu) * (a - 1)
    if j is None:
        j = j0
    elif j < j0:
        raise InputError(f"j must be >= |nu|(a-1) = {j0}")
    start = GenPartition.integers((1,) * j + nu)
    closure = merge_closure(start)
    keep_by_big: dict[tuple[int, ...], bool] = {}
    if j - a >= 0:
        excluded_from = GenPartition.integers((1,) * (j - a) + (a,) + nu)
        for lam in closure:
            keep = not leq(excluded_from, lam)
            b = big_parts(lam, a)
            prev = keep_by_big.setdefault(b, keep)
            if prev != keep:
                from .errors import InternalCheckError

                raise InternalCheckError(
                    f"exclusion of S({nu},{a}) not determined by big parts at b={b}"
                )
    else:
        for lam in closure:
            keep_by_big[big_parts(lam, a)] = True
    return frozenset(b for b, keep in keep_by_big.items() if keep)


def enumerate_Q(max_size: int) -> list[tuple[int, ...]]:
    """All mu in Q (partitions using exactly the values 1..m) with |mu| <= max_size.

    Ascending tuples; the empty partition is included.
    """
    if max_size < 0:
        raise InputError("max_size must be >= 0")
    out: list[tuple[int, ...]] = [()]
    for m in range(1, max_size + 1):
        # multiplicities c_i >= 1 for values 1..m with sum <= max_size
        def grow(prefix: list[int], i: int, remaining: int) -> None:
            if i > m:
                vals: list[int] = []
                for v, c in enumerate(prefix, start=1):
                    vals.extend([v] * c)
                out.append(tuple(vals))
                return
            for c in range(1, remaining - (m - i) + 1):
                grow(prefix + [c], i + 1, remaining - c)

        grow([], 1, max_size)
    return sorted(out, key=lambda t: (len(t), t))


def q_distinct(mu: tuple[int, ...]) -> int:
    """||mu||: the number of distinct values."""
    return len(set(mu))


def profile_count(n: int, stop: int) -> int:
    """sum_{k <= n} p(k) (Euler's pentagonal recurrence), or the first partial sum past ``stop``."""
    p = [1]
    while len(p) <= n and sum(p) <= stop:
        k = len(p)
        steps = [(j * (3 * j + s) // 2, -((-1) ** j)) for j in range(1, int(k**0.5) + 2) for s in (-1, 1)]
        p.append(sum(sign * p[k - g] for g, sign in steps if g <= k))
    return sum(p)


def enumerate_k_parts(k: int, max_sum: int) -> list[tuple[int, ...]]:
    """All integer partitions with exactly k parts (each >= 1) and sum <= max_sum."""
    if k < 0 or max_sum < 0:
        raise InputError("k and max_sum must be >= 0")
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], low: int, remaining: int, left: int) -> None:
        if left == 0:
            out.append(tuple(prefix))
            return
        for v in range(low, remaining - (left - 1) + 1):
            grow(prefix + [v], v, remaining - v, left - 1)

    if k == 0:
        out.append(())
    elif k <= max_sum:
        grow([], 1, max_sum, k)
    return out

