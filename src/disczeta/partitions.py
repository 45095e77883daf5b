"""Generalized partitions, their merge order, and the integer sets of the Kbar recursion.

A generalized partition is a finite multiset of nonzero vectors with
nonnegative integer coordinates over an alphabet of named generators.  The
distinguished unit generator ``1`` represents the integer one, so ordinary
integer partitions embed as multisets of multiples of the unit.

The merge closure of lambda is the block-sum multisets over the set
partitions of its parts.  One pass builds them (``_block_multisets``) for the
closed strata [wbar_lambda] (``closure_profiles``, on packed parts) and for
``s_set`` (on integer parts); ``merge_closure`` is the tests' reference route.
``multiplicity_profile`` is the one profile routine, for parts, ints or packed
block sums alike.

All values are immutable and all functions are pure; the module-level memo
caches are only ever written idempotently, so concurrent use is safe.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .errors import InputError
from .records import strict

#: Name of the distinguished unit generator; the integer n is the part n*UNIT.
UNIT = "1"

_TERM_RE = re.compile(r"^(\d+)?([A-Za-z][A-Za-z0-9_]*)?$")


@strict
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
        if other.__class__ is not Part:
            return NotImplemented
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

    def as_integer(self) -> int | None:
        """The value n if this part is n*UNIT, else None."""
        if len(self.coeffs) == 1 and self.coeffs[0][0] == UNIT:
            return self.coeffs[0][1]
        return None

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


class GenPartition:
    """A finite multiset of parts, stored canonically sorted.  Immutable, hashed
    as (parts,), and not a tuple, so never taken for a multiplicity profile."""

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


def multiplicity_profile(values: Iterable) -> tuple[int, ...]:
    """Multiplicities of the distinct values, weakly decreasing.

    The values are any hashables: the parts of a ``GenPartition``, ints, or
    packed block sums.  m([a,a,b]) = (2, 1); the profile of no values is ().
    """
    return tuple(sorted(Counter(values).values(), reverse=True))


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
    """All partitions obtained by replacing one unordered pair of parts by its sum (the step of ``merge_closure``)."""
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

    closure(lam) = {lam} united with the closures of its elementary merges,
    each memoized.  Each merge removes one part, so the recursion is finite and
    its depth is the part count of lam.

    ``closure_profiles`` counts it without building it; this set is the tests'
    reference, and ``bench/tracer.py`` reads it and ``_closure_cache`` by name.
    """
    return _closure(lam)


def _closure(lam: GenPartition) -> frozenset[GenPartition]:
    cached = _closure_cache.get(lam)
    if cached is None:
        cached = _closure_cache[lam] = frozenset({lam}).union(*map(_closure, elementary_merges(lam)))
    return cached


def add_lt_a(nu: GenPartition, a: int) -> list[tuple[GenPartition, bool]]:
    """The set A_<a(nu): add k*UNIT, 0 <= k <= a-1, independently to each part.

    ``nu`` must be a formalization.  Returns (member, same_profile) pairs in
    canonical order, where same_profile records m(member) == m(nu); otherwise
    m(member) < m(nu) in the merge order.  nu itself always appears (all k=0).

    ``genfun._member_counts`` counts these members without building them; this
    set is the tests' reference for it, and ``bench/tracer.py`` patches it.
    """
    if a < 1:
        raise InputError(f"a must be >= 1, got {a}")
    if not is_formalization(nu):
        raise InputError(f"add_lt_a requires a formalization, got {nu}")
    base_profile = multiplicity_profile(nu)
    members = {
        GenPartition.of(p + Part.integer(k) if k else p for p, k in zip(nu.parts, ks))
        for ks in itertools.product(range(a), repeat=len(nu))
    }
    return [(member, multiplicity_profile(member) == base_profile) for member in sorted(members)]


def _block_multisets(parts: Iterable[int]) -> set[tuple[int, ...]]:
    """The multisets of block sums, as sorted tuples, over the set partitions of ``parts``."""
    sums = {()}  # each next part starts a block or joins one: the first of equal sums only
    for v in parts:
        joined = {tuple(sorted(s[:i] + (s[i] + v,) + s[i + 1 :])) for s in sums for i in range(len(s))
                  if not i or s[i] != s[i - 1]}
        sums = joined | {tuple(sorted(s + (v,))) for s in sums}
    return sums


def closure_profiles(lam: GenPartition) -> Counter:
    """How many mu of the merge closure of lam have each multiplicity profile.

    Each part is packed into one int, a slot per generator.  A slot is as wide
    as the bit length of lam's coefficient sum: no block sum carries over.
    """
    width = sum(c for p in lam.parts for _, c in p.coeffs).bit_length()
    slot = {g: i * width for i, g in enumerate(sorted({g for p in lam.parts for g, _ in p.coeffs}))}
    packed = [sum(c << slot[g] for g, c in p.coeffs) for p in lam.parts]
    return Counter(map(multiplicity_profile, _block_multisets(packed)))


def _block_sums(parts: tuple[int, ...], a: int, budget: int) -> set[tuple[int, ...]]:
    """B(parts, budget): the multisets {sum(B) + k_B} over the set partitions of
    ``parts`` into blocks B, with 0 <= k_B < a and sum k_B <= budget."""
    return {tuple(sorted(map(operator.add, s, ks))) for s in _block_multisets(parts)
            for ks in itertools.product(range(a), repeat=len(s)) if sum(ks) <= budget}


def s_set(nu: tuple[int, ...], a: int) -> frozenset[tuple[int, ...]]:
    """S(nu, a): the big parts b(lambda), the parts >= a, of the lambda in the
    merge closure of 1^j0 nu but not in that of 1^(j0-a) a nu, j0 = |nu|(a-1).

    Computed as B(nu, j0) minus B(nu + (a,), j0 - a), with no merge closure.
    The parts < a of lambda are blocks of ones, so lambda is in the closure of
    1^j nu exactly when b(lambda) is the block sums of nu plus at most j ones,
    blocks of ones alone allowed: being dropped depends on b(lambda) alone.  A
    block with a or more ones, or of ones alone, can take the part a in place
    of a ones, so the kept b are the b of B(nu, j0) that are not block sums of
    nu + (a,) plus ones in that wider sense.  That such a b of B(nu, j0) is
    then also in B(nu + (a,), j0 - a), where k_B < a and no block is ones
    alone, is not proved here; tests/test_partitions.py holds it against the
    closure route, and test_genfun.py::test_kbar_is_the_sum_over_the_closure
    holds the Kbar built on it against Kbar's definition, nu packing mu.
    """
    nu = int_partition(nu)
    if a < 2:
        raise InputError(f"a must be >= 2, got {a}")
    if any(v < a for v in nu):
        raise InputError(f"all parts of nu must be >= a={a}, got {nu}")
    j0 = len(nu) * (a - 1)
    return frozenset(_block_sums(nu, a, j0) - _block_sums(nu + (a,), a, j0 - a))


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

