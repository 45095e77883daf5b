"""Exact coefficient arithmetic for the free symmetric-power model.

Three layers:

* ``SparsePoly`` -- the one sparse polynomial: a map from exponent tuples to
  nonzero ints, with ring arithmetic over plain dicts and one grading
  routine (``degree`` and ``truncated``, given a grade function on keys).
* ``LaurentL`` and ``MotivicClass`` -- its keys (k_0, k_1, ..., k_r), k_r > 0,
  stand for L^k_0 S_1^k_1 ... S_r^k_r: Laurent polynomials in the Lefschetz
  symbol L, and polynomials over them in the symmetric-power generators
  S_1, S_2, ... (treated as algebraically independent; S_0 = 1, and the
  class of X itself is S_1).  A LaurentL key is also a MotivicClass key, so
  coercion re-wraps the terms, and equal values hash and print alike.
  ``models.UVPoly`` is the same core over Hodge-Deligne exponents (p, q).
* ``TruncSeries`` -- power series in t truncated at a fixed order, over any
  coefficient ring that supports +, -, * and comparison with int.

Under a declared ambient dimension d, the monomial prod S_i^{e_i} * L^k has
dimension d * sum(i*e_i) + k (``dim_grade``); evaluation at t = L^-m filters
by this dimensional grading.

Everything here is an immutable value; functions are pure and safe to share
between threads.
"""

from __future__ import annotations

import json
from fractions import Fraction
from numbers import Rational
from operator import add
from typing import NamedTuple

from .errors import DivergenceError, InputError, InternalCheckError, SymbolicEvaluationError

NEG_INF = float("-inf")

#: grading tags for TruncSeries: t counts total multiplicity (Sym index) or
#: the number of points of a configuration.  The two must never be mixed by
#: ordinary arithmetic; see genfun for the one sanctioned bridge.
GRADING_MULT = "multiplicity"
GRADING_POINTS = "points"


def _key_sum(a: tuple, b: tuple) -> tuple:
    """Exponent-wise sum of two keys; the shorter one is zero past its end."""
    if len(a) < len(b):
        a, b = b, a
    if len(a) == len(b):
        return tuple(map(add, a, b))
    return (*map(add, a, b), *a[len(b):])


def _combine(a: dict, b: dict, sign: int) -> dict:
    """The terms of a + sign * b, without zero coefficients."""
    if sign == 1 and len(b) > len(a):
        a, b = b, a
    acc = a.copy()
    for k, v in b.items():
        v = acc.get(k, 0) + sign * v
        if v:
            acc[k] = v
        else:
            del acc[k]
    return acc


def _print_order(item) -> tuple:
    """S-monomial ((i, e_i), ...) ascending, then the L-exponent descending."""
    key = item[0]
    return tuple((i, e) for i, e in enumerate(key) if i and e), -key[0]


class SparsePoly:
    """Integer combination of monomials, keyed by exponent tuples.

    ``_d`` maps each key to its nonzero coefficient and is not changed once
    the value is built.  ``_unit`` is the key of 1; keys of its length are
    monomials in invertible variables only.  ``_accepts`` lists the other
    classes whose keys name the same monomials, so their values coerce as
    they are.  ``str`` renders keys as L- and S-monomials.  Subclasses bind
    their own thin operators, which ``bench/tracer.py`` patches per class.
    """

    __slots__ = ("_d",)
    _unit: tuple = (0,)
    _accepts: tuple = ()

    def __init__(self, d: dict):
        self._d = d

    @classmethod
    def of(cls, mapping: dict):
        """From {key: coefficient}; zero coefficients are dropped, keys kept as given."""
        return cls({k: v for k, v in mapping.items() if v})

    @classmethod
    def from_int(cls, n: int):
        return cls({cls._unit: n} if n else {})

    @classmethod
    def one(cls):
        return cls({cls._unit: 1})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def _dict_of(cls, value) -> dict | None:
        if type(value) is cls or isinstance(value, cls._accepts):
            return value._d
        if isinstance(value, int):
            return {cls._unit: value} if value else {}
        return None

    @classmethod
    def coerce(cls, value):
        """``value`` (an int or a value with compatible keys) as a ``cls``; None otherwise."""
        d = cls._dict_of(value)
        return None if d is None else cls(d)

    @classmethod
    def combination(cls, pairs):
        """sum n * value over the (n, value) pairs in one dict, dropping zeros once at the end."""
        acc: dict = {}
        for n, value in pairs:
            for k, v in cls._dict_of(value).items():
                acc[k] = acc.get(k, 0) + n * v
        return cls({k: v for k, v in acc.items() if v})

    @property
    def terms(self) -> tuple:
        """The (key, coefficient) pairs in increasing key order."""
        return tuple(sorted(self._d.items()))

    def __bool__(self) -> bool:
        return bool(self._d)

    def __add__(self, other):
        o = self._dict_of(other)
        if o is None:
            return NotImplemented
        return type(self)(_combine(self._d, o, 1))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._dict_of(other)
        if o is None:
            return NotImplemented
        return type(self)(_combine(self._d, o, -1))

    def __rsub__(self, other):
        o = self._dict_of(other)
        if o is None:
            return NotImplemented
        return type(self)(_combine(o, self._d, -1))

    def __neg__(self):
        return type(self)({k: -v for k, v in self._d.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)({k: other * v for k, v in self._d.items()} if other else {})
        o = self._dict_of(other)
        if o is None:
            return NotImplemented
        acc: dict = {}
        for k1, v1 in self._d.items():
            for k2, v2 in o.items():
                k = _key_sum(k1, k2)
                acc[k] = acc.get(k, 0) + v1 * v2
        return type(self)({k: v for k, v in acc.items() if v})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if len(self._d) == 1:
                [(k, v)] = self._d.items()
                if v in (1, -1) and len(k) == len(self._unit):
                    return type(self)({tuple(n * e for e in k): v ** -n})
            raise InputError("negative powers only for unit monomials")
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = self._dict_of(other)
        if o is None:
            return NotImplemented
        return self._d == o

    def __hash__(self):
        return hash(frozenset(self._d.items()))

    def degree(self, grade) -> float:
        """The largest grade(key) over the monomials; -inf for zero."""
        return max(map(grade, self._d), default=NEG_INF)

    def truncated(self, grade, floor) -> tuple:
        """(the monomials with grade(key) >= floor, the largest grade among the rest)."""
        kept = {}
        dropped = NEG_INF
        for k, v in self._d.items():
            g = grade(k)
            if g >= floor:
                kept[k] = v
            elif g > dropped:
                dropped = g
        return type(self)(kept), dropped

    def __str__(self) -> str:
        if not self._d:
            return "0"
        chunks = []
        for key, v in sorted(self._d.items(), key=_print_order):
            bits = [str(v)]
            if key[0]:
                bits.append(f"L^{key[0]}")
            bits.extend(f"S_{i}" if e == 1 else f"S_{i}^{e}" for i, e in enumerate(key) if i and e)
            chunks.append("*".join(bits))
        out = chunks[0]
        for chunk in chunks[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._d!r})"


def dim_grade(d: int):
    """The dimension of the monomial with key (k_0, k_1, ...) when X has
    dimension d: k_0 + d * sum(i * k_i)."""

    def grade(key: tuple) -> int:
        return key[0] + d * sum(i * e for i, e in enumerate(key))

    return grade


class LaurentL(SparsePoly):
    """Finitely supported integer combination of powers of L: keys (k,) for L^k."""

    __slots__ = ()

    @staticmethod
    def of(mapping: dict[int, int]) -> "LaurentL":
        return LaurentL({(e,): v for e, v in mapping.items() if v})

    @staticmethod
    def term(coeff: int = 1, exp: int = 0) -> "LaurentL":
        return LaurentL.of({exp: coeff})

    def __mul__(self, other):
        return SparsePoly.__mul__(self, other)

    __rmul__ = __mul__

    def substitute(self, value):
        """Evaluate at L = value in any commutative ring (e.g. a Fraction q)."""
        total = 0
        for (e,), v in self._d.items():
            if e >= 0:
                total = total + v * value**e
            elif isinstance(value, int):
                total = total + Fraction(v, value ** (-e))
            elif isinstance(value, Rational):
                total = total + v / value ** (-e)
            else:
                total = total + v * value**e  # ring must support negative powers
        return total


L = LaurentL.term(1, 1)
L_INV = LaurentL.term(1, -1)


class MotivicClass(SparsePoly):
    """Integer polynomial in S_1, S_2, ... and L^(+-1): keys (k_0, k_1, ..., k_r)."""

    __slots__ = ()
    _accepts = (LaurentL,)

    @staticmethod
    def sym(i: int, exp: int = 1) -> "MotivicClass":
        """S_i^exp; S_0 is the unit."""
        if i < 0 or exp < 0:
            raise InputError("sym indices and exponents must be nonnegative")
        if i == 0 or exp == 0:
            return MotivicClass.one()
        return MotivicClass({(0,) * i + (exp,): 1})

    @staticmethod
    def sym_product(profile: tuple[int, ...]) -> "MotivicClass":
        """prod_i S_{m_i} for a multiplicity profile."""
        out = MotivicClass.one()
        for m in profile:
            out = out * MotivicClass.sym(m)
        return out

    @staticmethod
    def from_laurent(c: LaurentL) -> "MotivicClass":
        return MotivicClass(c._d)

    @staticmethod
    def lefschetz(exp: int = 1) -> "MotivicClass":
        return MotivicClass({(exp,): 1})

    def __add__(self, other):
        return SparsePoly.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return SparsePoly.__sub__(self, other)

    def __rsub__(self, other):
        return SparsePoly.__rsub__(self, other)

    def __mul__(self, other):
        return SparsePoly.__mul__(self, other)

    __rmul__ = __mul__

    def is_pure_laurent(self) -> bool:
        return all(len(k) == 1 for k in self._d)

    def substitute_syms(self, sym_value, l_value=None):
        """Map S_i -> sym_value(i) and (optionally) L -> l_value, in any ring."""
        coeffs: dict[tuple, dict] = {}
        for k, v in self._d.items():
            coeffs.setdefault(k[1:], {})[k[:1]] = v
        powers: dict[tuple[int, int], object] = {}  # (i, e) -> sym_value(i) ** e
        total = 0
        for syms, c in coeffs.items():
            part = LaurentL(c) if l_value is None else LaurentL(c).substitute(l_value)
            for i, e in enumerate(syms, start=1):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = sym_value(i) ** e
                    part = part * power
            total = total + part
        return total


class TruncSeries:
    """Power series in t modulo t^(order+1), over any exact coefficient ring.
    Immutable, and hashed as the tuple (coeffs, grading)."""

    __slots__ = ("coeffs", "grading")

    def __init__(self, coeffs: tuple, grading: str = GRADING_MULT):
        if not coeffs:
            raise InputError("a truncated series needs at least the constant coefficient")
        if grading not in (GRADING_MULT, GRADING_POINTS):
            raise InputError(f"unknown grading {grading!r}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "grading", grading)

    def __setattr__(self, *_):
        raise AttributeError("TruncSeries is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        same = other.__class__ is TruncSeries
        return (self.coeffs, self.grading) == (other.coeffs, other.grading) if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs, self.grading))

    def __repr__(self) -> str:
        return f"TruncSeries(coeffs={self.coeffs!r}, grading={self.grading!r})"

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        return self.coeffs[n]

    @staticmethod
    def from_coeffs(coeffs, grading: str = GRADING_MULT) -> "TruncSeries":
        return TruncSeries(tuple(coeffs), grading)

    @staticmethod
    def one(order: int, grading: str = GRADING_MULT) -> "TruncSeries":
        return TruncSeries((1,) + (0,) * order, grading)

    def _check(self, other: "TruncSeries") -> None:
        if self.grading != other.grading:
            raise InputError(
                f"series gradings differ ({self.grading} vs {other.grading}); "
                "regrade explicitly if this mixing is intentional"
            )
        if self.order != other.order:
            raise InputError(f"series orders differ ({self.order} vs {other.order})")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.grading)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.grading)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(tuple(-a for a in self.coeffs), self.grading)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if isinstance(a, int) and a == 0:
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if isinstance(b, int) and b == 0:
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncSeries(tuple(out), self.grading)

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(tuple(c * a for a in self.coeffs), self.grading)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse modulo t^(order+1).

        The constant coefficient must be 1 or an invertible scalar.
        """
        c0 = self.coeffs[0]
        if c0 == 1:
            inv0 = 1
        elif isinstance(c0, Rational) and c0 != 0:
            inv0 = Fraction(1, 1) / c0
        else:
            raise InputError(f"series constant term {c0!r} is not invertible")
        out = [inv0] + [0] * self.order
        for n in range(1, self.order + 1):
            acc = 0
            for k in range(1, n + 1):
                ck = self.coeffs[k]
                if isinstance(ck, int) and ck == 0:
                    continue
                acc = acc + ck * out[n - k]
            out[n] = -(inv0 * acc) if inv0 != 1 else -acc
        return TruncSeries(tuple(out), self.grading)

    def compose_power(self, a: int) -> "TruncSeries":
        """f(t^a) modulo t^(order+1)."""
        if a < 1:
            raise InputError(f"compose_power needs a >= 1, got {a}")
        out = [0] * (self.order + 1)
        for n, c in enumerate(self.coeffs):
            if n * a > self.order:
                break
            out[n * a] = c
        return TruncSeries(tuple(out), self.grading)

    def shift_up(self, k: int) -> "TruncSeries":
        """Multiply by t^k (truncating)."""
        if k < 0:
            raise InputError("shift_up needs k >= 0")
        out = (0,) * k + self.coeffs
        return TruncSeries(out[: self.order + 1], self.grading)

    def shift_down(self, k: int) -> "TruncSeries":
        """Divide by t^k; the dropped low coefficients must vanish."""
        if k < 0:
            raise InputError("shift_down needs k >= 0")
        for n in range(min(k, self.order + 1)):
            if self.coeffs[n] != 0:
                raise InternalCheckError(
                    f"noncancelling negative t-power: coefficient of t^{n - k} is {self.coeffs[n]}"
                )
        return TruncSeries(self.coeffs[k:] or (0,), self.grading)

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise InputError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[: order + 1], self.grading)

    def regraded(self, grading: str) -> "TruncSeries":
        """Reinterpret the t-grading.  Only for identities that bridge gradings."""
        return TruncSeries(self.coeffs, grading)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.grading != other.grading or self.order != other.order:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.coeffs, self.grading))

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "grading": self.grading,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json())


def geometric_series(ratio, order: int, grading: str = GRADING_MULT) -> TruncSeries:
    """1/(1 - ratio*t) truncated."""
    coeffs = [1]
    for _ in range(order):
        coeffs.append(coeffs[-1] * ratio)
    return TruncSeries(tuple(coeffs), grading)


class EvalResult(NamedTuple):
    """Value of a series at t = L^-m, plus the tail left out of the truncation."""

    value: MotivicClass
    discarded_dim: float


def eval_at_L_power(
    f: TruncSeries, m: int, d: int, codim_cutoff: int, require_margin: bool = True
) -> EvalResult:
    """Evaluate sum_n f_n L^(-mn), keeping monomials of dimension >= -codim_cutoff.

    Coefficient n of a configuration-style series has dimension at most d*n,
    so m > d makes term dimensions decay; ``require_margin`` enforces that
    precondition (limits at m = d perform their own convergence checks and
    disable it).  Coefficients must be free of symmetric-power generators.
    """
    if require_margin and m <= d:
        raise DivergenceError(f"evaluation at L^-{m} diverges for dimension {d} (need m > d)")
    grade = dim_grade(d)
    total = MotivicClass.zero()
    discarded = NEG_INF
    for n, c in enumerate(f.coeffs):
        term = MotivicClass.coerce(c)
        if term is None:
            raise SymbolicEvaluationError(f"cannot evaluate coefficient of type {type(c).__name__}")
        if not term.is_pure_laurent():
            raise SymbolicEvaluationError(
                "series coefficients contain symmetric-power generators; "
                "specialize via an X-model before evaluating at a power of L"
            )
        if m * n:
            term = term * MotivicClass.lefschetz(-m * n)
        term, drop = term.truncated(grade, -codim_cutoff)
        discarded = max(discarded, drop)
        total = total + term
    return EvalResult(total, discarded)
