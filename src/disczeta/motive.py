"""Exact coefficient arithmetic for the free symmetric-power model.

Three layers:

* ``LaurentL`` -- Laurent polynomials in the Lefschetz symbol L with
  arbitrary-precision integer coefficients.
* ``MotivicClass`` -- polynomials in the symmetric-power generators
  S_1, S_2, ... (treated as algebraically independent; S_0 = 1, and the
  class of X itself is S_1) with LaurentL coefficients.
* ``TruncSeries`` -- power series in t truncated at a fixed order, over any
  coefficient ring that supports +, -, * and comparison with int.

Under a declared ambient dimension d, the monomial prod S_i^{e_i} * L^k has
dimension d * sum(i*e_i) + k; evaluation at t = L^-m filters by this
dimensional grading.

Everything here is an immutable value; functions are pure and safe to share
between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import DivergenceError, InputError, InternalCheckError, SymbolicEvaluationError

NEG_INF = float("-inf")

#: grading tags for TruncSeries: t counts total multiplicity (Sym index) or
#: the number of points of a configuration.  The two must never be mixed by
#: ordinary arithmetic; see genfun for the one sanctioned bridge.
GRADING_MULT = "multiplicity"
GRADING_POINTS = "points"

Monomial = tuple[tuple[int, int], ...]  # sorted ((sym_index, exponent), ...), exponents > 0


def _is_scalar(x) -> bool:
    return isinstance(x, Rational)


@dataclass(frozen=True)
class LaurentL:
    """Finitely supported integer combination of powers of L."""

    c: tuple[tuple[int, int], ...]  # sorted ((exponent, coefficient), ...), no zeros

    @staticmethod
    def of(mapping: dict[int, int]) -> "LaurentL":
        return LaurentL(tuple(sorted((e, v) for e, v in mapping.items() if v)))

    @staticmethod
    def term(coeff: int = 1, exp: int = 0) -> "LaurentL":
        return LaurentL.of({exp: coeff})

    @staticmethod
    def from_int(n: int) -> "LaurentL":
        return LaurentL.of({0: n})

    def items(self):
        return self.c

    def __bool__(self) -> bool:
        return bool(self.c)

    def _coerce(self, other) -> "LaurentL | None":
        if isinstance(other, LaurentL):
            return other
        if isinstance(other, int):
            return LaurentL.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self.c)
        for e, v in o.c:
            acc[e] = acc.get(e, 0) + v
        return LaurentL.of(acc)

    __radd__ = __add__

    def __neg__(self):
        return LaurentL(tuple((e, -v) for e, v in self.c))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, v1 in self.c:
            for e2, v2 in o.c:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + v1 * v2
        return LaurentL.of(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("LaurentL supports only nonnegative powers")
        out = LaurentL.from_int(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c == o.c

    def __hash__(self):
        return hash(self.c)

    def dimension(self) -> float:
        """Max L-exponent; -inf for zero."""
        return max((e for e, _ in self.c), default=NEG_INF)

    def substitute(self, value):
        """Evaluate at L = value in any commutative ring (e.g. a Fraction q)."""
        total = 0
        for e, v in self.c:
            if e >= 0:
                total = total + v * value**e
            elif isinstance(value, int):
                total = total + Fraction(v, value ** (-e))
            elif _is_scalar(value):
                total = total + v / value ** (-e)
            else:
                total = total + v * value**e  # ring must support negative powers
        return total

    def truncate_below(self, min_exp: int) -> tuple["LaurentL", float]:
        """Drop monomials with exponent < min_exp; also return max dropped exponent."""
        kept = tuple((e, v) for e, v in self.c if e >= min_exp)
        dropped = max((e for e, v in self.c if e < min_exp), default=NEG_INF)
        return LaurentL(kept), dropped

    def __str__(self) -> str:
        if not self.c:
            return "0"
        chunks = []
        for e, v in sorted(self.c, reverse=True):
            body = str(v) if e == 0 else f"{v}*L^{e}"
            if chunks:
                chunks.append(f"+ {body}" if v >= 0 else f"- {body.replace(str(v), str(-v), 1)}")
            else:
                chunks.append(body)
        return " ".join(chunks)


L = LaurentL.term(1, 1)
L_INV = LaurentL.term(1, -1)


@dataclass(frozen=True)
class MotivicClass:
    """Integer-coefficient polynomial in S_1, S_2, ... with LaurentL coefficients."""

    terms: tuple[tuple[Monomial, LaurentL], ...]  # sorted by monomial, coefficients nonzero

    @staticmethod
    def of(mapping: dict[Monomial, LaurentL]) -> "MotivicClass":
        return MotivicClass(tuple(sorted((m, c) for m, c in mapping.items() if c)))

    @staticmethod
    def sym(i: int, exp: int = 1) -> "MotivicClass":
        """S_i^exp; S_0 is the unit."""
        if i < 0 or exp < 0:
            raise InputError("sym indices and exponents must be nonnegative")
        if i == 0 or exp == 0:
            return MotivicClass.one()
        return MotivicClass(((((i, exp),), LaurentL.from_int(1)),))

    @staticmethod
    def sym_product(profile: tuple[int, ...]) -> "MotivicClass":
        """prod_i S_{m_i} for a multiplicity profile."""
        out = MotivicClass.one()
        for m in profile:
            out = out * MotivicClass.sym(m)
        return out

    @staticmethod
    def from_laurent(c: LaurentL) -> "MotivicClass":
        if not c:
            return MotivicClass(())
        return MotivicClass((((), c),))

    @staticmethod
    def one() -> "MotivicClass":
        return MotivicClass.from_laurent(LaurentL.from_int(1))

    @staticmethod
    def zero() -> "MotivicClass":
        return MotivicClass(())

    @staticmethod
    def lefschetz(exp: int = 1) -> "MotivicClass":
        return MotivicClass.from_laurent(LaurentL.term(1, exp))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> "MotivicClass | None":
        if isinstance(other, MotivicClass):
            return other
        if isinstance(other, int):
            return MotivicClass.from_laurent(LaurentL.from_int(other))
        if isinstance(other, LaurentL):
            return MotivicClass.from_laurent(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for m, c in o.terms:
            acc[m] = acc.get(m, LaurentL(())) + c
        return MotivicClass.of(acc)

    __radd__ = __add__

    def __neg__(self):
        return MotivicClass(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[Monomial, LaurentL] = {}
        for m1, c1 in self.terms:
            for m2, c2 in o.terms:
                m = _merge_monomials(m1, m2)
                acc[m] = acc.get(m, LaurentL(())) + c1 * c2
        return MotivicClass.of(acc)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(self.terms)

    def is_pure_laurent(self) -> bool:
        return all(m == () for m, _ in self.terms)

    def substitute_syms(self, sym_value, l_value=None):
        """Map S_i -> sym_value(i) and (optionally) L -> l_value, in any ring."""
        total = None
        for m, c in self.terms:
            part = c if l_value is None else c.substitute(l_value)
            for i, e in m:
                for _ in range(e):
                    part = part * sym_value(i)
            total = part if total is None else total + part
        if total is None:
            return 0
        return total

    def dimension(self, d: int) -> float:
        """Max over monomials of d * sum(i * e_i) + L-exponent; -inf for zero."""
        best = NEG_INF
        for m, c in self.terms:
            s = d * sum(i * e for i, e in m)
            best = max(best, s + c.dimension())
        return best

    def truncate_below_dim(self, d: int, min_dim: int) -> tuple["MotivicClass", float]:
        """Drop monomials of dimension < min_dim; also return max dropped dimension."""
        kept: dict[Monomial, LaurentL] = {}
        dropped = NEG_INF
        for m, c in self.terms:
            s = d * sum(i * e for i, e in m)
            keep, drop = c.truncate_below(min_dim - s)
            if keep:
                kept[m] = keep
            if drop != NEG_INF:
                dropped = max(dropped, s + drop)
        return MotivicClass.of(kept), dropped

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for m, c in self.terms:
            sym_part = "*".join(f"S_{i}" if e == 1 else f"S_{i}^{e}" for i, e in m)
            for e, v in sorted(c.items(), reverse=True):
                bits = [str(v)]
                if e:
                    bits.append(f"L^{e}")
                if sym_part:
                    bits.append(sym_part)
                chunks.append("*".join(bits))
        out = chunks[0]
        for chunk in chunks[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    acc = dict(m1)
    for i, e in m2:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


@dataclass(frozen=True)
class TruncSeries:
    """Power series in t modulo t^(order+1), over any exact coefficient ring."""

    coeffs: tuple
    grading: str = GRADING_MULT

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("a truncated series needs at least the constant coefficient")
        if self.grading not in (GRADING_MULT, GRADING_POINTS):
            raise InputError(f"unknown grading {self.grading!r}")

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
        elif _is_scalar(c0) and c0 != 0:
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
            "coeffs": [render_coefficient(c) for c in self.coeffs],
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json())


def geometric_series(ratio, order: int, grading: str = GRADING_MULT) -> TruncSeries:
    """1/(1 - ratio*t) truncated."""
    coeffs = [1]
    for _ in range(order):
        coeffs.append(coeffs[-1] * ratio)
    return TruncSeries(tuple(coeffs), grading)


def render_coefficient(c) -> str:
    if isinstance(c, (LaurentL, MotivicClass)):
        return str(c)
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
    return str(c)


class EvalResult:
    """Value of a series at t = L^-m, plus the tail left out of the truncation."""

    __slots__ = ("value", "discarded_dim")

    def __init__(self, value, discarded_dim: float):
        self.value = value
        self.discarded_dim = discarded_dim

    def __repr__(self):
        return f"EvalResult({self.value}, discarded_dim={self.discarded_dim})"


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
    total = MotivicClass.zero()
    discarded = NEG_INF
    for n, c in enumerate(f.coeffs):
        if isinstance(c, int):
            c = MotivicClass.from_laurent(LaurentL.from_int(c))
        elif isinstance(c, LaurentL):
            c = MotivicClass.from_laurent(c)
        if not isinstance(c, MotivicClass):
            raise SymbolicEvaluationError(f"cannot evaluate coefficient of type {type(c).__name__}")
        if not c.is_pure_laurent():
            raise SymbolicEvaluationError(
                "series coefficients contain symmetric-power generators; "
                "specialize via an X-model before evaluating at a power of L"
            )
        term = c * MotivicClass.lefschetz(-m * n) if m * n else c
        term, drop = term.truncate_below_dim(d, -codim_cutoff)
        discarded = max(discarded, drop)
        total = total + term
    return EvalResult(total, discarded)
