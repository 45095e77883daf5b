"""Exact coefficient arithmetic for the free symmetric-power model.

Three layers:

* ``SparsePoly`` -- the one sparse polynomial: a map from packed exponent
  keys to nonzero ints, with ring arithmetic over plain dicts and one grading
  routine (``degree`` and ``truncated``, given a grade function on keys).
  A key is one int with a 16-bit slot per exponent (the packed exponent
  vectors of Monagan and Pearce), so a product's key is a sum of ints.
  One multiply-accumulate kernel, ``dot``, builds every product and every
  integer combination sum n_i x_i (an int factor weights x_i's own keys).
* ``LaurentL`` and ``MotivicClass`` -- exponents (k_0, k_1, ..., k_r), k_r > 0,
  stand for L^k_0 S_1^k_1 ... S_r^k_r: Laurent polynomials in the Lefschetz
  symbol L, and polynomials over them in the symmetric-power generators
  S_1, S_2, ... (treated as algebraically independent; S_0 = 1, and the
  class of X itself is S_1).  A LaurentL key is also a MotivicClass key, so
  coercion re-wraps the terms, and equal values hash and print alike.
  ``models.UVPoly`` is the same core over Hodge-Deligne exponents (p, q).
* ``TruncSeries`` -- power series in t truncated at a fixed order, over any
  coefficient ring that supports +, -, * and comparison with int.  Over
  ``SparsePoly`` values each coefficient of a product or inverse is one ``dot``.

Every reader of keys goes through one decoder, ``_decode``: it turns the
S-part ``key >> 16`` of a key into its exponents, its nonzero pairs (i, e_i)
and its text ``*S_i^e_i``, and remembers the last few thousand S-parts.  A
``LaurentL`` or ``MotivicClass`` prints its monomials with the S-monomials
ascending by their (i, e_i) pairs, then the L exponent descending.

Under a declared ambient dimension d, the monomial prod S_i^{e_i} * L^k has
dimension d * sum(i*e_i) + k (``dim_grade``).  ``eval_at_L_power`` is the one
graded evaluator: sum f_n (L^-m)^n, keeping the monomials whose grade reaches a
floor, for whatever image of L^-m, grading and floor ``genfun._Ring`` passes.

Everything here is an immutable value; functions are pure and safe to share
between threads.
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, compress
from numbers import Rational
from operator import or_

from .errors import InputError, InternalCheckError

NEG_INF = float("-inf")

#: grading tags for TruncSeries: t counts total multiplicity (Sym index) or
#: the number of points of a configuration.  The two must never be mixed by
#: ordinary arithmetic; see genfun for the one sanctioned bridge.
GRADING_MULT = "multiplicity"
GRADING_POINTS = "points"

_BITS, _SLOTS = 16, 1024  # key slots: exponent i in bits 16i to 16i+15, for i < 1024
_MASK, _OFFSET = (1 << _BITS) - 1, 1 << (_BITS - 2)
_GUARDS = ((1 << (_BITS * _SLOTS)) - 1) // _MASK << (_BITS - 1)  # the top bit of every slot


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


@lru_cache(maxsize=4096)
def _decode(syms: int) -> tuple:
    """((e_1, ..., e_r), the nonzero (i, e_i), their text "*S_i^e_i") of an S-part
    ``syms`` = sum e_i << 16(i-1), e_r > 0: the slots are read as little-endian
    16-bit words in C, whatever the host's byte order."""
    n = -(-syms.bit_length() // _BITS)
    exps = struct.unpack(f"<{n}H", syms.to_bytes(2 * n, "little"))
    pairs = tuple(compress(enumerate(exps, 1), exps))
    return exps, pairs, "".join(f"*S_{i}" if e == 1 else f"*S_{i}^{e}" for i, e in pairs)


class SparsePoly:
    """Integer combination of monomials, keyed by packed exponent vectors.

    ``_d`` maps each key to its nonzero coefficient and is not changed once
    the value is built.  The key of exponents (e_0, e_1, ...) is the sum of
    (e_i + offset_i) << 16i: the first ``_signed`` exponents (of invertible
    variables) have offset 2^14 and lie in [-2^14, 2^14), the others in
    [0, 2^15).  ``_unit`` is the key of 1, so a product's key is k1 + k2 - _unit.
    A product that leaves a slot's range sets the slot's clear top bit, by a
    carry or a borrow, and raises ``InternalCheckError``.  ``_accepts`` lists
    the other classes whose keys name the same monomials, so their values
    coerce as they are.  Subclasses bind their own thin operators, which
    ``bench/tracer.py`` patches per class.
    """

    __slots__ = ("_d",)
    _signed = 1
    _unit = _OFFSET
    _accepts: tuple = ()

    def __init__(self, d: dict):
        self._d = d

    @classmethod
    def key(cls, exps) -> int:
        """The key of an exponent tuple; InternalCheckError if an exponent does not fit."""
        slots = [e + _OFFSET if i < cls._signed else e for i, e in enumerate(exps)]
        if len(slots) > _SLOTS or not all(0 <= e <= _MASK >> 1 for e in slots):
            raise InternalCheckError(f"exponents {tuple(exps)} do not fit {_BITS}-bit key slots")
        return sum(e << (_BITS * i) for i, e in enumerate(slots))

    @classmethod
    def exponents(cls, key: int) -> tuple:
        """The exponent tuple of a key, without trailing zeros past the signed exponents."""
        signed = []
        for _ in range(cls._signed):  # the offset slots of L, or of u and v
            key, e = divmod(key, 1 << _BITS)
            signed.append(e - _OFFSET)
        return (*signed, *_decode(key)[0])

    @classmethod
    def of(cls, mapping: dict):
        """From {exponent tuple: coefficient}; zero coefficients are dropped."""
        return cls({cls.key(k): v for k, v in mapping.items() if v})

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

    @property
    def terms(self) -> tuple:
        """The (exponent tuple, coefficient) pairs in increasing tuple order."""
        return tuple(sorted((self.exponents(k), v) for k, v in self._d.items()))

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

    @classmethod
    def dot(cls, pairs):
        """sum a * b over the (a, b) pairs of ints and values with compatible keys, as one ``cls``.

        The multiply-accumulate kernel: every product lands in one dict of packed
        keys (k1 + k2 - _unit), an int ``a`` adds a * b under b's own keys (a 1 into
        the empty dict copies them), zeros are dropped once at the end, and a key
        that left its slot raises ``InternalCheckError``.  ``__mul__`` is the
        one-pair case, and the integer combination sum n_i x_i is the pairs (n_i, x_i).
        """
        acc: dict = {}
        get, unit, dict_of = acc.get, cls._unit, cls._dict_of
        for a, b in pairs:
            b = dict_of(b)
            if not isinstance(a, int):
                for k1, v1 in dict_of(a).items():
                    k1 -= unit
                    for k2, v2 in b.items():
                        k = k1 + k2
                        acc[k] = get(k, 0) + v1 * v2
            elif a == 1 and not acc:
                acc.update(b)
            else:
                for k, v in b.items():
                    acc[k] = get(k, 0) + a * v
        if reduce(or_, acc, 0) & _GUARDS:  # a negative key sets every guard above its top slot
            raise InternalCheckError(f"an exponent of a product left its {_BITS}-bit key slot")
        return cls({k: v for k, v in acc.items() if v})

    def __mul__(self, other):
        if self._dict_of(other) is None:
            return NotImplemented
        return self.dot(((other, self),))  # an int other is a weight

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if len(self._d) == 1:  # (v x^k)^n = v^n x^(nk); for n < 0, v = +-1 and x only in signed slots
            [(k, v)] = self._d.items()
            if n >= 0 or v in (1, -1) and k >> (_BITS * self._signed) == 0:
                return type(self)({self.key([n * e for e in self.exponents(k)]): v ** abs(n)})
        if n < 0:
            raise InputError("negative powers only for unit monomials")
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            base = base * base if n else base  # no square past the last bit: it could overflow
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
        rows = []  # (S pairs, -L exponent, chunk): keys differ, so chunks are never compared
        for k, v in self._d.items():
            _, pairs, syms = _decode(k >> _BITS)
            e = (k & _MASK) - _OFFSET
            rows.append((pairs, -e, f"{v}*L^{e}{syms}" if e else f"{v}{syms}"))
        rows.sort()
        return " + ".join([row[2] for row in rows]).replace(" + -", " - ")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.terms)!r})"


def dim_grade(d: int):
    """The dimension of the monomial with key (k_0, k_1, ...) when X has
    dimension d: k_0 + d * sum(i * k_i)."""

    def grade(key: int) -> int:
        return (key & _MASK) - _OFFSET + d * sum(i * e for i, e in _decode(key >> _BITS)[1])

    return grade


class LaurentL(SparsePoly):
    """Finitely supported integer combination of powers of L: keys (k,) for L^k."""

    __slots__ = ()

    @staticmethod
    def of(mapping: dict[int, int]) -> "LaurentL":
        return LaurentL({LaurentL.key((e,)): v for e, v in mapping.items() if v})

    @staticmethod
    def term(coeff: int = 1, exp: int = 0) -> "LaurentL":
        return LaurentL.of({exp: coeff})

    def __mul__(self, other):
        return SparsePoly.__mul__(self, other)

    __rmul__ = __mul__

    def substitute(self, value):
        """Evaluate at L = value in any commutative ring (e.g. a Fraction q), as one ``_dot``."""
        pairs = []
        for k, v in self._d.items():
            e = k - _OFFSET
            if e < 0 and isinstance(value, Rational):
                pairs.append((v, Fraction(1) / value ** (-e)))
            else:
                pairs.append((v, value**e))  # for e < 0 the ring must support negative powers
        return _dot(pairs)


L = LaurentL.term(1, 1)


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
        return MotivicClass({MotivicClass.key((0,) * i + (exp,)): 1})

    @staticmethod
    def lefschetz(exp: int = 1) -> "MotivicClass":
        return MotivicClass({MotivicClass.key((exp,)): 1})

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

    def substitute_syms(self, sym_value, l_value=None):
        """Map S_i -> sym_value(i) and (optionally) L -> l_value, in any ring."""
        coeffs: dict[int, dict] = {}  # S-part of the key -> the LaurentL keys and coefficients
        for k, v in self._d.items():
            coeffs.setdefault(k >> _BITS, {})[k & _MASK] = v
        powers: dict[tuple[int, int], object] = {}  # (i, e) -> sym_value(i) ** e
        total = 0
        for syms, c in coeffs.items():
            part = LaurentL(c) if l_value is None else LaurentL(c).substitute(l_value)
            for i, e in _decode(syms)[1]:
                power = powers.get((i, e))
                if power is None:
                    power = powers[i, e] = sym_value(i) ** e
                part = part * power
            total = total + part
        return total


def _dot(pairs: list):
    """sum a * b over the pairs, of the type 0 + a * b + ... has: by one ``SparsePoly.dot``
    when one ``SparsePoly`` class holds every factor that is not an int, else pair by pair."""
    types = {type(v) for v in chain.from_iterable(pairs) if not isinstance(v, int)}
    for ring in types:
        if issubclass(ring, SparsePoly) and all(t is ring or issubclass(t, ring._accepts) for t in types):
            return ring.dot(pairs)
    return sum((a * b for a, b in pairs), 0)


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
        pairs: list[list] = [[] for _ in range(n + 1)]  # the (a_i, b_j) with i + j = k, for each k
        for i, a in enumerate(self.coeffs):
            if isinstance(a, int) and a == 0:
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if isinstance(b, int) and b == 0:
                    continue
                pairs[i + j].append((a, b))
        return TruncSeries(tuple(map(_dot, pairs)), self.grading)

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
        live = [(k, ck) for k, ck in enumerate(self.coeffs) if k and not (isinstance(ck, int) and ck == 0)]
        for n in range(1, self.order + 1):
            acc = _dot([(ck, out[n - k]) for k, ck in live if k <= n])
            out[n] = -(inv0 * acc) if inv0 != 1 else -acc
        return TruncSeries(tuple(out), self.grading)

    def compose_power(self, a: int, order: int | None = None) -> "TruncSeries":
        """f(t^a) modulo t^(order+1); ``order`` defaults to f's and may reach a * f.order + a - 1."""
        if a < 1:
            raise InputError(f"compose_power needs a >= 1, got {a}")
        order = self.order if order is None else order
        if order // a > self.order:
            raise InputError("cannot extend a truncated series")
        out = [0] * (order + 1)
        out[::a] = self.coeffs[: order // a + 1]
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


def eval_at_L_power(f: TruncSeries, L_m, grade, floor) -> tuple:
    """(sum_n f_n L_m^n without the monomials of grade < floor, the largest grade left out).

    ``L_m`` is L^-m in a ``SparsePoly`` class that every coefficient coerces to;
    the caller checks convergence (``genfun._Ring.evaluate``).
    """
    total, dropped = L_m.zero(), NEG_INF
    for n, c in enumerate(f.coeffs):
        term, drop = (L_m**n * c).truncated(grade, floor)
        total, dropped = total + term, max(dropped, drop)
    return total, dropped
