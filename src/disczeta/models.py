"""Concrete X-models, specializations and Hodge-Deligne values.

An :class:`XModel` is the data needed to turn symbolic classes into concrete
values: a dimension plus one of six descriptions.  Affine and projective
space have Laurent classes in L.  Three models are given by power sums psi^r
of X: finite-field point counts (psi^r = N_r), an Euler characteristic
(psi^r = chi) and a Hodge-Deligne polynomial (psi^r = the Adams operation
u, v -> u^r, v^r); for them Z_X(t) = exp(sum_r psi^r t^r / r) (Macdonald).
The free symbolic model keeps [Sym^n X] as the generator S_n.

A :class:`Specialization` names the target ring: motivic-L (``LaurentL``),
count(q) (integers/rationals), euler (L -> 1) or hodge-deligne (L -> uv,
values in :class:`UVPoly`, the ``motive.SparsePoly`` core over exponents
(p, q)).  Each is a ring morphism on the classes we represent.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import NamedTuple

from .errors import GuardExceeded, InputError, InternalCheckError, ModelDataError
from .motive import LaurentL, MotivicClass, SparsePoly, TruncSeries
from .records import strict

MOTIVIC = "motivic-L"
COUNT = "count"
EULER = "euler"
HODGE = "hodge-deligne"
PRIME_POWER_GUARD = 10**6  # trial divisions: every q < 10^12 is decided, in about 0.1 s


class UVPoly(SparsePoly):
    """Laurent polynomial in the Hodge-Deligne variables u, v: exponents (p, q) for u^p v^q.
    Both are signed (see ``motive.SparsePoly``): the key of u^p v^q is (p + 2^14) +
    ((q + 2^14) << 16), and p or q outside [-2^14, 2^14) raises ``InternalCheckError``."""

    __slots__ = ()
    _signed = 2

    @staticmethod
    def term(coeff: int = 1, p: int = 0, q: int = 0) -> "UVPoly":
        return UVPoly.of({(p, q): coeff})

    @staticmethod
    def weight(key: int) -> int:  # p + q, for the key of u^p v^q
        return sum(UVPoly.exponents(key))

    def __mul__(self, other):
        return SparsePoly.__mul__(self, other)

    __rmul__ = __mul__

    def adams(self, r: int) -> "UVPoly":
        """Substitute u -> u^r, v -> v^r."""
        return UVPoly({self.key([r * e for e in self.exponents(k)]): v for k, v in self._d.items()})

    def at_one(self) -> int:
        """Evaluate at u = v = 1 (the Euler characteristic of an E-polynomial)."""
        return sum(self._d.values())

    def div_exact(self, n: int) -> "UVPoly":
        if any(v % n for v in self._d.values()):
            raise InternalCheckError(f"inexact division of E-polynomial by {n}")
        return UVPoly({k: v // n for k, v in self._d.items()})

    def __str__(self):
        if not self._d:
            return "0"
        chunks = []
        for (p, q), v in self.terms:
            bits = []
            if abs(v) != 1 or (p == 0 and q == 0):
                bits.append(str(abs(v)))
            if p:
                bits.append("u" if p == 1 else f"u^{p}")
            if q:
                bits.append("v" if q == 1 else f"v^{q}")
            body = "*".join(bits) if bits else "1"
            chunks.append(("-" if v < 0 else "+", body))
        sign, first = chunks[0]
        out = ("-" if sign == "-" else "") + first
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    @staticmethod
    def parse(text: str) -> "UVPoly":
        """Parse expressions like ``1+uv``, ``1 - 2u + u^2``, ``1+u*v``."""
        s = text.replace(" ", "").replace("*", "")
        if not s:
            raise InputError("empty Hodge-Deligne polynomial")
        s = s.replace("-", "+-")
        acc: dict[tuple[int, int], int] = {}
        for chunk in s.split("+"):
            if not chunk:
                continue
            sign = 1
            if chunk.startswith("-"):
                sign, chunk = -1, chunk[1:]
            m = re.match(r"^(\d+)?(u(\^\d+)?)?(v(\^\d+)?)?$", chunk)
            if not m or not chunk:
                raise InputError(f"cannot parse Hodge-Deligne term {chunk!r} in {text!r}")
            coeff = int(m.group(1)) if m.group(1) else 1
            p = 0 if not m.group(2) else (int(m.group(3)[1:]) if m.group(3) else 1)
            q = 0 if not m.group(4) else (int(m.group(5)[1:]) if m.group(5) else 1)
            key = (p, q)
            acc[key] = acc.get(key, 0) + sign * coeff
        return UVPoly.of(acc)


UVPoly._unit = UVPoly.key((0, 0))
UV = UVPoly.term(1, 1, 1)


@lru_cache(maxsize=None)  # natural_spec builds a count Specialization at every call
def _is_prime_power(q: int) -> bool:
    """Whether q = p^e with p prime and e >= 1: a power of its least divisor p > 1,
    found by trial division up to sqrt(q) within the guard."""
    root = math.isqrt(max(q, 0))
    if root > PRIME_POWER_GUARD and all(q % d for d in range(2, PRIME_POWER_GUARD + 1)):
        raise GuardExceeded(f"checking that q={q} is a prime power needs {root - 1} trial divisions, guard is {PRIME_POWER_GUARD}")
    p = next((d for d in range(2, root + 1) if q % d == 0), q)
    return q >= 2 and any(p**e == q for e in range(1, q.bit_length()))


class _SpecFields(NamedTuple):
    target: str = MOTIVIC
    q: int | None = None


@strict
class Specialization(_SpecFields):
    """A motivic measure target: where classes get sent."""

    __slots__ = ()

    def __new__(cls, target: str = MOTIVIC, q: int | None = None):
        if target not in (MOTIVIC, COUNT, EULER, HODGE):
            raise InputError(f"unknown specialization target {target!r}")
        if target == COUNT and q is not None and not _is_prime_power(q):
            raise InputError("count specialization needs a prime power q >= 2")
        return super().__new__(cls, target, q)

    @staticmethod
    def parse(text: str) -> "Specialization":
        text = text.strip()
        if text in (MOTIVIC, "motivic", "L"):
            return Specialization(MOTIVIC)
        if text in (EULER, HODGE, "hd"):
            return Specialization(EULER if text == EULER else HODGE)
        m = text.startswith(COUNT) and re.match(r"^count(?::q=(\d+))?$", text)
        if m:
            return Specialization(COUNT, int(m.group(1)) if m.group(1) else None)
        raise InputError(f"cannot parse specialization {text!r}")

    def __str__(self):
        if self.target == COUNT and self.q is not None:
            return f"count:q={self.q}"
        return self.target


def generalized_binomial(a: int, k: int) -> int:
    """Binomial coefficient C(a, k) for any integer a, k >= 0."""
    if k < 0:
        raise InputError("k must be >= 0")
    num, den = math.prod(range(a - k + 1, a + 1)), math.factorial(k)  # a (a-1) ... (a-k+1) and k!
    if num % den:
        raise InternalCheckError("binomial product not divisible by k!")
    return num // den


@strict
class XModel(NamedTuple):
    """A variety description rich enough to specialize the classes we build."""

    kind: str
    dim: int
    params: tuple = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def affine_space(d: int) -> "XModel":
        if d < 0:
            raise InputError("dimension must be >= 0")
        return XModel("affine", d)

    @staticmethod
    def point() -> "XModel":
        return XModel.affine_space(0)

    @staticmethod
    def proj_line() -> "XModel":
        return XModel.proj_space(1)

    @staticmethod
    def proj_space(n: int) -> "XModel":
        if n < 0:
            raise InputError("dimension must be >= 0")
        return XModel("projspace", n)

    @staticmethod
    def point_counts(q: int, counts=None, dim: int = 1) -> "XModel":
        """Counts N_r = #X(F_{q^r}).  ``counts=None`` means the affine-line
        default N_r = q^r; otherwise supply N_1..N_R explicitly."""
        if not _is_prime_power(q):
            raise InputError("a point-count model needs a prime power q >= 2")
        ctuple = None if counts is None else tuple(int(n) for n in counts)
        if ctuple is not None and any(n < 0 for n in ctuple):
            raise InputError("point counts must be nonnegative")
        return XModel("counts", dim, (q, ctuple))

    @staticmethod
    def euler_char(chi: int) -> "XModel":
        return XModel("euler", 0, (chi,))

    @staticmethod
    def hodge_deligne(e, dim: int | None = None) -> "XModel":
        poly = UVPoly.parse(e) if isinstance(e, str) else e
        if dim is None:
            w = poly.degree(UVPoly.weight)
            dim = 0 if w == float("-inf") else (int(w) + 1) // 2
        return XModel("hd", dim, (poly,))

    @staticmethod
    def symbolic(dim: int = 1) -> "XModel":
        """The free model: [Sym^n X] stays the independent generator S_n."""
        return XModel("symbolic", dim)

    # -- specialization machinery ------------------------------------------

    def natural_spec(self) -> Specialization:
        if self.kind == "counts":
            return Specialization(COUNT, self.params[0])
        return _NATURAL_SPECS[self.kind]

    def sym(self, n: int, spec: Specialization | None = None):
        """[Sym^n X] in the target ring (the model's natural target by default).
        Computed once per (model, n, target) and then read from a cache."""
        if n < 0:
            raise InputError("n must be >= 0")
        return _sym(self, n, spec or self.natural_spec())

    def L_image(self, spec: Specialization | None = None):
        """The image of L in the target ring; None keeps LaurentL coefficients."""
        spec = spec or self.natural_spec()
        t = spec.target
        if t == MOTIVIC:
            return None
        if t == COUNT:
            q = spec.q if spec.q is not None else (self.params[0] if self.kind == "counts" else None)
            if q is None:
                raise InputError(f"count specialization of the {self.kind} model needs an explicit q")
            return q
        if t == EULER:
            return 1
        if t == HODGE:
            return UV
        raise InputError(f"unsupported target {t!r}")

    def specialize(self, c: MotivicClass, spec: Specialization | None = None):
        """Ring-morphism image of a symbolic class: S_i -> [Sym^i X], L -> target."""
        spec = spec or self.natural_spec()
        if self.kind == "symbolic":  # S_i -> S_i, L -> L is the identity
            self.sym(0, spec)  # rejects every target but motivic-L
            return c
        return c.substitute_syms(lambda i: self.sym(i, spec), self.L_image(spec))

    def stable_sym_poles(self) -> int:
        """k with lim [Sym^n X]/M^n = prod_{i=1..k} 1/(1 - L^-i), M = L^dim: 0 for affine
        space and the affine-line counts q^r, dim for projective space."""
        if self.kind == "affine" or (self.kind == "counts" and self.params[1] is None):
            return 0
        if self.kind == "projspace":
            return self.dim
        raise InputError(
            f"the M-power normalization needs the stable symmetric-power class, "
            f"which is not available for the {self.kind} model; use Sym"
        )

    def label(self) -> str:
        if self.kind == "affine":
            return f"A^{self.dim}"
        if self.kind == "projspace":
            return f"P{self.dim}"
        if self.kind == "counts":
            q, counts = self.params
            return f"counts:q={q}" + ("" if counts is None else f",N={list(counts)}")
        if self.kind == "euler":
            return f"euler:{self.params[0]}"
        if self.kind == "hd":
            return f"hd:{self.params[0]}"
        return f"symbolic(dim={self.dim})"


_NATURAL_SPECS = dict.fromkeys(("affine", "projspace", "symbolic"), Specialization(MOTIVIC))
_NATURAL_SPECS.update(euler=Specialization(EULER), hd=Specialization(HODGE))


@lru_cache(maxsize=None)
def _sym(model: XModel, n: int, spec: Specialization):
    t = spec.target
    if model.kind == "symbolic":
        if t != MOTIVIC:
            raise InputError("the symbolic model only supports the motivic-L target")
        return MotivicClass.sym(n)
    if model.kind == "counts":
        if t != COUNT:
            raise InputError("a point-count model only supports the count target")
        if spec.q is not None and spec.q != model.params[0]:
            raise InputError(f"model has q={model.params[0]}, specialization asks q={spec.q}")
    elif model.kind == "euler":
        if t != EULER:
            raise InputError("an Euler-characteristic model only supports the euler target")
    elif model.kind == "hd":
        if t not in (HODGE, EULER):
            raise InputError("a Hodge-Deligne model supports hodge-deligne or euler targets")
    else:  # affine and projective space: Laurent classes in L
        lau = LaurentL.term(1, model.dim * n) if model.kind == "affine" else _proj_space_syms(model.dim, n)[model.dim]
        image = model.L_image(spec)
        return lau if image is None else lau.substitute(image)
    sym = _power_sum_sym(model, n)
    return sym.at_one() if t == EULER and model.kind == "hd" else sym


@lru_cache(maxsize=None)
def _proj_space_syms(m: int, n: int) -> tuple:
    """([Sym^n P^0], ..., [Sym^n P^m]) by the recurrence
    Sym^n P^i = Sym^n P^(i-1) + L^i Sym^(n-1) P^i, the t^n coefficient of
    Z_{P^i}(t) (1 - L^i t) = Z_{P^(i-1)}(t); Sym^n P^0 = Sym^0 P^i = 1."""
    if n == 0:
        return (LaurentL.one(),) * (m + 1)
    for k in range(n - 1):  # rows in increasing n, so that no call recurses more than one deep
        _proj_space_syms(m, k)
    below, row = _proj_space_syms(m, n - 1), [LaurentL.one()]
    for i in range(1, m + 1):
        row.append(row[-1] + LaurentL.term(1, i) * below[i])
    return tuple(row)


def _model_counts(model: XModel, r: int) -> int:
    q, counts = model.params
    if counts is None:
        return q**r
    if r > len(counts):
        raise ModelDataError(f"point-count model provides N_r only for r <= {len(counts)}")
    return counts[r - 1]


def _power_sum(model: XModel, r: int):
    """psi^r [X]: the count N_r, the Euler characteristic, or e(u^r, v^r)."""
    if model.kind == "counts":
        return _model_counts(model, r)
    return model.params[0] if model.kind == "euler" else model.params[0].adams(r)


@lru_cache(maxsize=None)
def _power_sum_sym(model: XModel, n: int):
    """[Sym^n X] for a model given by power sums, from Z = exp(sum_r psi^r t^r / r):
    n s_n = sum_{r=1..n} psi^r s_(n-r).  Only point counts can make s_n fractional
    or imply a negative number of closed points; for the other two models a
    fractional s_n is an internal fault."""
    if n == 0:
        return UVPoly.one() if model.kind == "hd" else 1
    for k in range(1, n):  # rows in increasing n, so that no call recurses more than one deep
        _power_sum_sym(model, k)
    acc = sum(_power_sum(model, r) * _power_sum_sym(model, n - r) for r in range(1, n + 1))
    if model.kind == "hd":
        return acc.div_exact(n)
    val, rem = divmod(acc, n)
    if model.kind == "euler":
        if rem:
            raise InternalCheckError(f"inexact division of an Euler Sym^{n} by {n}")
    elif rem:
        raise ModelDataError(f"point counts are inconsistent: Sym^{n} is not an integer")
    elif _closed_points(model, n) < 0:  # none negative to degree n: Sym^n >= 0 follows
        raise ModelDataError(f"point counts are inconsistent: the closed points of degree {n} are negative")
    return val


@lru_cache(maxsize=None)
def _closed_points(model: XModel, d: int) -> int:
    """d times the number of closed points of degree d: sum_{e | d} mu(d/e) N_e, by
    N_d = sum_{e | d} (e times the closed points of degree e)."""
    return _model_counts(model, d) - sum(_closed_points(model, e) for e in range(1, d) if d % e == 0)


def zeta_coeffs(X: XModel, N: int, spec: Specialization | None = None) -> TruncSeries:
    """Z_X(t) = sum [Sym^n X] t^n truncated at N, in the target ring."""
    if N < 0:
        raise InputError("truncation order must be >= 0")
    return TruncSeries.from_coeffs([X.sym(n, spec) for n in range(N + 1)])


def macdonald_check(chi: int, N: int) -> bool:
    """Euler-specialization identities for configuration spaces.

    Checks that the Euler zeta series, which the power-sum recurrence builds,
    is (1-t)^(-chi), and that the distinct-point series Z(t)/Z(t^2) has
    coefficients C(chi, j), i.e. equals (1+t)^chi.
    """
    X = XModel.euler_char(chi)
    z = zeta_coeffs(X, N)
    binom_neg = [generalized_binomial(chi + n - 1, n) for n in range(N + 1)]
    if list(z.coeffs) != binom_neg:
        return False
    conf = z * z.compose_power(2).inverse()
    binom_pos = [generalized_binomial(chi, j) for j in range(N + 1)]
    return list(conf.coeffs) == binom_pos


def stratification_check(U: XModel, Y: XModel, X: XModel, N: int, spec: Specialization | None = None) -> bool:
    """Z_X = Z_U * Z_Y to order N, for X stratified into U and Y."""
    if spec is None:
        spec = X.natural_spec()
    if X.kind == "counts" and U.kind == "counts" and Y.kind == "counts":
        for r in range(1, N + 1):
            if _model_counts(X, r) != _model_counts(U, r) + _model_counts(Y, r):
                raise ModelDataError(f"inconsistent stratification counts at r={r}")
    zx = zeta_coeffs(X, N, spec)
    zu = zeta_coeffs(U, N, spec)
    zy = zeta_coeffs(Y, N, spec)
    return zx == zu * zy


def product_with_line_check(X: XModel, N: int) -> bool:
    """#Sym^n(X x A^1) = q^n #Sym^n X for n <= N, via the exponential formula."""
    if X.kind != "counts":
        raise InputError("product_with_line_check needs a point-count model")
    q = X.params[0]
    counts = tuple(_model_counts(X, r) * q**r for r in range(1, N + 1))
    XL = XModel.point_counts(q, counts, dim=X.dim + 1)
    return all(XL.sym(n) == q**n * X.sym(n) for n in range(N + 1))


def _counts_model(m) -> XModel:
    counts = None if m[2] is None else [int(x) for x in m[2].split(",") if x.strip()]
    return XModel.point_counts(int(m[1]), counts, int(m[3]) if m[3] else 1)


_MODEL_FORMS = (  # (prefix, the pattern of the form, its model from the match); prefixes are disjoint
    ("A", r"^A\^?(\d+)$", lambda m: XModel.affine_space(int(m[1]))),
    ("P", r"^P(\d+)$", lambda m: XModel.proj_space(int(m[1]))),
    ("counts:", r"^counts:q=(\d+)(?:,N=\[([\d,\s]*)\])?(?:,d=(\d+))?$", _counts_model),
    ("euler:", r"^euler:(-?\d+)$", lambda m: XModel.euler_char(int(m[1]))),
    ("hd:", r"^hd:(.+?)(?:,d=(\d+))?$", lambda m: XModel.hodge_deligne(m[1], int(m[2]) if m[2] else None)),
    ("symbolic", r"^symbolic(?::(\d+))?$", lambda m: XModel.symbolic(int(m[1]) if m[1] else 1)),
)


def parse_model(text: str) -> XModel:
    """Parse the CLI shorthand: A^d, P1, Pn, pt, counts:q=2,N=[2,4,8], euler:2,
    hd:1+uv, symbolic[:d].  Only the pattern of the form the prefix names is compiled."""
    text = text.strip()
    if text == "pt":
        return XModel.point()
    for prefix, pattern, build in _MODEL_FORMS:
        m = text.startswith(prefix) and re.match(pattern, text)
        if m:
            return build(m)
    raise InputError(f"cannot parse X-model {text!r}")
