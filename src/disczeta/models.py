"""Concrete X-models, specializations and Hodge-Deligne values.

An :class:`XModel` is the data needed to turn symbolic classes into concrete
values: a dimension plus one of several descriptions (affine space, the
projective line or space, finite-field point counts, an Euler characteristic,
a Hodge-Deligne polynomial, an explicit symmetric-power table, or the free
symbolic model in which [Sym^n X] stays the generator S_n).

A :class:`Specialization` names the target ring: motivic-L (``LaurentL``),
count(q) (integers/rationals), euler (L -> 1) or hodge-deligne (L -> uv,
values in :class:`UVPoly`, the ``motive.SparsePoly`` core over exponents
(p, q)).  Each is a ring morphism on the classes we represent.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, InternalCheckError, ModelDataError
from .motive import LaurentL, MotivicClass, SparsePoly, TruncSeries

MOTIVIC = "motivic-L"
COUNT = "count"
EULER = "euler"
HODGE = "hodge-deligne"


class UVPoly(SparsePoly):
    """Laurent polynomial in the Hodge-Deligne variables u, v: exponents (p, q) for u^p v^q.
    Both are signed (see ``motive.SparsePoly``): the key of u^p v^q is (p + 2^14) +
    ((q + 2^14) << 16), and p or q outside [-2^14, 2^14) raises ``InternalCheckError``."""

    __slots__ = ()
    _signed = 2

    @staticmethod
    def term(coeff: int = 1, p: int = 0, q: int = 0) -> "UVPoly":
        return UVPoly.of({(p, q): coeff})

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


class _SpecFields(NamedTuple):
    target: str = MOTIVIC
    q: int | None = None


class Specialization(_SpecFields):
    """A motivic measure target: where classes get sent."""

    __slots__ = ()

    def __new__(cls, target: str = MOTIVIC, q: int | None = None):
        if target not in (MOTIVIC, COUNT, EULER, HODGE):
            raise InputError(f"unknown specialization target {target!r}")
        if target == COUNT and q is not None and q < 2:
            raise InputError("count specialization needs a prime power q >= 2")
        return super().__new__(cls, target, q)

    @staticmethod
    def parse(text: str) -> "Specialization":
        text = text.strip()
        if text in (MOTIVIC, "motivic", "L"):
            return Specialization(MOTIVIC)
        if text in (EULER, HODGE, "hd"):
            return Specialization(EULER if text == EULER else HODGE)
        m = re.match(r"^count(?::q=(\d+))?$", text)
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
    num = 1
    for i in range(k):
        num *= a - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    if num % den:
        raise InternalCheckError("binomial product not divisible by k!")
    return num // den


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
        return XModel("projline", 1)

    @staticmethod
    def proj_space(n: int) -> "XModel":
        if n < 0:
            raise InputError("dimension must be >= 0")
        return XModel("projspace", n, (n,))

    @staticmethod
    def point_counts(q: int, counts=None, dim: int = 1) -> "XModel":
        """Counts N_r = #X(F_{q^r}).  ``counts=None`` means the affine-line
        default N_r = q^r; otherwise supply N_1..N_R explicitly."""
        if q < 2:
            raise InputError("q must be at least 2")
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
            w = poly.degree(lambda key: sum(UVPoly.exponents(key)))  # the weight p + q of u^p v^q
            dim = 0 if w == float("-inf") else (int(w) + 1) // 2
        return XModel("hd", dim, (poly,))

    @staticmethod
    def sym_table(entries, dim: int) -> "XModel":
        table = tuple(entries)
        if not table or table[0] != LaurentL.from_int(1):
            raise InputError("a Sym table must start with Sym^0 = 1")
        return XModel("symtable", dim, (table,))

    @staticmethod
    def symbolic(dim: int = 1) -> "XModel":
        """The free model: [Sym^n X] stays the independent generator S_n."""
        return XModel("symbolic", dim)

    # -- specialization machinery ------------------------------------------

    def natural_spec(self) -> Specialization:
        if self.kind == "counts":
            return Specialization(COUNT, self.params[0])
        return _NATURAL_SPECS[self.kind]

    def _sym_laurent(self, n: int) -> LaurentL:
        if self.kind == "affine":
            return LaurentL.term(1, self.dim * n)
        if self.kind == "projline":
            return LaurentL.of({k: 1 for k in range(n + 1)})
        if self.kind == "projspace":
            return _proj_space_sym(self.params[0], n)
        if self.kind == "symtable":
            table = self.params[0]
            if n >= len(table):
                raise ModelDataError(f"Sym table only covers n < {len(table)}, asked for {n}")
            return table[n]
        raise ModelDataError(f"{self.kind} model has no Laurent Sym classes")

    def sym(self, n: int, spec: Specialization | None = None):
        """[Sym^n X] in the target ring (the model's natural target by default)."""
        if n < 0:
            raise InputError("n must be >= 0")
        spec = spec or self.natural_spec()
        t = spec.target
        if self.kind == "symbolic":
            if t != MOTIVIC:
                raise InputError("the symbolic model only supports the motivic-L target")
            return MotivicClass.sym(n)
        if self.kind == "counts":
            if t != COUNT:
                raise InputError("a point-count model only supports the count target")
            if spec.q is not None and spec.q != self.params[0]:
                raise InputError(f"model has q={self.params[0]}, specialization asks q={spec.q}")
            return _count_sym(self, n)
        if self.kind == "euler":
            if t != EULER:
                raise InputError("an Euler-characteristic model only supports the euler target")
            return generalized_binomial(self.params[0] + n - 1, n)
        if self.kind == "hd":
            if t == HODGE:
                return _hd_sym(self, n)
            if t == EULER:
                return _hd_sym(self, n).at_one()
            raise InputError("a Hodge-Deligne model supports hodge-deligne or euler targets")
        # Laurent-backed kinds
        lau = self._sym_laurent(n)
        image = self.L_image(spec)
        return lau if image is None else lau.substitute(image)

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

    def ring_one(self, spec: Specialization | None = None):
        return self.sym(0, spec)

    def label(self) -> str:
        if self.kind == "affine":
            return f"A^{self.dim}"
        if self.kind == "projline":
            return "P1"
        if self.kind == "projspace":
            return f"P{self.params[0]}"
        if self.kind == "counts":
            q, counts = self.params
            return f"counts:q={q}" + ("" if counts is None else f",N={list(counts)}")
        if self.kind == "euler":
            return f"euler:{self.params[0]}"
        if self.kind == "hd":
            return f"hd:{self.params[0]}"
        if self.kind == "symtable":
            return f"symtable(dim={self.dim})"
        return f"symbolic(dim={self.dim})"


_NATURAL_SPECS = dict.fromkeys(("affine", "projline", "projspace", "symtable", "symbolic"), Specialization(MOTIVIC))
_NATURAL_SPECS.update(euler=Specialization(EULER), hd=Specialization(HODGE))


@lru_cache(maxsize=None)
def _proj_space_sym(m: int, n: int) -> LaurentL:
    # coefficient of t^n in prod_{i=0..m} 1/(1 - L^i t)
    series = TruncSeries.one(n)
    for i in range(m + 1):
        g = TruncSeries.from_coeffs([LaurentL.term(1, i * k) for k in range(n + 1)])
        series = series * g
    return LaurentL.coerce(series.coeffs[n])


def _model_counts(model: XModel, r: int) -> int:
    q, counts = model.params
    if counts is None:
        return q**r
    if r > len(counts):
        raise ModelDataError(f"point-count model provides N_r only for r <= {len(counts)}")
    return counts[r - 1]


@lru_cache(maxsize=None)
def _count_sym(model: XModel, n: int) -> int:
    # n*s_n = sum_{r=1..n} N_r s_{n-r}, from Z = exp(sum N_r t^r / r)
    syms = [1]
    for k in range(1, n + 1):
        acc = 0
        for r in range(1, k + 1):
            acc += _model_counts(model, r) * syms[k - r]
        if acc % k:
            raise ModelDataError(f"point counts are inconsistent: Sym^{k} is not an integer")
        val = acc // k
        if val < 0:
            raise ModelDataError(f"point counts are inconsistent: Sym^{k} is negative")
        syms.append(val)
    return syms[n]


@lru_cache(maxsize=None)
def _hd_sym(model: XModel, n: int) -> UVPoly:
    e = model.params[0]
    syms = [UVPoly.from_int(1)]
    for k in range(1, n + 1):
        acc = UVPoly.from_int(0)
        for r in range(1, k + 1):
            acc = acc + e.adams(r) * syms[k - r]
        syms.append(acc.div_exact(k))
    return syms[n]


def zeta_coeffs(X: XModel, N: int, spec: Specialization | None = None) -> TruncSeries:
    """Z_X(t) = sum [Sym^n X] t^n truncated at N, in the target ring."""
    if N < 0:
        raise InputError("truncation order must be >= 0")
    return TruncSeries.from_coeffs([X.sym(n, spec) for n in range(N + 1)])


def macdonald_check(chi: int, N: int) -> bool:
    """Euler-specialization identities for configuration spaces.

    Checks that the Euler zeta series is (1-t)^(-chi) and that the distinct-
    point series Z(t)/Z(t^2) has coefficients C(chi, j), i.e. equals (1+t)^chi.
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


_MODEL_RE_COUNTS = re.compile(r"^counts:q=(\d+)(?:,N=\[([\d,\s]*)\])?(?:,d=(\d+))?$")


def parse_model(text: str) -> XModel:
    """Parse the CLI shorthand: A^d, P1, Pn, pt, counts:q=2,N=[2,4,8], euler:2,
    hd:1+uv, symbolic[:d]."""
    text = text.strip()
    if text == "pt":
        return XModel.point()
    m = re.match(r"^A\^?(\d+)$", text)
    if m:
        return XModel.affine_space(int(m.group(1)))
    m = re.match(r"^P(\d+)$", text)
    if m:
        n = int(m.group(1))
        return XModel.proj_line() if n == 1 else XModel.proj_space(n)
    m = _MODEL_RE_COUNTS.match(text)
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
