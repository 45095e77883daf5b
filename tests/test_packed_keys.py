"""The packed keys of ``motive.SparsePoly`` against a tuple-keyed reference.

``Ref`` is the sparse-polynomial core as it was written before keys were
packed: exponent tuples as dict keys, an exponent-wise tuple sum in the
product loop, and the printing rules of ``MotivicClass``/``LaurentL`` and of
``UVPoly``.  Every operation on packed values must agree with it, negative
L, u and v exponents included.  The last tests pin the slot ranges: L, u and
v exponents in [-2^14, 2^14), S exponents in [0, 2^15), S_i for i < 1024, and
print monomials with exponents anywhere in those ranges.
"""

from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disczeta import motive as M
from disczeta.errors import InputError, InternalCheckError
from disczeta.models import UVPoly
from disczeta.motive import LaurentL, MotivicClass, dim_grade


def _key_sum(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return (*map(add, a, b), *a[len(b):])


class Ref:
    """A tuple-keyed sparse polynomial; ``uv`` selects the Hodge-Deligne printing."""

    def __init__(self, d: dict, uv: bool = False):
        self.d = {k: v for k, v in d.items() if v}
        self.uv = uv
        self.unit = (0, 0) if uv else (0,)

    def _new(self, d):
        return Ref(d, self.uv)

    def __add__(self, other):
        acc = dict(self.d)
        for k, v in other.d.items():
            acc[k] = acc.get(k, 0) + v
        return self._new(acc)

    def __neg__(self):
        return self._new({k: -v for k, v in self.d.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        acc: dict = {}
        for k1, v1 in self.d.items():
            for k2, v2 in other.d.items():
                k = _key_sum(k1, k2)
                acc[k] = acc.get(k, 0) + v1 * v2
        return self._new(acc)

    def __pow__(self, n: int):
        if n < 0:
            [(k, v)] = self.d.items()
            assert v in (1, -1) and len(k) == len(self.unit)
            return self._new({tuple(n * e for e in k): v**-n})
        out = self._new({self.unit: 1})
        for _ in range(n):
            out = out * self
        return out

    @property
    def terms(self) -> tuple:
        return tuple(sorted(self.d.items()))

    def __str__(self) -> str:
        if not self.d:
            return "0"
        return self._uv_str() if self.uv else self._lm_str()

    def _lm_str(self) -> str:
        def order(item):
            key = item[0]
            return tuple((i, e) for i, e in enumerate(key) if i and e), -key[0]

        chunks = []
        for key, v in sorted(self.d.items(), key=order):
            bits = [str(v)]
            if key[0]:
                bits.append(f"L^{key[0]}")
            bits.extend(f"S_{i}" if e == 1 else f"S_{i}^{e}" for i, e in enumerate(key) if i and e)
            chunks.append("*".join(bits))
        out = chunks[0]
        for chunk in chunks[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out

    def _uv_str(self) -> str:
        chunks = []
        for (p, q), v in self.terms:
            bits = []
            if abs(v) != 1 or (p == 0 and q == 0):
                bits.append(str(abs(v)))
            if p:
                bits.append("u" if p == 1 else f"u^{p}")
            if q:
                bits.append("v" if q == 1 else f"v^{q}")
            chunks.append(("-" if v < 0 else "+", "*".join(bits) if bits else "1"))
        sign, first = chunks[0]
        out = ("-" if sign == "-" else "") + first
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out


def _pack(ref: Ref, cls):
    if cls is LaurentL:
        return LaurentL.of({k[0]: v for k, v in ref.d.items()})
    return cls.of(ref.d)


def s_parts(exps):
    """S-parts (e_1, ..., e_r), e_r > 0, with at most four of S_1, ..., S_20 present."""
    return st.dictionaries(st.integers(min_value=1, max_value=20), exps, max_size=4).map(
        lambda es: tuple(es.get(i, 0) for i in range(1, max(es, default=0) + 1))
    )


coeffs = st.integers(min_value=-6, max_value=6)
l_exps = st.integers(min_value=-9, max_value=9)
s_keys = s_parts(st.integers(min_value=1, max_value=3))
KEYS = {
    LaurentL: st.tuples(l_exps),
    MotivicClass: st.builds(lambda k0, rest: (k0, *rest), l_exps, s_keys),
    UVPoly: st.tuples(l_exps, l_exps),
}


def refs(cls, max_size=4):
    return st.dictionaries(KEYS[cls], coeffs, max_size=max_size).map(lambda d: Ref(d, uv=cls is UVPoly))


def check(packed, ref: Ref):
    assert packed.terms == ref.terms
    assert str(packed) == str(ref)


@pytest.mark.parametrize("cls", [LaurentL, MotivicClass, UVPoly])
def test_ring_operations_match_the_tuple_reference(cls):
    @given(refs(cls), refs(cls), st.integers(min_value=0, max_value=3), st.integers(min_value=-3, max_value=3))
    @settings(max_examples=150, deadline=None)
    def run(a, b, n, c):
        x, y = _pack(a, cls), _pack(b, cls)
        check(x, a)
        check(x + y, a + b)
        check(x - y, a - b)
        check(x * y, a * b)
        check(x**n, a**n)
        check(c * x, Ref({k: c * v for k, v in a.d.items()}, a.uv))
        assert (x == y) == (a.terms == b.terms)
        same = _pack(Ref(dict(reversed(list(a.d.items()))), a.uv), cls)  # other insertion order
        assert x == same and hash(x) == hash(same)
        assert x - x == 0 and hash(x - x) == hash(cls.zero())

    run()


@pytest.mark.parametrize("cls", [LaurentL, MotivicClass, UVPoly])
def test_negative_powers_of_unit_monomials_match(cls):
    @given(KEYS[cls if cls is not MotivicClass else LaurentL], st.sampled_from([1, -1]), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def run(key, sign, n):
        ref = Ref({key: sign}, uv=cls is UVPoly)
        check(_pack(ref, cls) ** -n, ref**-n)

    run()
    with pytest.raises(InputError):
        _pack(Ref({(0, 1): 1}), MotivicClass) ** -1  # S_1 is not invertible


@given(refs(LaurentL))
@settings(max_examples=80, deadline=None)
def test_equal_laurent_and_motivic_values_hash_alike(a):
    x, y = _pack(a, LaurentL), _pack(a, MotivicClass)
    assert x == y and y == x
    assert hash(x) == hash(y)
    assert str(x) == str(y)


@given(refs(MotivicClass), st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_dim_grade_reads_the_exponents(a, d):
    expect = max((k[0] + d * sum(i * e for i, e in enumerate(k)) for k in a.d), default=M.NEG_INF)
    assert _pack(a, MotivicClass).degree(dim_grade(d)) == expect


@given(refs(UVPoly), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_adams_scales_both_exponents(a, r):
    check(_pack(a, UVPoly).adams(r), Ref({(p * r, q * r): v for (p, q), v in a.d.items()}, uv=True))


# the largest exponents that fit, and the same operations one past them
L_TOP, L_BOTTOM, S_TOP = 2**14 - 1, -(2**14), 2**15 - 1
L_, S_, UV_ = MotivicClass.lefschetz, MotivicClass.sym, UVPoly.term
L_INV = LaurentL.term(1, -1)
S_1023 = (0,) * 1023

EDGES = {  # name: (what fits, its exponents, what does not fit)
    "L-carry": (lambda: L_(2**13) * L_(2**13 - 1), (L_TOP,), lambda: L_(2**13) * L_(2**13)),
    "L-borrow": (lambda: LaurentL.term(1, -(2**13)) * L_(-(2**13)), (L_BOTTOM,), lambda: L_(L_BOTTOM) * L_INV),
    "L-of-a-class": (
        lambda: S_(3) * L_(L_BOTTOM + 1) * L_INV,
        (L_BOTTOM, 0, 0, 1),
        lambda: (S_(3) * L_(L_BOTTOM)) * (L_INV + S_(1)),
    ),
    "S-carry": (lambda: S_(1, 2**14) * S_(1, 2**14 - 1), (0, S_TOP), lambda: S_(1, 2**14) * S_(1, 2**14)),
    "S-carry-top-slot": (lambda: S_(1023, 2**14) * S_(1023, 2**14 - 1), S_1023 + (S_TOP,), lambda: S_(1023, 2**14) ** 2),
    "u-carry": (lambda: UV_(1, 2**13, 0) * UV_(1, 2**13 - 1, 0), (L_TOP, 0), lambda: UV_(1, 2**13, 0) ** 2),
    "u-borrow": (lambda: UV_(1, L_BOTTOM + 1, 3) * UV_(1, -1, 0), (L_BOTTOM, 3), lambda: UV_(1, L_BOTTOM, 3) * UV_(1, -1, 0)),
    "v-carry": (lambda: UV_(1, 0, 2**13) * UV_(1, 5, 2**13 - 1), (5, L_TOP), lambda: UV_(1, 0, 2**13) * UV_(1, 5, 2**13)),
    "v-borrow": (lambda: UV_(1, 0, L_BOTTOM + 1) * UV_(1, 0, -1), (0, L_BOTTOM), lambda: UV_(1, 0, L_BOTTOM) * UV_(1, 0, -1)),
    "L-key": (lambda: L_(L_TOP), (L_TOP,), lambda: L_(L_TOP + 1)),
    "S-key": (lambda: S_(1, S_TOP), (0, S_TOP), lambda: S_(1, S_TOP + 1)),
    "S-index": (lambda: S_(1023), S_1023 + (1,), lambda: S_(1024)),
    "power": (lambda: (M.L ** (2**13)) ** -2, (L_BOTTOM,), lambda: (M.L ** (2**13)) ** 2),
    "negative-power": (lambda: L_(-L_TOP) ** -1, (L_TOP,), lambda: L_(L_BOTTOM) ** -1),
    "adams": (lambda: UV_(1, 2**12, -(2**12)).adams(3), (3 * 2**12, -3 * 2**12), lambda: UV_(1, 2**12, 0).adams(4)),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_an_exponent_past_its_slot_raises(name):
    fits, exponents, past = EDGES[name]
    assert fits().terms == ((exponents, 1),)
    with pytest.raises(InternalCheckError):
        past()


def test_a_monomial_at_the_slot_edges_prints_exactly():
    assert str(L_(L_BOTTOM) * S_(2, S_TOP)) == f"1*L^{L_BOTTOM}*S_2^{S_TOP}"
    assert str(UV_(-1, L_BOTTOM, L_TOP)) == f"-u^{L_BOTTOM}*v^{L_TOP}"


WIDE_KEYS = st.builds(  # L^k_0 S_1^k_1 ... S_r^k_r with every exponent anywhere in its slot
    lambda k0, rest: (k0, *rest),
    st.integers(min_value=L_BOTTOM, max_value=L_TOP),
    s_parts(st.integers(min_value=1, max_value=S_TOP)),
)


@given(st.dictionaries(WIDE_KEYS, st.integers(min_value=-(10**20), max_value=10**20), max_size=8))
@example({(0, 0, 1): 3, (0,) * 10 + (1,): 1})  # S_2 before S_10
@example({(-4, 1, 0, 2): -5, (3, 1, 0, 2): 1, (2,): -1, (-3,): 7})  # a negative leading coefficient, L^-4 with S
@example({(L_BOTTOM, 0, S_TOP): 1, (L_TOP, S_TOP): -1, (0,) * 20 + (S_TOP,): 2})
@settings(max_examples=200, deadline=None)
def test_printing_matches_the_reference_at_wide_keys(d):
    ref = Ref(d)
    check(_pack(ref, MotivicClass), ref)
    laurent = Ref({k: v for k, v in d.items() if len(k) == 1})
    check(_pack(laurent, LaurentL), laurent)


def test_the_key_decoder_memo_is_bounded():
    assert M._decode.cache_info().maxsize is not None
