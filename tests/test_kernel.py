"""The multiply-accumulate kernel ``SparsePoly.dot`` and the two routes built on it.

* Truncated-series products and inverses run one ``dot`` per coefficient.
  ``generic_mul`` and ``generic_inverse`` are the loops they replaced (one
  ``a * b`` and one ``+`` per pair, starting from the int 0), kept as the
  reference for values and for the class of every coefficient.
* ``XModel.sym`` reads a cache keyed on (model, n, resolved target), and
  [Sym^n P^m] comes from a recurrence; ``proj_space_sym_by_products`` is the
  series-product formula it replaced.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_packed_keys import Ref, _pack, refs

from disczeta import models as Mo
from disczeta.errors import InputError, InternalCheckError
from disczeta.models import COUNT, MOTIVIC, Specialization, UVPoly, XModel
from disczeta.motive import LaurentL, MotivicClass, TruncSeries


def generic_mul(f: TruncSeries, g: TruncSeries) -> list:
    n = f.order
    out = [0] * (n + 1)
    for i, a in enumerate(f.coeffs):
        if isinstance(a, int) and a == 0:
            continue
        for j in range(0, n - i + 1):
            b = g.coeffs[j]
            if isinstance(b, int) and b == 0:
                continue
            out[i + j] = out[i + j] + a * b
    return out


def generic_inverse(f: TruncSeries) -> list:
    c0 = f.coeffs[0]
    inv0 = 1 if c0 == 1 else Fraction(1, 1) / c0
    out = [inv0] + [0] * f.order
    for n in range(1, f.order + 1):
        acc = 0
        for k in range(1, n + 1):
            ck = f.coeffs[k]
            if isinstance(ck, int) and ck == 0:
                continue
            acc = acc + ck * out[n - k]
        out[n] = -(inv0 * acc) if inv0 != 1 else -acc
    return out


def same(got: TruncSeries, expect: list) -> None:
    assert [type(c) for c in got.coeffs] == [type(c) for c in expect]
    assert list(got.coeffs) == expect


# coefficient rings: LaurentL values are also MotivicClass values, so the
# motivic ring mixes both
RINGS = {"laurent": (LaurentL,), "motivic": (MotivicClass, LaurentL), "uv": (UVPoly,)}


def coefficients(classes):
    packed = [refs(cls, 3).map(lambda r, cls=cls: _pack(r, cls)) for cls in classes]
    return st.one_of(st.just(0), st.just(0), st.integers(-3, 3), *packed)  # int zeros: gaps


def series(classes, constant=None):
    def build(order, data):
        coeffs = [data.draw(coefficients(classes)) for _ in range(order + 1)]
        if constant is not None:
            coeffs[0] = data.draw(st.sampled_from([1, *(cls.one() for cls in classes)]))
        return TruncSeries(tuple(coeffs))

    return build


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_product_matches_the_generic_loop(ring):
    @given(st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def run(order, data):
        build = series(RINGS[ring])
        f, g = build(order, data), build(order, data)
        same(f * g, generic_mul(f, g))

    run()


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_inverse_matches_the_generic_loop(ring):
    @given(st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def run(order, data):
        f = series(RINGS[ring], constant=1)(order, data)
        inverse = f.inverse()
        same(inverse, generic_inverse(f))
        assert f * inverse == TruncSeries.one(order)

    run()


def test_an_int_zero_where_no_product_lands():
    x = LaurentL.term(2, 1)
    f = TruncSeries((1, 0, x, 0))
    same(f * TruncSeries((0, 1, 0, 0)), [0, 1, 0, x])
    same(f * TruncSeries((x, 0, 0, 0)), [x, 0, x * x, 0])
    zero = LaurentL.zero()  # a zero LaurentL times the int 0 is a zero LaurentL, not the int 0
    same(TruncSeries((1, 0, zero, 0)).inverse(), [1, 0, zero, zero])
    same(TruncSeries((1, x, 0, 0)).inverse(), [1, -x, x * x, -(x * x * x)])


def test_fraction_and_int_series_keep_the_generic_loop():
    f = TruncSeries((2, Fraction(1, 3), 0, -1))
    g = TruncSeries((1, 4, Fraction(-2, 5), 0))
    same(f * g, generic_mul(f, g))
    same(f.inverse(), generic_inverse(f))
    h = TruncSeries((1, 3, 0, 5))
    same(h * h, generic_mul(h, h))
    same(h.inverse(), generic_inverse(h))
    with pytest.raises(InputError):
        TruncSeries((LaurentL.term(2), 1)).inverse()


def factors(cls):
    """(reference, factor) pairs for ``cls.dot``: values of ``cls``, values of
    ``LaurentL`` too when ``cls`` is ``MotivicClass``, and int weights, 0 and 1 among them."""
    uv = cls is UVPoly
    unit = (0, 0) if uv else (0,)
    classes = (cls, LaurentL) if cls is MotivicClass else (cls,)
    values = [refs(c, 3).map(lambda r, c=c: (r, _pack(r, c))) for c in classes]
    weights = st.one_of(st.sampled_from([0, 1]), st.integers(-3, 3)).map(lambda n: (Ref({unit: n}, uv), n))
    return st.one_of(weights, *values)


@pytest.mark.parametrize("cls", [LaurentL, MotivicClass, UVPoly])
def test_dot_is_the_sum_of_the_products(cls):
    uv = cls is UVPoly
    unit = (0, 0) if uv else (0,)
    ref = Ref({(2, -1) if uv else (2,): 3, unit: -1}, uv)
    x = y = (ref, _pack(ref, cls))
    if cls is MotivicClass:  # a LaurentL value inside a MotivicClass.dot
        laurent = Ref({(-1,): 2, (4,): -5})
        y = (laurent, _pack(laurent, LaurentL))
    one, zero = (Ref({unit: 1}, uv), 1), (Ref({}, uv), 0)

    @given(st.lists(st.tuples(factors(cls), factors(cls)), max_size=4))
    @example([(one, y), (zero, x), (x, y)])  # a weight 1 into the empty dict, a weight 0, a product
    @example([(one, x), (one, y), (y, one)])  # two weights 1: only the first copies
    @settings(max_examples=150, deadline=None)
    def run(pairs):
        expect = Ref({}, uv)
        for (a, _), (b, _) in pairs:
            expect = expect + a * b
        values = [v for pair in pairs for _, v in pair if not isinstance(v, int)]
        before = [v.terms for v in values]
        got = cls.dot([(a, b) for (_, a), (_, b) in pairs])
        assert type(got) is cls
        assert got.terms == expect.terms
        assert [v.terms for v in values] == before  # a weight 1 copies its value's terms, not the dict

    run()


def test_a_slot_overflow_inside_the_kernel_raises():
    big, top = LaurentL.term(1, 2**13), LaurentL.term(1, 2**13 - 1)
    assert LaurentL.dot([(1, 1), (big, top)]) == LaurentL.of({0: 1, 2**14 - 1: 1})
    with pytest.raises(InternalCheckError):
        LaurentL.dot([(1, 1), (big, big), (top, 1)])  # the second of three pairs carries
    with pytest.raises(InternalCheckError):
        TruncSeries((1, big, 0)) * TruncSeries((1, big, 0))  # only t^2 leaves its slot
    with pytest.raises(InternalCheckError):
        TruncSeries((1, -big, 0)).inverse()
    low = LaurentL.term(1, -(2**14))
    with pytest.raises(InternalCheckError):
        TruncSeries((1, low, 0)) * TruncSeries((1, LaurentL.term(1, -1), 0))  # a borrow
    s = MotivicClass.sym(2, 2**14)
    with pytest.raises(InternalCheckError):
        MotivicClass.dot([(s, 3), (s, s)])
    u = UVPoly.term(1, 0, 2**13)
    with pytest.raises(InternalCheckError):
        TruncSeries((1, u, u)).inverse()


def proj_space_sym_by_products(m: int, n: int) -> LaurentL:
    # coefficient of t^n in prod_{i=0..m} 1/(1 - L^i t)
    series = TruncSeries.one(n)
    for i in range(m + 1):
        g = TruncSeries.from_coeffs([LaurentL.term(1, i * k) for k in range(n + 1)])
        series = series * g
    return LaurentL.coerce(series.coeffs[n])


@pytest.mark.parametrize("m", range(5))
def test_proj_space_recurrence_matches_the_product_formula(m):
    for n in range(21):
        assert Mo._proj_space_syms(m, n)[m] == proj_space_sym_by_products(m, n), (m, n)


def test_projline_is_proj_space_one():
    assert XModel.proj_line() == XModel.proj_space(1)
    assert XModel.proj_line().sym(4) == LaurentL.of({k: 1 for k in range(5)})


def test_sym_is_cached_per_target():
    X = XModel.proj_line()
    assert X.sym(4, Specialization(COUNT, 3)) == 1 + 3 + 9 + 27 + 81
    assert X.sym(4, Specialization(COUNT, 5)) == 1 + 5 + 25 + 125 + 625
    assert X.sym(4, Specialization(COUNT, 3)) == 121

    Mo._sym.cache_clear()
    Y = XModel.affine_space(7)
    before = Mo._sym.cache_info()
    assert Y.sym(3) == LaurentL.term(1, 21)
    assert Y.sym(3, Specialization(MOTIVIC)) == LaurentL.term(1, 21)
    after = Mo._sym.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)  # one entry for both


def test_cached_sym_keeps_its_checks():
    X = XModel.point_counts(3)
    for _ in range(2):
        with pytest.raises(InputError):
            X.sym(2, Specialization(COUNT, 5))
        with pytest.raises(InputError):
            X.sym(-1)
    assert X.sym(2, Specialization(COUNT, 3)) == X.sym(2) == 9
