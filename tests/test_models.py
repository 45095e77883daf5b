from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disczeta import genfun as G
from disczeta import models as Mo
from disczeta.errors import InputError, ModelDataError
from disczeta.motive import LaurentL, MotivicClass
from disczeta.models import COUNT, EULER, HODGE, MOTIVIC, Specialization, UVPoly, XModel


class TestSymClasses:
    def test_affine(self):
        for d in (1, 2, 3):
            X = XModel.affine_space(d)
            for n in range(5):
                assert X.sym(n) == LaurentL.term(1, d * n)

    def test_projline(self):
        X = XModel.proj_line()
        assert X.sym(3) == LaurentL.of({0: 1, 1: 1, 2: 1, 3: 1})

    def test_point_counts_affine_quadratics(self):
        X = XModel.point_counts(2)  # monic polynomials over F_2
        assert X.sym(2) == 4

    def test_counts_geometric(self):
        X = XModel.point_counts(3)
        assert [X.sym(n) for n in range(6)] == [3**n for n in range(6)]

    def test_counts_point(self):
        X = XModel.point_counts(2, counts=[1] * 10, dim=0)
        assert all(X.sym(n) == 1 for n in range(10))

    def test_counts_insufficient_data(self):
        X = XModel.point_counts(2, counts=[2, 4])
        with pytest.raises(ModelDataError):
            X.sym(3)

    def test_euler(self):
        X = XModel.euler_char(2)
        assert [X.sym(n) for n in range(4)] == [1, 2, 3, 4]
        # chi = -2: Z(t) = (1-t)^2 is a polynomial
        Y = XModel.euler_char(-2)
        assert [Y.sym(n) for n in range(4)] == [1, -2, 1, 0]

    def test_hd_projline(self):
        X = XModel.hodge_deligne("1+uv")
        got = X.sym(3)
        assert got == UVPoly.of({(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})

    def test_sym0_is_one_everywhere(self):
        for X in (
            XModel.affine_space(2),
            XModel.proj_line(),
            XModel.proj_space(2),
            XModel.point_counts(2),
            XModel.euler_char(-1),
            XModel.hodge_deligne("1+uv"),
            XModel.symbolic(),
        ):
            assert X.sym(0) == X.ring_one()

    def test_symbolic(self):
        X = XModel.symbolic()
        assert X.sym(4) == MotivicClass.sym(4)

    def test_natural_spec_of_every_kind(self):
        expect = {
            XModel.affine_space(2): Specialization(MOTIVIC),
            XModel.proj_line(): Specialization(MOTIVIC),
            XModel.proj_space(3): Specialization(MOTIVIC),
            XModel.sym_table([LaurentL.from_int(1)], 1): Specialization(MOTIVIC),
            XModel.symbolic(): Specialization(MOTIVIC),
            XModel.point_counts(5): Specialization(COUNT, 5),
            XModel.point_counts(7, counts=[8]): Specialization(COUNT, 7),
            XModel.euler_char(-1): Specialization(EULER),
            XModel.hodge_deligne("1+uv"): Specialization(HODGE),
        }
        assert {X.kind for X in expect} == {"affine", "projline", "projspace", "symtable", "symbolic",
                                            "counts", "euler", "hd"}
        for X, spec in expect.items():
            assert type(X.natural_spec()) is Specialization
            assert X.natural_spec() == spec
        with pytest.raises(KeyError):
            XModel("bogus", 1).natural_spec()


class TestRedundantEncodings:
    def test_projline_three_ways(self):
        P1 = XModel.proj_line()
        HD = XModel.hodge_deligne("1+uv")
        C = XModel.point_counts(2, counts=[2**r + 1 for r in range(1, 11)])
        for n in range(11):
            lau = P1.sym(n)
            assert lau.substitute(Mo.UV) == HD.sym(n)
            assert lau.substitute(2) == C.sym(n)

    def test_projspace_vs_hd_exponent_rule(self):
        # e(Sym^n P^m) from the power-structure product over i <= m
        for m in (1, 2, 3):
            Pm = XModel.proj_space(m)
            HD = XModel.hodge_deligne(UVPoly.of({(i, i): 1 for i in range(m + 1)}), dim=m)
            for n in range(7):
                assert Pm.sym(n).substitute(Mo.UV) == HD.sym(n)


class TestSpecializeClass:
    def test_distinct_pairs_on_projline(self):
        c = MotivicClass.sym(2) - MotivicClass.sym(1)
        got = XModel.proj_line().specialize(c, Specialization(COUNT, 2))
        assert got == 4  # (1+q+q^2) - (1+q) = q^2 at q=2

    def test_euler_kills_L(self):
        c = MotivicClass.lefschetz(5)
        assert XModel.proj_line().specialize(c, Specialization(EULER)) == 1

    def test_motivic_L(self):
        c = MotivicClass.sym(2) - MotivicClass.sym(1)
        got = XModel.affine_space(1).specialize(c)
        assert got == LaurentL.of({2: 1, 1: -1})

    def test_hodge_target(self):
        c = MotivicClass.lefschetz(2)
        got = XModel.proj_line().specialize(c, Specialization(HODGE))
        assert got == UVPoly.term(1, 2, 2)

    def test_symbolic_is_the_identity(self):
        X = XModel.symbolic()
        c = MotivicClass.sym(2) * MotivicClass.lefschetz(-1) - MotivicClass.sym(1) ** 2 + 3
        assert X.specialize(c) == c
        assert X.specialize(c, Specialization(MOTIVIC)) == c
        for spec in (Specialization(COUNT, 2), Specialization(HODGE)):
            with pytest.raises(InputError):
                X.specialize(c, spec)

    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-2, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_ring_morphism(self, i, j, k):
        a = MotivicClass.sym(i)
        b = MotivicClass.sym(j) * MotivicClass.lefschetz(k)
        X = XModel.proj_line()
        spec = Specialization(COUNT, 3)
        assert X.specialize(a + b, spec) == X.specialize(a, spec) + X.specialize(b, spec)
        assert X.specialize(a * b, spec) == X.specialize(a, spec) * X.specialize(b, spec)



def substitute_per_factor(c: MotivicClass, sym_value, l_value):
    """Reference for ``substitute_syms``: every monomial multiplied out one S_i at a time."""
    total = 0
    for key, v in c.terms:
        part = LaurentL.of({key[0]: v})
        if l_value is not None:
            part = part.substitute(l_value)
        for i, e in enumerate(key[1:], start=1):
            for _ in range(e):
                part = part * sym_value(i)
        total = total + part
    return total


def sample_classes():
    """w-classes of small profiles, some times powers of L."""
    for profile in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1), (3, 2, 1), (2, 2, 1, 1), (1,) * 6, (4, 2, 1, 1)]:
        w = G._w_profile(profile)
        yield w
        yield w * MotivicClass.lefschetz(-2) - 3 * MotivicClass.lefschetz(1) + w * w


TARGETS = [
    (XModel.proj_line(), Specialization(COUNT, 3)),
    (XModel.proj_space(2), Specialization(COUNT, 2)),
    (XModel.proj_line(), Specialization(MOTIVIC)),
    (XModel.proj_space(2), Specialization(MOTIVIC)),
    (XModel.affine_space(1), Specialization(HODGE)),
    (XModel.proj_space(2), Specialization(HODGE)),
]
TARGET_IDS = [f"{X.label()}-{spec}" for X, spec in TARGETS]


class TestSubstituteSyms:
    @pytest.mark.parametrize("X, spec", TARGETS, ids=TARGET_IDS)
    def test_matches_the_per_factor_product(self, X, spec):
        for c in sample_classes():
            expect = substitute_per_factor(c, lambda i: X.sym(i, spec), X.L_image(spec))
            assert X.specialize(c, spec) == expect

    @pytest.mark.parametrize("X, spec", TARGETS, ids=TARGET_IDS)
    def test_one_sym_call_per_distinct_power(self, X, spec, monkeypatch):
        calls = []
        sym = XModel.sym

        def counting_sym(self, n, spec=None):
            calls.append(n)
            return sym(self, n, spec)

        monkeypatch.setattr(XModel, "sym", counting_sym)
        for c in sample_classes():
            powers = {(i, e) for key, _ in c.terms for i, e in enumerate(key[1:], start=1) if e}
            calls.clear()
            X.specialize(c, spec)
            assert len(calls) <= len(powers)
            assert set(calls) <= {i for i, _ in powers}


class TestChecks:
    @pytest.mark.parametrize("chi", [-2, -1, 0, 1, 2, 3])
    def test_macdonald(self, chi):
        assert Mo.macdonald_check(chi, 8)

    def test_macdonald_chi0_vanishing(self):
        X = XModel.euler_char(0)
        z = Mo.zeta_coeffs(X, 6)
        conf = z * z.compose_power(2).inverse()
        assert list(conf.coeffs) == [1, 0, 0, 0, 0, 0, 0]

    def test_stratify_projline(self):
        ok = Mo.stratification_check(XModel.affine_space(1), XModel.point(), XModel.proj_line(), 8)
        assert ok

    def test_stratify_trivial(self):
        X = XModel.affine_space(2)
        empty = XModel.point_counts(5, counts=[0] * 8, dim=0)
        U = XModel.point_counts(5, dim=2, counts=[5 ** (2 * r) for r in range(1, 9)])
        full = XModel.point_counts(5, dim=2, counts=[5 ** (2 * r) for r in range(1, 9)])
        assert Mo.stratification_check(U, empty, full, 6)

    def test_stratify_counts_affine_plane(self):
        q = 2
        U = XModel.point_counts(q, counts=[q ** (2 * r) - q**r for r in range(1, 9)], dim=2)
        Y = XModel.point_counts(q, dim=1)
        X = XModel.point_counts(q, counts=[q ** (2 * r) for r in range(1, 9)], dim=2)
        assert Mo.stratification_check(U, Y, X, 6)

    def test_stratify_detects_bad_counts(self):
        U = XModel.point_counts(2, counts=[1] * 6)
        Y = XModel.point_counts(2, counts=[1] * 6)
        X = XModel.point_counts(2, counts=[3] * 6)
        with pytest.raises(ModelDataError):
            Mo.stratification_check(U, Y, X, 4)

    def test_product_with_line_point(self):
        X = XModel.point_counts(2, counts=[1] * 8, dim=0)
        assert Mo.product_with_line_check(X, 6)

    def test_product_with_line_projline(self):
        X = XModel.point_counts(2, counts=[2**r + 1 for r in range(1, 9)])
        assert Mo.product_with_line_check(X, 6)

    def test_product_with_line_affine(self):
        X = XModel.point_counts(3)
        assert Mo.product_with_line_check(X, 6)
        XL = XModel.point_counts(3, counts=[3 ** (2 * r) for r in range(1, 7)], dim=2)
        assert all(XL.sym(n) == 3 ** (2 * n) for n in range(6))


def uvpolys(max_terms=3):
    exponents = st.tuples(st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2))
    return st.dictionaries(exponents, st.integers(min_value=-5, max_value=5), max_size=max_terms).map(UVPoly.of)


class TestUVPoly:
    @given(uvpolys(), uvpolys(), uvpolys())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a + 0 == a and 0 + a == a and a * 1 == a
        assert a - a == 0 and not a - a
        assert (a - b) + b == a
        assert 1 - a == -(a - 1)
        assert hash(a * b) == hash(b * a)

    @given(uvpolys(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30)
    def test_powers(self, a, n):
        expect = UVPoly.from_int(1)
        for _ in range(n):
            expect = expect * a
        assert a**n == expect

    @given(st.integers(min_value=-4, max_value=4), uvpolys())
    @settings(max_examples=60)
    def test_integer_scalars(self, n, a):
        got = n * a
        assert type(got) is UVPoly
        assert got.terms == (a * n).terms == UVPoly.combination([(n, a)]).terms
        assert all(v for _, v in got.terms)
        assert (0 * a).terms == (a * 0).terms == ()

    def test_negative_powers_only_for_unit_monomials(self):
        m = UVPoly.term(-1, 2, -1)
        assert m**-3 * m**3 == 1
        with pytest.raises(InputError):
            (m + 1) ** -1
        with pytest.raises(InputError):
            UVPoly.term(2, 1, 1) ** -1

    def test_parse(self):
        assert UVPoly.parse("1+uv") == UVPoly.of({(0, 0): 1, (1, 1): 1})
        assert UVPoly.parse("1 - 2u^2 + u^2v") == UVPoly.of({(0, 0): 1, (2, 0): -2, (2, 1): 1})

    def test_parse_rejects_junk(self):
        with pytest.raises(InputError):
            UVPoly.parse("1+w")

    def test_str_roundtrip(self):
        p = UVPoly.of({(0, 0): 1, (1, 1): -3, (2, 0): 1})
        assert UVPoly.parse(str(p)) == p

    def test_adams(self):
        p = UVPoly.parse("1+uv")
        assert p.adams(3) == UVPoly.of({(0, 0): 1, (3, 3): 1})


class TestParseModel:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("A^1", XModel.affine_space(1)),
            ("A^3", XModel.affine_space(3)),
            ("P1", XModel.proj_line()),
            ("P2", XModel.proj_space(2)),
            ("pt", XModel.point()),
            ("euler:2", XModel.euler_char(2)),
            ("euler:-2", XModel.euler_char(-2)),
            ("symbolic", XModel.symbolic(1)),
            ("symbolic:2", XModel.symbolic(2)),
        ],
    )
    def test_simple(self, text, expect):
        assert Mo.parse_model(text) == expect

    def test_counts(self):
        got = Mo.parse_model("counts:q=2,N=[2,4,8]")
        assert got == XModel.point_counts(2, [2, 4, 8])
        assert Mo.parse_model("counts:q=2") == XModel.point_counts(2)

    def test_hd(self):
        assert Mo.parse_model("hd:1+uv") == XModel.hodge_deligne("1+uv")

    def test_bad(self):
        with pytest.raises(InputError):
            Mo.parse_model("B^2")
