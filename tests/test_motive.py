from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disczeta import motive as M
from disczeta.errors import DivergenceError, InputError, InternalCheckError, SymbolicEvaluationError
from disczeta.motive import (
    GRADING_POINTS,
    LaurentL,
    MotivicClass,
    TruncSeries,
    dim_grade,
    eval_at_L_power,
    geometric_series,
)


def laurents(max_terms=3):
    return st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-5, max_value=5),
        max_size=max_terms,
    ).map(LaurentL.of)


def _term(monomial, coeff):
    out = MotivicClass.from_laurent(coeff)
    for i, e in monomial:
        out = out * MotivicClass.sym(i, e)
    return out


def classes(max_terms=3):
    monomial = st.lists(
        st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=2)),
        max_size=2,
        unique_by=lambda t: t[0],
    )
    term = st.builds(_term, monomial, laurents(2))
    return st.lists(term, max_size=max_terms).map(lambda ts: sum(ts, MotivicClass.zero()))


class TestLaurent:
    def test_basic_arith(self):
        x = M.L + 1
        y = M.L - 1
        assert x * y == LaurentL.of({2: 1, 0: -1})
        assert x - x == LaurentL.of({})
        assert M.L * M.L_INV == 1

    def test_dimension(self):
        assert LaurentL.of({3: 1, -2: 5}).degree(dim_grade(1)) == 3
        assert LaurentL.of({}).degree(dim_grade(1)) == M.NEG_INF

    def test_substitute(self):
        c = LaurentL.of({2: 1, -1: 3})
        assert c.substitute(2) == 4 + Fraction(3, 2)

    @given(laurents(), laurents(), laurents())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a

    def test_powers(self):
        assert (M.L + 1) ** 3 == LaurentL.of({3: 1, 2: 3, 1: 3, 0: 1})
        assert M.L**-2 == LaurentL.term(1, -2)
        with pytest.raises(InputError):
            (M.L + 1) ** -1

    @given(laurents())
    @settings(max_examples=100)
    def test_a_laurent_value_is_a_motivic_class(self, a):
        c = MotivicClass.from_laurent(a)
        assert c == a and a == c
        assert hash(c) == hash(a)
        assert str(c) == str(a)


class TestMotivicClass:
    def test_sym_product(self):
        s21 = MotivicClass.sym_product((2, 1))
        assert s21 == MotivicClass.sym(2) * MotivicClass.sym(1)
        assert MotivicClass.sym_product(()) == 1

    def test_s0_is_one(self):
        assert MotivicClass.sym(0) == MotivicClass.one()

    def test_dimension(self):
        c = MotivicClass.sym(3) * MotivicClass.lefschetz(-2)
        assert c.degree(dim_grade(1)) == 1
        assert MotivicClass.lefschetz(5).degree(dim_grade(1)) == 5
        assert MotivicClass.zero().degree(dim_grade(1)) == M.NEG_INF

    @given(classes(), classes(), classes())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    @given(classes(2), classes(2), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_dimension_subadditive(self, a, b, d):
        if a and b:
            grade = dim_grade(d)
            assert (a * b).degree(grade) <= a.degree(grade) + b.degree(grade)

    def test_dimension_additive_on_monomials(self):
        a = MotivicClass.sym(2) * MotivicClass.lefschetz(1)
        b = MotivicClass.sym(1) * MotivicClass.lefschetz(-4)
        grade = dim_grade(2)
        assert (a * b).degree(grade) == a.degree(grade) + b.degree(grade)


def ts(*coeffs, grading=M.GRADING_MULT):
    return TruncSeries.from_coeffs(coeffs, grading)


class TestSeries:
    def test_mul_simple(self):
        f = ts(1, 1, 0)
        g = ts(1, -1, 0)
        assert f * g == ts(1, 0, -1)

    def test_mul_zeta_affine(self):
        # Z_{A^1}(t) * (1 - L t) = 1
        n = 8
        z = geometric_series(M.L, n)
        lin = TruncSeries.from_coeffs([1, -M.L] + [0] * (n - 1))
        assert z * lin == TruncSeries.one(n)

    def test_inverse_of_geometric(self):
        f = ts(1, -1, 0, 0)
        assert f.inverse() == ts(1, 1, 1, 1)

    def test_inverse_definition(self):
        n = 6
        z = TruncSeries.from_coeffs([MotivicClass.sym(i) for i in range(n + 1)])
        assert z * z.inverse() == TruncSeries.one(n)

    def test_inverse_scalar_constant(self):
        f = ts(1, -2, 0, 0)
        assert f.inverse() == ts(1, 2, 4, 8)

    def test_inverse_requires_unit(self):
        with pytest.raises(InputError):
            ts(0, 1).inverse()

    def test_inverse_involution_random(self):
        f = TruncSeries.from_coeffs(
            [1] + [MotivicClass.sym(1) * LaurentL.term(i % 3 - 1, i % 2) for i in range(1, 9)]
        )
        assert f.inverse().inverse() == f

    def test_compose_power(self):
        f = ts(1, 1, 0, 0)
        assert f.compose_power(2) == ts(1, 0, 1, 0)

    def test_compose_zeta_odd_zero(self):
        n = 7
        z = geometric_series(M.L, n).compose_power(3)
        expect = [0] * (n + 1)
        expect[0], expect[3], expect[6] = 1, M.L, M.L * M.L
        assert z == TruncSeries.from_coeffs(expect)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
    def test_compose_composes(self, a, b):
        f = TruncSeries.from_coeffs([MotivicClass.sym(i % 3) for i in range(10)])
        assert f.compose_power(a).compose_power(b) == f.compose_power(a * b)

    def test_grading_mix_rejected(self):
        f = ts(1, 1)
        g = ts(1, 1, grading=GRADING_POINTS)
        with pytest.raises(InputError):
            f * g
        assert f.regraded(GRADING_POINTS) * g == ts(1, 2, grading=GRADING_POINTS)

    def test_shift_down_checks(self):
        f = ts(0, 0, 1, 2)
        assert f.shift_down(2) == ts(1, 2)
        with pytest.raises(InternalCheckError):
            ts(0, 1, 1, 2).shift_down(2)

    def test_order_mismatch_rejected(self):
        with pytest.raises(InputError):
            ts(1, 1) * ts(1, 1, 1)


class TestEval:
    def test_geometric_zeta_value(self):
        # Z_{A^1}(L^-2) = sum L^-n, cutoff 8
        z = geometric_series(M.L, 10)
        got = eval_at_L_power(z, m=2, d=1, codim_cutoff=8)
        expect = MotivicClass.from_laurent(LaurentL.of({-k: 1 for k in range(9)}))
        assert got.value == expect
        assert got.discarded_dim == -9

    def test_point_zeta(self):
        z = TruncSeries.from_coeffs([1] * 7)
        got = eval_at_L_power(z, m=1, d=0, codim_cutoff=6)
        assert got.value == MotivicClass.from_laurent(LaurentL.of({-k: 1 for k in range(7)}))

    def test_divergence(self):
        z = geometric_series(M.L, 5)
        with pytest.raises(DivergenceError):
            eval_at_L_power(z, m=1, d=1, codim_cutoff=4)

    def test_symbolic_rejected(self):
        z = TruncSeries.from_coeffs([1, MotivicClass.sym(1), 0])
        with pytest.raises(SymbolicEvaluationError):
            eval_at_L_power(z, m=2, d=1, codim_cutoff=4)

    def test_cutoff_monotone(self):
        z = geometric_series(M.L, 20)
        small = eval_at_L_power(z, m=2, d=1, codim_cutoff=5).value
        large = eval_at_L_power(z, m=2, d=1, codim_cutoff=9).value
        trimmed, _ = large.truncated(dim_grade(1), -5)
        assert trimmed == small


class TestRendering:
    def test_laurent_str(self):
        assert str(LaurentL.of({2: 3, 0: -1})) == "3*L^2 - 1"
        assert str(LaurentL.of({})) == "0"

    def test_class_str(self):
        c = MotivicClass.sym(2) - MotivicClass.sym(1) * MotivicClass.lefschetz(-1)
        s = str(c)
        assert "S_2" in s and "S_1" in s and "L^-1" in s

    def test_series_json(self):
        f = ts(1, M.L, MotivicClass.sym(2))
        d = f.to_json()
        assert d["order"] == 2
        assert d["grading"] == "multiplicity"
        assert len(d["coeffs"]) == 3
