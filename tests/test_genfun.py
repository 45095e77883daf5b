from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disczeta import genfun as G
from disczeta import partitions as pt
from disczeta.errors import DivergenceError, InputError, InternalCheckError
from disczeta.models import COUNT, HODGE, MOTIVIC, Specialization, XModel
from disczeta.motive import GRADING_MULT, LaurentL, MotivicClass, TruncSeries, dim_grade
from disczeta.partitions import GenPartition

S = MotivicClass.sym
A1 = XModel.affine_space(1)
P1 = XModel.proj_line()
SYM = XModel.symbolic()
Q2 = XModel.point_counts(2)
Q3 = XModel.point_counts(3)


def gp(*values):
    return GenPartition.integers(values)


def w_class_from_chains(lam: GenPartition) -> MotivicClass:
    """Independent route to [w_lambda]: the signed sum over <<-chains."""
    acc = MotivicClass.zero()
    for chain in pt.ll_chains(lam):
        sign = -1 if (len(chain) - 1) % 2 else 1
        term = MotivicClass.sym_product(pt.multiplicity_profile(chain[-1]))
        acc = acc + sign * term
    return acc


def star_profile(s: int) -> GenPartition:
    """s points with one shared free label: the lambda of zinv_{*^s}."""
    return GenPartition.of([pt.Part.gen("star")] * s)


class TestWClasses:
    def test_pairs(self):
        assert G.w_class(gp(1, 1)) == S(2) - S(1)
        assert G.w_class(gp(1, 2)) == S(1) * S(1) - S(1)
        assert G.w_class(gp(1, 1, 1)) == S(3) - S(1) * S(1)

    def test_depends_only_on_profile(self):
        assert G.w_class(gp(3, 5)) == G.w_class(gp(1, 2))
        assert G.w_class(gp(4, 4)) == G.w_class(gp(1, 1))

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_chain_formula(self, values):
        lam = gp(*values)
        assert G.w_class(lam) == w_class_from_chains(lam)

    def test_wbar_formalization(self):
        lam = GenPartition.of([pt.Part.gen("a"), pt.Part.gen("a"), pt.Part.gen("b")])
        assert G.wbar_class(lam) == S(2) * S(1)

    def test_wbar_not_a_pure_power(self):
        # wbar_{1,1,2,2,3} on the affine line: L^5 + L^2 - L.  Verified by
        # exhaustive counting over F_2 (34 points) and F_3 (249 points); see
        # the oracle cross-check in test_oracle.py.
        c = G.wbar_class(gp(1, 1, 2, 2, 3))
        got = A1.specialize(c)
        assert got == LaurentL.of({5: 1, 2: 1, 1: -1})
        assert got.substitute(2) == 34
        assert got.substitute(3) == 249

    def test_wbar_22_counts(self):
        c = G.wbar_class(gp(2, 2))
        assert P1.specialize(c, Specialization(COUNT, 2)) != 0
        q = 5
        got = A1.specialize(c, Specialization(COUNT, q))
        assert got == q * q  # (q^2 - q) + q

    def test_sym_decomposes_into_w(self):
        # S_3 = w_{1,1,1} + w_{1,2} + w_{3}
        total = G.w_class(gp(1, 1, 1)) + G.w_class(gp(1, 2)) + G.w_class(gp(3))
        assert total == S(3)


class TestZetaSeries:
    def test_affine(self):
        z = G.zeta_series(A1, 5)
        assert list(z.coeffs) == [LaurentL.term(1, n) for n in range(6)]

    def test_projline(self):
        z = G.zeta_series(P1, 3)
        assert z.coeffs[3] == LaurentL.of({k: 1 for k in range(4)})

    def test_point(self):
        z = G.zeta_series(XModel.point(), 4)
        assert all(c == 1 for c in z.coeffs)

    def test_zs0(self):
        z = G.zeta_s_series(SYM, 0, 6)
        assert z == TruncSeries.one(6)

    def test_zs1(self):
        # Z^[1] = t X / (1 - t)
        n = 8
        z = G.zeta_s_series(SYM, 1, n)
        assert list(z.coeffs) == [MotivicClass.zero()] + [S(1)] * n

    def test_zs2_display(self):
        # Z^[2] = t^2/(1-t^2) Sym^2 X + t^3/((1-t^2)(1-t)) X^2 - t^2/((1-t^2)(1-t)) X
        n = 9
        z = G.zeta_s_series(SYM, 2, n)
        one = TruncSeries.one(n)
        inv_1t = TruncSeries.from_coeffs([1, -1] + [0] * (n - 1)).inverse()
        inv_1t2 = TruncSeries.from_coeffs([1, 0, -1] + [0] * (n - 2)).inverse()
        expect = (
            inv_1t2.scale(S(2)).shift_up(2)
            + (inv_1t2 * inv_1t).scale(S(1) * S(1)).shift_up(3)
            - (inv_1t2 * inv_1t).scale(S(1)).shift_up(2)
        )
        assert z == expect

    def test_inversion_identity_prop_homog(self):
        # 1/Z_X(t) = sum over Q of (-1)^||mu|| w_mu t^|mu|, symbolic, N = 8
        n = 8
        inv = G.zeta_series(SYM, n).inverse()
        direct = G.zinv_lambda(SYM, GenPartition.empty(), n)
        assert inv == direct.regraded(GRADING_MULT)


class TestKSeries:
    def test_base_squarefree_counts(self):
        # K_(<2) for A^1 with q: (1 - q t^2)/(1 - q t): 1, q, q^2-q, q^3-q^2, ...
        q = 2
        k = G.k_lt_a_nu(Q2, (), 2, 6)
        expect = [1, q] + [q**j - q ** (j - 1) for j in range(2, 7)]
        assert list(k.coeffs) == expect

    def test_base_identity_all_a(self):
        for a in (2, 3, 4):
            z = G.zeta_series(SYM, 10)
            k = G.k_lt_a_nu(SYM, (), a, 10)
            assert k * z.compose_power(a) == z

    def test_distinct_nu_closed_form(self):
        # K_(<2)nu = Z(t)/Z(t^2) * w_nu / (1+t)^|nu| for distinct nu
        n = 8
        for nu in [(2,), (3,), (2, 3), (2, 5)]:
            k = G.k_lt_a_nu(SYM, nu, 2, n)
            z = G.zeta_series(SYM, n)
            one_plus = TruncSeries.from_coeffs([1, 1] + [0] * (n - 1))
            denom = TruncSeries.one(n)
            for _ in nu:
                denom = denom * one_plus
            expect = z * z.compose_power(2).inverse() * denom.inverse()
            expect = expect.scale(G.w_of(SYM, (1,) * len(nu)))
            assert k == expect

    def test_repeated_nu_profile(self):
        # nu = [2,2] exercises the recursion into a strictly smaller profile
        k = G.k_lt_a_nu(Q2, (2, 2), 2, 5)
        assert k.coeffs[0] == G.w_of(Q2, (2,))

    def test_rejects_small_parts(self):
        with pytest.raises(InputError):
            G.k_lt_a_nu(SYM, (1, 2), 2, 5)
        with pytest.raises(InputError):
            G.k_lt_a_nu(SYM, (2, 3), 3, 5)


class TestKbar:
    def test_single_part_closed_form(self):
        # Kbar_{1*(a)} = t^-a Z(t)(1 - 1/Z(t^a))
        n = 8
        for a in (2, 3, 4):
            got = G.kbar_nu(SYM, (a,), n)
            z = G.zeta_series(SYM, n + a)
            expect = (z - z * z.compose_power(a).inverse()).shift_down(a)
            assert got == expect

    def test_counts_22(self):
        # coefficients q^(j+2) on the affine line
        for q, X in ((2, Q2), (3, Q3)):
            got = G.kbar_nu(X, (2, 2), 6)
            assert list(got.coeffs) == [q ** (j + 2) for j in range(7)]

    def test_stratify_by_smallest_part(self):
        # K_(<a) + t^a Kbar_{1*(a)} = Z
        n = 9
        for a in (2, 3):
            k = G.k_lt_a_nu(SYM, (), a, n)
            kbar = G.kbar_nu(SYM, (a,), n)
            assert k + kbar.shift_up(a).truncate(n) == G.zeta_series(SYM, n)

    def test_closed_form_matches_recursion(self):
        for a, b, r in [(2, 2, 0), (2, 2, 1), (2, 3, 1), (3, 3, 1)]:
            nu = tuple(sorted((a,) + (b,) * r))
            got = G.kbar_nu(SYM, nu, 6)
            closed = G.kbar_abr_closed(SYM, a, b, r, 6)
            assert got == closed

    def test_affine_closed_form(self):
        # Kbar_{1*(a b^r)}(A^d) = M^(r+1)/(1 - M t)
        for d in (1, 2):
            X = XModel.affine_space(d)
            M = LaurentL.term(1, d)
            for a, b, r in [(2, 2, 0), (2, 2, 1), (2, 3, 1)]:
                got = G.kbar_abr_closed(X, a, b, r, 5)
                expect = [M ** (r + 1 + j) for j in range(6)]
                assert list(got.coeffs) == expect

    def test_rejects_unit_parts(self):
        with pytest.raises(InputError):
            G.kbar_nu(SYM, (1, 2), 5)


class TestSymS:
    def test_s0_is_distinct_series(self):
        n = 8
        assert G.sym_s_series(SYM, 0, n) == G.k_lt_a_nu(SYM, (), 2, n)

    def test_counts_s1(self):
        # t^2 coefficient q, t^3 coefficient q^2 on the affine line
        for q, X in ((2, Q2), (3, Q3)):
            got = G.sym_s_series(X, 1, 4)
            assert got.coeffs[2] == q
            assert got.coeffs[3] == q * q

    def test_stratification(self):
        n = 8
        total = G.sym_s_series(SYM, 0, n)
        for s in range(1, n + 1):
            total = total + G.sym_s_series(SYM, s, n)
        assert total == G.zeta_series(SYM, n)


class TestZinv:
    def test_ordered_closed_form(self):
        # lambda = s ordered labels: zinv = w t^s Z^-1/(1-t)^s
        n = 7
        for s in (1, 2, 3):
            lam = GenPartition.of([pt.Part.gen(f"g{i}") for i in range(s)])
            got = G.zinv_lambda(SYM, lam, n)
            zinv0 = G.zinv_lambda(SYM, GenPartition.empty(), n)
            inv_1t = TruncSeries.from_coeffs(
                [1, -1] + [0] * (n - 1), G.GRADING_POINTS
            ).inverse()
            expect = (zinv0 * inv_1t.scale(1)).scale(G.w_of(SYM, (1,) * s))
            for _ in range(s - 1):
                expect = expect * inv_1t
            expect = expect.shift_up(s)
            assert got == expect

    def test_sum_over_s_is_one(self):
        n = 6
        total = G.zinv_lambda(SYM, GenPartition.empty(), n)
        for s in range(1, n + 1):
            total = total + G.zinv_lambda(SYM, star_profile(s), n)
        assert total == TruncSeries.one(n, G.GRADING_POINTS)


class TestDensities:
    def test_smooth_projline_q2(self):
        got = G.hyper_density(P1, 1, 0, 8, Specialization(COUNT, 2))
        assert got.value == Fraction(3, 8)

    def test_one_singular_projline_q2(self):
        got = G.hyper_density(P1, 1, 1, 8, Specialization(COUNT, 2))
        q = Fraction(2)
        # (q+1) q^-2 / (1-q^-2) * (1-q^-1)(1-q^-2) = (q^2-1)/q^3
        assert got.value == (q * q - 1) / q**3

    def test_smooth_affine_motivic(self):
        got = G.hyper_density(A1, 1, 0, 8)
        # 1/zeta_{A^1}(2) = 1 - L^-1
        assert got.value == MotivicClass.from_laurent(LaurentL.of({0: 1, -1: -1}))

    def test_ordered_s1_equals_unordered(self):
        a = G.hyper_density(A1, 1, 1, 8)
        b = G.hyper_ordered_density(A1, 1, 1, 8)
        assert a.value == b.value

    def test_ordered_s0_is_smooth(self):
        a = G.hyper_density(P1, 1, 0, 6, Specialization(COUNT, 3))
        b = G.hyper_ordered_density(P1, 1, 0, 6, Specialization(COUNT, 3))
        assert a.value == b.value

    def test_ordered_s2_uses_w12(self):
        q = Fraction(2)
        got = G.hyper_ordered_density(P1, 1, 2, 8, Specialization(COUNT, 2))
        npts = q + 1
        w12 = npts * npts - npts
        factor = (q**-2) / (1 - q**-2)
        smooth = (1 - 1 / q) * (1 - q**-2)
        assert got.value == w12 * factor**2 * smooth

    def test_multi_point(self):
        # m=2 reduces to the singular-point case; C(3,1)=3; C(4,2)=6
        a = G.multi_point_density(P1, 1, 2, 6, Specialization(COUNT, 2))
        b = G.hyper_density(P1, 1, 0, 6, Specialization(COUNT, 2))
        assert a.value == b.value
        got = G.multi_point_density(P1, 1, 3, 6, Specialization(COUNT, 2))
        q = Fraction(2)
        assert got.value == (1 - q**-2) * (1 - q**-3)
        A2 = XModel.affine_space(2)
        got2 = G.multi_point_density(A2, 2, 3, 6)
        assert got.expression == "1/zeta_X(3)"
        assert got2.expression == "1/zeta_X(6)"

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            G.hyper_density(P1, 2, 0, 6)


class TestLimits:
    def test_distinct_points_limit(self):
        # Y = K_(<2): limit 1/zeta_X(2d)
        order = G.default_limit_order(8)
        rep = G.stable_limit(G.k_lt_a_nu(A1, (), 2, order), A1, "Sym", 8)
        # 1/zeta_{A^1}(2) = 1 - L^-1
        assert rep.value == MotivicClass.from_laurent(LaurentL.of({0: 1, -1: -1}))

    def test_multiple_point_complement(self):
        # Y = Kbar_{1*(a)} on counts: E(M^-1) = q^a (1 - 1/zeta(a d)), so the
        # probability of an a-fold point is 1 - zeta(ad)^-1 after the M^-a shift
        q = Fraction(2)
        for a in (2, 3):
            order = G.default_limit_order(8)
            rep = G.stable_limit(G.kbar_nu(Q2, (a,), order), Q2, "Sym", 8, Specialization(COUNT, 2))
            prob = rep.value / q**a
            zeta_ad_inv = 1 - q ** (1 - a) / q  # 1 - q^-a ... via zeta_{A^1}(a) = 1/(1-q^(1-a))
            assert prob == 1 - (1 - q ** (1 - a))

    def test_sym_s_limit_matches_formula(self):
        # Y = sym_s_series: limit zeta^[s](2d)/zeta(2d), numeric q
        q = Fraction(3)
        order = G.default_limit_order(10)
        rep = G.stable_limit(G.sym_s_series(Q3, 1, order), Q3, "Sym", 10, Specialization(COUNT, 3))
        # zeta^[1]_{A^1}(2)/zeta_{A^1}(2) = q q^-2/(1-q^-2) (1-q^-1)
        expect = q * q**-2 / (1 - q**-2) * (1 - 1 / q)
        assert abs(rep.value - expect) < Fraction(1, q.numerator**8)

    def test_m_power_normalization_affine(self):
        order = G.default_limit_order(6)
        rep = G.stable_limit(G.k_lt_a_nu(A1, (), 2, order), A1, "M", 6)
        sym_rep = G.stable_limit(G.k_lt_a_nu(A1, (), 2, order), A1, "Sym", 6)
        assert rep.value == sym_rep.value  # S-infinity of affine space is 1
        assert rep.normalization == "by M^j"

    @pytest.mark.parametrize("X", [P1, XModel.proj_space(2)], ids=["P1", "P2"])
    def test_m_power_normalization_hodge_is_motivic_at_uv(self, X):
        cutoff = 5
        order = G.default_limit_order(cutoff)
        values = {}
        for target in (MOTIVIC, HODGE):
            spec = Specialization(target)
            Y = G.k_lt_a_nu(X, (), 2, order, spec)
            values[target] = G.stable_limit(Y, X, "M", cutoff, spec).value
        assert values[MOTIVIC] != 1
        assert values[HODGE] == X.specialize(values[MOTIVIC], Specialization(HODGE))

    def test_m_power_normalization_needs_a_stable_class(self):
        X = XModel.hodge_deligne("1+uv")
        Y = G.k_lt_a_nu(X, (), 2, G.default_limit_order(5))
        with pytest.raises(InputError, match="not available for the hd model"):
            G.stable_limit(Y, X, "M", 5)

    def test_divergence_detected(self):
        bad = G.zeta_series(A1, G.default_limit_order(6))  # E = 1/... wait: E = Z/Z = 1 converges
        # build a genuinely divergent Y: coefficients L^(2n) on a dim-1 model
        coeffs = [LaurentL.term(1, 2 * n) for n in range(20)]
        with pytest.raises(DivergenceError):
            G.stable_limit(TruncSeries.from_coeffs(coeffs), A1, "Sym", 6)

    def test_distinct_nu_limit_numeric(self):
        # numeric limits are truncated sums; agreement with the closed value
        # is up to the reported tail
        q = Fraction(2)
        rep = G.distinct_nu_limit(Q2, (2,), 8, Specialization(COUNT, 2))
        # (w_2/zeta(2)) q^-2 / (1+q^-1), w_2 = q, zeta_{A^1}(2) = 1/(1-q^-1)
        expect = q * (1 - 1 / q) * q**-2 / (1 + 1 / q)
        assert abs(rep.value - expect) <= 4 * rep.tail_indicator
        assert abs(rep.value - expect) < Fraction(1, 2**8)

    def test_distinct_nu_limit_motivic_cross(self):
        rep = G.distinct_nu_limit(A1, (2,), 8)
        order = G.default_limit_order(8 + 2)
        sl = G.stable_limit(G.k_lt_a_nu(A1, (2,), 2, order), A1, "Sym", 10)
        shifted = sl.value * MotivicClass.lefschetz(-2)
        trimmed, _ = shifted.truncated(dim_grade(1), -8)
        assert trimmed == rep.value

    def test_distinct_nu_empty(self):
        rep = G.distinct_nu_limit(A1, (), 6)
        assert rep.value == MotivicClass.from_laurent(LaurentL.of({0: 1, -1: -1}))

    def test_cutoff_monotone(self):
        order = G.default_limit_order(10)
        y = G.kbar_nu(A1, (2,), order)
        small = G.stable_limit(y, A1, "Sym", 5)
        large = G.stable_limit(y, A1, "Sym", 9)
        trimmed, _ = large.value.truncated(dim_grade(1), -5)
        assert trimmed == small.value

    def test_rejects_repeated_nu(self):
        with pytest.raises(InputError):
            G.distinct_nu_limit(A1, (2, 2), 6)


class TestJksIdentity:
    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3)])
    def test_lemma_small(self, a, b):
        # wbar_{1^(j-a) a b^r} = wbar_{1^j b^r} - wbar_{x^j y^r} + wbar_{x^(j-a) (ax) y^r}
        x = pt.Part.gen("x")
        y = pt.Part.gen("y")
        ax = pt.Part.gen("x", a)
        for r in (0, 1):
            for j in range(a, 6):
                lhs = G.wbar_class(GenPartition.integers((1,) * (j - a) + (a,) + (b,) * r))
                t1 = G.wbar_class(GenPartition.integers((1,) * j + (b,) * r))
                t2 = G.wbar_class(GenPartition.of([x] * j + [y] * r))
                t3 = G.wbar_class(GenPartition.of([x] * (j - a) + [ax] + [y] * r))
                assert lhs == t1 - t2 + t3


# the targets in which a series can be evaluated at t = L^-m
EVALUABLE_SPECS = [Specialization(MOTIVIC), Specialization(COUNT, 3), Specialization(HODGE)]


class TestSecondRoutes:
    """Second routes to the series that hyper_density and distinct_nu_limit
    evaluate; the production calls compute one route each."""

    @pytest.mark.parametrize("spec", [Specialization(COUNT, 2)] + EVALUABLE_SPECS, ids=str)
    @pytest.mark.parametrize("X", [A1, P1, XModel.proj_space(2)], ids=XModel.label)
    def test_zinv_star_bridge(self, X, spec):
        # Z^[s](t) Z(t)^-1 = zinv_{*^s}(t), the point-graded series read by multiplicity
        n = 7
        Zinv = G.zeta_series(X, n, spec).inverse()
        for s in (0, 1, 2):
            zinv = G.zinv_lambda(X, star_profile(s), n, spec)
            assert G.zeta_s_series(X, s, n, spec) * Zinv == zinv.regraded(GRADING_MULT)

    @pytest.mark.parametrize("spec", EVALUABLE_SPECS, ids=str)
    @pytest.mark.parametrize("X", [A1, P1], ids=XModel.label)
    def test_distinct_nu_closed_form_matches_recursion(self, X, spec):
        # w_nu Z(t^2)^-1 (1+t)^-|nu| = K_(<2)nu(t) Z(t)^-1 for distinct nu
        order = 16
        Z = G.zeta_series(X, order, spec)
        one_plus_t = TruncSeries.from_coeffs([1, 1] + [0] * (order - 1))
        for nu in [(2,), (3,), (2, 3)]:
            denom = TruncSeries.one(order)
            for _ in nu:
                denom = denom * one_plus_t
            closed = (Z.compose_power(2).inverse() * denom.inverse()).scale(
                G.w_of(X, (1,) * len(nu), spec)
            )
            assert closed == G.k_lt_a_nu(X, nu, 2, order, spec) * Z.inverse()
