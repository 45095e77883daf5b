import itertools
from fractions import Fraction

import pytest

from disczeta import genfun as G
from disczeta import oracle as O
from disczeta import partitions as pt
from disczeta.errors import GuardExceeded, InputError, ModelDataError
from disczeta.models import COUNT, Specialization, XModel
from disczeta.partitions import GenPartition


class TestFiniteField:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
    def test_field_axioms_exhaustive(self, q):
        F = O.field(q)
        els = range(q)
        for a in els:
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a, b in itertools.product(els, repeat=2):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
        for a, b, c in itertools.product(range(min(q, 5)), repeat=3):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)

    def test_frobenius_inverse(self):
        for q in (4, 8, 9):
            F = O.field(q)
            for a in range(q):
                r = F.pth_root(a)
                powed = r
                for _ in range(F.p - 1):
                    powed = F.mul(powed, r)
                assert powed == a

    def test_not_prime_power(self):
        with pytest.raises(InputError):
            O.field(6)


class TestPolynomials:
    def test_gcd_and_deriv(self):
        F = O.field(2)
        f = O.poly_mul(F, (0, 1), (0, 1))  # x^2
        assert O.poly_deriv(F, f) == (0,)
        assert not O.is_squarefree(F, f)
        assert O.is_squarefree(F, (0, 1, 1))  # x + x^2 = x(1+x)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_squarefree_decomposition_matches_factorization(self, q):
        F = O.field(q)
        for deg in range(1, 7 if q == 2 else 5):
            for f in O.monic_polys(q, deg):
                sfd = O.squarefree_decomposition(F, f)
                fact = O.factor_monic(F, f)
                # rebuild multiplicity -> product of factors with that multiplicity
                expect: dict[int, tuple] = {}
                for g, m in fact.items():
                    expect[m] = O.poly_mul(F, expect[m], g) if m in expect else g
                assert sfd == expect

    def test_irreducible_counts(self):
        # number of monic irreducibles of degree d over F_q
        irr = O.monic_irreducibles(2, 4)
        by_deg = {}
        for g in irr:
            by_deg[O.poly_deg(g)] = by_deg.get(O.poly_deg(g), 0) + 1
        assert by_deg == {1: 2, 2: 1, 3: 2, 4: 3}


class TestCountWLambda:
    def test_squarefree_quadratics_f2(self):
        assert O.count_w_lambda("A1", 2, (1, 1)) == 2

    def test_single_value_any_multiplicity(self):
        for q in (2, 3, 4):
            for n in (1, 2, 3):
                assert O.count_w_lambda("A1", q, (n,)) == q

    def test_p1_pairs(self):
        assert O.count_w_lambda("P1", 2, (1, 1)) == 4

    def test_empty(self):
        assert O.count_w_lambda("A1", 3, ()) == 1

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            O.count_w_lambda("A1", 16, (1,) * 8, guard=10**3)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("X,model", [("A1", "affine"), ("P1", "projline")])
    def test_matches_w_class(self, q, X, model):
        # the generating-function engine and the brute force must agree
        xm = XModel.affine_space(1) if model == "affine" else XModel.proj_line()
        spec = Specialization(COUNT, q)
        for total in range(0, 5):
            for lam in _partitions_of(total):
                got = O.count_w_lambda(X, q, lam)
                expect = xm.specialize(G.w_class(GenPartition.integers(lam)), spec)
                assert got == expect, (q, X, lam)

    def test_wbar_12233_oracle(self):
        # closure sum for lambda = 1^2 2^2 3 on the affine line: the paper's
        # displayed L^5 - L^2 + L has a sign typo; enumeration fixes the value
        for q in (2, 3):
            lam = GenPartition.integers((1, 1, 2, 2, 3))
            total = 0
            for mu in pt.merge_closure(lam):
                total += O.count_w_lambda("A1", q, mu.as_integers())
            assert total == q**5 + q**2 - q


def _partitions_of(total):
    if total == 0:
        yield ()
        return
    for k in range(1, total + 1):
        for lam in pt.enumerate_k_parts(k, total):
            if sum(lam) == total:
                yield lam


class TestCountSymS:
    def test_squares_f2(self):
        assert O.count_sym_s(2, 2, 1) == 2  # x^2 and (x+1)^2

    def test_cubics_one_multiple_f2(self):
        assert O.count_sym_s(2, 3, 1) == 4

    @pytest.mark.parametrize("q", [2, 3])
    def test_squarefree_classical(self, q):
        for j in (2, 3, 4, 5):
            assert O.count_sym_s(q, j, 0) == q**j - q ** (j - 1)

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_sym_s_series(self, q):
        X = XModel.point_counts(q)
        for j in range(0, 7):
            table = O.count_sym_s_table(q, j, 3)
            for s in range(4):
                series = G.sym_s_series(X, s, j)
                assert series.coeffs[j] == table[s], (q, j, s)

    def test_total_is_all_monics(self):
        q, j = 3, 5
        table = O.count_sym_s_table(q, j, j)
        assert sum(table) == q**j

    def test_negative_s_rejected(self):
        for count in (O.count_sym_s, O.count_hyper_s):
            with pytest.raises(InputError):
                count(2, 3, -1)


class TestCountHyperS:
    def test_smooth_cubics_q2(self):
        assert O.count_hyper_s(2, 3, 0) == Fraction(6, 16)

    def test_quadratics_double_root_q2(self):
        # binary quadratics with a double point: x^2, (x+1)^2, 1 (= inf^2),
        # x^2+1 = (x+1)^2 over F_2 ... counted exhaustively over 8 forms
        got = O.count_hyper_s(2, 2, 1)
        # scalars: q-1 = 1 per divisor; divisors with a double point of
        # degree 2: the q+1 points of P^1 doubled = 3 divisors
        assert got == Fraction(3, 8)

    def test_sum_over_s(self):
        q, j = 2, 5
        table = O.count_hyper_s_table(q, j, j)
        assert sum(table) == Fraction(q ** (j + 1) - 1, q ** (j + 1))

    def test_smooth_stabilizes_early(self):
        # exact equality with (1-q^-1)(1-q^-2) from j = 3 on
        q = 2
        expect = Fraction(3, 8)
        for j in (3, 4, 5, 6, 7):
            assert O.count_hyper_s(q, j, 0) == expect


class TestIntegerDensity:
    def test_squarefree_complement(self):
        got = O.integer_power_density(2, 2, 0, 10**5)
        # 1 - 1/zeta(2) = 1 - 6/pi^2 = 0.39207...
        assert abs(float(got) - 0.392072) < 2e-3

    def test_cubefree_complement(self):
        got = O.integer_power_density(3, 3, 0, 10**5)
        assert abs(float(got) - (1 - 1 / 1.2020569)) < 2e-3

    def test_small_bound_exact(self):
        # n <= 20 divisible by a square > 1: 4,8,9,12,16,18,20
        assert O.integer_power_density(2, 2, 0, 20) == Fraction(7, 20)

    def test_r1_matches_direct(self):
        # at least [2,2]-power: p^2 q^2 | n for primes p <= q
        bound = 3000
        direct = 0
        for n in range(1, bound + 1):
            found = False
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
                for qq in (2, 3, 5, 7, 11, 13, 17, 19, 23):
                    if p <= qq and n % (p * p * qq * qq) == 0:
                        found = True
                        break
                if found:
                    break
            direct += found
        assert O.integer_power_density(2, 2, 1, bound) == Fraction(direct, bound)

    def test_prediction_r0(self):
        pred = O.power_density_prediction(2, 2, 0)
        z2, _ = O.zeta_value(2)
        assert abs(pred["value"] - (1 - 1 / z2)) < Fraction(1, 10**6)

    def test_prediction_vs_sieve_r1(self):
        pred = O.power_density_prediction(2, 2, 1)
        emp = O.integer_power_density(2, 2, 1, 10**6)
        assert abs(pred["value"] - emp) < Fraction(5, 10**3)


class TestExpFormula:
    def test_geometric(self):
        assert O.exp_formula_sym_counts([2**r for r in range(1, 7)], 6) == [2**n for n in range(7)]

    def test_point(self):
        assert O.exp_formula_sym_counts([1] * 5, 5) == [1] * 6

    def test_projline(self):
        got = O.exp_formula_sym_counts([2**r + 1 for r in range(1, 7)], 6)
        assert got == [sum(2**k for k in range(n + 1)) for n in range(7)]

    def test_rejects_bad_counts(self):
        with pytest.raises(ModelDataError):
            O.exp_formula_sym_counts([2, 1], 2)  # Sym^2 = (2*2 + 1)/2 = 5/2

    def test_multiplicative_over_disjoint_union(self):
        # counts of a disjoint union multiply the zeta series
        a = [2**r for r in range(1, 7)]
        b = [1] * 6
        union = [x + y for x, y in zip(a, b)]
        sa = O.exp_formula_sym_counts(a, 6)
        sb = O.exp_formula_sym_counts(b, 6)
        su = O.exp_formula_sym_counts(union, 6)
        for n in range(7):
            assert su[n] == sum(sa[i] * sb[n - i] for i in range(n + 1))
