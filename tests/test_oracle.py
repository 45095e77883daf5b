import ast
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from disczeta import genfun as G
from disczeta import oracle as O
from disczeta import partitions as pt
from disczeta.errors import GuardExceeded, InputError, InternalCheckError, ModelDataError
from disczeta.models import COUNT, Specialization, XModel
from disczeta.partitions import GenPartition


SRC = Path(__file__).resolve().parent.parent / "src" / "disczeta"

# every prime power q <= 64
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64)


def _imports(path: Path) -> tuple[set, set]:
    """(modules of the package, top-level names of other modules) that a source file imports."""
    package, other = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            other.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module.partition(".")[0]] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom):
            other.add(node.module.partition(".")[0])
    return package, other


def test_the_oracle_shares_no_code_with_the_engine():
    imports = {path.stem: _imports(path) for path in SRC.glob("*.py")}
    package, other = imports["oracle"]
    assert package == {"errors"}
    assert other <= sys.stdlib_module_names
    assert {name for name, (package, _) in imports.items() if "oracle" in package} == {"cli", "verify"}


class TestFiniteField:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
    def test_field_axioms_exhaustive(self, q):
        F = O.field(q)
        els = range(q)
        for a in els:
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.add(a, F.sub(0, a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a, b in itertools.product(els, repeat=2):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(F.sub(a, b), b) == a
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

    def test_modulus_has_the_smallest_code(self):
        # the moduli that trial division in code order picks
        expect = {
            4: (1, 1, 1),
            8: (1, 1, 0, 1),
            9: (1, 0, 1),
            16: (1, 1, 0, 0, 1),
            25: (2, 0, 1),
            27: (1, 2, 0, 1),
            32: (1, 0, 1, 0, 0, 1),
            49: (1, 0, 1),
            64: (1, 1, 0, 0, 0, 0, 1),
        }
        assert {q: O.field(q).modulus for q in expect} == expect

    def test_not_prime_power(self):
        with pytest.raises(InputError):
            O.field(6)
        with pytest.raises(InputError, match="q <= 64"):  # at once, not after trying 10^9 divisors
            O.field(10**9 + 7)

    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_tables_match_schoolbook_arithmetic(self, q):
        # base-p digit vectors added mod p, and multiplied mod p then reduced by the monic modulus
        F = O.field(q)
        p, m = F.p, F.modulus
        k = len(m) - 1

        def digits(a):
            return [a // p**i % p for i in range(k)]

        def code(v):
            return sum(c * p**i for i, c in enumerate(v))

        def times(a, b):
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(digits(a)):
                for j, y in enumerate(digits(b)):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for top in range(2 * k - 2, k - 1, -1):  # subtract prod[top] x^(top-k) m
                c = prod[top]
                for i, y in enumerate(m):
                    prod[top - k + i] = (prod[top - k + i] - c * y) % p
            return code(prod[:k])

        assert F._add == [[code((x + y) % p for x, y in zip(digits(a), digits(b))) for b in range(q)] for a in range(q)]
        assert F._mul == [[times(a, b) for b in range(q)] for a in range(q)]


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
            for f in _monic_polys(q, deg):
                sfd = O.squarefree_decomposition(F, f)
                fact = _factor_monic(F, f)
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

    def test_irreducibles_missing_gauss_count_raise(self, monkeypatch):
        # a kernel that marks no multiple lets every monic through
        monkeypatch.setattr(O, "_mark_multiples", lambda F, table, g, d, weight: None)
        with pytest.raises(InternalCheckError, match="Gauss"):
            O.monic_irreducibles.__wrapped__(2, 3)

    @pytest.mark.parametrize("q,max_deg", [(2, 8), (3, 5), (4, 4), (9, 3)])
    def test_irreducibles_match_trial_division(self, q, max_deg):
        F = O.field(q)
        expect = []
        for d in range(1, max_deg + 1):
            for f in _monic_polys(q, d):
                if all(O.poly_divmod(F, f, g)[1] != (0,) for g in expect if 2 * O.poly_deg(g) <= d):
                    expect.append(f)
        assert O.monic_irreducibles(q, max_deg) == tuple(expect)

    @pytest.mark.parametrize("q,d", [(2, 7), (3, 4), (4, 3), (5, 3)])
    def test_mark_multiples_marks_each_product_once(self, q, d):
        F = O.field(q)
        for g in O.monic_irreducibles(q, d):
            table = bytearray(q**d)
            O._mark_multiples(F, table, g, d, 3)
            expect = bytearray(q**d)
            for h in _monic_polys(q, d - O.poly_deg(g)):
                expect[_code(O.poly_mul(F, g, h), q)] += 3
            assert table == expect, (q, g)

    @pytest.mark.parametrize("q,max_deg", [(2, 8), (3, 5), (4, 5)])
    def test_sieve_matches_squarefree_decomposition(self, q, max_deg):
        # per polynomial: the multiplication sieve against Yun's gcd route
        F = O.field(q)
        for d in range(max_deg + 1):
            table = O._multiple_point_sieve(q, d)
            for f in _monic_polys(q, d):
                assert table[_code(f, q)] == _multiple_point_count(F, f), (q, f)


def _multiple_point_count(F, f):
    """Number of geometric roots of multiplicity >= 2 (an irreducible factor
    of degree e with multiplicity >= 2 contributes e points)."""
    return sum(O.poly_deg(g) for m, g in O.squarefree_decomposition(F, f).items() if m >= 2)


def _monic_polys(q, deg):
    """All monic polynomials of the given degree (constant 1 for degree 0)."""
    for tail in itertools.product(range(q), repeat=deg):
        yield tuple(tail) + (1,)


def _code(f, q):
    """The base-q code of the tail of the monic f, as the sieves index it."""
    return sum(c * q**i for i, c in enumerate(f[:-1]))


def _factor_monic(F, f):
    """Full factorization into monic irreducibles by trial division."""
    out = {}
    for g in O.monic_irreducibles(F.q, O.poly_deg(f)):
        while O.poly_deg(f) >= O.poly_deg(g):
            quo, rem = O.poly_divmod(F, f, g)
            if rem != (0,):
                break
            out[g] = out.get(g, 0) + 1
            f = quo
    return out


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
                expect = G.w_of(xm, pt.multiplicity_profile(lam), spec)
                assert got == expect, (q, X, lam)

    def test_sixteen_quartics(self):
        # squarefree monic quartics over F_16: q^4 - q^3
        assert O.count_w_lambda("A1", 16, (1, 1, 1, 1)) == 61440

    def test_unknown_space(self):
        with pytest.raises(InputError):
            O.count_w_lambda("P2", 3, (1, 2))

    @pytest.mark.parametrize("q,max_total", [(2, 6), (3, 6), (4, 6), (5, 4)])
    @pytest.mark.parametrize("X", ["A1", "P1"])
    def test_closed_points_match_gcd_route(self, X, q, max_total):
        for total in range(max_total + 1):
            for lam in _partitions_of(total):
                assert O.count_w_lambda(X, q, lam) == _count_w_lambda_by_gcd(X, q, lam), (X, q, lam)

    def test_wbar_12233_oracle(self):
        # closure sum for lambda = 1^2 2^2 3 on the affine line: the paper's
        # displayed L^5 - L^2 + L has a sign typo; enumeration fixes the value
        for q in (2, 3):
            lam = GenPartition.integers((1, 1, 2, 2, 3))
            total = 0
            for mu in pt.merge_closure(lam):
                total += O.count_w_lambda("A1", q, mu.as_integers())
            assert total == q**5 + q**2 - q


def _divisors(X, q, deg):
    """Effective divisors of the given degree: (monic poly, multiplicity of
    infinity); on the affine line infinity never appears."""
    for e in range(deg + 1 if X == "P1" else 1):
        for f in _monic_polys(q, deg - e):
            yield f, e


def _count_w_lambda_by_gcd(X, q, lam):
    """count_w_lambda over polynomials: one squarefree divisor of degree m_a
    per distinct value a of lambda, with pairwise coprime affine parts and
    infinity used at most once."""
    F = O.field(q)
    degrees = [len(list(g)) for _, g in itertools.groupby(sorted(lam))]
    square_free_divs = [
        [(f, e) for f, e in _divisors(X, q, m) if e <= 1 and O.is_squarefree(F, f)] for m in degrees
    ]
    count = 0
    for combo in itertools.product(*square_free_divs):
        if sum(e for _, e in combo) > 1:
            continue
        if all(O.poly_deg(O.poly_gcd(F, f1, f2)) == 0 for (f1, _), (f2, _) in itertools.combinations(combo, 2)):
            count += 1
    return count


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

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_form_enumeration(self, q):
        for j in range(6):
            assert O.count_hyper_s_table(q, j, j) == _hyper_table_by_forms(q, j), (q, j)

    def test_smooth_stabilizes_early(self):
        # exact equality with (1-q^-1)(1-q^-2) from j = 3 on
        q = 2
        expect = Fraction(3, 8)
        for j in (3, 4, 5, 6, 7):
            assert O.count_hyper_s(q, j, 0) == expect


def _form_multiple_points(F, coeffs, j):
    """Multiple geometric points of the degree-j binary form with the given
    affine coefficient vector (a_0, ..., a_j)."""
    f = O.poly_trim(coeffs)
    d = O.poly_deg(f)
    s = _multiple_point_count(F, f) if d >= 1 else 0
    return s + 1 if j - d >= 2 else s


def _hyper_table_by_forms(q, j):
    """count_hyper_s_table(q, j, j) by classifying each of the q^(j+1) forms."""
    F = O.field(q)
    hits = [0] * (j + 1)
    for c in itertools.product(range(q), repeat=j + 1):
        if any(c):
            hits[_form_multiple_points(F, c, j)] += 1
    return [Fraction(h, q ** (j + 1)) for h in hits]


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
        z2, _ = O.zeta_values((2,))[2]
        assert abs(pred["value"] - (1 - 1 / z2)) < Fraction(1, 10**6)

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_zeta_value_is_the_sequential_sum(self, s):
        # around the block boundaries, 16 terms per block; 33 and 49 terms make 3 and 4 blocks
        for terms in (1, 15, 16, 17, 33, 49, 3000, 3001):
            total, tail = O.zeta_values((s,), terms)[s]
            assert total == sum((Fraction(1, n**s) for n in range(1, terms + 1)), Fraction(0)), terms
            assert tail == Fraction(1, (s - 1) * terms ** (s - 1))

    @pytest.mark.parametrize("s", [2, 3])
    def test_zeta_value_matches_the_pairwise_fraction_sum(self, s):
        # the reference: 16-term blocks as reduced Fractions, merged pairwise by Fraction addition
        def block_sums(terms):
            for start in range(1, terms + 1, 16):
                block = range(start, min(start + 16, terms + 1))
                den = math.lcm(*block) ** s
                yield Fraction(sum(den // n**s for n in block), den)

        partials: list[Fraction] = []
        for i, part in enumerate(block_sums(10**4), 1):
            while i % 2 == 0:
                part += partials.pop()
                i //= 2
            partials.append(part)
        assert O.zeta_values((s,))[s] == (sum(partials, Fraction(0)), Fraction(1, (s - 1) * 10 ** (4 * (s - 1))))

    @pytest.mark.parametrize("a,b,r", [(2, 2, 0), (3, 3, 0), (2, 3, 1)])
    def test_density_matches_divisibility(self, a, b, r):
        # n <= bound divisible by c_0^a c_1^b ... c_r^b for some integers c_i > 1
        bound = 10**4
        moduli = {1}
        for power in [a] + [b] * r:
            moduli = {m * c**power for m in moduli for c in range(2, bound + 1) if m * c**power <= bound}
        direct = sum(any(n % m == 0 for m in moduli) for n in range(1, bound + 1))
        assert O.integer_power_density(a, b, r, bound) == Fraction(direct, bound)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_prediction_is_the_sequential_sum(self, r, monkeypatch):
        # at b = 8 the pruning break fires for P_2 at this small prime bound
        # (p_1 > 50); the zeta values, checked above, are stubbed to save time
        a, b, prime_bound = 3, 8, 200
        za, zb = Fraction(6, 5), Fraction(1009, 1000)
        monkeypatch.setattr(O, "zeta_values", lambda exponents: {s: ({a: za, b: zb}[s], Fraction(0)) for s in exponents})
        primes = [p for p in range(2, prime_bound + 1) if all(p % d for d in range(2, p))]

        def multi_prime_sum(i):
            total = Fraction(0)

            def rec(depth, start, acc):
                nonlocal total
                if depth == i:
                    total += acc
                    return
                for idx in range(start, len(primes)):
                    term = acc / primes[idx] ** b
                    if term * len(primes) < Fraction(1, 10**12) and depth + 1 < i:
                        break
                    rec(depth + 1, idx, term)

            rec(0, 0, Fraction(1))
            return total

        middle = sum((multi_prime_sum(i) for i in range(r)), Fraction(0))
        expect = 1 - middle / zb - multi_prime_sum(r) / za
        assert O.power_density_prediction(a, b, r, prime_bound)["value"] == expect

    def test_prediction_vs_sieve_r1(self):
        pred = O.power_density_prediction(2, 2, 1)
        emp = O.integer_power_density(2, 2, 1, 10**6)
        assert abs(pred["value"] - emp) < Fraction(5, 10**3)


def _whole_array_density(a, b, r, bound):
    """integer_power_density with one table byte per integer n <= bound: the reference."""
    marked = bytearray(bound + 1)
    primes = _primes_by_trial_loop(int(round(bound ** (1.0 / a))) + 2)

    def mark_tuples(base, remaining, min_prime_idx):
        if remaining == 0:
            marked[base::base] = b"\x01" * (bound // base)
            return
        for idx in range(min_prime_idx, len(primes)):
            nxt = base * primes[idx] ** b
            if nxt > bound:
                break
            mark_tuples(nxt, remaining - 1, idx)

    for p in primes:
        if p**a > bound:
            break
        mark_tuples(p**a, r, 0)
    return Fraction(marked.count(1), bound)


def _primes_by_trial_loop(n):
    """Primes up to n, every n visited in Python: the reference for _primes_up_to."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return out


# the sieve's window below 512^2, where it is its floor; the bounds straddle window edges
WINDOW = O._sieve_window(1)
WINDOW_BOUNDS = (1, 2, WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 17)


class TestSegmentedSieve:
    def test_bounds_share_one_window(self):
        assert {O._sieve_window(bound) for bound in WINDOW_BOUNDS} == {WINDOW}

    @pytest.mark.parametrize("a,b,r", [(2, 2, 0), (3, 3, 0), (2, 3, 1), (2, 2, 2), (3, 4, 1)])
    @pytest.mark.parametrize("bound", WINDOW_BOUNDS)
    def test_matches_the_whole_array_sieve(self, a, b, r, bound):
        assert O.integer_power_density(a, b, r, bound) == _whole_array_density(a, b, r, bound)

    def test_counts_a_bucketed_hit_at_the_bound(self):
        # 191^2 is past the window, so its second multiple, the bound, comes from a bucket
        bound = 2 * 191**2
        assert 191**2 > O._sieve_window(bound)
        assert O.integer_power_density(2, 2, 0, bound) == _whole_array_density(2, 2, 0, bound)

    @pytest.mark.parametrize("a,b,r", [(2, 2, 0), (2, 2, 1)])
    def test_matches_the_whole_array_sieve_past_the_floor_window(self, a, b, r):
        bound = 10**6 + 1
        assert O._sieve_window(bound) > WINDOW
        assert O.integer_power_density(a, b, r, bound) == _whole_array_density(a, b, r, bound)

    @pytest.mark.parametrize("bound,limit", [(10**6, 256 * 1024), (10**7, 1024 * 1024)])
    def test_memory_grows_with_the_square_root_of_the_bound(self, bound, limit):
        # the whole-array sieve peaks at 1470 KiB and 14665 KiB here
        tracemalloc.start()
        try:
            O.integer_power_density(2, 2, 0, bound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit

    def test_primes_match_the_trial_loop(self):
        for n in itertools.chain(range(-2, 2001), [10**5]):
            assert O._primes_up_to(n) == _primes_by_trial_loop(n), n


class TestZetaValues:
    @pytest.mark.parametrize("terms", [0, -3])
    def test_refuses_fewer_than_one_term(self, terms):
        with pytest.raises(InputError):
            O.zeta_values((2,), terms)
        with pytest.raises(InputError):
            O.zeta_values((2, 3), terms)

    def test_refuses_s_below_two(self):
        with pytest.raises(InputError):
            O.zeta_values((3, 1))

    @pytest.mark.parametrize("terms", [1, 16, 17, 3001])
    def test_one_tree_gives_each_sequential_sum(self, terms):
        got = O.zeta_values((2, 3, 5), terms)
        for s in (2, 3, 5):
            total = sum((Fraction(1, n**s) for n in range(1, terms + 1)), Fraction(0))
            assert got[s] == O.zeta_values((s,), terms)[s] == (total, Fraction(1, (s - 1) * terms ** (s - 1)))


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

    def test_rejects_negative_closed_points(self):
        # N_2 - N_1 = -4: integer Sym counts [1, 5, 13], yet no variety has these counts
        with pytest.raises(ModelDataError, match="closed points of degree 2 are negative"):
            O.exp_formula_sym_counts([5, 1], 2)
        assert O.exp_formula_sym_counts([5, 1], 1) == [1, 5]

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
