"""Independent brute-force ground truth.

Everything here is exhaustive and exact: finite fields built from explicit
irreducible moduli, polynomial enumeration with squarefree/multiplicity
analysis, binary-form divisors on the projective line, and integer sieves.
Nothing is shared with the generating-function engine, so agreement between
the two is meaningful evidence.

Enumerations refuse to start when the state space exceeds the guard
(default 10^7 states) rather than truncating silently.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import GuardExceeded, InputError, ModelDataError

DEFAULT_GUARD = 10**7
MAX_GUARD = 10**8


def _check_guard(states: int, guard: int) -> None:
    if guard > MAX_GUARD:
        raise InputError(f"guards cannot be raised past {MAX_GUARD}")
    if states > guard:
        raise GuardExceeded(f"enumeration needs {states} states, guard is {guard}")


# ---------------------------------------------------------------------------
# finite fields F_{p^k}, elements encoded as integers 0..q-1 (base-p digits)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _fp_poly_mul(a: tuple, b: tuple, p: int) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _fp_poly_mod(a: tuple, m: tuple, p: int) -> tuple:
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - dm
        c = a[-1]
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return tuple(a)


def _fp_irreducible(m: tuple, p: int) -> bool:
    # trial division by all monic polynomials of degree <= deg(m)/2
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = tuple(tail) + (1,)
            if _fp_poly_mod(m, g, p) == (0,):
                return False
    return True


@lru_cache(maxsize=None)
def _modulus(p: int, k: int) -> tuple:
    """Deterministic irreducible modulus of degree k over F_p: the monic
    polynomial whose coefficient vector encodes the smallest integer."""
    if k == 1:
        return (0, 1)
    for code in range(p**k):
        tail = tuple((code // p**i) % p for i in range(k))
        m = tail + (1,)
        if _fp_irreducible(m, p):
            return m
    raise InputError(f"no irreducible modulus found for p={p}, k={k}")


class FiniteField:
    """F_q with q = p^k <= 64, with dense add/mul/inv tables.

    Elements are integers 0..q-1; the base-p digits are the coefficients of
    the residue polynomial, so 0..p-1 are the prime-field scalars.
    """

    def __init__(self, q: int):
        p, k = _factor_prime_power(q)
        if q > 64:
            raise InputError(f"finite fields only built for q <= 64, got {q}")
        self.q = q
        self.p = p
        self.k = k
        self.modulus = _modulus(p, k)
        self._mul = [[0] * q for _ in range(q)]
        self._add = [[0] * q for _ in range(q)]
        for a in range(q):
            pa = self._decode(a)
            for b in range(a, q):
                pb = self._decode(b)
                s = tuple((x + y) % p for x, y in itertools.zip_longest(pa, pb, fillvalue=0))
                m = _fp_poly_mod(_fp_poly_mul(pa, pb, p), self.modulus, p)
                self._add[a][b] = self._add[b][a] = self._encode(s)
                self._mul[a][b] = self._mul[b][a] = self._encode(m)
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break

    def _decode(self, a: int) -> tuple:
        out = []
        while True:
            out.append(a % self.p)
            a //= self.p
            if a == 0:
                break
        return tuple(out)

    def _encode(self, poly: tuple) -> int:
        return sum(c * self.p**i for i, c in enumerate(poly))

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        if a == 0:
            return 0
        pa = self._decode(a)
        return self._encode(tuple((-x) % self.p for x in pa))

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self.neg(b)]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self._inv[a]

    def pth_root(self, a: int) -> int:
        # Frobenius is x -> x^p; its inverse is x -> x^(p^(k-1))
        out = a
        for _ in range(self.k - 1):
            r = out
            for _ in range(self.p - 1):
                r = self.mul(r, out)
            out = r
        return out


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise InputError(f"{q} is not a prime power")
            return p, k
    raise InputError(f"{q} is not a prime power")


@lru_cache(maxsize=None)
def field(q: int) -> FiniteField:
    return FiniteField(q)


# ---------------------------------------------------------------------------
# polynomials over F_q: tuples of field codes, lowest degree first, no
# trailing zeros ((0,) is the zero polynomial)


def poly_trim(a: tuple) -> tuple:
    a = tuple(a)
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def poly_deg(a: tuple) -> int:
    return len(a) - 1 if a != (0,) else -1


def poly_mul(F: FiniteField, a: tuple, b: tuple) -> tuple:
    if a == (0,) or b == (0,):
        return (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(tuple(out))


def poly_divmod(F: FiniteField, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    if b == (0,):
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lb = poly_deg(b), b[-1]
    inv_lb = F.inv(lb)
    q = [0] * max(len(a) - db, 1)
    while poly_deg(poly_trim(tuple(a))) >= db:
        a = list(poly_trim(tuple(a)))
        da = len(a) - 1
        c = F.mul(a[-1], inv_lb)
        q[da - db] = c
        for i in range(db + 1):
            a[da - db + i] = F.sub(a[da - db + i], F.mul(c, b[i]))
    return poly_trim(tuple(q)), poly_trim(tuple(a))


def poly_gcd(F: FiniteField, a: tuple, b: tuple) -> tuple:
    a, b = poly_trim(a), poly_trim(b)
    while b != (0,):
        _, r = poly_divmod(F, a, b)
        a, b = b, r
    if a != (0,) and a[-1] != 1:
        inv = F.inv(a[-1])
        a = tuple(F.mul(c, inv) for c in a)
    return a


def poly_deriv(F: FiniteField, a: tuple) -> tuple:
    if poly_deg(a) < 1:
        return (0,)
    out = []
    for i in range(1, len(a)):
        scalar = i % F.p
        c = 0
        for _ in range(scalar):
            c = F.add(c, a[i])
        out.append(c)
    return poly_trim(tuple(out))


def poly_pth_root(F: FiniteField, a: tuple) -> tuple:
    # valid when a' = 0, i.e. only exponents divisible by p occur
    out = []
    for i in range(0, len(a), F.p):
        out.append(F.pth_root(a[i]))
    return poly_trim(tuple(out))


def squarefree_decomposition(F: FiniteField, f: tuple) -> dict[int, tuple]:
    """f = prod g_i^i with the g_i squarefree, monic and pairwise coprime.

    Characteristic-p aware: multiplicities divisible by p are pulled out via
    p-th roots (detected by a vanishing derivative).
    """
    f = poly_trim(f)
    if poly_deg(f) < 1:
        return {}
    if f[-1] != 1:
        inv = F.inv(f[-1])
        f = tuple(F.mul(c, inv) for c in f)
    df = poly_deriv(F, f)
    if df == (0,):
        inner = squarefree_decomposition(F, poly_pth_root(F, f))
        return {m * F.p: g for m, g in inner.items()}
    out: dict[int, tuple] = {}
    c = poly_gcd(F, f, df)
    w, _ = poly_divmod(F, f, c)
    i = 1
    while poly_deg(w) > 0:
        y = poly_gcd(F, w, c)
        z, _ = poly_divmod(F, w, y)
        if poly_deg(z) > 0:
            out[i] = z
        w = y
        c, _ = poly_divmod(F, c, y)
        i += 1
    if poly_deg(c) > 0:
        inner = squarefree_decomposition(F, poly_pth_root(F, c))
        for m, g in inner.items():
            key = m * F.p
            out[key] = poly_mul(F, out[key], g) if key in out else g
    return out


@lru_cache(maxsize=None)
def monic_irreducibles(q: int, max_deg: int) -> tuple[tuple, ...]:
    """All monic irreducible polynomials over F_q of degree 1..max_deg,
    built by sieving monics against lower-degree irreducibles."""
    F = field(q)
    irr: list[tuple] = []
    for d in range(1, max_deg + 1):
        for tail in itertools.product(range(q), repeat=d):
            f = tuple(tail) + (1,)
            composite = False
            for g in irr:
                if poly_deg(g) > d // 2:
                    break
                if poly_divmod(F, f, g)[1] == (0,):
                    composite = True
                    break
            if not composite:
                irr.append(f)
        irr.sort(key=lambda g: (poly_deg(g), g))
    return tuple(irr)


def factor_monic(F: FiniteField, f: tuple) -> dict[tuple, int]:
    """Full factorization into monic irreducibles by trial division."""
    f = poly_trim(f)
    if poly_deg(f) < 1:
        return {}
    out: dict[tuple, int] = {}
    for g in monic_irreducibles(F.q, poly_deg(f)):
        if poly_deg(g) > poly_deg(f):
            break
        while True:
            quo, rem = poly_divmod(F, f, g)
            if rem != (0,):
                break
            out[g] = out.get(g, 0) + 1
            f = quo
        if poly_deg(f) == 0:
            break
    return out


def multiple_point_count(F: FiniteField, f: tuple) -> int:
    """Number of geometric roots of multiplicity >= 2 (an irreducible factor
    of degree e with multiplicity >= 2 contributes e points)."""
    return sum(poly_deg(g) for m, g in squarefree_decomposition(F, f).items() if m >= 2)


def is_squarefree(F: FiniteField, f: tuple) -> bool:
    if poly_deg(f) < 1:
        return True
    df = poly_deriv(F, f)
    if df == (0,):
        return False
    return poly_deg(poly_gcd(F, f, df)) == 0


# ---------------------------------------------------------------------------
# divisors on A^1 and P^1


def monic_polys(q: int, deg: int):
    """All monic polynomials of the given degree (constant 1 for degree 0)."""
    if deg == 0:
        yield (1,)
        return
    for tail in itertools.product(range(q), repeat=deg):
        yield tuple(tail) + (1,)


def divisors(X: str, q: int, deg: int):
    """Effective divisors of the given degree: (monic poly, multiplicity of
    infinity); on the affine line infinity never appears."""
    if X == "A1":
        for f in monic_polys(q, deg):
            yield f, 0
    elif X == "P1":
        for e in range(deg + 1):
            for f in monic_polys(q, deg - e):
                yield f, e
    else:
        raise InputError(f"unknown oracle space {X!r}; use A1 or P1")


def _divisor_count(X: str, q: int, deg: int) -> int:
    if X == "A1":
        return q**deg
    return sum(q**d for d in range(deg + 1))


def count_w_lambda(X: str, q: int, lam, guard: int = DEFAULT_GUARD) -> int:
    """#w_lambda(F_q) on A^1 or P^1 by exhaustive enumeration.

    Picks one effective divisor of degree m_a per distinct value a of lambda
    (m_a the multiplicity of a), each squarefree with pairwise disjoint
    supports; infinity counts as a point of P^1.
    """
    lam = tuple(sorted(lam))
    if q > 16:
        raise InputError("count_w_lambda is built for q <= 16")
    degrees = [len(list(g)) for _, g in itertools.groupby(lam)]
    states = 1
    for m in degrees:
        states *= _divisor_count(X, q, m)
    _check_guard(states, guard)
    F = field(q)
    square_free_divs = []
    for m in degrees:
        good = []
        for f, e in divisors(X, q, m):
            if e <= 1 and is_squarefree(F, f):
                good.append((f, e))
        square_free_divs.append(good)
    count = 0
    for combo in itertools.product(*square_free_divs):
        if sum(e for _, e in combo) > 1:
            continue  # at most one divisor may use infinity, once
        ok = True
        for (f1, _), (f2, _) in itertools.combinations(combo, 2):
            if poly_deg(poly_gcd(F, f1, f2)) > 0:
                ok = False
                break
        if ok:
            count += 1
    return count


def _tally(values, s_max: int) -> list[int]:
    """How many of ``values`` equal s, for each s <= s_max."""
    if s_max < 0:
        raise InputError("s must be >= 0")
    out = [0] * (s_max + 1)
    for s in values:
        if s <= s_max:
            out[s] += 1
    return out


def count_sym_s(q: int, j: int, s: int, guard: int = DEFAULT_GUARD) -> int:
    """Monic degree-j polynomials over F_q with exactly s geometric points of
    multiplicity >= 2."""
    return count_sym_s_table(q, j, s, guard)[s]


def count_sym_s_table(q: int, j: int, s_max: int, guard: int = DEFAULT_GUARD) -> list[int]:
    """count_sym_s for all s <= s_max in one sweep."""
    _check_guard(q**j, guard)
    F = field(q)
    return _tally((multiple_point_count(F, f) for f in monic_polys(q, j)), s_max)


def _form_multiple_points(F: FiniteField, coeffs: tuple, j: int) -> int:
    """Multiple geometric points of the degree-j binary form with the given
    affine coefficient vector (a_0, ..., a_j)."""
    f = poly_trim(coeffs)
    d = poly_deg(f)
    inf_mult = j - d
    s = multiple_point_count(F, f) if d >= 1 else 0
    if inf_mult >= 2:
        s += 1
    return s


def count_hyper_s(q: int, j: int, s: int, guard: int = DEFAULT_GUARD) -> Fraction:
    """Fraction of sections of O(j) on P^1 whose divisor has exactly s
    multiple geometric points.

    All q^(j+1) coefficient vectors form the denominator (matching
    [H^0] = L^(j+1)); only nonzero sections have a divisor.
    """
    return count_hyper_s_table(q, j, s, guard)[s]


def count_hyper_s_table(q: int, j: int, s_max: int, guard: int = DEFAULT_GUARD) -> list[Fraction]:
    """count_hyper_s for all s <= s_max in one sweep."""
    _check_guard(q ** (j + 1), guard)
    F = field(q)
    forms = itertools.product(range(q), repeat=j + 1)
    hits = _tally((_form_multiple_points(F, c, j) for c in forms if any(c)), s_max)
    return [Fraction(h, q ** (j + 1)) for h in hits]


# ---------------------------------------------------------------------------
# integer analogue: "at least nu-power" densities


def _primes_up_to(n: int) -> list[int]:
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


def integer_power_density(a: int, b: int, r: int, bound: int, guard: int = MAX_GUARD) -> Fraction:
    """Exact proportion of n <= bound divisible by c_0^a c_1^b ... c_r^b for
    some integers c_i > 1.

    It suffices to take the c_i prime; colliding primes multiply into higher
    prime powers, which the direct product already accounts for.
    """
    if not (2 <= a <= b) or r < 0:
        raise InputError(f"need 2 <= a <= b and r >= 0, got a={a}, b={b}, r={r}")
    if bound < 1 or bound > 10**8:
        raise InputError("bound must be between 1 and 10^8")
    _check_guard(bound, guard)
    marked = bytearray(bound + 1)
    primes = _primes_up_to(int(round(bound ** (1.0 / a))) + 2)

    def mark_tuples(base: int, remaining: int, min_prime_idx: int) -> None:
        if remaining == 0:
            for m in range(base, bound + 1, base):
                marked[m] = 1
            return
        for idx in range(min_prime_idx, len(primes)):
            nxt = base * primes[idx] ** b
            if nxt > bound:
                break
            mark_tuples(nxt, remaining - 1, idx)

    for p in primes:
        pa = p**a
        if pa > bound:
            break
        mark_tuples(pa, r, 0)
    return Fraction(sum(marked), bound)


def zeta_value(s: int, terms: int = 10**4) -> tuple[Fraction, Fraction]:
    """(truncated sum of n^-s, tail bound)."""
    if s < 2:
        raise InputError("zeta_value needs s >= 2")
    total = Fraction(0)
    for n in range(1, terms + 1):
        total += Fraction(1, n**s)
    tail = Fraction(1, (s - 1) * terms ** (s - 1))
    return total, tail


def power_density_prediction(a: int, b: int, r: int, prime_bound: int = 10**5) -> dict:
    """The zeta-value expression for the at-least-(a b^r)-power density, with
    all zeta arguments taken positive.

    1 - (1/zeta(b)) sum_{i<r} P_i - P_r / zeta(a), where P_i is the truncated
    sum over p_1 <= ... <= p_i of (p_1 ... p_i)^-b.  Returns the value and a
    tail bound; the empirical sieve adjudicates the sign conventions.
    """
    if not (2 <= a <= b) or r < 0:
        raise InputError(f"need 2 <= a <= b and r >= 0, got a={a}, b={b}, r={r}")
    primes = _primes_up_to(prime_bound)

    def multi_prime_sum(i: int) -> Fraction:
        if i == 0:
            return Fraction(1)
        total = Fraction(0)

        def rec(depth: int, start: int, acc: Fraction) -> None:
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

    za, za_tail = zeta_value(a)
    zb, zb_tail = zeta_value(b)
    middle = sum((multi_prime_sum(i) for i in range(r)), Fraction(0))
    value = 1 - middle / zb - multi_prime_sum(r) / za
    tail = Fraction(1, prime_bound ** (b - 1)) * (r + 1) + za_tail + zb_tail
    return {
        "value": value,
        "tail_bound": tail,
        "note": "zeta arguments taken positive; the source display writes zeta(-a), zeta(-b)",
    }


def exp_formula_sym_counts(N_r, n_max: int) -> list[int]:
    """#Sym^n X(F_q) for n <= n_max from exp(sum_r N_r t^r / r).

    The inputs must produce nonnegative integers; anything else means the
    point-count data is inconsistent.
    """
    counts = list(N_r)
    if len(counts) < n_max:
        raise ModelDataError(f"need N_r for r <= {n_max}, got {len(counts)}")
    syms = [Fraction(1)]
    for k in range(1, n_max + 1):
        acc = Fraction(0)
        for r in range(1, k + 1):
            acc += Fraction(counts[r - 1]) * syms[k - r]
        syms.append(acc / k)
    out = []
    for v in syms:
        if v.denominator != 1 or v < 0:
            raise ModelDataError(f"invalid point-count data: Sym count {v} is not a nonnegative integer")
        out.append(int(v))
    return out
