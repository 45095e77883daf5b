"""Independent brute-force ground truth.

Everything here is exhaustive and exact: finite fields (tables from this
module's ``poly_mul`` and ``poly_divmod`` over the prime field), polynomial
enumeration, configurations of closed points on A^1 and P^1, and integer
sieves.  Nothing is shared with the generating-function engine (this module
imports only ``errors``; only ``cli`` and ``verify`` import it), so agreement
between the two is meaningful evidence.

One multiplication kernel, ``_mark_multiples``, adds a weight at the code of
g*h for every monic h of a degree; each step changes one coefficient of h,
so only deg g + 1 coefficients of the product.  ``monic_irreducibles`` is a
sieve of Eratosthenes on it, and so is the Sym^n_s and hypersurface
classification: every monic irreducible g adds deg g at each g^2 h, which
gives every monic of degree d its number of multiple points in one table of
q^d bytes, once per (q, d).  The configurations w_lambda are tuples of
pairwise-disjoint sets of closed points: the monic irreducibles, and
infinity on P^1.  The gcd routes (``squarefree_decomposition``,
``is_squarefree``) stay as the reference the tests hold the sieves to.

Enumerations refuse to start when the state space exceeds the guard
(default 10^7 states) rather than truncating silently.  The integer
sieve holds O(sqrt(bound)) bytes, and bound <= 10^8 caps its time.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import GuardExceeded, InputError, InternalCheckError, ModelDataError

DEFAULT_GUARD = 10**7
MAX_GUARD = 10**8


def _check_guard(states: int, guard: int, unit: str = "states") -> None:
    if guard > MAX_GUARD:
        raise InputError(f"guards cannot be raised past {MAX_GUARD}")
    if states > guard:
        raise GuardExceeded(f"enumeration needs {states} {unit}, guard is {guard}")


# ---------------------------------------------------------------------------
# finite fields F_{p^k}, elements encoded as integers 0..q-1 (base-p digits)


@lru_cache(maxsize=None)
def _modulus(p: int, k: int) -> tuple:
    """Deterministic irreducible modulus of degree k over F_p: the monic
    polynomial whose coefficient vector encodes the smallest integer."""
    if k == 1:
        return (0, 1)
    return min((g for g in monic_irreducibles(p, k) if len(g) == k + 1), key=lambda g: g[::-1])


class FiniteField:
    """F_q with q = p^k <= 64, with dense add/mul/inv tables.

    Elements are integers 0..q-1; the base-p digits are the coefficients of
    the residue polynomial, so 0..p-1 are the prime-field scalars.  Addition is
    digitwise mod p; F_p multiplies as a * b % p, and F_{p^k} by ``poly_mul`` and
    ``poly_divmod`` over ``field(p)`` modulo the irreducible ``_modulus(p, k)``.
    """

    def __init__(self, q: int):
        if q > 64:  # before factoring, which tries every divisor up to q
            raise InputError(f"finite fields only built for q <= 64, got {q}")
        p, k = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        self.modulus = _modulus(p, k)
        digits = [self._decode(a) for a in range(q)]
        self._add = [[self._encode((x + y) % p for x, y in zip(u, v)) for v in digits] for u in digits]
        if k == 1:
            self._mul = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            Fp, polys = field(p), [poly_trim(u) for u in digits]
            self._mul = [[self._encode(poly_divmod(Fp, poly_mul(Fp, x, y), self.modulus)[1]) for y in polys]
                         for x in polys]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]
        neg = [row.index(0) for row in self._add]
        self._sub = [[self._add[a][neg[b]] for b in range(q)] for a in range(q)]

    def _decode(self, a: int) -> tuple:
        return tuple((a // self.p**i) % self.p for i in range(self.k))

    def _encode(self, poly) -> int:
        return sum(c * self.p**i for i, c in enumerate(poly))

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._sub[a][b]

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
    p = next((d for d in range(2, q + 1) if q % d == 0), 0)  # the least divisor > 1 is prime
    for k in range(1, q.bit_length()):
        if p**k == q:
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
    add, mul = F._add, F._mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j, y in enumerate(b, i):
                out[j] = add[out[j]][row[y]]
    return poly_trim(out)


def poly_divmod(F: FiniteField, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    if b == (0,):
        raise ZeroDivisionError("polynomial division by zero")
    sub, mul = F._sub, F._mul
    a = list(a)
    db = poly_deg(b)
    inv_lb = F.inv(b[-1])
    q = [0] * max(len(a) - db, 1)
    for da in range(len(a) - 1, db - 1, -1):  # clear a[da], top down, in place
        if a[da]:
            c = q[da - db] = mul[a[da]][inv_lb]
            row = mul[c]
            for i, y in enumerate(b, da - db):
                a[i] = sub[a[i]][row[y]]
    return poly_trim(q), poly_trim(a[:db] or [0])


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
    # i * a_i is the product with i mod p, a prime-field scalar coded as itself
    return poly_trim([F.mul(i % F.p, a[i]) for i in range(1, len(a))])


def poly_pth_root(F: FiniteField, a: tuple) -> tuple:
    # valid when a' = 0, i.e. only exponents divisible by p occur
    return poly_trim([F.pth_root(c) for c in a[:: F.p]])


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


def _ruler(p: int, n: int) -> bytes:
    """The digit that changes at each step of the p-ary Gray code on n digits.

    Step t changes digit v, the number of times p divides t, by +1 mod p; the
    p^n - 1 steps visit every digit vector once.
    """
    steps = b""
    for v in range(n):
        steps = (steps + bytes([v])) * (p - 1) + steps
    return steps


def _mark_multiples(F: FiniteField, table: bytearray, g: tuple, d: int, weight: int) -> None:
    """Add ``weight`` at the code of g*h for every monic h of degree d - deg g.

    A monic of degree d has the base-q number of its tail as code.  h starts
    at x^m, m = d - deg g, and its k*m digits over F_p run in Gray-code
    order: each step adds beta*x^j to h (beta in the F_p-basis of F_q, j < m),
    so the product gains beta*x^j*g and only deg g + 1 of its coefficients
    change, with their share of the code.
    """
    q = F.q
    m = d - poly_deg(g)
    place = [q**i for i in range(d)]
    c = [0] * m + list(g[:-1])  # the tail of x^m * g
    code = sum(x * y for x, y in zip(c, place))
    table[code] += weight
    # per F_p-digit of h: each coefficient i that beta*x^j*g changes, as (i, the map c_i -> c_i + y, q^i)
    moves = [
        [(i, F._add[y], place[i]) for i, y in enumerate((F._mul[F.p**l][y] for y in g), j) if y]
        for j in range(m)
        for l in range(F.k)
    ]
    for digit in _ruler(F.p, F.k * m):
        for i, new, step in moves[digit]:
            x = c[i]
            c[i] = y = new[x]
            code += (y - x) * step
        table[code] += weight


@lru_cache(maxsize=None)
def monic_irreducibles(q: int, max_deg: int) -> tuple[tuple, ...]:
    """All monic irreducible polynomials over F_q of degree 1..max_deg, by a
    sieve of Eratosthenes: in degree d every irreducible g with deg g <= d/2
    marks its multiples g*h, and the unmarked monics are irreducible.

    Each degree is checked complete against Gauss's count in its un-inverted
    form, sum over e | d of e * #(irreducibles of degree e) = q^d, which fixes
    the count of every degree given the lower ones.
    """
    F = field(q)
    irr: list[tuple] = []
    for d in range(1, max_deg + 1):
        table = bytearray(q**d)
        for g in irr:
            if poly_deg(g) > d // 2:
                break
            _mark_multiples(F, table, g, d, 1)
        irr += sorted(tuple((c // q**i) % q for i in range(d)) + (1,) for c, hit in enumerate(table) if not hit)
        points = sum(poly_deg(g) for g in irr if d % poly_deg(g) == 0)
        if points != q**d:
            raise InternalCheckError(f"irreducibles over F_{q} up to degree {d} miss Gauss's count q^{d}")
    return tuple(irr)


def is_squarefree(F: FiniteField, f: tuple) -> bool:
    if poly_deg(f) < 1:
        return True
    df = poly_deriv(F, f)
    if df == (0,):
        return False
    return poly_deg(poly_gcd(F, f, df)) == 0


# ---------------------------------------------------------------------------
# configurations of closed points on A^1 and P^1


def _divisor_count(X: str, q: int, deg: int) -> int:
    if X == "A1":
        return q**deg
    return sum(q**d for d in range(deg + 1))


def count_w_lambda(X: str, q: int, lam, guard: int = DEFAULT_GUARD) -> int:
    """#w_lambda(F_q) on A^1 or P^1 by exhaustive enumeration.

    Picks one reduced divisor of degree m_a per distinct value a of lambda
    (m_a the multiplicity of a), with pairwise disjoint supports.  A reduced
    divisor is a bitmask over the closed points in ascending degree: the
    monic irreducibles of degree <= max m_a, and infinity on P^1.  The guard
    counts all effective divisors, as an enumeration of polynomials would.
    """
    if q > 16:
        raise InputError("count_w_lambda is built for q <= 16")
    degrees = sorted(len(list(g)) for _, g in itertools.groupby(sorted(lam)))
    _check_guard(math.prod(_divisor_count(X, q, m) for m in degrees), guard)
    if X not in ("A1", "P1"):
        raise InputError(f"unknown oracle space {X!r}; use A1 or P1")
    irr = monic_irreducibles(q, max(degrees, default=0))
    points = [1] * (X == "P1") + [poly_deg(g) for g in irr]
    # a point of degree above the second-largest m_a fits in one divisor of
    # the tuple only, so it needs no bit
    shared = degrees[-2] if len(degrees) > 1 else 0
    bits = [1 << i if e <= shared else 0 for i, e in enumerate(points)]
    masks: dict[int, list[int]] = {m: [] for m in degrees}

    def divisors(m: int, room: int, start: int, mask: int) -> None:
        if room == 0:
            masks[m].append(mask)
            return
        for i in range(start, len(points)):
            if points[i] > room:
                break  # every later point is at least as large
            divisors(m, room - points[i], i + 1, mask | bits[i])

    for m in masks:
        divisors(m, m, 0, 0)

    def tuples(i: int, used: int) -> int:
        if i == len(degrees):
            return 1
        return sum(tuples(i + 1, used | mask) for mask in masks[degrees[i]] if not mask & used)

    return tuples(0, 0)


def _multiple_point_sieve(q: int, d: int) -> bytearray:
    """Multiple geometric points of every monic degree-d polynomial over F_q.

    Entry c belongs to the polynomial whose tail (a_0, ..., a_{d-1}) has
    base-q code c.  Every monic irreducible g with 2 deg g <= d adds deg g at
    each g^2 h, h monic: g^2 divides f exactly when g is a multiple factor of
    f, and then h = f / g^2 is unique.  Multiplication only, no gcd.
    """
    F = field(q)
    table = bytearray(q**d)
    for g in monic_irreducibles(q, d // 2):
        _mark_multiples(F, table, poly_mul(F, g, g), d, poly_deg(g))
    return table


@lru_cache(maxsize=None)
def _monic_profile(q: int, d: int) -> tuple[int, ...]:
    """Entry s: how many monic degree-d polynomials over F_q have s multiple
    geometric points."""
    if d < 0:
        raise InputError("the degree j must be >= 0")
    table = _multiple_point_sieve(q, d)
    return tuple(table.count(s) for s in range(d // 2 + 1))


def _up_to(counts, s_max: int) -> list:
    """``counts`` cut or padded with zeros to its entries s = 0..s_max."""
    if s_max < 0:
        raise InputError("s must be >= 0")
    return list(counts[: s_max + 1]) + [0] * (s_max + 1 - len(counts))


def count_sym_s(q: int, j: int, s: int, guard: int = DEFAULT_GUARD) -> int:
    """Monic degree-j polynomials over F_q with exactly s geometric points of
    multiplicity >= 2."""
    return count_sym_s_table(q, j, s, guard)[s]


def count_sym_s_table(q: int, j: int, s_max: int, guard: int = DEFAULT_GUARD) -> list[int]:
    """count_sym_s for all s <= s_max, read from the degree-j monic profile."""
    _check_guard(q**j, guard)
    return _up_to(_monic_profile(q, j), s_max)


def count_hyper_s(q: int, j: int, s: int, guard: int = DEFAULT_GUARD) -> Fraction:
    """Fraction of sections of O(j) on P^1 whose divisor has exactly s
    multiple geometric points.

    All q^(j+1) coefficient vectors form the denominator (matching
    [H^0] = L^(j+1)); only nonzero sections have a divisor.
    """
    return count_hyper_s_table(q, j, s, guard)[s]


def count_hyper_s_table(q: int, j: int, s_max: int, guard: int = DEFAULT_GUARD) -> list[Fraction]:
    """count_hyper_s for all s <= s_max, from the monic profiles of degree <= j.

    A nonzero form whose affine part has degree d is one of q-1 scalar
    multiples of a monic f, and it vanishes to order j-d at infinity, which
    is one more multiple point when j-d >= 2.
    """
    _check_guard(q ** (j + 1), guard)
    if j < 0:
        raise InputError("the degree j must be >= 0")
    hits = [0] * (j + 2)
    for d in range(j + 1):
        at_infinity = 1 if j - d >= 2 else 0
        for s, n in enumerate(_monic_profile(q, d)):
            hits[s + at_infinity] += (q - 1) * n
    return [Fraction(h, q ** (j + 1)) for h in _up_to(hits, s_max)]


# ---------------------------------------------------------------------------
# integer analogue: "at least nu-power" densities


def _primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), sieve))


def _sieve_window(bound: int) -> int:
    return max(2**15, 64 * math.isqrt(bound))


def integer_power_density(a: int, b: int, r: int, bound: int) -> Fraction:
    """Exact proportion of n <= bound divisible by c_0^a c_1^b ... c_r^b for
    some integers c_i > 1.

    It suffices to take the c_i prime; colliding primes multiply into higher
    prime powers, which the direct product already accounts for.  A segmented
    sieve marks their multiples in windows of ``_sieve_window(bound)`` = O(sqrt(bound))
    bytes, a modulus past the window hit by hit from the bucket of its next window.
    """
    if not (2 <= a <= b) or r < 0:
        raise InputError(f"need 2 <= a <= b and r >= 0, got a={a}, b={b}, r={r}")
    if bound < 1 or bound > 10**8:
        raise InputError("bound must be between 1 and 10^8")
    primes = _primes_up_to(int(round(bound ** (1.0 / a))) + 2)
    moduli = set()

    def collect(base: int, remaining: int, min_prime_idx: int) -> None:
        if remaining == 0:
            moduli.add(base)
            return
        for idx in range(min_prime_idx, len(primes)):
            nxt = base * primes[idx] ** b
            if nxt > bound:
                break
            collect(nxt, remaining - 1, idx)

    for p in primes:
        if p**a > bound:
            break
        collect(p**a, r, 0)
    window = _sieve_window(bound)
    # ceil(window / m) marks from an offset j < m reach up to m - 1 bytes past the window
    small = [(m, bytearray(b"\x01") * -(-window // m)) for m in sorted(moduli) if m <= window]
    buckets = [[] for _ in range(-(-bound // window))]
    for m in moduli:
        if m > window:
            buckets[(m - 1) // window].append(m)
    marked = bytearray(window + (small[-1][0] if small else 0))
    hits = 0
    for lo, bucket in zip(range(0, bound, window), buckets):  # marked[i] stands for n = lo + 1 + i
        marked[:window] = bytearray(window)
        for m, ones in small:
            j = m - 1 - lo % m
            marked[j : j + m * len(ones) : m] = ones
        for m in bucket:
            n = lo + m - lo % m
            marked[n - lo - 1] = 1
            if n + m <= bound:
                buckets[(n + m - 1) // window].append(m)
        hits += marked.count(1, 0, min(window, bound - lo))
    return Fraction(hits, bound)


def _pairwise_sum(terms, add=operator.add, zero=Fraction(0)):
    """The exact sum of the terms (Fractions by default), merged pairwise to keep
    the denominators small: like a binary counter, the i-th term merges with the
    last partial once per trailing zero of i."""
    partials: list = []
    for i, part in enumerate(terms, 1):
        while i % 2 == 0:
            part = add(partials.pop(), part)
            i //= 2
        partials.append(part)
    return reduce(add, partials, zero)


def zeta_values(exponents: tuple[int, ...], terms: int = 10**4) -> dict[int, tuple[Fraction, Fraction]]:
    """{s: (truncated sum of n^-s, tail bound)} for each s in exponents.

    Blocks of 16 terms are summed over lcm(block)^s and merged pairwise as unreduced
    pairs (numerators, root) for numerator_s / root^s: roots combine to their lcm
    through one gcd for every s, and each s is reduced once, in the final Fraction.
    """
    if min(exponents) < 2 or terms < 1:
        raise InputError(f"zeta_values needs s >= 2 and terms >= 1, got s in {exponents}, terms={terms}")

    def merge(x, y):  # over lcm(r, r') = r * (r' / g) = r' * (r / g), with g = gcd(r, r')
        g = math.gcd(x[1], y[1])
        up_x, up_y = y[1] // g, x[1] // g
        return tuple(u * up_x**s + v * up_y**s for u, v, s in zip(x[0], y[0], exponents)), x[1] * up_x

    def block_sums():
        for start in range(1, terms + 1, 16):
            block = range(start, min(start + 16, terms + 1))
            root = math.lcm(*block)
            yield tuple(sum((root // n) ** s for n in block) for s in exponents), root

    numerators, root = _pairwise_sum(block_sums(), merge, ((0,) * len(exponents), 1))
    return {s: (Fraction(x, root**s), Fraction(1, (s - 1) * terms ** (s - 1))) for s, x in zip(exponents, numerators)}


def power_density_prediction(a: int, b: int, r: int, prime_bound: int = 10**5, guard: int = DEFAULT_GUARD) -> dict:
    """The zeta-value expression for the at-least-(a b^r)-power density, with
    all zeta arguments taken positive.

    1 - (1/zeta(b)) sum_{i<r} P_i - P_r / zeta(a), where P_i is the truncated
    sum over p_1 <= ... <= p_i of (p_1 ... p_i)^-b.  Returns the value and a
    tail bound; the empirical sieve adjudicates the sign conventions.  P_r
    has C(pi(prime_bound) + r - 1, r) terms before pruning, and the guard
    bounds that count.
    """
    if not (2 <= a <= b) or r < 0:
        raise InputError(f"need 2 <= a <= b and r >= 0, got a={a}, b={b}, r={r}")
    primes = _primes_up_to(prime_bound)
    _check_guard(math.comb(max(len(primes) + r - 1, 0), r), guard, "multi-prime terms")

    def multi_prime_sum(i: int) -> Fraction:
        if i == 0:
            return Fraction(1)

        def rec(depth: int, start: int, acc: Fraction):
            if depth == i:
                yield acc
                return
            for idx in range(start, len(primes)):
                term = acc / primes[idx] ** b
                if term * len(primes) < Fraction(1, 10**12) and depth + 1 < i:
                    break
                yield from rec(depth + 1, idx, term)

        return _pairwise_sum(rec(0, 0, Fraction(1)))

    zetas = zeta_values(tuple({a, b}))
    (za, za_tail), (zb, zb_tail) = zetas[a], zetas[b]
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

    The inputs must produce nonnegative integers and, for d <= n_max, nonnegative
    sum_{e | d} mu(d/e) N_e (d times the closed points of degree d); anything else
    means the point-count data is inconsistent.
    """
    if n_max < 0:
        raise InputError(f"n must be >= 0, got {n_max}")
    counts = list(N_r)
    if len(counts) < n_max:
        raise ModelDataError(f"need N_r for r <= {n_max}, got {len(counts)}")
    exact = [0]  # exact[d]: N_d less exact[e] for each proper divisor e of d
    for d in range(1, n_max + 1):
        exact.append(counts[d - 1] - sum(exact[e] for e in range(1, d) if d % e == 0))
        if exact[d] < 0:
            raise ModelDataError(f"invalid point-count data: the closed points of degree {d} are negative")
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
