"""The acceptance suite: every check the build must pass, by name.

Each check returns a dict {name, ok, detail}; ``run_suite`` collects them.
The CLI ``verify`` subcommand and the tier-1 module ``tests/test_verify.py``
both run these, so there is a single source of truth for what "passing" means.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import genfun as G
from . import models as Mo
from . import oracle as O
from . import partitions as pt
from .models import COUNT, Specialization, XModel
from .motive import GRADING_MULT, LaurentL, MotivicClass, dim_grade
from .partitions import GenPartition

SYM = XModel.symbolic()


def _result(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def check_inversion_identity() -> dict:
    """1/Z_X(t) equals the signed sum over Q of w_mu t^|mu|, symbolic, N=8."""
    n = 8
    inv = G.zeta_series(SYM, n).inverse()
    direct = G.zinv_lambda(SYM, GenPartition.empty(), n).regraded(GRADING_MULT)
    ok = inv == direct
    return _result("inversion-identity", ok, f"coefficientwise at N={n}")


def check_base_identities() -> dict:
    """K_(<a) Z(t^a) = Z(t) and K_(<a) + t^a Kbar_{1*(a)} = Z(t), a in 2..4, N=10."""
    n = 10
    z = G.zeta_series(SYM, n)
    failures = []
    for a in (2, 3, 4):
        k = G.k_lt_a_nu(SYM, (), a, n)
        if k * z.compose_power(a) != z:
            failures.append(f"K_(<{a}) * Z(t^{a}) != Z")
        kbar = G.kbar_nu(SYM, (a,), n)
        if k + kbar.shift_up(a) != z:
            failures.append(f"K_(<{a}) + t^{a} Kbar != Z")
    return _result("base-identities", not failures, "; ".join(failures) or f"a in 2..4 at N={n}")


def check_sym_s_stratification() -> dict:
    """sum_{s<=10} sym_s_series = Z_X(t) exactly at N=10, symbolic."""
    n = 10
    total = G.sym_s_series(SYM, 0, n)
    for s in range(1, n + 1):
        total = total + G.sym_s_series(SYM, s, n)
    ok = total == G.zeta_series(SYM, n)
    return _result("sym-s-stratification", ok, f"s = 0..{n} at N={n}")


def check_oracle_configurations() -> dict:
    """count_w_lambda == specialized w_lambda for sum(lambda) <= 5, and the
    K_(<2)nu coefficients match enumeration for small nu and j."""
    failures = []
    spaces = {"A1": XModel.affine_space(1), "P1": XModel.proj_line()}
    for q in (2, 3):
        spec = Specialization(COUNT, q)
        for name, xm in spaces.items():
            for total in range(6):
                for lam in _partitions_of(total):
                    got = O.count_w_lambda(name, q, lam)
                    expect = G.w_of(xm, pt.multiplicity_profile(lam), spec)
                    if got != expect:
                        failures.append(f"w_{lam} on {name}, q={q}: {got} != {expect}")
    for q in (2, 3):
        spec = Specialization(COUNT, q)
        for name, xm in spaces.items():
            for nu in ((), (2,), (3,), (2, 2)):
                series = G.k_lt_a_nu(xm, nu, 2, 4, spec)
                for j in range(5):
                    lam = tuple(sorted((1,) * j + nu))
                    got = O.count_w_lambda(name, q, lam)
                    if got != series.coeffs[j]:
                        failures.append(
                            f"K_(<2){nu} t^{j} on {name}, q={q}: {series.coeffs[j]} != {got}"
                        )
    detail = "; ".join(failures[:4]) if failures else "q in {2,3}, A1 and P1, sum <= 5; K_(<2)nu j <= 4"
    return _result("oracle-configurations", not failures, detail)


def check_oracle_sym_s() -> dict:
    """count_sym_s == coefficients of sym_s_series for q in {2,3}, j <= 8, s <= 3."""
    failures = []
    for q in (2, 3):
        X = XModel.point_counts(q)
        series = [G.sym_s_series(X, s, 8) for s in range(4)]
        for j in range(9):
            table = O.count_sym_s_table(q, j, 3)
            for s in range(4):
                if series[s].coeffs[j] != table[s]:
                    failures.append(f"q={q}, j={j}, s={s}: {series[s].coeffs[j]} != {table[s]}")
        if series[1].coeffs[2] != q or series[1].coeffs[3] != q * q:
            failures.append(f"q={q}: t^2/t^3 coefficients of s=1 are not q, q^2")
    detail = "; ".join(failures[:4]) if failures else "q in {2,3}, j <= 8, s <= 3, exact"
    return _result("oracle-sym-s", not failures, detail)


def check_hyper_density_p1() -> dict:
    """Smooth fraction on P^1 at q=2 equals 3/8 exactly for 3 <= j <= 12, and
    the s=1 fraction lands within 1e-2 of zeta^[1](2)/zeta(2) by j=12."""
    q = 2
    tables = {j: O.count_hyper_s_table(q, j, 1) for j in range(3, 13)}
    deviations = [(j, t[0]) for j, t in tables.items() if t[0] != Fraction(3, 8)]
    if deviations:
        return _result(
            "hyper-density-p1", False, f"smooth fraction deviates from 3/8 at {deviations[:3]}"
        )
    expect1 = Fraction(q * q - 1, q**3)
    got1 = tables[12][1]
    ok1 = abs(got1 - expect1) < Fraction(1, 100)
    formula = G.hyper_density(XModel.proj_line(), 1, 10, Specialization(COUNT, q)).value
    return _result(
        "hyper-density-p1",
        ok1 and abs(formula - expect1) < Fraction(1, 10**6),
        f"smooth = 3/8 exactly for j in 3..12; s=1 at j=12 is {got1} vs {expect1}",
    )


def check_affine_closed_forms() -> dict:
    """Kbar_{1*(a b^r)}(A^d) = M^(r+1)/(1-Mt) at N=10, and the normalized
    closure probability is 1/L^(dr(b-1))."""
    n = 10
    failures = []
    for d in (1, 2):
        X = XModel.affine_space(d)
        M = LaurentL.term(1, d)
        for a, b, r in ((2, 2, 0), (2, 2, 1), (2, 3, 1), (3, 3, 2)):
            nu = tuple(sorted((a,) + (b,) * r))
            expect = [M ** (r + 1 + j) for j in range(n + 1)]
            for label, series in (
                ("recursion", G.kbar_nu(X, nu, n)),
                ("closed", G.kbar_abr_closed(X, a, b, r, n)),
            ):
                if list(series.coeffs) != expect:
                    failures.append(f"{label} (a,b,r)=({a},{b},{r}), d={d}")
        # normalized wbar_{1^j b^r}/Sym^(j+br) = L^(-dr(b-1)), incl. b=2, r=2
        for b, r in ((2, 1), (3, 1), (2, 2), (3, 2)):
            series = G.kbar_nu(X, (b,) * r, n)
            for j in range(n + 1):
                lhs = series.coeffs[j] * LaurentL.term(1, -d * (j + b * r))
                if lhs != LaurentL.term(1, -d * r * (b - 1)):
                    failures.append(f"normalized closure b={b}, r={r}, d={d}, j={j}")
                    break
    q = 2
    two_double = G.kbar_nu(XModel.point_counts(q), (2, 2), 4, Specialization(COUNT, q))
    for j in range(5):
        if Fraction(two_double.coeffs[j], q ** (j + 4)) != Fraction(1, q**2):
            failures.append("q^-2 for two double roots or worse failed")
            break
    detail = "; ".join(failures[:4]) if failures else "all (a,b,r) and d in {1,2} at N=10"
    return _result("affine-closed-forms", not failures, detail)


def check_jks_identity() -> dict:
    """wbar_{1^(j-a) a b^r} = wbar_{1^j b^r} - wbar_{x^j y^r} + wbar_{x^(j-a)(ax) y^r}
    for a <= b <= 3, r <= 2, j <= 6, exactly in the symbolic engine."""
    x, y = pt.Part.gen("x"), pt.Part.gen("y")
    failures = []
    for a, b in ((2, 2), (2, 3), (3, 3)):
        ax = pt.Part.gen("x", a)
        for r in (0, 1, 2):
            for j in range(a, 7):
                lhs = G.wbar_class(GenPartition.integers((1,) * (j - a) + (a,) + (b,) * r))
                rhs = (
                    G.wbar_class(GenPartition.integers((1,) * j + (b,) * r))
                    - G.wbar_class(GenPartition.of([x] * j + [y] * r))
                    + G.wbar_class(GenPartition.of([x] * (j - a) + [ax] + [y] * r))
                )
                if lhs != rhs:
                    failures.append(f"a={a}, b={b}, r={r}, j={j}")
    detail = "; ".join(failures[:4]) if failures else "a <= b <= 3, r <= 2, j <= 6"
    return _result("jks-class-identity", not failures, detail)


def check_macdonald() -> dict:
    """Euler-characteristic configuration identities for chi in -2..3, N=8."""
    bad = [chi for chi in range(-2, 4) if not Mo.macdonald_check(chi, 8)]
    return _result("macdonald-euler", not bad, f"failing chi: {bad}" if bad else "chi in -2..3, N=8")


def check_specialization_coherence() -> dict:
    """ProjLine, HodgeDeligne(1+uv) and PointCounts(2^r+1) agree on Sym^n for
    n <= 10; stratification and product-with-line checks pass."""
    failures = []
    P1 = XModel.proj_line()
    HD = XModel.hodge_deligne("1+uv")
    C = XModel.point_counts(2, counts=[2**r + 1 for r in range(1, 11)])
    for n in range(11):
        lau = P1.sym(n)
        if lau.substitute(Mo.UV) != HD.sym(n):
            failures.append(f"HD mismatch at n={n}")
        if lau.substitute(2) != C.sym(n):
            failures.append(f"count mismatch at n={n}")
    if not Mo.stratification_check(XModel.affine_space(1), XModel.point(), P1, 10):
        failures.append("P1 = A1 + pt stratification")
    if not Mo.product_with_line_check(C, 8):
        failures.append("product with A^1")
    detail = "; ".join(failures[:4]) if failures else "three encodings, n <= 10"
    return _result("specialization-coherence", not failures, detail)


def check_limit_cross_validation() -> dict:
    """distinct_nu_limit(nu=[2]) matches stable_limit of K_(<2)(2) to codim 8
    on the affine-line L-model."""
    cutoff = 8
    A1 = XModel.affine_space(1)
    rep = G.distinct_nu_limit(A1, (2,), cutoff)
    order = G.default_limit_order(cutoff + 2)
    sl = G.stable_limit(G.k_over_zeta(A1, (2,), 2, order), A1, "Sym", cutoff + 2)
    shifted = sl.value * MotivicClass.lefschetz(-2)
    trimmed, _ = shifted.truncated(dim_grade(1), -cutoff)
    ok = trimmed == rep.value
    return _result("limit-cross-validation", ok, f"retained terms to codim {cutoff}")


def check_integer_analog() -> dict:
    """Sieved at-least-square / at-least-cube densities vs 1 - 1/zeta."""
    bound = 10**6
    tol = Fraction(5, 1000)
    zetas = O.zeta_values((2, 3))
    l2, l3 = (1 - 1 / zetas[s][0] for s in (2, 3))
    d2 = O.integer_power_density(2, 2, 0, bound)
    d3 = O.integer_power_density(3, 3, 0, bound)
    return _result(
        "integer-analog",
        abs(d2 - l2) < tol and abs(d3 - l3) < tol,
        f"square {float(d2):.5f} vs {float(l2):.5f}, cube {float(d3):.5f} vs {float(l3):.5f}",
    )


def _partitions_of(total):
    return (lam for k in range(total + 1) for lam in pt.enumerate_k_parts(k, total) if sum(lam) == total)


CRITERIA = [
    ("inversion-identity", check_inversion_identity, "identities"),
    ("base-identities", check_base_identities, "identities"),
    ("sym-s-stratification", check_sym_s_stratification, "identities"),
    ("oracle-configurations", check_oracle_configurations, "oracle"),
    ("oracle-sym-s", check_oracle_sym_s, "oracle"),
    ("hyper-density-p1", check_hyper_density_p1, "oracle"),
    ("affine-closed-forms", check_affine_closed_forms, "limits"),
    ("jks-class-identity", check_jks_identity, "identities"),
    ("macdonald-euler", check_macdonald, "identities"),
    ("specialization-coherence", check_specialization_coherence, "models"),
    ("limit-cross-validation", check_limit_cross_validation, "limits"),
    ("integer-analog", check_integer_analog, "oracle"),
]

SUITES = ("all", "identities", "oracle", "models", "limits")


def run_suite(suite: str = "all") -> list[dict]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    out = []
    for name, func, group in CRITERIA:
        if suite != "all" and group != suite:
            continue
        start = time.monotonic()
        try:
            res = func()
        except Exception as exc:  # a crash is a failure with the exception as detail
            res = _result(name, False, f"{type(exc).__name__}: {exc}")
        res["elapsed_s"] = round(time.monotonic() - start, 3)
        out.append(res)
    return out
