"""The values that ``limit`` and ``hyper`` print, against routes that share no
evaluation code with them.

* A stable limit from its definition: lim_j Y_j / [Sym^j X] or Y_j / M^j, with
  Y_j the coefficient of the series Y itself (the references in ``chains.py``),
  read at two large j as a Laurent polynomial in L^-1 down to the cutoff; for
  ``distinctnu``, lim_j w_{1^j nu} / [Sym^(j+|nu|) X].  The hodge-deligne value
  of each is the motivic one with L^e -> (uv)^e.
* The densities of smooth and one-singular-point divisors on P^n, from the
  GL_{n+1} closed forms 1/zeta_{P^n}(n+1) = prod_{k=1..n+1} (1 - L^-k) and
  zeta^[1]_{P^n}(n+1)/zeta_{P^n}(n+1) = L^-1 prod_{k=2..n+1} (1 - L^-k),
  asked for without ``--d``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from disczeta import cli
from disczeta import partitions as pt
from disczeta.models import MOTIVIC, Specialization, UVPoly, XModel
from disczeta.motive import LaurentL, MotivicClass

from chains import k_profile_y, kbar_y, sym_s_y

MOTIVIC_L = Specialization(MOTIVIC)


def _run(command: str) -> tuple[int, str]:
    """The exit code and stdout of ``disczeta <command> --json``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main([*command.split(), "--json"])
    return code, out.getvalue()


def _value(command: str):
    """The ``value`` that ``disczeta <command> --json`` prints."""
    code, out = _run(command)
    assert code == 0
    return json.loads(out)["result"]["value"]


def _exponents(c) -> dict[int, int]:
    """A motivic-L value as {exponent of L: coefficient}."""
    return {e: v for (e,), v in MotivicClass.coerce(c).terms}


def _motivic(exps: dict[int, int], cutoff: int) -> str:
    """sum c L^e over the e >= -cutoff, printed as the CLI prints it."""
    return str(MotivicClass.coerce(LaurentL.of({e: c for e, c in exps.items() if e >= -cutoff})))


def _hodge(exps: dict[int, int], cutoff: int) -> str:
    """sum c (uv)^e over the e >= -cutoff, printed as the CLI prints it."""
    return str(UVPoly.of({(e, e): c for e, c in exps.items() if e >= -cutoff}))


def _divided(y: dict[int, int], sym: dict[int, int], cutoff: int) -> dict[int, int]:
    """y / sym, long division in L^-1 down to L^-cutoff; sym is monic in L."""
    top = max(sym)
    assert sym[top] == 1
    rest, quotient = dict(y), {}
    for e in range(max(y, default=top) - top, -cutoff - 1, -1):
        c = rest.pop(e + top, 0)
        if c:
            quotient[e] = c
            for f, v in sym.items():
                rest[e + f] = rest.get(e + f, 0) - c * v
    return quotient


def _y_at(of: str, arg, X: XModel, j: int):
    """Y_j: the coefficient of t^j of K_(<2)nu (w_{1^j nu} for distinct parts nu > 1),
    Kbar_{1*nu} or sum_j [Sym^j_s X] t^j."""
    if of in ("k", "distinctnu"):
        return k_profile_y(X, MOTIVIC_L, pt.multiplicity_profile(arg), 2, j)[j]
    if of == "kbar":
        return kbar_y(X, MOTIVIC_L, arg, j)[j]
    return sym_s_y(X, arg, j, MOTIVIC_L)[j]


# --of and its argument: nu for k, kbar and distinctnu (ascending), s for symsing
LIMITS = [("k", ()), ("k", (2,)), ("kbar", (2,)), ("kbar", (2, 2)), ("symsing", 0), ("symsing", 1),
          ("distinctnu", (2,)), ("distinctnu", (2, 3))]
# each model with the two j at which its Y_j are read
MODELS = [("A^1", (20, 30)), ("P1", (20, 30)), ("P2", (24, 36))]


@pytest.mark.parametrize("cutoff", [3, 6, 8])
@pytest.mark.parametrize("normalization", ["Sym", "M"])
@pytest.mark.parametrize("model, js", MODELS, ids=[m for m, _ in MODELS])
@pytest.mark.parametrize("of, arg", LIMITS, ids=["k", "k-2", "kbar-2", "kbar-2,2", "symsing-0", "symsing-1",
                                                 "distinctnu-2", "distinctnu-2,3"])
def test_limit_is_its_definition_at_two_large_j(of, arg, model, js, normalization, cutoff):
    X = XModel.proj_space(int(model[1])) if model.startswith("P") else XModel.affine_space(1)
    flag = f"--s {arg}" if of == "symsing" else f"--nu {','.join(map(str, arg))}" if arg else ""
    command = f"limit --of {of} {flag} --X {model} --cutoff {cutoff} --normalization {normalization} --spec"
    if of == "distinctnu" and normalization == "M":  # normalized by Sym^(j+|nu|) alone
        assert _run(f"{command} motivic-L") == (2, "")
        return
    shift = sum(arg) if of == "distinctnu" else 0
    ratios = []
    for j in js:
        y = _exponents(_y_at(of, arg, X, j))
        if normalization == "M":
            ratios.append({e - j * X.dim: c for e, c in y.items()})
        else:
            ratios.append(_divided(y, _exponents(X.sym(j + shift, MOTIVIC_L)), cutoff))
    assert [_motivic(r, cutoff) for r in ratios] == [_value(f"{command} motivic-L")] * 2
    assert [_hodge(r, cutoff) for r in ratios] == [_value(f"{command} hodge-deligne")] * 2


def _product(factors: list[int], lead: int = 0) -> dict[int, int]:
    """L^lead prod_k (1 - L^-k) over the given k, as {exponent of L: coefficient}."""
    out = {lead: 1}
    for k in factors:
        grown = dict(out)
        for e, c in out.items():
            grown[e - k] = grown.get(e - k, 0) - c
        out = {e: c for e, c in grown.items() if c}
    return out


@pytest.mark.parametrize("cutoff", [4, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hyper_on_projective_space_is_the_gl_closed_form(n, cutoff):
    closed = {0: _product(range(1, n + 2)), 1: _product(range(2, n + 2), lead=-1)}
    for s, exps in closed.items():
        command = f"hyper --X P{n} --s {s} --cutoff {cutoff} --spec"
        assert _value(f"{command} motivic-L") == _motivic(exps, cutoff), s
        hodge = UVPoly.of({(e, e): c for e, c in exps.items() if e >= -cutoff})  # L -> uv
        assert _value(f"{command} hodge-deligne") == str(hodge), s
    for q in (2, 3):
        smooth = 1
        for k in range(1, n + 2):
            smooth *= 1 - Fraction(1, q**k)
        value = _value(f"hyper --X P{n} --s 0 --cutoff {cutoff} --spec count:q={q}")
        assert Fraction(value["fraction"]) == smooth, q
