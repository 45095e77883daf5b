"""Command-line front end.

Verbs: ``series`` (k, kbar, symsing, zeta, zetainv), ``limit`` (stable
limits), ``hyper`` (singular-divisor densities), ``oracle`` (brute force)
and ``verify`` (the acceptance suite).  Output is a human-readable table by
default; ``--json`` and ``--csv`` select machine formats.  Every run echoes
its fully resolved parameter set and is deterministic given its flags;
``oracle`` refuses, naming them, the flags its ``--op`` does not read.

Exit codes: 1 when a ``verify`` criterion fails, 2 for unusable input, 3 for
enumeration-guard violations, 4 for a failed internal cross-check, 141 when
stdout closes before the output is written (as for a writer killed by SIGPIPE).

The CLI reads no environment variable and keeps no state between runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache

from . import genfun as G
from . import oracle as O
from . import verify as V
from .errors import DisczetaError, GuardExceeded, InputError, InternalCheckError
from .models import Specialization, parse_model
from .partitions import GenPartition, int_partition


def _render(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator} = {float(value):.6g}"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _json_value(value):
    if isinstance(value, Fraction):
        return {"fraction": f"{value.numerator}/{value.denominator}", "float": float(value)}
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (int, float, str, list)) or value is None:
        return value
    return str(value)


def _parse_int_partition(text: str) -> tuple[int, ...]:
    gp = GenPartition.parse(text)
    vals = gp.as_integers()
    if vals is None:
        raise InputError(f"expected an integer partition, got {text!r}")
    return int_partition(vals)


def _emit(args, command: str, params: dict, result: dict, rows: list[tuple] | None = None) -> None:
    """Print params + result as text, JSON or CSV.  ``rows`` feeds the CSV."""
    if getattr(args, "json", False):
        print(json.dumps({"command": command, "params": params, "result": result}, sort_keys=True))
        return
    if getattr(args, "csv", False):
        print("# " + json.dumps(params, sort_keys=True))
        for row in rows or [(k, v) for k, v in result.items()]:
            print(",".join(str(x) for x in row))
        return
    print("params: " + json.dumps(params, sort_keys=True))
    if rows:
        for row in rows:
            print(": ".join(str(x) for x in row))
    else:
        for k, v in result.items():
            print(f"{k}: {v}")


def _series_rows(coeffs: list[str]) -> list[tuple]:
    return [(f"t^{n}", c) for n, c in enumerate(coeffs)]


def _model_params(args, **head) -> tuple:
    """The X-model and specialization of ``--X``/``--spec``, and the params a verb echoes."""
    X = parse_model(args.X)
    spec = Specialization.parse(args.spec) if args.spec else None
    return X, spec, {**head, "X": X.label(), "spec": str(spec or X.natural_spec())}


def _nu(args, params: dict) -> tuple[int, ...]:
    nu = _parse_int_partition(args.nu) if args.nu else ()
    params["nu"] = ",".join(map(str, nu)) or "-"
    return nu


def _config_series(args, kind: str, params: dict) -> tuple:
    """The ``k``, ``kbar`` or ``symsing`` routes, echoing their flags into params:
    the series Y, its E = Y/Z_X, the arguments both take between X and the order,
    and the zeta expression that ``limit`` reports for E(M^-1)."""
    if kind == "k":
        nu = _nu(args, params)
        params["a"] = args.a
        return G.k_lt_a_nu, G.k_over_zeta, (nu, args.a), f"E(M^-1) with E = K_(<{args.a}){nu}/Z_X"
    if kind == "kbar":
        if not args.nu:
            raise InputError("kbar needs --nu with all parts >= 2")
        nu = _nu(args, params)
        return G.kbar_nu, G.kbar_over_zeta, (nu,), f"E(M^-1) with E = Kbar_(1*{nu})/Z_X"
    params["s"] = args.s
    return G.sym_s_series, G.sym_s_over_zeta, (args.s or 0,), f"zeta^[{args.s or 0}]_X(2d)/zeta_X(2d)"


def cmd_series(args) -> int:
    X, spec, params = _model_params(args, kind=args.kind, trunc=args.trunc)
    n = args.trunc
    if args.kind == "zeta" and args.s is not None:
        params["s"] = args.s
        series = G.zeta_s_series(X, args.s, n, spec)
    elif args.kind == "zeta":
        series = G.zeta_series(X, n, spec)
    elif args.kind == "zetainv":
        lam = GenPartition.parse(args.lam) if args.lam else GenPartition.empty()
        params["lambda"] = str(lam)
        series = G.zinv_series(X, lam, n, spec, args.guard)
    else:
        if args.kind == "symsing" and args.s is None:
            raise InputError("symsing needs --s")
        route, _, head, _ = _config_series(args, args.kind, params)
        series = route(X, *head, n, spec)
    result = series.to_json()
    _emit(args, "series", params, result, _series_rows(result["coeffs"]))
    return 0


def cmd_limit(args) -> int:
    cutoff = args.cutoff
    X, spec, params = _model_params(args, of=args.of, cutoff=cutoff, normalization=args.normalization)
    if args.of == "distinctnu":
        report = G.distinct_nu_limit(X, _nu(args, params), cutoff, spec)
    else:
        _, over_zeta, head, expr = _config_series(args, args.of, params)
        E = over_zeta(X, *head, G.default_limit_order(cutoff), spec)
        report = G.stable_limit(E, X, args.normalization, cutoff, spec, expr)
    result = {
        "value": _json_value(report.value),
        "codim_cutoff": report.codim_cutoff,
        "tail_indicator": _json_value(report.tail_indicator),
        "normalization": report.normalization,
        "zeta_expression": report.zeta_expression,
    }
    rows = [("value", _render(report.value)), ("tail_indicator", _render(report.tail_indicator)),
            ("normalization", report.normalization), ("zeta_expression", report.zeta_expression)]
    _emit(args, "limit", params, result, rows)
    return 0


def cmd_hyper(args) -> int:
    X, spec, params = _model_params(args, d=args.d, cutoff=args.cutoff)
    if args.multi is not None:
        if args.ordered or args.s is not None:
            raise InputError("--multi cannot be combined with --ordered or --s")
        params["multi"] = args.multi
        density = G.multi_point_density(X, args.d, args.multi, args.cutoff, spec)
    elif args.ordered:
        params["s"] = args.s or 0
        params["ordered"] = True
        density = G.hyper_ordered_density(X, args.d, args.s or 0, args.cutoff, spec)
    else:
        params["s"] = args.s or 0
        density = G.hyper_density(X, args.d, args.s or 0, args.cutoff, spec)
    result = {
        "value": _json_value(density.value),
        "expression": density.expression,
        "codim_cutoff": density.codim_cutoff,
        "tail_indicator": _json_value(density.tail_indicator),
    }
    rows = [("value", _render(density.value)), ("expression", density.expression),
            ("tail_indicator", _render(density.tail_indicator))]
    _emit(args, "hyper", params, result, rows)
    return 0


def _sweep_range(text: str) -> range:
    """The degrees j of ``--sweep-j lo:hi``, both ends included."""
    try:
        lo, hi = map(int, text.split(":"))
        if lo <= hi:
            return range(lo, hi + 1)
    except ValueError:
        pass
    raise InputError(f"--sweep-j takes lo:hi with integers lo <= hi, got {text!r}")


# the flags each oracle op reads, with their defaults; an op refuses any other flag it is given
_ORACLE_FLAGS = {
    "wlambda": {"oracle_X": "A1", "q": 2, "lam": "", "guard": O.DEFAULT_GUARD},
    "syms": {"q": 2, "j": None, "s": 0, "sweep_j": None, "guard": O.DEFAULT_GUARD},
    "intdensity": {"a": 2, "b": 2, "r": 0, "bound": 10**6, "guard": O.DEFAULT_GUARD},
    "expformula": {"counts": "", "n": 8},
}
_ORACLE_FLAGS["hyper"] = _ORACLE_FLAGS["syms"]


def _oracle_flags(args) -> None:
    """Refuse, naming them, the flags that ``args.op`` does not read; fill in the defaults of the rest."""
    reads, given = _ORACLE_FLAGS[args.op], vars(args)
    every = dict.fromkeys(dest for flags in _ORACLE_FLAGS.values() for dest in flags)
    unread = [d for d in every if d not in reads and given[d] is not None]
    if unread:
        names = ", ".join("--" + {"oracle_X": "X", "lam": "lambda"}.get(d, d).replace("_", "-") for d in unread)
        raise InputError(f"oracle --op {args.op} does not read {names}")
    given.update((dest, default) for dest, default in reads.items() if given[dest] is None)


def cmd_oracle(args) -> int:
    _oracle_flags(args)
    guard = args.guard
    start = time.monotonic()
    sweep = None  # the {j: value} of a --sweep-j run, printed one row per j
    if args.op == "wlambda":
        lam = _parse_int_partition(args.lam)
        params = {"op": "wlambda", "X": args.oracle_X, "q": args.q, "lambda": ",".join(map(str, lam)) or "-"}
        result = {"exact_count": O.count_w_lambda(args.oracle_X, args.q, lam, guard)}
    elif args.op in ("syms", "hyper"):
        if args.j is None and not args.sweep_j:
            raise InputError(f"oracle --op {args.op} needs --j or --sweep-j")
        if args.j is not None and args.sweep_j:
            raise InputError("--j cannot be combined with --sweep-j")
        if args.op == "syms":
            count, key, sweep_key = O.count_sym_s, "exact_count", "counts"
        else:
            count, key, sweep_key = O.count_hyper_s, "fraction", "fractions"
        params = {"op": args.op, "q": args.q, "s": args.s}
        if args.sweep_j:
            params["sweep_j"], js = args.sweep_j, _sweep_range(args.sweep_j)
        else:
            params["j"], js = args.j, [args.j]
        # the largest j first: the guard refuses a sweep before any j is counted
        values = {j: count(args.q, j, args.s, guard) for j in reversed(js)}
        sweep = {j: values[j] for j in js} if args.sweep_j else None
        result = {sweep_key: sweep} if sweep else {key: values[args.j]}
    elif args.op == "intdensity":
        params = {"op": "intdensity", "a": args.a, "b": args.b, "r": args.r, "bound": args.bound}
        # the prediction's exact denominator has thousands of digits: it is
        # reported as a float, and its guard runs before the sieve
        pred = O.power_density_prediction(args.a, args.b, args.r, guard=guard)
        density = O.integer_power_density(args.a, args.b, args.r, args.bound, max(guard, args.bound))
        result = {
            "fraction": density,
            "prediction": float(pred["value"]),
            "prediction_tail_bound": float(pred["tail_bound"]),
            "deviation": float(abs(density - pred["value"])),
            "note": pred["note"],
        }
    else:  # expformula
        counts = [int(x) for x in args.counts.split(",") if x.strip()]
        params = {"op": "expformula", "counts": counts, "n": args.n}
        result = {"sym_counts": O.exp_formula_sym_counts(counts, args.n)}
    result["elapsed_s"] = round(time.monotonic() - start, 3)

    # a fraction prints as in hyper and limit
    rows = [(k, _render(v) if isinstance(v, Fraction) else v) for k, v in (sweep or result).items()]
    if sweep:
        rows.insert(0, ("j", sweep_key[:-1]))
    _emit(args, "oracle", params, _json_value(result), rows)
    return 0


def cmd_verify(args) -> int:
    results = V.run_suite(args.suite)
    failures = [r for r in results if not r["ok"]]
    if args.json:
        print(json.dumps({"command": "verify", "params": {"suite": args.suite}, "result": results}, sort_keys=True))
    else:
        print("params: " + json.dumps({"suite": args.suite}))
        for r in results:
            print(f"{'PASS' if r['ok'] else 'FAIL'} {r['name']} ({r['elapsed_s']}s): {r['detail']}")
        print(f"{len(results) - len(failures)}/{len(results)} criteria passed")
    return 0 if not failures else 1


@lru_cache(maxsize=None)  # built once per process: main reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disczeta",
        description="Classes of discriminants in the Grothendieck ring: "
        "configuration-space strata and singular-divisor densities as motivic zeta values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--X", default="symbolic", help="X-model shorthand: A^d, P1, Pn, pt, counts:q=.., euler:c, hd:poly, symbolic[:d]")
        p.add_argument("--spec", default=None, help="specialization target: motivic-L, count:q=.., euler, hodge-deligne")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--csv", action="store_true", help="emit CSV")

    p_series = sub.add_parser("series", help="compute a truncated generating series")
    p_series.add_argument("kind", choices=["k", "kbar", "symsing", "zeta", "zetainv"])
    p_series.add_argument("--nu", default=None, help="integer partition, e.g. 2,2 or 2^2")
    p_series.add_argument("--a", type=int, default=2, help="multiplicity bound for k (default 2)")
    p_series.add_argument("--s", type=int, default=None, help="number of points (zeta -> Z^[s], symsing)")
    p_series.add_argument("--lambda", dest="lam", default=None, help="generalized partition for zetainv")
    p_series.add_argument("--trunc", type=int, default=12, help="truncation order (default 12)")
    p_series.add_argument("--guard", type=int, default=G.ZINV_GUARD, help="zetainv guard on the symbolic model: sum_{k<=N-|lambda|} p(k), the monomials of its output")
    add_common(p_series)
    p_series.set_defaults(func=cmd_series)

    p_limit = sub.add_parser("limit", help="stable limit of a configuration series")
    p_limit.add_argument("--of", choices=["k", "kbar", "symsing", "distinctnu"], default="k")
    p_limit.add_argument("--nu", default=None)
    p_limit.add_argument("--a", type=int, default=2)
    p_limit.add_argument("--s", type=int, default=None)
    p_limit.add_argument("--normalization", choices=["Sym", "M"], default="Sym")
    p_limit.add_argument("--cutoff", type=int, default=10, help="codimension cutoff (default 10)")
    add_common(p_limit)
    p_limit.set_defaults(func=cmd_limit)

    p_hyper = sub.add_parser("hyper", help="limiting densities of singular divisors")
    p_hyper.add_argument("--s", type=int, default=None, help="number of singular points (default 0)")
    p_hyper.add_argument("--d", type=int, default=1, help="dimension of X")
    p_hyper.add_argument("--ordered", action="store_true", help="s ordered singular points")
    p_hyper.add_argument("--multi", type=int, default=None, help="no m-multiple-point density")
    p_hyper.add_argument("--cutoff", type=int, default=10)
    add_common(p_hyper)
    p_hyper.set_defaults(func=cmd_hyper)

    p_oracle = sub.add_parser("oracle", help="exhaustive finite-field and integer brute force")
    p_oracle.add_argument("--op", choices=["wlambda", "syms", "hyper", "intdensity", "expformula"], required=True)
    # no defaults here: an op fills in those of the flags it reads (_ORACLE_FLAGS)
    p_oracle.add_argument("--X", dest="oracle_X", choices=["A1", "P1"])
    for flag in ("--q", "--j", "--s", "--a", "--b", "--r", "--bound", "--n"):
        p_oracle.add_argument(flag, type=int)
    p_oracle.add_argument("--lambda", dest="lam")
    p_oracle.add_argument("--sweep-j", help="inclusive range lo:hi for CSV/JSON sweeps")
    p_oracle.add_argument("--counts", help="comma-separated N_r for expformula")
    p_oracle.add_argument("--guard", type=int, help=f"state-space guard (cannot exceed {O.MAX_GUARD})")
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.add_argument("--csv", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--suite", choices=list(V.SUITES), default="all")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader is gone: the flush at exit writes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 4
    except (DisczetaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# A CLI process keeps its modules until it exits: spare every collection the work of rescanning them.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
