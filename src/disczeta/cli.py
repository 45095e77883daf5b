"""Command-line front end.

Verbs: ``series`` (k, kbar, symsing, zeta, zetainv), ``limit`` (stable
limits), ``hyper`` (singular-divisor densities), ``oracle`` (brute force)
and ``verify`` (the acceptance suite).  Output is a human-readable table by
default; ``--json`` and ``--csv`` select machine formats.  Every run echoes
its fully resolved parameter set and is deterministic given its flags.

Exit codes: 2 for unusable input, 3 for enumeration-guard violations, 4 for
a failed internal cross-check.

The only environment variable honored is DISCZETA_CACHE: a directory for
caching oracle enumeration results.  Entries are keyed on the package version
and the parameters; an unreadable entry counts as a miss.
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

from . import __version__
from . import genfun as G
from . import oracle as O
from . import verify as V
from .errors import DisczetaError, GuardExceeded, InputError, InternalCheckError
from .models import Specialization, parse_model
from .motive import TruncSeries
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
    if isinstance(value, (int, float, str)) or value is None:
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


def _series_rows(series: TruncSeries) -> list[tuple]:
    return [(f"t^{n}", str(c)) for n, c in enumerate(series.coeffs)]


def cmd_series(args) -> int:
    X = parse_model(args.X)
    spec = Specialization.parse(args.spec) if args.spec else None
    n = args.trunc
    params = {
        "kind": args.kind,
        "X": X.label(),
        "spec": str(spec or X.natural_spec()),
        "trunc": n,
    }
    if args.kind == "zeta":
        if args.s is not None:
            params["s"] = args.s
            series = G.zeta_s_series(X, args.s, n, spec)
        else:
            series = G.zeta_series(X, n, spec)
    elif args.kind == "zetainv":
        lam = GenPartition.parse(args.lam) if args.lam else GenPartition.empty()
        params["lambda"] = str(lam)
        series = G.zinv_profiles(X, lam, n, spec, args.guard)
    elif args.kind == "k":
        nu = _parse_int_partition(args.nu) if args.nu else ()
        params["nu"] = ",".join(map(str, nu)) or "-"
        params["a"] = args.a
        series = G.k_lt_a_nu(X, nu, args.a, n, spec)
    elif args.kind == "kbar":
        if not args.nu:
            raise InputError("kbar needs --nu with all parts >= 2")
        nu = _parse_int_partition(args.nu)
        params["nu"] = ",".join(map(str, nu))
        series = G.kbar_nu(X, nu, n, spec)
    elif args.kind == "symsing":
        if args.s is None:
            raise InputError("symsing needs --s")
        params["s"] = args.s
        series = G.sym_s_series(X, args.s, n, spec)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown series kind {args.kind}")
    _emit(args, "series", params, series.to_json(), _series_rows(series))
    return 0


def cmd_limit(args) -> int:
    X = parse_model(args.X)
    spec = Specialization.parse(args.spec) if args.spec else None
    cutoff = args.cutoff
    params = {
        "of": args.of,
        "X": X.label(),
        "spec": str(spec or X.natural_spec()),
        "cutoff": cutoff,
        "normalization": args.normalization,
    }
    if args.of == "distinctnu":
        nu = _parse_int_partition(args.nu) if args.nu else ()
        params["nu"] = ",".join(map(str, nu)) or "-"
        report = G.distinct_nu_limit(X, nu, cutoff, spec)
    else:
        order = G.default_limit_order(cutoff)
        if args.of == "k":
            nu = _parse_int_partition(args.nu) if args.nu else ()
            params["nu"] = ",".join(map(str, nu)) or "-"
            params["a"] = args.a
            series = G.k_lt_a_nu(X, nu, args.a, order, spec)
            expr = f"E(M^-1) with E = K_(<{args.a}){nu}/Z_X"
        elif args.of == "kbar":
            if not args.nu:
                raise InputError("kbar needs --nu with all parts >= 2")
            nu = _parse_int_partition(args.nu)
            params["nu"] = ",".join(map(str, nu))
            series = G.kbar_nu(X, nu, order, spec)
            expr = f"E(M^-1) with E = Kbar_(1*{nu})/Z_X"
        elif args.of == "symsing":
            params["s"] = args.s
            series = G.sym_s_series(X, args.s or 0, order, spec)
            expr = f"zeta^[{args.s or 0}]_X(2d)/zeta_X(2d)"
        else:  # pragma: no cover
            raise InputError(f"unknown limit source {args.of}")
        report = G.stable_limit(series, X, args.normalization, cutoff, spec, expr)
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
    X = parse_model(args.X)
    spec = Specialization.parse(args.spec) if args.spec else None
    params = {
        "X": X.label(),
        "d": args.d,
        "spec": str(spec or X.natural_spec()),
        "cutoff": args.cutoff,
    }
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


def _cache_path(params: dict) -> str | None:
    """The cache entry of an oracle call, keyed on the package version and the params."""
    cache_dir = os.environ.get("DISCZETA_CACHE")
    if not cache_dir:
        return None
    import hashlib  # loads OpenSSL: only cached oracle calls pay for it

    os.makedirs(cache_dir, exist_ok=True)
    key_text = json.dumps({"version": __version__, "params": params}, sort_keys=True)
    key = hashlib.sha256(key_text.encode()).hexdigest()[:24]
    return os.path.join(cache_dir, f"oracle-{key}.json")


def _cache_load(path: str) -> dict | None:
    """A cached result; None when the entry is missing, unreadable or not a JSON object."""
    try:
        with open(path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return None
    return result if isinstance(result, dict) else None


def _cache_store(path: str, result: dict) -> None:
    """Write through a temporary file and rename it, so no reader sees half an entry."""
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".oracle-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(result, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _sweep_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi) + 1)


def cmd_oracle(args) -> int:
    guard = args.guard
    start = time.monotonic()
    if args.op == "wlambda":
        lam = _parse_int_partition(args.lam or "")
        params = {"op": "wlambda", "X": args.oracle_X, "q": args.q, "lambda": ",".join(map(str, lam)) or "-"}
        work = lambda: {"exact_count": O.count_w_lambda(args.oracle_X, args.q, lam, guard)}
    elif args.op in ("syms", "hyper") and args.j is None and not args.sweep_j:
        raise InputError(f"oracle --op {args.op} needs --j or --sweep-j")
    elif args.op == "syms":
        params = {"op": "syms", "q": args.q, "s": args.s or 0}
        if args.sweep_j:
            params["sweep_j"] = args.sweep_j
            work = lambda: {
                "counts": {j: O.count_sym_s(args.q, j, args.s or 0, guard) for j in _sweep_range(args.sweep_j)}
            }
        else:
            params["j"] = args.j
            work = lambda: {"exact_count": O.count_sym_s(args.q, args.j, args.s or 0, guard)}
    elif args.op == "hyper":
        params = {"op": "hyper", "q": args.q, "s": args.s or 0}
        if args.sweep_j:
            params["sweep_j"] = args.sweep_j
            work = lambda: {
                "fractions": {
                    j: _json_value(O.count_hyper_s(args.q, j, args.s or 0, guard))
                    for j in _sweep_range(args.sweep_j)
                }
            }
        else:
            params["j"] = args.j
            work = lambda: {"fraction": _json_value(O.count_hyper_s(args.q, args.j, args.s or 0, guard))}
    elif args.op == "intdensity":
        params = {"op": "intdensity", "a": args.a, "b": args.b, "r": args.r, "bound": args.bound}

        def work():
            # the prediction's exact denominator has thousands of digits: it is
            # reported as a float, and its guard runs before the sieve
            pred = O.power_density_prediction(args.a, args.b, args.r, guard=guard)
            density = O.integer_power_density(args.a, args.b, args.r, args.bound, max(guard, args.bound))
            return {
                "fraction": _json_value(density),
                "prediction": float(pred["value"]),
                "prediction_tail_bound": float(pred["tail_bound"]),
                "deviation": float(abs(density - pred["value"])),
                "note": pred["note"],
            }

    elif args.op == "expformula":
        counts = [int(x) for x in (args.counts or "").split(",") if x.strip()]
        params = {"op": "expformula", "counts": counts, "n": args.n}
        work = lambda: {"sym_counts": O.exp_formula_sym_counts(counts, args.n)}
    else:  # pragma: no cover
        raise InputError(f"unknown oracle op {args.op}")

    cache = _cache_path(params)
    result = _cache_load(cache) if cache else None
    if result is None:
        result = work()
        if cache:
            _cache_store(cache, result)
    else:  # JSON object keys are strings; a sweep is keyed by the integer j
        for key in ("counts", "fractions"):
            if key in result:
                result[key] = {int(j): v for j, v in result[key].items()}
    result["elapsed_s"] = round(time.monotonic() - start, 3)

    cell = lambda v: _render(Fraction(v["fraction"])) if isinstance(v, dict) and "fraction" in v else v
    rows = [(k, cell(v)) for k, v in result.items()]  # a fraction prints as in hyper and limit
    for key in ("counts", "fractions"):
        if key in result:
            rows = [("j", key[:-1])] + [(j, cell(v)) for j, v in result[key].items()]
    _emit(args, "oracle", params, result, rows)
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
    p_series.add_argument("--guard", type=int, default=G.ZINV_GUARD, help="multiplicity-profile guard for zetainv")
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
    p_oracle.add_argument("--X", dest="oracle_X", choices=["A1", "P1"], default="A1")
    p_oracle.add_argument("--q", type=int, default=2)
    p_oracle.add_argument("--j", type=int, default=None)
    p_oracle.add_argument("--s", type=int, default=None)
    p_oracle.add_argument("--lambda", dest="lam", default=None)
    p_oracle.add_argument("--sweep-j", default=None, help="inclusive range lo:hi for CSV/JSON sweeps")
    p_oracle.add_argument("--a", type=int, default=2)
    p_oracle.add_argument("--b", type=int, default=2)
    p_oracle.add_argument("--r", type=int, default=0)
    p_oracle.add_argument("--bound", type=int, default=10**6)
    p_oracle.add_argument("--counts", default=None, help="comma-separated N_r for expformula")
    p_oracle.add_argument("--n", type=int, default=8)
    p_oracle.add_argument("--guard", type=int, default=O.DEFAULT_GUARD,
                          help=f"state-space guard (cannot exceed {O.MAX_GUARD})")
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
        return args.func(args)
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
