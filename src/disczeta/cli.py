"""Command-line front end.

Verbs: ``series`` (k, kbar, symsing, zeta, zetainv), ``limit`` (stable
limits), ``hyper`` (singular-divisor densities), ``oracle`` (brute force)
and ``verify`` (the acceptance suite).  Output is a human-readable table by
default; ``--json`` and ``--csv`` select machine formats.  Every run echoes
its fully resolved parameter set and is deterministic given its flags.
Every verb reads the flags of one mode (the ``series`` kind, ``limit --of``,
``hyper --multi`` or not, ``oracle --op``) and refuses, naming them, the
flags of its other modes.

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
    """A text or CSV cell: a non-integral fraction with its float, anything else as ``str``."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator} = {float(value):.6g}"
    return str(value)


def _json_value(value):
    if isinstance(value, Fraction):
        return {"fraction": f"{value.numerator}/{value.denominator}", "float": float(value)}
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (int, float, str, list)) or value is None:
        return value
    return str(value)


def _int_partition(params: dict, key: str) -> tuple[int, ...]:
    """The integer partition that ``params[key]`` spells; the echo becomes its normal form."""
    vals = GenPartition.parse(params[key]).as_integers()
    if vals is None:
        raise InputError(f"expected an integer partition, got {params[key]!r}")
    parts = int_partition(vals)
    params[key] = ",".join(map(str, parts)) or "-"
    return parts


# The flags each mode of a verb reads, with their defaults (None: no default).  A mode refuses the
# flags of its verb's other modes, and echoes each flag it reads, once set, but a guard.
_TRUNC, _LIMIT = {"trunc": 12}, {"normalization": "Sym", "cutoff": 10}
_FLAGS = {
    "series": {
        "k": {"nu": "", "a": 2, **_TRUNC},
        "kbar": {"nu": None, **_TRUNC},
        "symsing": {"s": None, **_TRUNC},
        "zeta": {"s": None, **_TRUNC},
        "zetainv": {"lam": "", "guard": G.ZINV_GUARD, **_TRUNC},
    },
    "limit": {
        "k": {"nu": "", "a": 2, **_LIMIT},
        "kbar": {"nu": None, **_LIMIT},
        "symsing": {"s": 0, **_LIMIT},
        "distinctnu": {"nu": "", **_LIMIT},
    },
    "hyper": {
        "multi": {"d": None, "multi": None, "cutoff": 10},
        "s": {"d": None, "s": 0, "ordered": None, "cutoff": 10},
    },
    "oracle": {
        "wlambda": {"X": "A1", "q": 2, "lam": "", "guard": O.DEFAULT_GUARD},
        "syms": {"q": 2, "j": None, "s": 0, "sweep_j": None, "guard": O.DEFAULT_GUARD},
        "intdensity": {"a": 2, "b": 2, "r": 0, "bound": 10**6, "guard": O.DEFAULT_GUARD},
        "expformula": {"counts": "", "n": 8},
    },
}
_FLAGS["oracle"]["hyper"] = _FLAGS["oracle"]["syms"]
_SELECTOR = {"limit": "--of ", "oracle": "--op "}  # how a refusal names the mode


def _read_flags(args, verb: str, mode: str) -> dict:
    """Refuse, naming them, the given flags of ``verb``'s other modes; fill in the defaults of
    the flags ``mode`` reads, and return the params it echoes."""
    modes, given, name = _FLAGS[verb], vars(args), {"lam": "lambda"}.get  # the one dest not named as its flag
    reads = modes[mode]
    every = dict.fromkeys(d for flags in modes.values() for d in flags)
    unread = [d for d in every if d not in reads and given[d] is not None]
    if unread:
        names = ", ".join("--" + name(d, d).replace("_", "-") for d in unread)
        raise InputError(f"{verb} {_SELECTOR.get(verb, '')}{mode} does not read {names}")
    given.update((d, default) for d, default in reads.items() if given[d] is None)
    return {name(d, d): given[d] for d in reads if d != "guard" and given[d] is not None}


def _emit(args, command: str, params: dict, result, rows: list[tuple]) -> None:
    """The one printer of command output: ``--json`` prints ``_json_value(result)``; text and CSV
    print the params after ``params: `` or ``# ``, then each row with its cells rendered by
    ``_render`` and joined by ``: `` or ``,``."""
    if getattr(args, "json", False):
        print(json.dumps({"command": command, "params": params, "result": _json_value(result)}, sort_keys=True))
        return
    head, sep = ("# ", ",") if getattr(args, "csv", False) else ("params: ", ": ")
    print(head + json.dumps(params, sort_keys=True))
    for row in rows:
        print(sep.join(map(_render, row)))


def _emit_report(args, command: str, params: dict, report) -> None:
    """Print a ``LimitReport`` or ``HypersurfaceDensity``: its fields, the cutoff in JSON only."""
    fields = report._asdict()
    _emit(args, command, params, fields, [(k, v) for k, v in fields.items() if k != "codim_cutoff"])


def _model_params(args, verb: str, mode: str, **head) -> tuple:
    """The X-model and specialization of ``--X``/``--spec``, and the params ``mode`` of ``verb`` echoes."""
    X = parse_model(args.X)
    spec = Specialization.parse(args.spec) if args.spec else None
    return X, spec, {**head, **_read_flags(args, verb, mode), "X": X.label(), "spec": str(spec or X.natural_spec())}


def _config_series(args, kind: str, params: dict) -> tuple:
    """The ``k``, ``kbar`` or ``symsing`` routes: the series Y, its E = Y/Z_X, the arguments
    both take between X and the order, and the zeta expression that ``limit`` reports for E(M^-1)."""
    if kind == "k":
        nu = _int_partition(params, "nu")
        return G.k_lt_a_nu, G.k_over_zeta, (nu, args.a), f"E(M^-1) with E = K_(<{args.a}){nu}/Z_X"
    if kind == "kbar":
        if not args.nu:
            raise InputError("kbar needs --nu with all parts >= 2")
        nu = _int_partition(params, "nu")
        return G.kbar_nu, G.kbar_over_zeta, (nu,), f"E(M^-1) with E = Kbar_(1*{nu})/Z_X"
    if args.s is None:
        raise InputError("symsing needs --s")
    return G.sym_s_series, G.sym_s_over_zeta, (args.s,), f"zeta^[{args.s}]_X(2d)/zeta_X(2d)"


def cmd_series(args) -> int:
    X, spec, params = _model_params(args, "series", args.kind, kind=args.kind)
    n = args.trunc
    if args.kind == "zeta":
        series = G.zeta_series(X, n, spec) if args.s is None else G.zeta_s_series(X, args.s, n, spec)
    elif args.kind == "zetainv":
        lam = GenPartition.parse(args.lam)
        params["lambda"] = str(lam)
        series = G.zinv_series(X, lam, n, spec, args.guard)
    else:
        route, _, head, _ = _config_series(args, args.kind, params)
        series = route(X, *head, n, spec)
    result = series.to_json()
    _emit(args, "series", params, result, [(f"t^{n}", c) for n, c in enumerate(result["coeffs"])])
    return 0


def cmd_limit(args) -> int:
    X, spec, params = _model_params(args, "limit", args.of, of=args.of)
    cutoff = args.cutoff
    if args.of == "distinctnu":
        if args.normalization == "M":
            raise InputError("limit --of distinctnu is normalized by Sym^(j+sum nu): it takes no --normalization M")
        report = G.distinct_nu_limit(X, _int_partition(params, "nu"), cutoff, spec)
    else:
        _, over_zeta, head, expr = _config_series(args, args.of, params)
        E = over_zeta(X, *head, G.default_limit_order(cutoff), spec)
        report = G.stable_limit(E, X, args.normalization, cutoff, spec, expr)
    _emit_report(args, "limit", params, report)
    return 0


def cmd_hyper(args) -> int:
    if args.multi is not None and (args.ordered or args.s is not None):
        raise InputError("--multi cannot be combined with --ordered or --s")
    X, spec, params = _model_params(args, "hyper", "s" if args.multi is None else "multi")
    if args.d not in (None, X.dim):  # --d only restates the dimension of --X
        raise InputError(f"model dimension {X.dim} does not match d={args.d}")
    params["d"] = X.dim
    if args.multi is not None:
        density = G.multi_point_density(X, args.multi, args.cutoff, spec)
    else:
        density = (G.hyper_ordered_density if args.ordered else G.hyper_density)(X, args.s, args.cutoff, spec)
    _emit_report(args, "hyper", params, density)
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


def cmd_oracle(args) -> int:
    params = {"op": args.op, **_read_flags(args, "oracle", args.op)}
    guard = args.guard
    start = time.monotonic()
    sweep = None  # the {j: value} of a --sweep-j run, printed one row per j
    if args.op == "wlambda":
        result = {"exact_count": O.count_w_lambda(args.X, args.q, _int_partition(params, "lambda"), guard)}
    elif args.op in ("syms", "hyper"):
        if args.j is None and args.sweep_j is None:
            raise InputError(f"oracle --op {args.op} needs --j or --sweep-j")
        if args.j is not None and args.sweep_j is not None:
            raise InputError("--j cannot be combined with --sweep-j")
        if args.op == "syms":
            count, key, sweep_key = O.count_sym_s, "exact_count", "counts"
        else:
            count, key, sweep_key = O.count_hyper_s, "fraction", "fractions"
        js = [args.j] if args.sweep_j is None else _sweep_range(args.sweep_j)
        # the largest j first: the guard refuses a sweep before any j is counted
        values = {j: count(args.q, j, args.s, guard) for j in reversed(js)}
        sweep = None if args.sweep_j is None else {j: values[j] for j in js}
        result = {sweep_key: sweep} if sweep else {key: values[args.j]}
    elif args.op == "intdensity":
        # the prediction's exact denominator has thousands of digits: it is
        # reported as a float, and its guard runs before the sieve
        pred = O.power_density_prediction(args.a, args.b, args.r, guard=guard)
        density = O.integer_power_density(args.a, args.b, args.r, args.bound)
        result = {
            "fraction": density,
            "prediction": float(pred["value"]),
            "prediction_tail_bound": float(pred["tail_bound"]),
            "deviation": float(abs(density - pred["value"])),
            "note": pred["note"],
        }
    else:  # expformula
        params["counts"] = [int(x) for x in args.counts.split(",") if x.strip()]
        result = {"sym_counts": O.exp_formula_sym_counts(params["counts"], args.n)}
    result["elapsed_s"] = round(time.monotonic() - start, 3)
    rows = [("j", sweep_key[:-1]), *sweep.items()] if sweep else list(result.items())
    _emit(args, "oracle", params, result, rows)
    return 0


def cmd_verify(args) -> int:
    results = V.run_suite(args.suite)
    rows = [(f"{'PASS' if r['ok'] else 'FAIL'} {r['name']} ({r['elapsed_s']}s)", r["detail"]) for r in results]
    passed = sum(r["ok"] for r in results)
    rows.append((f"{passed}/{len(results)} criteria passed",))
    _emit(args, "verify", {"suite": args.suite}, results, rows)
    return 0 if passed == len(results) else 1


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

    # no defaults for the flags of a mode: it fills in those of the flags it reads (_FLAGS)
    p_series = sub.add_parser("series", help="compute a truncated generating series")
    p_series.add_argument("kind", choices=["k", "kbar", "symsing", "zeta", "zetainv"])
    p_series.add_argument("--nu", help="integer partition, e.g. 2,2 or 2^2")
    p_series.add_argument("--a", type=int, help="multiplicity bound for k (default 2)")
    p_series.add_argument("--s", type=int, help="number of points (zeta -> Z^[s], symsing)")
    p_series.add_argument("--lambda", dest="lam", help="generalized partition for zetainv")
    p_series.add_argument("--trunc", type=int, help="truncation order (default 12)")
    p_series.add_argument("--guard", type=int, help="zetainv guard on the symbolic model: sum_{k<=N-|lambda|} p(k), the monomials of its output")
    add_common(p_series)
    p_series.set_defaults(func=cmd_series)

    p_limit = sub.add_parser("limit", help="stable limit of a configuration series")
    p_limit.add_argument("--of", choices=["k", "kbar", "symsing", "distinctnu"], default="k")
    p_limit.add_argument("--nu")
    p_limit.add_argument("--a", type=int, help="multiplicity bound for k (default 2)")
    p_limit.add_argument("--s", type=int, help="number of multiple points for symsing (default 0)")
    p_limit.add_argument("--normalization", choices=["Sym", "M"], help="divide by Sym^j or M^j (default Sym)")
    p_limit.add_argument("--cutoff", type=int, help="codimension cutoff (default 10)")
    add_common(p_limit)
    p_limit.set_defaults(func=cmd_limit)

    p_hyper = sub.add_parser("hyper", help="limiting densities of singular divisors")
    p_hyper.add_argument("--s", type=int, help="number of singular points (default 0)")
    p_hyper.add_argument("--d", type=int, help="dimension of X, which must equal that of --X (default: the dimension of --X)")
    p_hyper.add_argument("--ordered", action="store_true", default=None, help="s ordered singular points")
    p_hyper.add_argument("--multi", type=int, help="no m-multiple-point density")
    p_hyper.add_argument("--cutoff", type=int, help="codimension cutoff (default 10)")
    add_common(p_hyper)
    p_hyper.set_defaults(func=cmd_hyper)

    p_oracle = sub.add_parser("oracle", help="exhaustive finite-field and integer brute force")
    p_oracle.add_argument("--op", choices=["wlambda", "syms", "hyper", "intdensity", "expformula"], required=True)
    p_oracle.add_argument("--X", choices=["A1", "P1"])
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
