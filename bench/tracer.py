"""Per-layer tracing of ``disczeta`` from outside the program.

``Tracer.install`` replaces each traced function with a timing wrapper at
every place a caller looks it up, and ``Tracer.restore`` puts the originals
back:

* module functions are patched in every ``disczeta`` module that holds
  them, so names imported with ``from .motive import eval_at_L_power`` go
  through the wrapper too, and so do recursive calls through module globals;
* ring operations are class attributes (``MotivicClass.__mul__``), and
  their aliases (``__rmul__ = __mul__``) are patched with them;
* ``verify.CRITERIA`` holds the criterion functions themselves, so it is
  replaced by a list of wrapped entries.

A span's ``s`` is its inclusive time (outermost activation only) and its
``self_s`` that time minus the time spent in wrapped children.  A call that
enters a span already on top of the stack, such as ``__sub__`` calling
``__add__`` inside the one ``MotivicClass.add`` span, is not counted again.
Cache hits and misses are read from ``cache_info()`` and from the size of
``partitions._closure_cache``, not from wrappers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from fractions import Fraction

PACKAGE = "disczeta"

# (span name, module, attributes that make up the span, fields reported).
# Leaf spans, which call no other traced function, report no self_s because
# it equals s.
SPANS: tuple[tuple[str, str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("partitions.enumerate_Q", "partitions", ("enumerate_Q",), ("calls", "s", "items")),
    ("partitions.merge_closure", "partitions", ("merge_closure",), ("calls", "s", "size_max", "cache_misses")),
    ("partitions.s_set", "partitions", ("s_set",), ("calls", "s", "self_s")),
    ("partitions.add_lt_a", "partitions", ("add_lt_a",), ("calls", "s", "self_s")),
    ("partitions.enumerate_k_parts", "partitions", ("enumerate_k_parts",), ("calls", "s")),
    ("motive.MotivicClass.mul", "motive", ("MotivicClass.__mul__",), ("calls", "s", "self_s")),
    (
        "motive.MotivicClass.add",
        "motive",
        ("MotivicClass.__add__", "MotivicClass.__sub__", "MotivicClass.__rsub__"),
        ("calls", "s", "self_s"),
    ),
    ("motive.LaurentL.mul", "motive", ("LaurentL.__mul__",), ("calls", "s")),
    ("motive.TruncSeries.mul", "motive", ("TruncSeries.__mul__",), ("calls", "s", "self_s")),
    ("motive.TruncSeries.inverse", "motive", ("TruncSeries.inverse",), ("calls", "s", "self_s")),
    ("motive.eval_at_L_power", "motive", ("eval_at_L_power",), ("calls", "s", "self_s")),
    ("models.XModel.specialize", "models", ("XModel.specialize",), ("calls", "s", "self_s")),
    ("models.XModel.sym", "models", ("XModel.sym",), ("calls", "s", "self_s")),
    ("models.UVPoly.mul", "models", ("UVPoly.__mul__",), ("calls", "s")),
    ("models.zeta_coeffs", "models", ("zeta_coeffs",), ("calls", "s", "self_s")),
    *(
        (f"genfun.{fn}", "genfun", (fn,), ("calls", "s", "self_s"))
        for fn in (
            "w_of",
            "zinv_lambda",
            "zeta_s_series",
            "k_lt_a_nu",
            "kbar_nu",
            "sym_s_series",
            "hyper_density",
            "stable_limit",
            "distinct_nu_limit",
            "wbar_class",
        )
    ),
    ("oracle.field", "oracle", ("field",), ("calls", "s")),
    ("oracle.squarefree_decomposition", "oracle", ("squarefree_decomposition",), ("calls", "s")),
    ("oracle.is_squarefree", "oracle", ("is_squarefree",), ("calls", "s", "self_s")),
    *(
        (f"oracle.{fn}", "oracle", (fn,), ("calls", "s", "self_s"))
        for fn in (
            "count_sym_s",
            "count_sym_s_table",
            "count_hyper_s",
            "count_hyper_s_table",
            "count_w_lambda",
            "integer_power_density",
        )
    ),
    ("cli.main", "cli", ("main",), ("calls", "s")),
)

# lru caches of genfun read after a job: metric prefix -> cache attribute
CACHES = {"genfun.w_profile": "_w_profile", "genfun.w_image": "_w_image", "genfun.k_profile": "_k_profile"}

# the verify criteria, in the order of verify.CRITERIA; listed here so that
# run.py knows every metric name without importing disczeta
CRITERIA = (
    "inversion-identity",
    "base-identities",
    "sym-s-stratification",
    "oracle-configurations",
    "oracle-sym-s",
    "hyper-density-p1",
    "affine-closed-forms",
    "jks-class-identity",
    "macdonald-euler",
    "specialization-coherence",
    "limit-cross-validation",
    "integer-analog",
)

# per-job values whose pass total is a maximum rather than a sum
MAX_FIELDS = ("size_max", "coeff_monomials_max", "coeff_bits_max")


def metric_names() -> list[str]:
    """Every per-layer metric one traced job reports, in a fixed order."""
    names = [f"{name}.{field}" for name, _, _, fields in SPANS for field in fields]
    names += ["motive.coeff_monomials_max", "motive.coeff_bits_max"]
    names += [f"{prefix}.{kind}" for prefix in CACHES for kind in ("hits", "misses")]
    names += [f"verify.{name}.s" for name in CRITERIA]
    return names


class Span:
    __slots__ = ("name", "module", "calls", "s", "self_s", "depth", "items", "size_max")

    def __init__(self, name: str, module: str):
        self.name = name
        self.module = module
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.items = 0
        self.size_max = 0


def _size(value) -> tuple[int, int]:
    """(monomials, largest coefficient in bits) of a value of any target ring."""
    if isinstance(value, int):
        return (1 if value else 0), abs(value).bit_length()
    if isinstance(value, Fraction):
        return 1, max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if hasattr(value, "terms"):  # MotivicClass: monomials in S_i with LaurentL coefficients
        parts = [_size(coeff) for _, coeff in value.terms]
    elif hasattr(value, "coeffs"):  # TruncSeries
        parts = [_size(coeff) for coeff in value.coeffs]
    elif hasattr(value, "c"):  # LaurentL and UVPoly: ((exponent, coefficient), ...)
        parts = [(1, abs(coeff).bit_length()) for _, coeff in value.c]
    elif hasattr(value, "value"):  # densities and limit reports
        return _size(value.value)
    else:
        return 0, 0
    return sum(m for m, _ in parts), max((b for _, b in parts), default=0)


class Tracer:
    """Wraps the traced functions of one process; use as a context manager."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.criteria: dict[str, Span] = {}
        self.coeff_monomials_max = 0
        self.coeff_bits_max = 0
        self._stack: list[list] = []  # [span, time spent in wrapped children]
        self._patches: list[tuple[object, str, object]] = []
        self._closure_start = 0

    # -- patching ---------------------------------------------------------

    def _namespaces(self):
        """Every module of the package and every class defined in one."""
        for name, module in sorted(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value

    def _patch_everywhere(self, original, wrapper) -> None:
        for owner in self._namespaces():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for name, module_name, attrs, _ in SPANS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            span = self.spans[name] = Span(name, module_name)
            for attr in attrs:
                class_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, class_name) if class_name else module
                original = vars(owner)[leaf]
                self._patch_everywhere(original, self._wrap(span, original))
        verify = importlib.import_module(f"{PACKAGE}.verify")
        wrapped = []
        for crit_name, func, group in verify.CRITERIA:
            span = self.criteria[crit_name] = Span(f"verify.{crit_name}", "verify")
            wrapped.append((crit_name, self._wrap(span, func), group))
        self._patches.append((verify, "CRITERIA", verify.CRITERIA))
        verify.CRITERIA = wrapped
        self._closure_start = len(importlib.import_module(f"{PACKAGE}.partitions")._closure_cache)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, span: Span, fn):
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is span:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            span.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_s += elapsed - frame[1]
                if not span.depth:
                    span.s += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(span, result)
            return result

        return wrapper

    def _observer(self, span: Span):
        if span.name == "partitions.enumerate_Q":
            return _count_items
        if span.name == "partitions.merge_closure":
            return _track_size
        if span.module == "genfun":
            return self._observe_result
        return None

    def _observe_result(self, span: Span, result) -> None:
        """Size of the value an outermost genfun call hands back."""
        if any(frame[0].module == "genfun" for frame in self._stack):
            return
        monomials, bits = _size(result)
        self.coeff_monomials_max = max(self.coeff_monomials_max, monomials)
        self.coeff_bits_max = max(self.coeff_bits_max, bits)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values of everything traced since ``install``."""
        out: dict[str, float] = {}
        partitions = importlib.import_module(f"{PACKAGE}.partitions")
        genfun = importlib.import_module(f"{PACKAGE}.genfun")
        for name, _, _, fields in SPANS:
            span = self.spans[name]
            for field in fields:
                if field == "cache_misses":
                    out[f"{name}.{field}"] = len(partitions._closure_cache) - self._closure_start
                else:
                    out[f"{name}.{field}"] = getattr(span, field)
        out["motive.coeff_monomials_max"] = self.coeff_monomials_max
        out["motive.coeff_bits_max"] = self.coeff_bits_max
        for prefix, attr in CACHES.items():
            info = getattr(genfun, attr).cache_info()
            out[f"{prefix}.hits"] = info.hits
            out[f"{prefix}.misses"] = info.misses
        for crit_name in CRITERIA:
            span = self.criteria.get(crit_name)
            out[f"verify.{crit_name}.s"] = span.s if span else 0.0
        return out


def _count_items(span: Span, result) -> None:
    span.items += len(result)


def _track_size(span: Span, result) -> None:
    span.size_max = max(span.size_max, len(result))
