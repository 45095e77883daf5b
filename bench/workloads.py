"""The benchmark's workloads: job slots, their variants, and seeded job lists.

A workload is a list of slots.  Each slot is one ``disczeta`` CLI invocation
chosen from a short list of variants of similar cost.  The seed fixes the
order of the slots and the variant picked for each one, so one seed always
gives the same job list.  Every variant has a recorded reference output in
``references.json``.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple


class Job(NamedTuple):
    slot: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        """The variant's name and its key in ``references.json``."""
        return " ".join(self.argv)


def _v(*lines: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(line.split()) for line in lines)


# Variants of one slot do the same amount of work: they differ in a label
# (lambda 1, 2 or 3 all have the profile (1,)), in q, in s for oracle
# sweeps whose cost does not depend on s, or they are jobs of a few
# milliseconds whose choice cannot move a workload total.
WORKLOADS: dict[str, dict[str, tuple[tuple[str, ...], ...]]] = {
    "symbolic-series": {
        "zetainv-12": _v("series zetainv --trunc 12"),
        "zetainv-11": _v("series zetainv --trunc 11"),
        "zetainv-lambda-11": _v(
            "series zetainv --lambda 1 --trunc 11",
            "series zetainv --lambda 2 --trunc 11",
            "series zetainv --lambda 3 --trunc 11",
        ),
        "k": _v(
            "series k --trunc 18",
            "series k --nu 2 --trunc 16",
            "series k --nu 3 --a 3 --trunc 17",
        ),
        "kbar": _v(
            "series kbar --nu 2 --trunc 18",
            "series kbar --nu 2,2 --trunc 16",
            "series kbar --nu 3 --trunc 17",
        ),
        "symsing": _v(
            "series symsing --s 0 --trunc 18",
            "series symsing --s 1 --trunc 16",
            "series symsing --s 2 --trunc 17",
        ),
        "zeta-s": _v(
            "series zeta --s 1 --trunc 18",
            "series zeta --s 2 --trunc 16",
            "series zeta --s 3 --trunc 17",
        ),
    },
    "specialized-densities": {
        "hyper-p1-s0-count": _v(
            "hyper --X P1 --d 1 --s 0 --spec count:q=3 --cutoff 11",
            "hyper --X P1 --d 1 --s 0 --spec count:q=5 --cutoff 11",
            "hyper --X P1 --d 1 --s 0 --spec count:q=7 --cutoff 11",
        ),
        "hyper-p1-s1-count": _v(
            "hyper --X P1 --d 1 --s 1 --spec count:q=3 --cutoff 11",
            "hyper --X P1 --d 1 --s 1 --spec count:q=5 --cutoff 11",
            "hyper --X P1 --d 1 --s 1 --spec count:q=7 --cutoff 11",
        ),
        "hyper-p1-s2-count": _v(
            "hyper --X P1 --d 1 --s 2 --spec count:q=3 --cutoff 11",
            "hyper --X P1 --d 1 --s 2 --spec count:q=5 --cutoff 11",
            "hyper --X P1 --d 1 --s 2 --spec count:q=7 --cutoff 11",
        ),
        "hyper-a1-s1-count": _v(
            "hyper --X A^1 --d 1 --s 1 --spec count:q=3 --cutoff 10",
            "hyper --X A^1 --d 1 --s 1 --spec count:q=5 --cutoff 10",
            "hyper --X A^1 --d 1 --s 1 --spec count:q=7 --cutoff 10",
        ),
        "hyper-p2-s1-count": _v(
            "hyper --X P2 --d 2 --s 1 --spec count:q=3 --cutoff 10",
            "hyper --X P2 --d 2 --s 1 --spec count:q=5 --cutoff 10",
            "hyper --X P2 --d 2 --s 1 --spec count:q=7 --cutoff 10",
        ),
        "hyper-p1-hodge": _v("hyper --X P1 --d 1 --s 1 --spec hodge-deligne --cutoff 10"),
        "hyper-p2-hodge": _v("hyper --X P2 --d 2 --s 0 --spec hodge-deligne --cutoff 8"),
        "hyper-p1-motivic": _v("hyper --X P1 --d 1 --s 1 --spec motivic-L --cutoff 10"),
        "hyper-a1-motivic": _v("hyper --X A^1 --d 1 --s 1 --spec motivic-L --cutoff 10"),
        "hyper-p2-motivic": _v("hyper --X P2 --d 2 --s 1 --spec motivic-L --cutoff 8"),
        "hyper-ordered": _v(
            "hyper --X P1 --d 1 --s 2 --ordered --spec count:q=3 --cutoff 12",
            "hyper --X P1 --d 1 --s 2 --ordered --spec motivic-L --cutoff 12",
            "hyper --X P2 --d 2 --s 1 --ordered --spec hodge-deligne --cutoff 10",
        ),
        "hyper-multi": _v(
            "hyper --X P2 --d 2 --multi 2 --spec motivic-L --cutoff 12",
            "hyper --X P1 --d 1 --multi 3 --spec hodge-deligne --cutoff 12",
            "hyper --X A^1 --d 1 --multi 2 --spec count:q=3 --cutoff 12",
        ),
        "limit-k": _v(
            "limit --of k --X P1 --spec count:q=3 --cutoff 12",
            "limit --of k --X P1 --spec motivic-L --cutoff 12 --normalization M",
            "limit --of k --X P2 --spec motivic-L --cutoff 8 --normalization M",
        ),
        "limit-kbar": _v(
            "limit --of kbar --nu 2 --X A^1 --spec motivic-L --cutoff 10",
            "limit --of kbar --nu 2 --X P1 --spec count:q=3 --cutoff 10 --normalization M",
            "limit --of kbar --nu 3 --X A^1 --spec hodge-deligne --cutoff 9",
        ),
        "limit-symsing": _v(
            "limit --of symsing --s 1 --X P1 --spec hodge-deligne --cutoff 10",
            "limit --of symsing --s 0 --X A^1 --spec count:q=3 --cutoff 12 --normalization M",
            "limit --of symsing --s 2 --X P1 --spec motivic-L --cutoff 10",
        ),
        "limit-distinctnu": _v(
            "limit --of distinctnu --nu 2 --X P1 --spec motivic-L --cutoff 10",
            "limit --of distinctnu --nu 3 --X A^1 --spec count:q=3 --cutoff 10",
            "limit --of distinctnu --nu 2,3 --X P1 --spec hodge-deligne --cutoff 8",
        ),
    },
    "finite-field-checks": {
        "verify": _v("verify"),
        "oracle-syms": _v(
            "oracle --op syms --q 3 --s 0 --sweep-j 4:8",
            "oracle --op syms --q 3 --s 1 --sweep-j 4:8",
            "oracle --op syms --q 3 --s 2 --sweep-j 4:8",
        ),
        "oracle-hyper": _v(
            "oracle --op hyper --q 2 --s 0 --sweep-j 3:10",
            "oracle --op hyper --q 2 --s 1 --sweep-j 3:10",
            "oracle --op hyper --q 2 --s 2 --sweep-j 3:10",
        ),
        "oracle-wlambda": _v(
            "oracle --op wlambda --X P1 --q 3 --lambda 2,1",
            "oracle --op wlambda --X P1 --q 4 --lambda 2,1,1",
            "oracle --op wlambda --X P1 --q 5 --lambda 2,2,1",
        ),
    },
}


def jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    slots = sorted(WORKLOADS[workload].items())
    rng.shuffle(slots)
    return [Job(slot, rng.choice(variants)) for slot, variants in slots]


def all_variants() -> list[Job]:
    """Every variant of every slot of every workload."""
    return [
        Job(slot, argv)
        for slots in WORKLOADS.values()
        for slot, variants in slots.items()
        for argv in variants
    ]


def _flag(argv: tuple[str, ...], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def oracle_states(argv: tuple[str, ...]) -> int:
    """Nominal state space of an ``oracle`` job, from its parameters alone.

    q^j monic polynomials per ``syms`` degree j, q^(j+1) binary forms per
    ``hyper`` degree j, and for ``wlambda`` the product over the distinct
    values of lambda of the number of effective divisors of that
    multiplicity.  Zero for any other verb.
    """
    if argv[0] != "oracle":
        return 0
    op = _flag(argv, "--op")
    q = int(_flag(argv, "--q", "2"))
    if op in ("syms", "hyper"):
        sweep = _flag(argv, "--sweep-j")
        if sweep:
            lo, _, hi = sweep.partition(":")
            degrees = range(int(lo), int(hi) + 1)
        else:
            degrees = [int(_flag(argv, "--j"))]
        shift = 1 if op == "hyper" else 0
        return sum(q ** (j + shift) for j in degrees)
    if op == "wlambda":
        lam = sorted(int(x) for x in _flag(argv, "--lambda", "").split(",") if x)
        space = _flag(argv, "--X", "A1")
        states = 1
        for _, group in itertools.groupby(lam):
            m = len(list(group))
            states *= q**m if space == "A1" else sum(q**d for d in range(m + 1))
        return states
    return 0
