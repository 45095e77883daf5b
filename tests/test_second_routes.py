"""Every value the CLI publishes, mapped to the tests that hold it against a second route.

The grid is ``cli._FLAGS``: each (verb, mode) against each target (the symbolic
model, motivic-L, count, euler and hodge-deligne); an ``oracle`` op has no
target.  Each cell of ``REGISTRY`` is one of:

* routes: the pytest node ids that check the cell's values against a route
  that is not the one production takes, with the kind of that route.  A node
  id without a ``[...]`` parameter part stands for every parametrization of
  its test.  ``shares`` names the production step that the route also runs,
  where there is one: such a cell has a second route only modulo that step;
* ``Refused``: the CLI exits 2 for this cell, as the sample command shows;
* ``Open``: no second route runs in tier-1 yet; the ROADMAP item that closes
  the cell is named.
"""

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path
from typing import NamedTuple

import pytest

from disczeta import cli

ROOT = Path(__file__).resolve().parents[1]
TARGETS = ("symbolic", "motivic-L", "count", "euler", "hodge-deligne")
KINDS = ("closed form", "oracle", "Y-space reference", "definition", "power structure")


class Route(NamedTuple):
    kind: str
    nodes: tuple[str, ...]
    shares: str = ""


class Refused(NamedTuple):
    command: str


class Open(NamedTuple):
    item: int
    why: str


GEN, MOD, ORA = "tests/test_genfun.py::", "tests/test_models.py::", "tests/test_oracle.py::"
PUB, VER = "tests/test_published_values.py::", "tests/test_verify.py::test_criterion_passes"
DEFINITION = PUB + "test_limit_is_its_definition_at_two_large_j"
MEMBERS = "genfun._member_counts (held against partitions.add_lt_a)"
S_SET = "partitions.s_set (item 6)"
EULER_POWER = "the Euler power structure (1 + sum p_i)^chi, item 4(b) at L -> 1"

REGISTRY = {
    ("series", "k", "symbolic"): (
        Route("closed form", (GEN + "TestKSeries::test_base_identity_all_a", GEN + "TestKSeries::test_distinct_nu_closed_form")),
        Route("Y-space reference", (GEN + "test_e_routes_match_y_references[symbolic(dim=1)-None]",), MEMBERS),
    ),
    ("series", "k", "motivic-L"): (
        Route("closed form", (GEN + "TestSecondRoutes::test_distinct_nu_closed_form_matches_recursion[P1-motivic-L]",)),
        Route("Y-space reference", (GEN + "test_e_routes_match_y_references[P1-motivic-L]",), MEMBERS),
    ),
    ("series", "k", "count"): (
        Route("oracle", (VER + "[oracle-configurations]",)),
        Route("closed form", (GEN + "TestKSeries::test_base_squarefree_counts",
                              GEN + "TestSecondRoutes::test_distinct_nu_closed_form_matches_recursion[P1-count:q=3]")),
        Route("Y-space reference", (GEN + "test_e_routes_match_y_references[counts:q=3-count:q=3]",), MEMBERS),
    ),
    ("series", "k", "euler"): Open(4, EULER_POWER),
    ("series", "k", "hodge-deligne"): (
        Route("closed form", (GEN + "TestSecondRoutes::test_distinct_nu_closed_form_matches_recursion[P1-hodge-deligne]",)),
        Route("Y-space reference", (GEN + "test_e_routes_match_y_references[P2-hodge-deligne]",), MEMBERS),
    ),
    ("series", "kbar", "symbolic"): (
        Route("closed form", (GEN + "TestKbar::test_single_part_closed_form", GEN + "TestKbar::test_closed_form_matches_recursion")),
        Route("Y-space reference", (GEN + "test_e_routes_match_y_references[symbolic(dim=1)-None]",), S_SET),
    ),
    ("series", "kbar", "motivic-L"): (
        Route("closed form", (VER + "[affine-closed-forms]", GEN + "TestKbar::test_affine_closed_form")),
        Route("Y-space reference", (GEN + "test_e_routes_match_y_references[P1-motivic-L]",), S_SET),
    ),
    ("series", "kbar", "count"): (
        Route("closed form", (GEN + "TestKbar::test_counts_22",)),
        Route("Y-space reference", (GEN + "test_e_routes_match_y_references[counts:q=3-count:q=3]",), S_SET),
    ),
    ("series", "kbar", "euler"): Open(4, EULER_POWER),
    ("series", "kbar", "hodge-deligne"): (
        Route("Y-space reference", (GEN + "test_e_routes_match_y_references[P2-hodge-deligne]",), S_SET),
    ),
    ("series", "symsing", "symbolic"): (
        Route("definition", (GEN + "TestSymS::test_stratification", VER + "[sym-s-stratification]")),
        Route("Y-space reference", (GEN + "test_e_routes_match_y_references[symbolic(dim=1)-None]",)),
    ),
    ("series", "symsing", "motivic-L"): (
        Route("Y-space reference", (GEN + "test_e_routes_match_y_references[P1-motivic-L]",)),
    ),
    ("series", "symsing", "count"): (
        Route("oracle", (VER + "[oracle-sym-s]", ORA + "TestCountSymS::test_matches_sym_s_series")),
        Route("closed form", (GEN + "TestSymS::test_counts_s1",)),
    ),
    ("series", "symsing", "euler"): Open(4, EULER_POWER),
    ("series", "symsing", "hodge-deligne"): (
        Route("Y-space reference", (GEN + "test_e_routes_match_y_references[P2-hodge-deligne]",)),
    ),
    ("series", "zeta", "symbolic"): (
        Route("closed form", (GEN + "TestZetaSeries::test_zs1", GEN + "TestZetaSeries::test_zs2_display")),
    ),
    ("series", "zeta", "motivic-L"): (
        Route("closed form", (GEN + "TestZetaSeries::test_projline", MOD + "TestSymClasses::test_affine",
                              "tests/test_kernel.py::test_proj_space_recurrence_matches_the_product_formula")),
        Route("definition", (GEN + "TestSecondRoutes::test_zinv_star_bridge[P1-motivic-L]",)),
    ),
    ("series", "zeta", "count"): (
        Route("closed form", (MOD + "TestSymClasses::test_counts_geometric", MOD + "TestRedundantEncodings::test_projline_three_ways")),
        Route("definition", (GEN + "TestSecondRoutes::test_zinv_star_bridge[P1-count:q=3]",)),
    ),
    ("series", "zeta", "euler"): (
        Route("closed form", (MOD + "TestChecks::test_euler_recurrence_is_the_binomial", VER + "[macdonald-euler]")),
    ),
    ("series", "zeta", "hodge-deligne"): (
        Route("closed form", (MOD + "TestRedundantEncodings::test_projspace_vs_hd_exponent_rule", MOD + "TestSymClasses::test_hd_projline")),
        Route("definition", (GEN + "TestSecondRoutes::test_zinv_star_bridge[P1-hodge-deligne]",)),
    ),
    ("series", "zetainv", "symbolic"): (
        Route("definition", (GEN + "TestSecondRoutes::test_zinv_colored_bridge[symbolic(dim=1)-None]",
                             GEN + "TestZinv::test_profiles_match_q_sum", VER + "[inversion-identity]")),
    ),
    ("series", "zetainv", "motivic-L"): (
        Route("definition", (GEN + "TestSecondRoutes::test_zinv_colored_bridge[P1-motivic-L]",)),
    ),
    ("series", "zetainv", "count"): (
        Route("definition", (GEN + "TestSecondRoutes::test_zinv_colored_bridge[P1-count:q=3]",)),
    ),
    ("series", "zetainv", "euler"): Open(4, EULER_POWER),
    ("series", "zetainv", "hodge-deligne"): (
        Route("definition", (GEN + "TestSecondRoutes::test_zinv_colored_bridge[P1-hodge-deligne]",)),
    ),
    ("limit", "k", "symbolic"): Refused("limit --of k --cutoff 3"),
    ("limit", "k", "motivic-L"): (
        Route("closed form", (GEN + "TestLimits::test_distinct_points_limit",)),
        Route("definition", (DEFINITION + "[k-P1-Sym-8]", DEFINITION + "[k-2-P2-M-8]"), MEMBERS),
    ),
    ("limit", "k", "count"): Open(9, "the definition in a count target, |Y_j/[Sym^j X] - value| against a bound"),
    ("limit", "k", "euler"): Refused("limit --of k --X euler:2 --cutoff 3"),
    ("limit", "k", "hodge-deligne"): (
        Route("definition", (DEFINITION + "[k-P1-Sym-8]", DEFINITION + "[k-2-P2-M-8]"), MEMBERS),
    ),
    ("limit", "kbar", "symbolic"): Refused("limit --of kbar --nu 2 --cutoff 3"),
    ("limit", "kbar", "motivic-L"): (
        Route("definition", (DEFINITION + "[kbar-2-P1-M-8]", DEFINITION + "[kbar-2,2-P2-Sym-8]"), S_SET),
    ),
    ("limit", "kbar", "count"): (
        Route("closed form", (GEN + "TestLimits::test_multiple_point_complement",)),
    ),
    ("limit", "kbar", "euler"): Refused("limit --of kbar --nu 2 --X euler:2 --cutoff 3"),
    ("limit", "kbar", "hodge-deligne"): (
        Route("definition", (DEFINITION + "[kbar-2-P1-M-8]", DEFINITION + "[kbar-2,2-P2-Sym-8]"), S_SET),
    ),
    ("limit", "symsing", "symbolic"): Refused("limit --of symsing --s 1 --cutoff 3"),
    ("limit", "symsing", "motivic-L"): (
        Route("definition", (DEFINITION + "[symsing-0-A^1-M-8]", DEFINITION + "[symsing-1-P2-Sym-8]")),
    ),
    ("limit", "symsing", "count"): (
        Route("closed form", (GEN + "TestLimits::test_sym_s_limit_matches_formula",)),
    ),
    ("limit", "symsing", "euler"): Refused("limit --of symsing --s 1 --X euler:2 --cutoff 3"),
    ("limit", "symsing", "hodge-deligne"): (
        Route("definition", (DEFINITION + "[symsing-0-A^1-M-8]", DEFINITION + "[symsing-1-P2-Sym-8]")),
    ),
    ("limit", "distinctnu", "symbolic"): Refused("limit --of distinctnu --nu 2 --cutoff 3"),
    ("limit", "distinctnu", "motivic-L"): (
        Route("definition", (DEFINITION + "[distinctnu-2-P1-Sym-8]", DEFINITION + "[distinctnu-2,3-P2-Sym-8]",
                             VER + "[limit-cross-validation]")),
    ),
    ("limit", "distinctnu", "count"): (
        Route("closed form", (GEN + "TestLimits::test_distinct_nu_limit_numeric",)),
    ),
    ("limit", "distinctnu", "euler"): Refused("limit --of distinctnu --nu 2 --X euler:2 --cutoff 3"),
    ("limit", "distinctnu", "hodge-deligne"): (
        Route("definition", (DEFINITION + "[distinctnu-2-P1-Sym-8]", DEFINITION + "[distinctnu-2,3-P2-Sym-8]")),
    ),
    ("hyper", "s", "symbolic"): Refused("hyper --s 1 --cutoff 3"),
    ("hyper", "s", "motivic-L"): (
        Route("closed form", (PUB + "test_hyper_on_projective_space_is_the_gl_closed_form",
                              GEN + "TestDensities::test_smooth_affine_motivic")),
    ),
    ("hyper", "s", "count"): (
        Route("oracle", (VER + "[hyper-density-p1]",)),
        Route("closed form", (GEN + "TestDensities::test_one_singular_projline_q2", GEN + "TestDensities::test_ordered_s2_uses_w12",
                              PUB + "test_hyper_on_projective_space_is_the_gl_closed_form")),
    ),
    ("hyper", "s", "euler"): Refused("hyper --s 1 --X P1 --spec euler --cutoff 3"),
    ("hyper", "s", "hodge-deligne"): (
        Route("closed form", (PUB + "test_hyper_on_projective_space_is_the_gl_closed_form",)),
    ),
    ("hyper", "multi", "symbolic"): Refused("hyper --multi 2 --cutoff 3"),
    ("hyper", "multi", "motivic-L"): Open(10, "the closed form 1/zeta_{P^n}(k) = prod_{i=0..n} (1 - L^(i-k))"),
    ("hyper", "multi", "count"): (
        Route("closed form", (GEN + "TestDensities::test_multi_point",)),
    ),
    ("hyper", "multi", "euler"): Refused("hyper --multi 2 --X P1 --spec euler --cutoff 3"),
    ("hyper", "multi", "hodge-deligne"): Open(10, "the closed form 1/zeta_{P^n}(k) at L -> uv"),
    ("oracle", "wlambda", None): (
        Route("definition", (ORA + "TestCountWLambda::test_closed_points_match_gcd_route",)),
        Route("closed form", (ORA + "TestCountWLambda::test_matches_w_class", ORA + "TestCountWLambda::test_sixteen_quartics")),
    ),
    ("oracle", "syms", None): (
        Route("definition", (ORA + "TestPolynomials::test_sieve_matches_squarefree_decomposition",)),
        Route("closed form", (ORA + "TestCountSymS::test_squarefree_classical", ORA + "TestCountSymS::test_matches_sym_s_series")),
    ),
    ("oracle", "hyper", None): (
        Route("definition", (ORA + "TestCountHyperS::test_matches_form_enumeration",)),
        Route("closed form", (ORA + "TestCountHyperS::test_smooth_stabilizes_early",)),
    ),
    ("oracle", "intdensity", None): (
        Route("definition", (ORA + "TestIntegerDensity::test_density_matches_divisibility",
                             ORA + "TestSegmentedSieve::test_matches_the_whole_array_sieve",
                             ORA + "TestIntegerDensity::test_prediction_is_the_sequential_sum")),
    ),
    ("oracle", "expformula", None): (
        Route("closed form", (ORA + "TestExpFormula::test_geometric", ORA + "TestExpFormula::test_projline")),
    ),
}


ROUTED = {cell: entry for cell, entry in REGISTRY.items() if not isinstance(entry, (Refused, Open))}
# the cells whose every route also runs a step of production: held only modulo that step
SHARED_ONLY = {
    ("series", "kbar", "hodge-deligne"),
    ("limit", "k", "hodge-deligne"),
    ("limit", "kbar", "motivic-L"),
    ("limit", "kbar", "hodge-deligne"),
}


def _cells() -> set:
    return {(verb, mode, target)
            for verb, modes in cli._FLAGS.items()
            for mode in modes
            for target in ((None,) if verb == "oracle" else TARGETS)}


def _routes() -> list[Route]:
    return [route for routes in ROUTED.values() for route in routes]


@cache
def _collected() -> frozenset[str]:
    """The node ids that pytest collects from the files the registry names."""
    files = sorted({node.split("::")[0] for route in _routes() for node in route.nodes})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:]
    return frozenset(line for line in proc.stdout.splitlines() if "::" in line)


def test_every_cell_of_the_flag_table_is_registered():
    assert set(REGISTRY) == _cells()


def test_every_route_names_its_kind_and_tests_that_exist():
    collected = _collected()
    bare = {node.split("[")[0] for node in collected}
    for route in _routes():
        assert route.kind in KINDS, route
        assert route.nodes, route
        for node in route.nodes:
            assert node in collected or ("[" not in node and node in bare), node


def test_the_cells_held_only_modulo_a_production_step_are_marked():
    assert {cell for cell, routes in ROUTED.items() if all(route.shares for route in routes)} == SHARED_ONLY


@pytest.mark.parametrize("cell", [cell for cell, entry in REGISTRY.items() if isinstance(entry, Refused)], ids=str)
def test_a_refused_cell_exits_2(cell):
    command = REGISTRY[cell].command
    assert command.split()[0] == cell[0]
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        assert cli.main(command.split()) == 2
    assert out.getvalue() == ""


def test_an_open_cell_names_an_open_roadmap_item():
    items = set(map(int, re.findall(r"^(\d+)\. \*\*", (ROOT / "ROADMAP.md").read_text(), flags=re.M)))
    for cell, entry in REGISTRY.items():
        if isinstance(entry, Open):
            assert entry.item in items and entry.why, cell
