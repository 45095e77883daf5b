"""The CLI: exit codes, text output, the modules that start-up loads and the
environment it does not read."""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from disczeta import cli

SRC = Path(__file__).resolve().parent.parent / "src"


def _output(capsys, argv) -> str:
    assert cli.main(argv) == 0
    return re.sub(r'"elapsed_s": [^,}]+', '"elapsed_s": null', capsys.readouterr().out)


def test_m_power_normalization_exit_codes(capsys):
    argv = ["limit", "--of", "k", "--spec", "hodge-deligne", "--normalization", "M", "--cutoff", "5", "--X"]
    assert cli.main(argv + ["P1"]) == 0
    assert "value: -u^-2*v^-2 + 1" in capsys.readouterr().out
    assert cli.main(argv + ["hd:1+uv"]) == 2  # no stable symmetric-power class
    assert "not available for the hd model" in capsys.readouterr().err


def test_oracle_exit_codes(capsys):
    assert cli.main(["oracle", "--op", "syms", "--q", "3", "--j", "15"]) == 3
    assert "enumeration needs 14348907 states" in capsys.readouterr().err
    assert cli.main(["oracle", "--op", "hyper", "--q", "2", "--j", "23"]) == 3
    assert "enumeration needs 16777216 states" in capsys.readouterr().err
    for op in ("syms", "hyper"):
        assert cli.main(["oracle", "--op", op, "--q", "6", "--j", "3"]) == 2
        assert "6 is not a prime power" in capsys.readouterr().err
        assert cli.main(["oracle", "--op", op, "--q", "2", "--j", "3", "--guard", "1000000000"]) == 2
        assert "guards cannot be raised past" in capsys.readouterr().err
        assert cli.main(["oracle", "--op", op, "--q", "3"]) == 2  # no degree given
        assert "needs --j or --sweep-j" in capsys.readouterr().err


def test_series_exit_codes(capsys):
    for argv, message in [
        (["symsing"], "symsing needs --s"),
        (["kbar"], "kbar needs --nu"),
        (["kbar", "--nu", "1"], "kbar_nu needs all parts >= 2"),
        (["k", "--nu", "1"], "all parts of nu must be >= a=2"),
        (["zetainv", "--trunc", "-1"], "N_pts must be >= 0"),
    ]:
        assert cli.main(["series", *argv]) == 2
        assert message in capsys.readouterr().err


def test_limit_kbar_needs_nu(capsys):
    assert cli.main(["limit", "--of", "kbar", "--X", "P1", "--spec", "count:q=3", "--cutoff", "4"]) == 2
    assert "kbar needs --nu" in capsys.readouterr().err


def test_hyper_multi_rejects_ordered_and_s(capsys):
    argv = ["hyper", "--X", "P1", "--d", "1", "--multi", "2", "--cutoff", "4"]
    for extra in (["--ordered"], ["--s", "1"], ["--s", "0"], ["--s", "1", "--ordered"]):
        assert cli.main(argv + extra) == 2
        assert "--multi cannot be combined with --ordered or --s" in capsys.readouterr().err
    assert cli.main(argv) == 0
    assert "expression: 1/zeta_X(2)" in capsys.readouterr().out


def test_negative_cutoff_is_rejected(capsys):
    for argv in (
        ["hyper", "--X", "P1", "--d", "1", "--s", "1", "--spec", "count:q=3"],
        ["hyper", "--X", "P1", "--d", "1", "--s", "1", "--ordered"],
        ["hyper", "--X", "P1", "--d", "1", "--multi", "2"],
        ["limit", "--of", "k", "--X", "P1"],
        ["limit", "--of", "distinctnu", "--nu", "2", "--X", "A^1"],
    ):
        assert cli.main(argv + ["--cutoff", "-1"]) == 2, argv
        assert "codimension cutoff must be >= 0" in capsys.readouterr().err
        assert cli.main(argv + ["--cutoff", "0"]) == 0, argv
        assert "value: " in capsys.readouterr().out


def test_oracle_j_with_sweep_j_is_rejected(capsys):
    for op in ("syms", "hyper"):
        assert cli.main(["oracle", "--op", op, "--q", "3", "--j", "4", "--sweep-j", "3:4"]) == 2
        assert "--j cannot be combined with --sweep-j" in capsys.readouterr().err


def test_oracle_refuses_the_flags_of_other_ops(capsys):
    for argv, op, unread in (
        ("--op wlambda --X P1 --q 2 --lambda 1,1,1 --sweep-j 1:2 --j 5", "wlambda", "--j, --sweep-j"),
        ("--op intdensity --bound 100 --q 7 --sweep-j 9:1", "intdensity", "--q, --sweep-j"),
        ("--op expformula --counts 2 --guard 10000000", "expformula", "--guard"),  # the default value, given
        ("--op syms --j 3 --X A1 --s 0", "syms", "--X"),
    ):
        assert cli.main(["oracle", *argv.split()]) == 2
        assert capsys.readouterr() == ("", f"error: oracle --op {op} does not read {unread}\n")


@pytest.mark.parametrize(
    "bare, explicit",
    [
        ("oracle --op wlambda", "oracle --op wlambda --X A1 --q 2 --guard 10000000"),
        ("oracle --op syms --j 3", "oracle --op syms --j 3 --q 2 --s 0 --guard 10000000"),
        ("oracle --op hyper --sweep-j 2:3", "oracle --op hyper --sweep-j 2:3 --q 2 --s 0 --guard 10000000"),
        ("oracle --op intdensity --bound 100", "oracle --op intdensity --bound 100 --a 2 --b 2 --r 0 --guard 10000000"),
        ("oracle --op expformula --counts 2,4,8,16,32,64,128,256",
         "oracle --op expformula --counts 2,4,8,16,32,64,128,256 --n 8"),
        ("series k --X P1 --spec count:q=3", "series k --X P1 --spec count:q=3 --a 2 --trunc 12"),
        ("limit --of symsing --X P1 --cutoff 4", "limit --of symsing --X P1 --cutoff 4 --s 0 --normalization Sym"),
        ("limit --of distinctnu --nu 2 --X P1", "limit --of distinctnu --nu 2 --X P1 --normalization Sym --cutoff 10"),
        ("hyper --X P1 --spec count:q=3", "hyper --X P1 --spec count:q=3 --d 1 --s 0 --cutoff 10"),
    ],
)
def test_flags_at_their_defaults_print_what_omitting_them_prints(capsys, bare, explicit):
    assert _json_output(capsys, bare) == _json_output(capsys, explicit)


def _json_output(capsys, command: str) -> dict:
    assert cli.main([*command.split(), "--json"]) == 0
    output = json.loads(capsys.readouterr().out)
    output["result"].pop("elapsed_s", None)
    return output


@pytest.mark.parametrize(
    "command, d",
    [("hyper --X P2 --s 1 --cutoff 4", 2), ("hyper --X P2 --s 1 --ordered --cutoff 4", 2), ("hyper --X P3 --multi 2 --cutoff 4", 3)],
)
def test_hyper_reads_the_dimension_of_its_model(capsys, command, d):
    # --d only restates dim X: omitted, it is the model's, and the output does not tell the two apart
    explicit = f"{command} --d {d}"
    assert _json_output(capsys, command) == _json_output(capsys, explicit)
    assert _output(capsys, command.split()) == _output(capsys, explicit.split())


def test_hyper_refuses_a_dimension_that_is_not_its_models(capsys):
    assert cli.main("hyper --X P2 --d 1 --s 1".split()) == 2
    assert capsys.readouterr() == ("", "error: model dimension 2 does not match d=1\n")
    assert cli.main("hyper --X pt --s 0".split()) == 2
    assert capsys.readouterr() == ("", "error: hypersurface densities need a model of dimension >= 1, got 0\n")


@pytest.mark.parametrize(
    "command, message",
    [
        ("series kbar --nu 2 --a 3", "series kbar does not read --a"),
        ("series zetainv --nu 2", "series zetainv does not read --nu"),
        ("series zeta --guard 5", "series zeta does not read --guard"),
        ("series symsing --s 1 --nu 3", "series symsing does not read --nu"),
        ("limit --of kbar --nu 2 --a 7 --X P1", "limit --of kbar does not read --a"),
        ("limit --of distinctnu --nu 2 --normalization M --X P1",
         "limit --of distinctnu is normalized by Sym^(j+sum nu): it takes no --normalization M"),
    ],
)
def test_verbs_refuse_the_flags_of_their_other_modes(capsys, command, message):
    assert cli.main(command.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _subparsers() -> dict:
    (verbs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return verbs.choices


def test_every_flag_of_a_verb_is_in_its_flag_table():
    # a flag outside the table would be read by every mode, or silently by none
    selectors = {"series": "kind", "limit": "of", "oracle": "op"}
    for verb, parser in _subparsers().items():
        read = {dest for flags in cli._FLAGS.get(verb, {}).values() for dest in flags}
        unmoded = ("help", selectors.get(verb), "X", "spec", "json", "csv", "suite")
        for action in parser._actions:
            if action.dest in read:
                assert action.default is None, (verb, action.dest)  # the mode fills in its default
            else:
                assert action.dest in unmoded, (verb, action.dest)


def test_help_states_the_defaults_of_the_flag_table():
    stated = 0
    for verb, parser in _subparsers().items():
        for action in parser._actions:
            match = re.search(r"\(default (\S+)\)", action.help or "")
            if match:
                stated += 1
                defaults = {str(flags[action.dest]) for flags in cli._FLAGS[verb].values() if action.dest in flags}
                assert defaults == {match.group(1)}, (verb, action.dest)
    assert stated == 8


@pytest.mark.parametrize("sweep", ["11:8", "8", "3:4:5", "a:4", ":4", ""])
@pytest.mark.parametrize("op", ["syms", "hyper"])
def test_malformed_sweep_j_is_rejected(capsys, op, sweep):
    assert cli.main(["oracle", "--op", op, "--q", "3", "--sweep-j", sweep]) == 2
    assert capsys.readouterr() == ("", f"error: --sweep-j takes lo:hi with integers lo <= hi, got {sweep!r}\n")


def test_sweep_past_the_guard_is_refused_before_any_j(capsys):
    for op, q, hi, states in (("syms", "3", 15, 14348907), ("hyper", "2", 23, 16777216)):
        start = time.monotonic()
        assert cli.main(["oracle", "--op", op, "--q", q, "--sweep-j", f"0:{hi}"]) == 3
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr() == ("", f"error: enumeration needs {states} states, guard is 10000000\n")


def test_oracle_ignores_a_disczeta_cache_directory(tmp_path, monkeypatch, capsys):
    # older releases kept an oracle cache there, and served its entries without validating the input
    (tmp_path / "oracle-entry.json").write_text('{"sym_counts": [1, 5, 13]}')
    before = {p.name: p.read_text() for p in tmp_path.iterdir()}
    monkeypatch.setenv("DISCZETA_CACHE", str(tmp_path))
    assert cli.main(["oracle", "--op", "expformula", "--counts", "5,1", "--n", "2"]) == 2
    assert "the closed points of degree 2 are negative" in capsys.readouterr().err
    assert cli.main(["oracle", "--op", "syms", "--q", "2", "--j", "3"]) == 0  # and a valid call writes nothing
    assert "exact_count: 4" in capsys.readouterr().out
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before


def test_package_reads_no_environment_variable():
    reads = []
    for path in sorted((SRC / "disczeta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [node.attr] if isinstance(node, ast.Attribute) else []
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            reads += [f"{path.name}:{node.lineno} {name}" for name in names if name in ("environ", "environb", "getenv")]
    assert reads == []


def test_closed_stdout_exits_141_without_a_traceback():
    # ~200 KB of output: the writer meets the closed pipe mid-stream.  Buffered,
    # as by default, it still holds output that the flush at exit must not raise on.
    argv = [sys.executable, "-m", "disczeta.cli", "series", "zetainv", "--trunc", "25"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("params: ")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == ""
    proc.stderr.close()


def test_counts_with_negative_closed_points_exit_2(capsys):
    assert cli.main(["series", "zeta", "--X", "counts:q=2,N=[5,1]", "--trunc", "2"]) == 2
    assert "the closed points of degree 2 are negative" in capsys.readouterr().err
    assert cli.main(["series", "zeta", "--X", "counts:q=2,N=[5,1]", "--trunc", "1"]) == 0


def test_oracle_expformula_rejects_negative_closed_points(capsys):
    assert cli.main(["oracle", "--op", "expformula", "--counts", "5,1", "--n", "2"]) == 2
    assert "the closed points of degree 2 are negative" in capsys.readouterr().err
    assert cli.main(["oracle", "--op", "expformula", "--counts", "5,1", "--n", "1"]) == 0


def test_oracle_expformula_rejects_negative_n(capsys):
    assert cli.main(["oracle", "--op", "expformula", "--counts", "2", "--n", "-1"]) == 2
    assert "n must be >= 0, got -1" in capsys.readouterr().err
    assert cli.main(["oracle", "--op", "expformula", "--counts", "2", "--n", "0"]) == 0
    assert "sym_counts: [1]" in capsys.readouterr().out


@pytest.mark.parametrize("of", [["k"], ["kbar", "--nu", "2"], ["symsing", "--s", "1"], ["distinctnu", "--nu", "2"]])
def test_limit_on_a_zero_dimensional_model_exits_2(capsys, of):
    # E(M^-1) = E(1) on a point: K_(<2)/Z = 1 - t^2 gives 0, not the 1 - L^-2 of E(L^-1)
    for model in (["pt"], ["pt", "--spec", "count:q=2"], ["P0"], ["hd:1"]):
        assert cli.main(["limit", "--of", *of, "--cutoff", "4", "--X", *model]) == 2, model
        assert "stable limits need a model of dimension >= 1, got 0" in capsys.readouterr().err
    assert cli.main(["limit", "--of", *of, "--cutoff", "4", "--X", "A^1"]) == 0
    assert "value: " in capsys.readouterr().out


INTDENSITY = ["oracle", "--op", "intdensity", "--a", "2", "--b", "2", "--r", "0", "--bound", "1000"]
NOTE = "zeta arguments taken positive; the source display writes zeta(-a), zeta(-b)"


def test_intdensity_reports_the_prediction_as_floats(capsys):
    assert _output(capsys, INTDENSITY + ["--json"]) == json.dumps(
        {
            "command": "oracle",
            "params": {"a": 2, "b": 2, "bound": 1000, "op": "intdensity", "r": 0},
            "result": {
                "deviation": 3.594021101102337e-05,
                "elapsed_s": None,
                "fraction": {"float": 0.392, "fraction": "49/125"},
                "note": NOTE,
                "prediction": 0.392035940211011,
                "prediction_tail_bound": 0.00021,
            },
        },
        sort_keys=True,
    ) + "\n"
    assert cli.main(INTDENSITY) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [
        'params: {"a": 2, "b": 2, "bound": 1000, "op": "intdensity", "r": 0}',
        "fraction: 49/125 = 0.392",
        "prediction: 0.392035940211011",
        "prediction_tail_bound: 0.00021",
        "deviation: 3.594021101102337e-05",
        f"note: {NOTE}",
    ]
    assert lines[-1].startswith("elapsed_s: ")


def test_intdensity_prediction_guard(capsys):
    start = time.monotonic()
    assert cli.main(["oracle", "--op", "intdensity", "--r", "2"]) == 3
    assert time.monotonic() - start < 1.0
    assert "46008028 multi-prime terms" in capsys.readouterr().err


def test_oracle_text_renders_fractions_like_hyper(capsys):
    assert cli.main(["oracle", "--op", "hyper", "--q", "2", "--j", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == ['params: {"j": 3, "op": "hyper", "q": 2, "s": 0}', "fraction: 3/8 = 0.375"]
    assert lines[-1].startswith("elapsed_s: ")
    assert cli.main(["hyper", "--X", "counts:q=2", "--d", "1", "--cutoff", "0"]) == 0
    assert "value: 1/2 = 0.5" in capsys.readouterr().out  # the same rendering
    assert cli.main(["oracle", "--op", "hyper", "--q", "2", "--j", "3", "--csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "fraction,3/8 = 0.375"


def test_startup_loads_neither_dataclasses_nor_openssl():
    # -S: only the modules the package itself asks for, not those of site hooks
    code = (
        "import gc, sys, disczeta.cli as cli; cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect', 'hashlib', '_hashlib'} & set(sys.modules))); "
        "print(gc.get_freeze_count() > 0)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "True"]  # and the imported modules are out of the collector's scans


def test_sweep_rows_render_fractions_like_a_single_j(capsys):
    argv = ["oracle", "--op", "hyper", "--q", "2", "--sweep-j", "2:3"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["j: fraction", "2: 1/2 = 0.5", "3: 3/8 = 0.375"]
    assert cli.main(argv + ["--csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["j,fraction", "2,1/2 = 0.5", "3,3/8 = 0.375"]
    assert cli.main(argv + ["--json"]) == 0  # unchanged: the JSON object of each fraction
    fractions = json.loads(capsys.readouterr().out)["result"]["fractions"]
    assert fractions == {"2": {"float": 0.5, "fraction": "1/2"}, "3": {"float": 0.375, "fraction": "3/8"}}


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    import argparse

    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", lambda *a, **k: builds.append(1) or add_subparsers(*a, **k))
    cli.build_parser.cache_clear()
    try:
        argv = ["series", "zeta", "--X", "P1", "--spec", "count:q=2", "--trunc", "2"]
        assert cli.main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["coeffs"] == ["1", "3", "7"]
        assert cli.main(argv) == 0  # --json of the first call does not carry over
        assert capsys.readouterr().out.splitlines()[1:] == ["t^0: 1", "t^1: 3", "t^2: 7"]
        assert len(builds) == 1
    finally:
        cli.build_parser.cache_clear()  # later tests build with the real add_subparsers


def test_zetainv_guard(capsys):
    start = time.monotonic()
    assert cli.main(["series", "zetainv", "--trunc", "26"]) == 3
    assert time.monotonic() - start < 1.0
    assert "needs at least 11732 multiplicity profiles, guard is 10000" in capsys.readouterr().err
    assert cli.main(["series", "zetainv", "--trunc", "4", "--guard", "11"]) == 3  # 1 + 1 + 2 + 3 + 5 profiles
    assert "needs at least 12 multiplicity profiles, guard is 11" in capsys.readouterr().err
    assert cli.main(["series", "zetainv", "--trunc", "4", "--guard", "12", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["order"] == 4
    assert cli.main(["series", "zetainv", "--lambda", "1,1", "--trunc", "5", "--guard", "7"]) == 0  # 3 more points


SERIES_K = ["series", "k", "--nu", "2", "--trunc", "4"]
SERIES_K_ROWS = [
    "1*S_1",
    "-1*S_1 + 1*S_1^2",
    "1*S_1 + 1*S_1*S_2 - 2*S_1^2",
    "-1*S_1 - 1*S_1*S_2 + 1*S_1*S_3 + 2*S_1^2 - 1*S_1^3",
    "1*S_1 - 1*S_1*S_3 + 1*S_1*S_4 - 2*S_1^2 - 1*S_1^2*S_2 + 2*S_1^3",
]
SERIES_K_PARAMS = '{"X": "symbolic(dim=1)", "a": 2, "kind": "k", "nu": "2", "spec": "motivic-L", "trunc": 4}'


@pytest.mark.parametrize("model", [["--X", "P1", "--spec", "count:q=3", "--trunc", "26"],
                                   ["--X", "P2", "--spec", "hodge-deligne", "--trunc", "30"]])
def test_zetainv_guard_spares_specialized_models(capsys, model):
    # the guard counts the monomials of a symbolic answer; a specialized one has none of them
    assert cli.main(["series", "zetainv", *model]) == 0
    unguarded = capsys.readouterr().out
    assert cli.main(["series", "zetainv", *model, "--guard", "1000000000"]) == 0
    assert capsys.readouterr().out == unguarded


def test_series_renders_each_coefficient_once(capsys, monkeypatch):
    from disczeta.motive import SparsePoly

    rendered = []
    to_str = SparsePoly.__str__
    monkeypatch.setattr(SparsePoly, "__str__", lambda self: rendered.append(1) or to_str(self))
    for fmt in ([], ["--json"], ["--csv"]):
        rendered.clear()
        assert cli.main(SERIES_K + fmt) == 0
        out = capsys.readouterr().out
        assert len(rendered) == len(SERIES_K_ROWS), fmt
        if fmt == ["--json"]:
            assert json.loads(out)["result"]["coeffs"] == SERIES_K_ROWS
        elif fmt == ["--csv"]:
            assert out.splitlines() == ["# " + SERIES_K_PARAMS] + [f"t^{n},{c}" for n, c in enumerate(SERIES_K_ROWS)]
        else:
            assert out.splitlines() == ["params: " + SERIES_K_PARAMS] + [
                f"t^{n}: {c}" for n, c in enumerate(SERIES_K_ROWS)
            ]
