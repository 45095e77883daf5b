"""The CLI: the oracle's on-disk cache (DISCZETA_CACHE), exit codes, text
output and the modules that start-up loads."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from disczeta import cli

ARGV = ["oracle", "--op", "syms", "--q", "2", "--s", "0", "--j", "3", "--json"]
SWEEP = ["oracle", "--op", "syms", "--q", "2", "--s", "0", "--sweep-j", "8:11"]


def _run(capsys) -> dict:
    assert cli.main(ARGV) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    result.pop("elapsed_s")
    return result


def _entries(cache_dir):
    return sorted(cache_dir.iterdir())


def test_corrupt_entry_is_a_miss(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DISCZETA_CACHE", str(tmp_path))
    fresh = _run(capsys)
    [entry] = _entries(tmp_path)
    entry.write_text('{"exact_count": ')  # a half-written entry
    assert _run(capsys) == fresh
    assert json.loads(entry.read_text()) == fresh
    assert _entries(tmp_path) == [entry]


def test_version_bump_ignores_old_entries(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DISCZETA_CACHE", str(tmp_path))
    fresh = _run(capsys)
    [entry] = _entries(tmp_path)
    entry.write_text(json.dumps({"exact_count": -1}))
    assert _run(capsys) == {"exact_count": -1}  # the entry is served under its own version
    monkeypatch.setattr(cli, "__version__", cli.__version__ + ".post1")
    assert _run(capsys) == fresh
    assert len(_entries(tmp_path)) == 2


def _output(capsys, argv) -> str:
    assert cli.main(argv) == 0
    return re.sub(r'"elapsed_s": [^,}]+', '"elapsed_s": null', capsys.readouterr().out)


def test_cached_sweep_prints_like_a_fresh_run(tmp_path, monkeypatch, capsys):
    for fmt in (["--json"], []):
        cache_dir = tmp_path / ("json" if fmt else "text")
        monkeypatch.setenv("DISCZETA_CACHE", str(cache_dir))
        fresh = _output(capsys, SWEEP + fmt)  # a miss: computed, then written
        assert len(_entries(cache_dir)) == 1
        assert _output(capsys, SWEEP + fmt) == fresh  # a hit: read back
    assert [line.split(":")[0] for line in fresh.splitlines()[2:]] == ["8", "9", "10", "11"]


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


SRC = Path(__file__).resolve().parent.parent / "src"


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
