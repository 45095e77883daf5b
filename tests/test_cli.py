"""The CLI: the oracle's on-disk cache (DISCZETA_CACHE) and exit codes."""

import json
import re

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
