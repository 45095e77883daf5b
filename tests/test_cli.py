"""The oracle's on-disk cache (DISCZETA_CACHE)."""

import json

from disczeta import cli

ARGV = ["oracle", "--op", "syms", "--q", "2", "--s", "0", "--j", "3", "--json"]


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
