"""CLI output against the recorded reference corpus.

Every ``hyper``, ``limit``, ``series`` and ``oracle`` command recorded in
``bench/references.json`` is run in-process and its JSON output compared
with the reference (``oracle`` without its wall-clock ``elapsed_s``).  The
frontier outputs in ``tests/data`` are compared byte for byte.
"""

import json
from pathlib import Path

import pytest

from disczeta import cli

HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE.parent / "bench" / "references.json").read_text())
KEYS = sorted(key for key in REFERENCES if key.split()[0] in ("hyper", "limit", "series"))
ORACLE_KEYS = sorted(key for key in REFERENCES if key.split()[0] == "oracle")


@pytest.mark.parametrize("key", KEYS)
def test_cli_output_matches_reference(key, capsys):
    assert cli.main(key.split() + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == REFERENCES[key]


@pytest.mark.parametrize("key", ORACLE_KEYS)
def test_oracle_output_matches_reference(key, capsys, monkeypatch):
    monkeypatch.delenv("DISCZETA_CACHE", raising=False)
    assert cli.main(key.split() + ["--json"]) == 0
    output = json.loads(capsys.readouterr().out)
    output["result"].pop("elapsed_s")
    assert output == REFERENCES[key]


FRONTIER = {
    "zetainv_trunc16.json": "series zetainv --trunc 16 --json",
    "zetainv_P2_count_q3_trunc14.json": "series zetainv --X P2 --spec count:q=3 --trunc 14 --json",
    "zetainv_P1_motivic_trunc12.json": "series zetainv --X P1 --spec motivic-L --trunc 12 --json",
    "zetainv_P2_hodge_trunc10.json": "series zetainv --X P2 --spec hodge-deligne --trunc 10 --json",
}


@pytest.mark.parametrize("name", sorted(FRONTIER))
def test_frontier_output_is_byte_identical(name, capsys):
    assert cli.main(FRONTIER[name].split()) == 0
    assert capsys.readouterr().out == (HERE / "data" / name).read_text()
