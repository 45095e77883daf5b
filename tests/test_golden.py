"""CLI output against the recorded reference corpus.

Every ``hyper``, ``limit``, ``series``, ``oracle`` and ``verify`` command
recorded in ``bench/references.json`` is run in-process and its JSON output
compared with the reference (``oracle`` and ``verify`` without their
wall-clock ``elapsed_s``).  The frontier outputs in ``tests/data`` are
compared byte for byte.
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
def test_oracle_output_matches_reference(key, capsys):
    assert cli.main(key.split() + ["--json"]) == 0
    output = json.loads(capsys.readouterr().out)
    output["result"].pop("elapsed_s")
    assert output == REFERENCES[key]


def test_verify_output_matches_reference(capsys):
    assert cli.main(["verify", "--json"]) == 0
    output = json.loads(capsys.readouterr().out)
    for criterion in output["result"]:
        criterion.pop("elapsed_s")
    assert output == REFERENCES["verify"]


FRONTIER = {
    "zetainv_trunc16.json": "series zetainv --trunc 16 --json",
    "zetainv_P2_count_q3_trunc14.json": "series zetainv --X P2 --spec count:q=3 --trunc 14 --json",
    "zetainv_P1_motivic_trunc12.json": "series zetainv --X P1 --spec motivic-L --trunc 12 --json",
    "zetainv_P2_hodge_trunc10.json": "series zetainv --X P2 --spec hodge-deligne --trunc 10 --json",
    "zetainv_P1_motivic_trunc16.json": "series zetainv --X P1 --spec motivic-L --trunc 16 --json",
    "zetainv_P2_hodge_trunc14.json": "series zetainv --X P2 --spec hodge-deligne --trunc 14 --json",
    "zetainv_lambda112_trunc14.json": "series zetainv --lambda 1,1,2 --trunc 14 --json",
    "zetainv_P2_count_q3_lambda12_trunc12.json": "series zetainv --X P2 --spec count:q=3 --lambda 1,2 --trunc 12 --json",
    "k_nu3x7_a3_trunc14.json": "series k --nu 3^7 --a 3 --trunc 14 --json",
    "kbar_nu3x5_4_trunc12.json": "series kbar --nu 3^5,4 --trunc 12 --json",
    "k_nu223_P1_count_q3_trunc12.json": "series k --nu 2,2,3 --X P1 --spec count:q=3 --trunc 12 --json",
    "k_nu2x3_P2_hodge_trunc10.json": "series k --nu 2^3 --X P2 --spec hodge-deligne --trunc 10 --json",
    "limit_kbar_nu223_P2_hodge_cutoff8.json": "limit --of kbar --nu 2,2,3 --X P2 --spec hodge-deligne --cutoff 8 --json",
    "limit_k_nu2x3_P2_hodge_cutoff10.json": "limit --of k --nu 2^3 --X P2 --spec hodge-deligne --cutoff 10 --json",
    "limit_symsing_s2_P2_motivic_cutoff10.json": "limit --of symsing --s 2 --X P2 --spec motivic-L --cutoff 10 --json",
    "limit_distinctnu_nu234_P1_hodge_cutoff10.json": "limit --of distinctnu --nu 2,3,4 --X P1 --spec hodge-deligne --cutoff 10 --json",
    "symsing_s3_P2_hodge_trunc16.json": "series symsing --s 3 --X P2 --spec hodge-deligne --trunc 16 --json",
    "limit_kbar_nu2x5_3_P2_hodge_cutoff12.json": "limit --of kbar --nu 2^5,3 --X P2 --spec hodge-deligne --cutoff 12 --json",
    "k_nu2x8_trunc12.json": "series k --nu 2^8 --trunc 12 --json",
    "k_nu2x6_P2_hodge_trunc14.json": "series k --nu 2^6 --X P2 --spec hodge-deligne --trunc 14 --json",
    "kbar_nu2x6_3_trunc10.json": "series kbar --nu 2^6,3 --trunc 10 --json",
    "kbar_nu2x4_3_P1_count_q3_trunc12.json": "series kbar --nu 2^4,3 --X P1 --spec count:q=3 --trunc 12 --json",
}


@pytest.mark.parametrize("name", sorted(FRONTIER))
def test_frontier_output_is_byte_identical(name, capsys):
    assert cli.main(FRONTIER[name].split()) == 0
    assert capsys.readouterr().out == (HERE / "data" / name).read_text()
