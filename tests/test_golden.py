"""CLI output against the recorded reference corpus.

Every ``hyper``, ``limit`` and ``series`` command recorded in
``bench/references.json`` is run in-process and its JSON output compared
with the reference.
"""

import json
from pathlib import Path

import pytest

from disczeta import cli

REFERENCES = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "references.json").read_text()
)
KEYS = sorted(key for key in REFERENCES if key.split()[0] in ("hyper", "limit", "series"))


@pytest.mark.parametrize("key", KEYS)
def test_cli_output_matches_reference(key, capsys):
    assert cli.main(key.split() + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == REFERENCES[key]
