"""Text, CSV and JSON output of the CLI, byte for byte, against a recorded golden.

``tests/data/cli_contract.json`` holds, for one command per benchmark slot
and for the edge cases of argument handling, the exit code, stdout and
stderr of the text and the CSV form of the command, and of the JSON form of
each edge case.  Wall-clock times (``elapsed_s`` and the per-criterion times
of ``verify``) are masked.

Running this file as a script rewrites the golden from the current code:

    PYTHONPATH=src python tests/test_cli_contract.py
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest

from disczeta import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_contract.json"

# one variant of each slot of bench/workloads.py
SLOTS = (
    "series zetainv --trunc 12",
    "series zetainv --trunc 11",
    "series zetainv --lambda 2 --trunc 11",
    "series k --nu 3 --a 3 --trunc 17",
    "series kbar --nu 2,2 --trunc 16",
    "series symsing --s 1 --trunc 16",
    "series zeta --s 2 --trunc 16",
    "hyper --X P1 --d 1 --s 0 --spec count:q=3 --cutoff 11",
    "hyper --X P1 --d 1 --s 1 --spec count:q=5 --cutoff 11",
    "hyper --X P1 --d 1 --s 2 --spec count:q=7 --cutoff 11",
    "hyper --X A^1 --d 1 --s 1 --spec count:q=3 --cutoff 10",
    "hyper --X P2 --d 2 --s 1 --spec count:q=3 --cutoff 10",
    "hyper --X P1 --d 1 --s 1 --spec hodge-deligne --cutoff 10",
    "hyper --X P2 --d 2 --s 0 --spec hodge-deligne --cutoff 8",
    "hyper --X P1 --d 1 --s 1 --spec motivic-L --cutoff 10",
    "hyper --X A^1 --d 1 --s 1 --spec motivic-L --cutoff 10",
    "hyper --X P2 --d 2 --s 1 --spec motivic-L --cutoff 8",
    "hyper --X P1 --d 1 --s 2 --ordered --spec count:q=3 --cutoff 12",
    "hyper --X P1 --d 1 --multi 3 --spec hodge-deligne --cutoff 12",
    "limit --of k --X P1 --spec motivic-L --cutoff 12 --normalization M",
    "limit --of kbar --nu 2 --X P1 --spec count:q=3 --cutoff 10 --normalization M",
    "limit --of symsing --s 0 --X A^1 --spec count:q=3 --cutoff 12 --normalization M",
    "limit --of distinctnu --nu 2,3 --X P1 --spec hodge-deligne --cutoff 8",
    "verify",
    "oracle --op syms --q 3 --s 1 --sweep-j 4:8",
    "oracle --op hyper --q 2 --s 2 --sweep-j 3:10",
    "oracle --op wlambda --X P1 --q 4 --lambda 2,1,1",
)

EDGE_CASES = (
    "limit --of symsing --X P1 --spec count:q=3 --cutoff 8",
    "series symsing --trunc 6",
    "series kbar --trunc 6",
    "limit --of kbar --X P1 --cutoff 6",
    "limit --of k --X hd:1+uv --normalization M",
    "limit --of k --nu 2 --X P2 --spec hodge-deligne --cutoff 6 --normalization M",
    "hyper --X P1 --d 1 --s 1 --multi 2",
    "oracle --op syms --q 3",
    "oracle --op hyper --q 2",
    "oracle --op syms --q 3 --s 1 --j 5",
    "oracle --op hyper --q 2 --j 4",
    "series zeta --X euler:-2",
    "series zeta --X hd:1+u+v+uv",
    "series zeta --X hd:1+uv --spec euler --trunc 8",
    "series zeta --X P3",
    "series zeta --X counts:q=2,N=[3,5,10] --trunc 3",
    "series zeta --X counts:q=2,N=[3,5,9] --trunc 3",
    "limit --of k --cutoff 4",
    "limit --of distinctnu --nu 2 --cutoff 4",
    "hyper --d 1 --s 1 --cutoff 4",
    "hyper --d 1 --s 1 --ordered --cutoff 4",
    "hyper --d 1 --multi 2 --cutoff 4",
    "hyper --X P2 --s 1 --cutoff 4",
    "series zeta --X counts:q=3 --spec count:q=5 --trunc 3",
    "series zeta --X symbolic --spec hodge-deligne --trunc 3",
    "series k --X P1 --spec count --trunc 3",
    "series zeta --X euler:2 --spec count:q=3 --trunc 3",
    "series zeta --X hd:1+uv --spec count:q=2 --trunc 3",
    "hyper --X hd:1+uv --d 1 --s 1 --spec euler --cutoff 3",
    "limit --of distinctnu --nu 2,3,4 --X A^1 --spec count:q=3 --cutoff 6",
    "hyper --X P1 --d 1 --s 1 --spec count:q=6 --cutoff 3",
    "series zeta --X counts:q=6 --trunc 3",
    "series kbar --nu 2 --a 3 --trunc 6",
    "limit --of kbar --nu 2 --a 7 --X P1",
    "limit --of distinctnu --nu 2 --normalization M --X P1",
)

COMMANDS = (
    list(SLOTS + EDGE_CASES)
    + [c + " --csv" for c in SLOTS + EDGE_CASES if c != "verify"]  # verify has no CSV
    + [c + " --json" for c in EDGE_CASES]
)


def _mask(text: str) -> str:
    text = re.sub(r'(elapsed_s"?(?:: |,))[0-9.e-]+', r"\1<s>", text)
    return re.sub(r"^(PASS|FAIL) (\S+) \([0-9.e-]+s\)", r"\1 \2 (<s>)", text, flags=re.M)


@cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _run(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(command.split())
    return {"exit": code, "stdout": _mask(out.getvalue()), "stderr": err.getvalue()}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_text_and_csv_match_the_golden(command):
    assert _run(command) == _golden()[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: _run(c) for c in COMMANDS}, indent=1, sort_keys=True) + "\n")
