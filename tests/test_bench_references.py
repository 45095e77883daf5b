"""The CLI's JSON output for every benchmark variant, against ``bench/references.json``.

The benchmark checks each job's output with ``run.check_output``; this runs the
same check in process, so a change of output fails here before it fails a
benchmark run.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from disczeta import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
from workloads import all_variants  # noqa: E402

REFERENCES = json.loads(run.REFERENCES.read_text())


@pytest.mark.parametrize("job", all_variants(), ids=lambda job: job.key)
def test_cli_output_matches_the_bench_reference(job):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([*job.argv, "--json"])
    assert code == 0
    assert run.check_output(job, out.getvalue(), REFERENCES) is None
