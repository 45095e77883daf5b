"""Run one ``disczeta`` CLI job in this fresh process and report it as JSON.

    python3 bench/worker.py [--trace] -- <disczeta arguments>

``run.py`` starts one worker per job, so every ``lru_cache`` and
``partitions._closure_cache`` starts cold.  The worker times the import of
``disczeta.cli`` plus ``build_parser()`` (set-up) and, separately, the call
to ``disczeta.cli.main`` (the job).  It prints one JSON line: the exit code,
both times, the process's peak RSS, the CLI's captured standard output and,
with ``--trace``, the per-layer metrics of ``tracer.Tracer``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    trace = argv[0] == "--trace"
    job_argv = argv[argv.index("--") + 1 :]

    start = time.perf_counter()
    import disczeta.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    captured = io.StringIO()
    with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        code = cli.main(job_argv)
        main_s = time.perf_counter() - start

    record = {
        "code": code,
        "setup_s": setup_s,
        "main_s": main_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": captured.getvalue(),
        "trace": tracer.metrics() if tracer is not None else None,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
