"""The disczeta benchmark: CLI verbs run as cold jobs, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --record

One driver process runs the workload's jobs one at a time (closed loop, one
client), each in a fresh worker process (``worker.py``) with ``PYTHONPATH``
at ``src``, a pinned ``PYTHONHASHSEED`` and no ``DISCZETA_CACHE``.  It
repeats the seeded job list (``workloads.py``) in passes for about
``--seconds`` (the last pass may end half a pass later).  End-to-end timings
are in reference seconds (see ``calibrate``) and are medians over passes.  Each
job's ``--json`` output is checked against ``references.json``; a job fails
if it exits non-zero, times out or differs from the reference, and a
``verify`` job also fails if any criterion is not ok.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
every pass runs the job list once plain and once under ``tracer.Tracer``,
and the metrics are the per-layer ones plus ``trace.overhead_s`` (traced
minus plain ``wall_s``).  A table goes to standard output first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--record`` runs every variant once and rewrites ``references.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, Job, all_variants, jobs, oracle_states

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
REFERENCES = BENCH / "references.json"

JOB_TIMEOUT_S = 60.0
# no job starts later than this after the run began, so a run ends within 180 s
DEADLINE_S = 110.0
VERIFY_CRITERIA = 12

# On a shared host the machine's speed drifts by tens of percent within
# minutes, which would swamp any change to the program.  So ``calibrate()``
# is timed before the first job of every pass and after each job, and the
# end-to-end timings of a pass are divided by its speed factor: the mean
# calibration time over CALIBRATION_REF_S.  They are thus reference seconds,
# seconds on a machine where ``calibrate()`` takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    job: Job
    error: str | None = None  # None when the job passed every check
    setup_s: float | None = None
    main_s: float | None = None
    rss_mb: float | None = None
    trace: dict | None = None
    stdout: str = ""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DISCZETA_CACHE", None)  # its keys carry no version: results could be stale
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SOURCE)
    return env


def normalize(value):
    """The CLI's JSON output without the wall-clock ``elapsed_s`` fields."""
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [normalize(v) for v in value]
    return value


def check_output(job: Job, stdout: str, references: dict) -> str | None:
    """Why the job's output is wrong, or None if it matches its reference."""
    if job.key not in references:
        return "no reference output recorded for this variant"
    try:
        got = normalize(json.loads(stdout))
    except ValueError:
        return "output is not JSON"
    if got != references[job.key]:
        return "output differs from the reference"
    if job.argv[0] == "verify":
        criteria = got["result"]
        passed = sum(1 for c in criteria if c["ok"])
        if len(criteria) != VERIFY_CRITERIA or passed != VERIFY_CRITERIA:
            return f"verify passed {passed}/{len(criteria)} criteria"
    return None


def run_job(job: Job, trace: bool, timeout: float, references: dict | None) -> Outcome:
    """Run one job in a fresh worker; ``references=None`` skips the output check."""
    cmd = [sys.executable, str(BENCH / "worker.py")]
    cmd += ["--trace"] if trace else []
    cmd += ["--", *job.argv, "--json"]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Outcome(job, f"timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        return Outcome(job, f"worker exited with code {proc.returncode}: {err.strip()[-300:]}")
    record = json.loads(out.splitlines()[-1])
    outcome = Outcome(
        job,
        setup_s=record["setup_s"],
        main_s=record["main_s"],
        rss_mb=record["maxrss_kb"] / 1024,
        trace=record["trace"],
        stdout=record["stdout"],
    )
    if record["code"] != 0:
        outcome.error = f"disczeta exited with code {record['code']}: {err.strip()[-300:]}"
    elif references is not None:
        outcome.error = check_output(job, record["stdout"], references)
    return outcome


def calibrate() -> float:
    """Seconds this machine takes for a fixed computation.

    Sparse products of dicts keyed by tuples of small ints, the kind of work
    the program's ring classes do; it uses no code of the program.
    """
    start = time.perf_counter()
    step = {(i, j): (7 * i + j) % 11 + 1 for i in range(40) for j in range(3)}
    acc = {(0, 0): 1}
    for _ in range(6):
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in acc.items():
            for (a2, b2), c2 in step.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        acc = {k: v % 1_000_003 for k, v in out.items() if k[0] < 120}
    return time.perf_counter() - start


@dataclass
class Pass:
    """One run of the job list, with the calibration times taken around its jobs."""

    outcomes: list[Outcome]
    calibration: list[float]

    @property
    def speed_factor(self) -> float:
        """How much slower than the reference the machine ran during this pass."""
        return statistics.mean(self.calibration) / CALIBRATION_REF_S

    def times(self) -> list[float]:
        return [o.main_s for o in self.outcomes if o.main_s is not None]

    def wall_s(self) -> float:
        """Time inside ``cli.main`` summed over the pass, in reference seconds."""
        return sum(self.times()) / self.speed_factor

    def states_per_s(self) -> float:
        """Nominal oracle states of the pass's ``oracle`` jobs per reference second."""
        timed = [o for o in self.outcomes if o.main_s is not None and oracle_states(o.job.argv)]
        seconds = sum(o.main_s for o in timed) / self.speed_factor
        return sum(oracle_states(o.job.argv) for o in timed) / seconds if seconds else 0.0


def run_pass(job_list: list[Job], trace: bool, deadline: float, references: dict) -> Pass:
    done = Pass([], [calibrate()])
    for job in job_list:
        if time.monotonic() > deadline:
            done.outcomes.append(Outcome(job, "not started before the run's deadline"))
            continue
        done.outcomes.append(run_job(job, trace, JOB_TIMEOUT_S, references))
        done.calibration.append(calibrate())
    return done


def end_to_end(plain: list[Pass], every: list[Pass]) -> dict[str, float]:
    setups = [o.setup_s / p.speed_factor for p in every for o in p.outcomes if o.setup_s is not None]
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": statistics.median(p.wall_s() for p in plain),
        "slowest_job_s": statistics.median(max(p.times(), default=0.0) / p.speed_factor for p in plain),
        "peak_rss_mb": max(
            (o.rss_mb for p in plain for o in p.outcomes if o.rss_mb is not None), default=0.0
        ),
    }


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Per-layer metrics: pass totals of the traced jobs, median over passes."""
    totals = []
    for p in traced:
        total = dict.fromkeys(tracer.metric_names(), 0)
        for o in p.outcomes:
            for name, value in (o.trace or {}).items():
                if name.endswith(tracer.MAX_FIELDS):
                    total[name] = max(total[name], value)
                else:
                    total[name] += value
        totals.append(total)
    out = {name: statistics.median(t[name] for t in totals) for name in tracer.metric_names()}
    out["oracle.states_per_s"] = statistics.median(p.states_per_s() for p in plain)
    out["trace.overhead_s"] = statistics.median(p.wall_s() for p in traced) - statistics.median(
        p.wall_s() for p in plain
    )
    return out


def layer_unit(name: str) -> str:
    if name == "oracle.states_per_s":
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    references = json.loads(REFERENCES.read_text())
    job_list = jobs(workload, seed)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        pass_start = time.monotonic()
        plain.append(run_pass(job_list, False, deadline, references))
        if trace:
            traced.append(run_pass(job_list, True, deadline, references))
        # start another pass only if it should end within half a pass of --seconds
        now = time.monotonic()
        if now + (now - pass_start) / 2 > start + seconds or now > deadline:
            break

    outcomes = [o for p in plain + traced for o in p.outcomes]
    failed = [o for o in outcomes if o.error is not None]
    for o in failed:
        print(f"FAILED {o.job.key}: {o.error}", file=sys.stderr)
    print(f"workload {workload}  seed {seed}  passes {len(plain)}  jobs per pass {len(job_list)}")
    for o in plain[0].outcomes:
        took = "-" if o.main_s is None else f"{o.main_s:.3f} s"
        print(f"  job  {o.job.slot:<22} {took:>9}  {o.job.key}")
    for i, p in enumerate(plain):
        print(f"  pass {i}  measured wall {sum(p.times()):.3f} s  speed factor {p.speed_factor:.3f}")
    e2e = end_to_end(plain, plain + traced)
    shown = dict(e2e, fail_frac=len(failed) / len(outcomes))
    if any(oracle_states(job.argv) for job in job_list):
        shown["oracle_states_per_s"] = statistics.median(p.states_per_s() for p in plain)
    units = dict(END_TO_END_UNITS, fail_frac="1", oracle_states_per_s="1/s")
    for name, value in shown.items():
        print(f"  {name:<22} {value:.6g} {units[name]}")
    if trace:
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in per_layer(plain, traced).items()}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in e2e.items()}
    return {"correct": not failed, "attempted": len(outcomes), "failed": len(failed), "metrics": metrics}


def record() -> int:
    """Run every variant once and write its normalized output as the reference."""
    references = {}
    for job in all_variants():
        outcome = run_job(job, False, JOB_TIMEOUT_S, None)
        if outcome.error is not None:
            print(f"FAILED {job.key}: {outcome.error}", file=sys.stderr)
            return 1
        references[job.key] = normalize(json.loads(outcome.stdout))
        print(f"{outcome.main_s:8.3f} s  {job.key}")
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite references.json")
    args = parser.parse_args(argv)
    if not (SOURCE / "disczeta" / "cli.py").is_file():
        print(f"error: no disczeta sources under {SOURCE}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
