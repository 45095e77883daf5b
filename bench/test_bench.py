"""Tests of the benchmark itself: run with ``python3 -m pytest -q bench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Job, all_variants, jobs, oracle_states  # noqa: E402

REFERENCES = json.loads(run.REFERENCES.read_text())


def _stdout(job: Job) -> str:
    return json.dumps(REFERENCES[job.key])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_output_passes(workload):
    for job in jobs(workload, 0):
        assert run.check_output(job, _stdout(job), REFERENCES) is None


def test_elapsed_fields_are_ignored():
    oracle_job = Job("oracle-syms", tuple("oracle --op syms --q 3 --s 0 --sweep-j 4:8".split()))
    output = json.loads(_stdout(oracle_job))
    output["result"]["elapsed_s"] = 12.5
    assert run.check_output(oracle_job, json.dumps(output), REFERENCES) is None

    verify_job = Job("verify", ("verify",))
    output = json.loads(_stdout(verify_job))
    for criterion in output["result"]:
        criterion["elapsed_s"] = 0.25
    assert run.check_output(verify_job, json.dumps(output), REFERENCES) is None


def test_perturbed_output_fails():
    job = Job("k", ("series", "k", "--trunc", "18"))
    output = json.loads(_stdout(job))
    output["result"]["coeffs"][-1] += " + 1"
    assert run.check_output(job, json.dumps(output), REFERENCES) == "output differs from the reference"
    assert run.check_output(job, "not json", REFERENCES) == "output is not JSON"


def test_failed_verify_criterion_fails():
    job = Job("verify", ("verify",))
    output = json.loads(_stdout(job))
    output["result"][3]["ok"] = False
    assert run.check_output(job, json.dumps(output), {job.key: output}) == "verify passed 11/12 criteria"


def test_unknown_variant_fails():
    job = Job("k", ("series", "k", "--trunc", "19"))
    assert run.check_output(job, "{}", REFERENCES) == "no reference output recorded for this variant"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_job_list(workload):
    assert jobs(workload, 7) == jobs(workload, 7)
    assert sorted(job.slot for job in jobs(workload, 7)) == sorted(WORKLOADS[workload])
    picks = {frozenset(job.key for job in jobs(workload, seed)) for seed in range(8)}
    orders = {tuple(job.slot for job in jobs(workload, seed)) for seed in range(8)}
    assert len(picks) > 1
    assert len(orders) > 1


def test_every_variant_has_a_reference():
    keys = {job.key for job in all_variants()}
    assert keys == set(REFERENCES)
    for job in all_variants():
        assert job.argv[0] in ("series", "limit", "hyper", "oracle", "verify")


def test_verify_reference_is_all_ok():
    criteria = REFERENCES["verify"]["result"]
    assert [c["name"] for c in criteria] == list(tracer.CRITERIA)
    assert all(c["ok"] for c in criteria)


def test_oracle_states_from_parameters():
    assert oracle_states(("oracle", "--op", "syms", "--q", "3", "--s", "1", "--sweep-j", "4:8")) == sum(
        3**j for j in range(4, 9)
    )
    assert oracle_states(("oracle", "--op", "hyper", "--q", "2", "--s", "0", "--sweep-j", "3:10")) == sum(
        2 ** (j + 1) for j in range(3, 11)
    )
    # lambda = 2,1 has two distinct values of multiplicity 1: (1 + q)^2 divisors on P^1
    assert oracle_states(("oracle", "--op", "wlambda", "--X", "P1", "--q", "3", "--lambda", "2,1")) == 16
    assert oracle_states(("series", "zetainv", "--trunc", "12")) == 0


def _bindings() -> dict[tuple[int, str], object]:
    """Every name bound in a disczeta module or in a class defined there."""
    out = {}
    for owner in tracer.Tracer()._namespaces():
        for attr, value in vars(owner).items():
            out[(id(owner), attr)] = value
    return out


def test_tracer_patches_and_restores_every_name():
    import disczeta.cli  # noqa: F401  (loads every module the CLI uses)
    from disczeta import genfun, motive, verify

    before = _bindings()
    original_criteria = verify.CRITERIA
    with tracer.Tracer():
        assert genfun.eval_at_L_power is not before[(id(genfun), "eval_at_L_power")]
        assert motive.eval_at_L_power is genfun.eval_at_L_power
        assert motive.MotivicClass.__rmul__ is motive.MotivicClass.__mul__
        assert motive.MotivicClass.__mul__ is not before[(id(motive.MotivicClass), "__mul__")]
        assert verify.CRITERIA is not original_criteria
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert verify.CRITERIA is original_criteria


def test_tracer_counts_without_changing_results():
    from disczeta import genfun as G
    from disczeta.models import Specialization, XModel
    from disczeta.partitions import GenPartition

    X, spec = XModel.proj_line(), Specialization.parse("count:q=3")
    G._w_profile.cache_clear()
    G._w_image.cache_clear()
    plain = G.zinv_lambda(X, GenPartition.empty(), 6, spec)
    G._w_profile.cache_clear()
    G._w_image.cache_clear()
    with tracer.Tracer() as t:
        traced = G.zinv_lambda(X, GenPartition.empty(), 6, spec)
    assert traced == plain
    m = t.metrics()
    assert set(m) == set(tracer.metric_names())
    assert m["genfun.zinv_lambda.calls"] == 1
    assert m["partitions.enumerate_Q.calls"] == 1
    assert m["partitions.enumerate_Q.items"] == len(G.pt.enumerate_Q(6))
    assert m["genfun.w_of.calls"] == m["partitions.enumerate_Q.items"]
    assert m["genfun.w_image.misses"] == m["models.XModel.specialize.calls"]
    assert 0 <= m["genfun.zinv_lambda.self_s"] <= m["genfun.zinv_lambda.s"]
    assert m["genfun.w_of.s"] <= m["genfun.zinv_lambda.s"]
    assert m["motive.coeff_monomials_max"] >= 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]]
    assert layer_names == tracer.metric_names() + ["oracle.states_per_s", "trace.overhead_s"]
    assert len(layer_names) <= 128
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)



def test_pass_timings_are_divided_by_the_speed_factor():
    job = Job("oracle-syms", tuple("oracle --op syms --q 3 --s 0 --sweep-j 4:8".split()))
    ref = run.CALIBRATION_REF_S
    steady = run.Pass([run.Outcome(job, main_s=2.0)], [ref, ref])
    slow = run.Pass([run.Outcome(job, main_s=4.0)], [ref, 3 * ref])
    assert steady.speed_factor == 1.0 and slow.speed_factor == 2.0
    assert steady.wall_s() == slow.wall_s() == 2.0
    assert slow.states_per_s() == oracle_states(job.argv) / 2.0
    assert run.calibrate() > 0
