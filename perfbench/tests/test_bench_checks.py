"""Self-tests of the benchmark: every job kind's check must reject a wrong
answer (so error_rate can be non-zero), inputs must be reproducible, and
the traced run must account for all job time.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import metrics
import oracles
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _smallest_jobs() -> dict:
    """The cheapest job of each kind from every workload's seed-0 list."""
    best: dict = {}
    for name in workloads.WORKLOADS:
        for job in (job for cycle in workloads.job_list(name, 0, cycles=2) for job in cycle):
            size = (job.get("p", 0), job.get("N", 0), job.get("r", 0))
            if job["kind"] not in best or size < best[job["kind"]][0]:
                best[job["kind"]] = (size, name, job)
    return {kind: (name, job) for kind, (_, name, job) in best.items()}


JOBS = _smallest_jobs()


def _canon(obj) -> str:
    """A full, exact text form of nested inputs (arrays included)."""
    def plain(o):
        if isinstance(o, np.ndarray):
            return ("array", o.dtype.str, o.tolist())
        if isinstance(o, dict):
            return {k: plain(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [plain(v) for v in o]
        return o
    return repr(plain(obj))


def _flip_to_violation(coloring, r: int, distinct: bool) -> tuple:
    """The certificate with one colour changed so that a pattern closes."""
    for i in range(len(coloring)):
        for c in range(r):
            flipped = list(coloring)
            if c != flipped[i]:
                flipped[i] = c
                if oracles.interval_violations(flipped, distinct):
                    return tuple(flipped)
    raise AssertionError("no single flip breaks this certificate")


def _off_by_one_census(census):
    per = (census.per_color[0] + 1,) + tuple(census.per_color[1:])
    return dataclasses.replace(census, per_color=per, total=census.total + 1)


def _corrupt(kind: str, job: dict, x: dict, res):
    """A deliberately wrong answer of the same shape."""
    res = copy.deepcopy(res)
    if kind == "audit":
        res["T"] += 1e-6
    elif kind == "census":
        res["census"] = _off_by_one_census(res["census"])
    elif kind in ("u3box",):
        res += 1e-6
    elif kind == "countlemma":
        res["report"].details["T"] += 1e-6
    elif kind == "bohr":
        res["B"] = res["B"][:-1]
    elif kind == "equidist":
        res = (res[0] + 1e-6, res[1], res[2])
    elif kind == "dual":
        res["I"] += 1e-6
    elif kind == "kvn":
        trace = res.energy_trace[:-1] + (res.energy_trace[-1] + 1e-6,)
        res = dataclasses.replace(res, energy_trace=trace)
    elif kind == "decompose":
        key = next(iter(res.lambdas))
        res.lambdas[key] += 1e-6
    elif kind == "atoms":
        res["once"] = res["once"] + 1e-6
    elif kind == "cli":
        field = {"bohr": "bohr_size", "equidist": "margin", "countlemma": "slack"}[job["command"]]
        res["report"][field] += 1 if field == "bohr_size" else 1e-6
    elif kind == "backtrack":
        res = dataclasses.replace(res, coloring=_flip_to_violation(res.coloring, 2, True))
    elif kind == "sweep":
        last = res["results"][workloads.SWEEP_LAST_SAT - 1]
        res["results"][workloads.SWEEP_LAST_SAT - 1] = dataclasses.replace(
            last, coloring=_flip_to_violation(last.coloring, 2, False))
    elif kind == "frontier":
        if res.status == "sat":
            res = dataclasses.replace(res, coloring=_flip_to_violation(res.coloring, 3, True))
        else:
            res = dataclasses.replace(res, nodes=res.nodes - 1)
    elif kind == "scan":
        res["min"] += 1
    elif kind == "lambda":
        res["tables"] += Fraction(1, len(x["T"]) ** 5)
    elif kind == "rich":
        i, value = res["oracle"]
        res["oracle"] = (i, value + Fraction(1, (2 ** job["r"]) ** 5))
    elif kind == "drc":
        res = dataclasses.replace(res, bad_measure_inside=res.bad_measure_inside
                                  + Fraction(1, 10**6))
    elif kind == "prime":
        res["phased"] += 1e-6
    else:
        raise KeyError(kind)
    return res


def test_every_kind_has_a_job():
    assert set(JOBS) == set(workloads.KINDS)


@pytest.mark.parametrize("kind", sorted(workloads.KINDS))
def test_check_accepts_the_answer_and_rejects_a_wrong_one(kind, tmp_path):
    name, job = JOBS[kind]
    workloads.setup(name)
    x = workloads.materialize(job, str(tmp_path))
    res, failure = workloads.attempt(job, x)
    assert failure is None, failure
    bad = _corrupt(kind, job, x, res)
    assert workloads.judge(job, x, bad) is not None
    assert workloads.judge(job, x, res) is None  # the corruption was a copy


def test_census_off_by_one_in_prime_sweep():
    name, job = JOBS["prime"]
    x = workloads.materialize(job, "")
    res, failure = workloads.attempt(job, x)
    assert failure is None
    res["census"] = _off_by_one_census(res["census"])
    assert "census" in workloads.judge(job, x, res)


def test_a_raising_job_counts_as_failed():
    job = {"kind": "u3box", "p": 101, "k1": 1, "k2": 2, "h": 1, "seed": 0}
    res, failure = workloads.attempt(job, {})
    assert res is None and "ValueError" in failure


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_list_is_a_pure_function_of_the_seed(name):
    a = workloads.job_list(name, 7, cycles=3)
    b = workloads.job_list(name, 7, cycles=3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert workloads.job_list_sha256(a) == workloads.job_list_sha256(b)
    assert workloads.job_list_sha256(a) != workloads.job_list_sha256(
        workloads.job_list(name, 8, cycles=3))
    for job in a[0]:
        assert _canon(workloads.materialize(job, "s")) == _canon(workloads.materialize(job, "s"))


def test_prime_sweep_overflows_the_context_cache():
    cycles = workloads.job_list("prime_sweep", 3, cycles=2)
    distinct = {job["p"] for cycle in cycles for job in cycle}
    assert len(distinct) > 64 and len(workloads.PRIME_POOL) == 72
    assert all(300 <= p <= 1100 for p in distinct)


def test_tracer_rebinds_every_namespace_and_restores_it():
    import fpharmonics.counting as counting
    import fpharmonics.harmonic as harmonic
    import fpharmonics.regularity as regularity
    from fpharmonics.field import FieldCtx

    before = (harmonic.norm_qm, counting.norm_qm, regularity.norm_qm, FieldCtx.grid)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harmonic.norm_qm is counting.norm_qm is regularity.norm_qm
        assert harmonic.norm_qm is not before[0] and FieldCtx.grid is not before[3]
    finally:
        tracer.uninstall()
    assert (harmonic.norm_qm, counting.norm_qm, regularity.norm_qm, FieldCtx.grid) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_cycle_accounts_for_job_time_and_measures_every_listed_metric(name):
    import run
    import worker

    workloads.setup(name)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = worker.run_loop(workloads.job_list(name, 5, cycles=run.TRACE_CYCLES),
                               tracer=tracer, n_cycles=run.TRACE_CYCLES)
    finally:
        tracer.uninstall()
    table, top = tracer.stats()
    counts = {k: loop["counts"].get(k, 0) for k in metrics.COUNTS}
    values = metrics.per_layer(table, top, sum(loop["times"]), counts,
                               len(loop["times"]), len(loop["failures"]))
    assert not loop["failures"]
    shares = [values[f"{layer}.share"] for layer in metrics.LAYERS]
    assert all(s >= 0 for s in shares) and values["bench.share"] > 0
    assert sum(shares) + values["bench.share"] == pytest.approx(1.0, abs=1e-9)
    listed = metrics.WORKLOAD_METRICS[name]
    assert all(values[m] > 0 for m in listed), [m for m in listed if not values[m] > 0]


def test_setup_probes_are_spread_over_the_run_and_not_loop_time(monkeypatch):
    import worker

    cheap = {"kind": "rich", "r": 2, "seed": 0}
    calls = []

    def probe():
        calls.append(time.perf_counter())
        time.sleep(0.05)
        return 0.05

    loop = worker.run_loop([[cheap] * 10], seconds=0.2, probe=probe, n_probes=4)
    assert loop["setup_samples"] == [0.05] * 4 and len(calls) == 4
    assert len(loop["times"]) >= worker.MIN_JOBS and not loop["failures"]
    assert loop["loop_s"] < calls[-1] - calls[0] + 0.2  # the probes' sleeps are not loop time


def test_a_wrong_answer_fails_the_job_but_not_its_timing(monkeypatch):
    import worker

    monkeypatch.setattr(workloads, "judge", lambda job, x, res: "wrong on purpose")
    loop = worker.run_loop([[{"kind": "rich", "r": 2, "seed": 0}] * 3], n_cycles=1)
    assert loop["failures"] == [0, 1, 2] and len(loop["times"]) == 3


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(
        metrics.WORKLOAD_METRICS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectral",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
