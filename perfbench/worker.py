"""One workload process, started by run.py: set up, run jobs, report.

    python3 perfbench/worker.py --workload W --seed N
        (--seconds S | --cycles C) [--trace]
    python3 perfbench/worker.py --workload W --setup-only
    python3 perfbench/worker.py --ladder --seed N

With --setup-only it builds the workload's fixed contexts, prints
"ready" and exits. Otherwise it runs the workload's job list in a closed
loop, one job after another, whole cycles at a time: exactly C cycles,
or until S seconds of loop time have passed and at least MIN_JOBS jobs
are done. An untraced --seconds run also times SETUP_PROBES fresh
--setup-only processes, each from its start until it reports ready
(setup_s), between jobs and evenly over the S seconds; that time is not
loop time. It prints one JSON report on stdout. --trace runs the loop
under tracing.Tracer. --ladder runs only the prime ladder, untraced, in
a process that has run no jobs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_JOBS = 100  # so that the p90 has at least ten jobs beyond it
# set-up time swings with load elsewhere on a shared host over seconds to
# minutes; the median of probes spread over the whole run follows the
# run's mean load, not the few seconds around one burst of probes
SETUP_PROBES = 20
MAX_FAILURE_DETAILS = 20


def import_package():
    """Import fpharmonics from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import fpharmonics
    if Path(fpharmonics.__file__).resolve().parent != SRC / "fpharmonics":
        raise ImportError(f"fpharmonics imported from {fpharmonics.__file__}, not {SRC}")
    return fpharmonics


def time_setup(workload: str) -> float:
    """Seconds from starting a fresh --setup-only worker until it says ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "--workload", workload, "--setup-only"],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process exited with {proc.returncode}, said {line!r}")
    return elapsed


def _add(counts: dict, more: dict) -> None:
    for key, n in more.items():
        counts[key] = counts.get(key, 0) + n


def run_loop(cycles: list, seconds: float = 0.0, tracer=None, n_cycles: int = 0,
             probe=None, n_probes: int = 0) -> dict:
    """Run whole cycles: n_cycles of them if given, else until `seconds`
    of loop time have passed and at least MIN_JOBS jobs are done. Between
    jobs, call probe() n_probes times, evenly over `seconds`; the probes'
    own time is not loop time. Only the package calls of a job are timed
    and traced; its check runs after."""
    import workloads

    times, kinds, failures, details, probes = [], [], [], [], []
    counts: dict = {}
    cache = tracer.originals[("field", "cached_field")] if tracer is not None else None
    t0 = time.perf_counter()
    paused = 0.0

    def loop_s():
        return time.perf_counter() - t0 - paused

    k = 0
    while (k < n_cycles if n_cycles else loop_s() < seconds or len(times) < MIN_JOBS):
        for job in cycles[k % len(cycles)]:
            if len(probes) < n_probes and loop_s() >= len(probes) * seconds / n_probes:
                start = time.perf_counter()
                probes.append(probe())
                paused += time.perf_counter() - start
            inputs = workloads.materialize(job, str(OUT))
            if tracer is not None:
                before = cache.cache_info()
                tracer.job = len(times)
            start = time.perf_counter()
            result, failure = workloads.attempt(job, inputs)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.job = None
                after = cache.cache_info()
                misses = after.misses - before.misses
                _add(counts, {"field.cache_hits": after.hits - before.hits,
                              "field.cache_misses": misses,
                              "field.cache_evictions":
                                  misses - (after.currsize - before.currsize)})
            if failure is None:
                failure = workloads.judge(job, inputs, result)
            if tracer is not None and result is not None:
                _add(counts, workloads.counts(job, inputs, result))
            times.append(elapsed)
            kinds.append(job["kind"])
            if failure is not None:
                failures.append(len(times) - 1)
                if len(details) < MAX_FAILURE_DETAILS:
                    details.append({"index": len(times) - 1, "job": job, "error": failure})
        k += 1
    loop_wall = loop_s()
    while len(probes) < n_probes:  # a run shorter than its last probe's slot
        probes.append(probe())
    return {"times": times, "kinds": kinds, "failures": failures,
            "failure_details": details, "cycles": k, "setup_samples": probes,
            "counts": counts, "loop_s": loop_wall}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--cycles", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--ladder", action="store_true")
    args = ap.parse_args(argv)
    if not args.ladder and args.workload is None:
        ap.error("--workload is required unless --ladder is given")

    import numpy as np
    import_package()
    if args.ladder:
        import ladder
        print(json.dumps({"numpy": np.__version__, "ladder": ladder.run(args.seed)}))
        return 0

    import workloads

    workloads.setup(args.workload)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    cycles = workloads.job_list(args.workload, args.seed)
    report = {"numpy": np.__version__, "job_list_sha256": workloads.job_list_sha256(cycles),
              "jobs_per_cycle": [len(c) for c in cycles[:2]]}
    if not args.trace:
        report.update(run_loop(cycles, args.seconds, n_cycles=args.cycles,
                               probe=lambda: time_setup(args.workload),
                               n_probes=0 if args.cycles else SETUP_PROBES))
    else:
        import metrics
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        loop = run_loop(cycles, args.seconds, tracer, args.cycles)
        tracer.uninstall()
        table, top = tracer.stats()
        counts = {key: loop["counts"].get(key, 0) for key in metrics.COUNTS}
        report.update(loop)
        report["per_layer"] = metrics.per_layer(table, top, sum(loop["times"]), counts,
                                                len(loop["times"]), len(loop["failures"]))
        report["functions"] = {f"{layer}.{name}": {"calls": c, "self_ms": s * 1e3,
                                                   "inclusive_ms": i * 1e3}
                               for (layer, name), (c, s, i) in sorted(table.items())}
        spans = OUT / f"{args.workload}.spans.jsonl"
        tracer.write(spans, tracer.spans[0][2] if tracer.spans else 0.0)
        report["spans_file"] = str(spans.relative_to(ROOT))
        report["n_spans"] = len(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
