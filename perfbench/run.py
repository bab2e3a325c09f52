"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Run from anywhere; it works on the checkout that holds this file and
imports the package from that checkout's src/. It exits 2, printing no
result, when src/fpharmonics is not there.

--trace 0: one worker process runs the workload untraced for --seconds
of jobs and, between jobs, times fresh set-up processes spread evenly
over the run (setup_s is their median); prints the end-to-end metrics.
--trace 1: for every workload in turn, one untraced and one traced
worker run TRACE_CYCLES cycles of that workload's job list for the same
seed, so the counts repeat exactly; then a fresh worker runs the prime
ladder. --workload only names the record file. Prints the per-layer
metrics `<workload>.<layer>.<metric>`, including each workload's
trace.overhead_frac = 1 - traced jobs_per_s / untraced jobs_per_s, and
the ladder's `ladder.<kernel>.p<p>.ms`.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the lines before it list every metric with its unit. The full
record (provenance, job-list hash, per-job times, failures, per-function
trace table, ladder skips) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0  # the whole run, workers included, ends before 180 s
TRACE_CYCLES = 2  # two prime_sweep cycles ask for 72 primes: the 64-entry cache evicts

sys.path.insert(0, str(BENCH))
import metrics  # noqa: E402  (stdlib-only module next to this file)


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list, deadline: float) -> tuple:
    """Start a worker and wait for it: (its JSON report, its rusage).

    The worker is killed if it outlives the deadline; either way it has
    been reaped when this returns."""
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, env=child_env(), text=True)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), usage


def provenance() -> dict:
    git = {"commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

        def git_out(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, env=env, check=True).stdout.strip()
        try:
            git = {"commit": git_out("rev-parse", "HEAD"),
                   "dirty": bool(git_out("status", "--porcelain", "--untracked-files=no"))}
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {**git, "src_sha256": digest.hexdigest(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu, "thread_vars": {var: "1" for var in THREAD_VARS}}


def measure(args, deadline: float) -> tuple:
    """(metrics, attempted, failed, record) for one invocation."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    record: dict = {}
    if not args.trace:
        report, usage = run_worker(common + ["--seconds", str(args.seconds)], deadline)
        values = metrics.end_to_end(report["times"], report["setup_samples"], usage.ru_maxrss)
        record["worker"] = report
        runs = [report]
    else:
        values, runs = {}, []
        for name in metrics.WORKLOAD_METRICS:
            per = ["--workload", name, "--seed", str(args.seed), "--cycles", str(TRACE_CYCLES)]
            plain, _ = run_worker(per, deadline)
            traced, _ = run_worker(per + ["--trace"], deadline)
            base = dict(traced["per_layer"], **{"trace.overhead_frac": 1 - (
                metrics.jobs_per_s(traced["times"]) / metrics.jobs_per_s(plain["times"]))})
            values.update({f"{name}.{m}": base[m]
                           for m in metrics.WORKLOAD_METRICS[name] + metrics.COMMON})
            record[name] = {"untraced": plain, "traced": traced}
            runs += [plain, traced]
        record["worker"] = record[args.workload]["traced"]
        record["ladder"] = run_worker(["--ladder", "--seed", str(args.seed)], deadline)[0]["ladder"]
        values.update({name: entry["ms"] for name, entry in record["ladder"].items()
                       if "ms" in entry})
    attempted = sum(len(r["times"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    return values, attempted, failed, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(metrics.WORKLOAD_METRICS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "fpharmonics" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'fpharmonics'}", file=sys.stderr)
        return 2
    # One core for this process and every worker it starts: the last CPU we
    # may use, away from CPU 0 where a small VM's interrupts and housekeeping
    # run. Unpinned, a worker migrating between vCPUs of unequal load
    # roughly doubled the run-to-run spread on a 2-vCPU VM.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        values, attempted, failed, record = measure(args, deadline)
    except (WorkerFailed, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    defs = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in defs}}
    worker = record["worker"]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace,
                   "provenance": {**provenance(), "numpy": worker["numpy"],
                                  # measured by --trace 1 runs only
                                  "trace.overhead_frac": {
                                      name: values[f"{name}.trace.overhead_frac"]
                                      for name in metrics.WORKLOAD_METRICS} if args.trace
                                  else None},
                   "job_list_sha256": worker["job_list_sha256"], "result": result,
                   **record}, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={attempted} failed={failed} job_list_sha256={worker['job_list_sha256']}")
    for name, unit, _ in defs:
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
