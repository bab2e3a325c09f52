"""Metric names, units and definitions: the one list BENCHMARK.json mirrors.

End-to-end metrics come from the untraced run of one workload; per-layer
metrics, named `<workload>.<layer>.<metric>`, from the traced run of
every workload with the same seed, plus the prime ladder. Layers are the
package's modules; `bench` is the benchmark's own code (checks, oracles).
"""

from __future__ import annotations

import statistics

END_TO_END = (
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

LAYERS = ("field", "harmonic", "counting", "charsums", "qm", "regularity",
          "search", "ramsey", "cli")

# metric -> the (layer, function) spans whose mean self time per call it reports
MEAN_SELF_MS = {
    "field.grid.ms": (("field", "grid"),),
    "harmonic.norm_qm.ms": (("harmonic", "norm_qm"),),
    "harmonic.norm_u3_plus.ms": (("harmonic", "norm_u3_plus"),),
    "harmonic.transform.ms": (("harmonic", "add_transform"), ("harmonic", "add_invert"),
                              ("harmonic", "mult_transform")),
    "counting.T.ms": (("counting", "T"),),
    "counting.census.ms": (("counting", "census_quadruples"), ("counting", "census_triples")),
    "counting.differencing_sup.ms": (("counting", "differencing_sup"),),
    "counting.audit.ms": (("counting", "check_gvn_bounds"),
                          ("counting", "check_u2times_star_bound"),
                          ("counting", "check_simple_lemma")),
    "charsums.u3_box_sum.ms": (("charsums", "u3_box_sum"),),
    "qm.bohr_set.ms": (("qm", "bohr_set"),),
    "qm.box_fraction.ms": (("qm", "box_fraction"),),
    "qm.baby_count.ms": (("qm", "baby_count"),),
    "qm.counting_integral_direct.ms": (("qm", "counting_integral_direct"),),
    "regularity.build_atoms.ms": (("regularity", "build_atoms"),),
    "regularity.project.ms": (("regularity", "project"),),
    "regularity.quad_decompose.ms": (("regularity", "quad_decompose"),),
    "ramsey.lambda_T.ms": (("ramsey", "lambda_T"),),
    "ramsey.lambda_direct.ms": (("ramsey", "_lambda_direct"),),
    "ramsey.drc.ms": (("ramsey", "dependent_random_choice"),),
    "ramsey.find_rich_color.ms": (("ramsey", "find_rich_color"),),
    "cli.main.self_ms": (("cli", "main"),),
}

# counts the benchmark reads off job results, outside the spans, and off
# the unwrapped cached_field.cache_info() around each job's package calls
COUNTS = ("search.nodes", "search.solved_N", "search.colorings",
          "regularity.kvn.iterations", "qm.H_points",
          "field.cache_hits", "field.cache_misses", "field.cache_evictions")

LADDER_KERNELS = ("new_field", "T", "census_quadruples", "norm_u3_plus", "norm_qm",
                  "quad_phase_inner_products", "differencing_sup", "u3_box_sum")
LADDER_PRIMES = (31, 101, 401, 1009)
U3_BOX_CAP = 61  # u3_box_sum refuses larger p
# rungs not timed because one call would take far too long; the estimates
# scale the p=101 or p=401 time by the kernel's complexity class
LADDER_TOO_SLOW = {
    ("norm_qm", 1009): "about 40 s: a length-p loop of (p-1) x p FFT blocks, "
                       "O(p^3 log p), 2.5-3.5 s at p=401",
    ("differencing_sup", 401): "about 5 s: pure-Python O(p^3) loop, 82 ms at p=101",
    ("differencing_sup", 1009): "about 80 s: pure-Python O(p^3) loop, 82 ms at p=101",
}


def ladder_slots() -> list:
    """(kernel, p) rungs the ladder reports as metrics."""
    return [(k, p) for k in LADDER_KERNELS for p in LADDER_PRIMES
            if (k, p) not in LADDER_TOO_SLOW and not (k == "u3_box_sum" and p > U3_BOX_CAP)]


def ladder_name(kernel: str, p: int) -> str:
    return f"ladder.{kernel}.p{p}.ms"


def _unit(metric: str) -> tuple:
    """(unit, better) of a per-layer metric."""
    special = {
        "field.new_field.calls": ("count", "lower"),
        "field.cache_evictions": ("count", "lower"),
        "field.cache_hit_ratio": ("fraction", "higher"),
        "qm.H_points": ("count", "lower"),
        "regularity.kvn.iterations": ("count", "lower"),
        "search.nodes": ("count", "lower"),
        "search.nodes_per_s": ("1/s", "higher"),
        "search.useful_ratio": ("fraction", "higher"),
        "search.colorings_per_s": ("1/s", "higher"),
    }
    if metric in special:
        return special[metric]
    return ("ms", "lower") if metric.endswith("ms") else ("fraction", "lower")


# What each workload's traced run reports: the layers it exercises, and of
# their per-call times only the functions it calls in every cycle, so no
# listed time is a constant 0. The other layers are each other workload's.
WORKLOAD_METRICS = {
    "spectral": (
        "field.share", "field.grid.ms",
        "harmonic.share", "harmonic.norm_qm.ms", "harmonic.norm_u3_plus.ms",
        "harmonic.transform.ms",
        "counting.share", "counting.T.ms", "counting.census.ms",
        "counting.differencing_sup.ms", "counting.audit.ms",
        "charsums.share", "charsums.u3_box_sum.ms"),
    "structure": (
        "field.share", "field.grid.ms",
        "harmonic.share", "harmonic.norm_qm.ms", "harmonic.norm_u3_plus.ms",
        "counting.share", "counting.T.ms",
        "qm.share", "qm.bohr_set.ms", "qm.box_fraction.ms", "qm.baby_count.ms",
        "qm.counting_integral_direct.ms", "qm.H_points",
        "regularity.share", "regularity.build_atoms.ms", "regularity.project.ms",
        "regularity.quad_decompose.ms", "regularity.kvn.iterations",
        "cli.share", "cli.main.self_ms"),
    "combinatorial": (
        "field.share", "field.grid.ms",
        "search.share", "search.nodes", "search.nodes_per_s", "search.useful_ratio",
        "search.colorings_per_s",
        "ramsey.share", "ramsey.lambda_T.ms", "ramsey.lambda_direct.ms", "ramsey.drc.ms",
        "ramsey.find_rich_color.ms"),
    "prime_sweep": (
        "field.share", "field.new_field.calls", "field.cache_hit_ratio",
        "field.cache_evictions", "field.grid.ms",
        "harmonic.share", "harmonic.transform.ms",
        "counting.share", "counting.T.ms", "counting.census.ms"),
}
COMMON = ("bench.share", "bench.error_rate", "trace.overhead_frac")


def _per_layer_defs() -> tuple:
    defs = [(f"{w}.{m}", *_unit(m)) for w, ms in WORKLOAD_METRICS.items() for m in ms + COMMON]
    defs += [(ladder_name(k, p), "ms", "lower") for k, p in ladder_slots()]
    return tuple(defs)


PER_LAYER = _per_layer_defs()


def jobs_per_s(times: list) -> float:
    """Checked jobs per second of job wall time (input generation excluded)."""
    return len(times) / sum(times)


def end_to_end(times: list, setup_samples: list, peak_rss_kb: int) -> dict:
    """The untraced run's metrics from per-job wall times (seconds)."""
    return {
        "jobs_per_s": jobs_per_s(times),
        "job_p50_ms": statistics.median(times) * 1e3,
        "job_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def per_layer(table: dict, top_s: float, job_s: float, counts: dict,
              attempted: int, failed: int) -> dict:
    """Per-layer metrics of one traced run, without overhead and ladder.

    table: {(layer, name): [calls, self_s, inclusive_s]} from Tracer.stats;
    top_s: time inside top-level spans; job_s: summed job wall time.
    """
    def calls(*keys):
        return sum(table.get(k, (0, 0.0, 0.0))[0] for k in keys)

    def self_s(*keys):
        return sum(table.get(k, (0, 0.0, 0.0))[1] for k in keys)

    def incl_s(*keys):
        return sum(table.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def rate(num, seconds):
        return num / seconds if seconds > 0 else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.share"] = sum(v[1] for (lay, _), v in table.items() if lay == layer) / job_s
    for metric, keys in MEAN_SELF_MS.items():
        out[metric] = rate(self_s(*keys) * 1e3, calls(*keys))
    hits = counts["field.cache_hits"]
    nodes = counts["search.nodes"]
    out.update({
        "field.new_field.calls": calls(("field", "new_field")),
        "field.cache_hit_ratio": rate(hits, hits + counts["field.cache_misses"]),
        "field.cache_evictions": counts["field.cache_evictions"],
        "qm.H_points": counts["qm.H_points"],
        "regularity.kvn.iterations": counts["regularity.kvn.iterations"],
        "search.nodes": nodes,
        "search.nodes_per_s": rate(nodes, incl_s(("search", "interval_backtrack"))),
        "search.useful_ratio": rate(counts["search.solved_N"], nodes),
        "search.colorings_per_s": rate(counts["search.colorings"],
                                       incl_s(("search", "fp_coloring_scan"))),
        "bench.share": (job_s - top_s) / job_s,
        "bench.error_rate": failed / attempted,
    })
    return out
