"""Turns the raw measurements sfn_perfbench prints into named metrics.

The binary reports every job, step, solve and forward pass it timed; this
module owns the statistics (percentiles, the tail rule, quartile spreads)
and the metric definitions, so they are testable without a build.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# name -> (unit, better). End-to-end metrics first, then per-layer ones;
# BENCHMARK.json lists the same names, units and directions.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "job_p50_ms": ("ms", "lower"),
    "job_tail_ms": ("ms", "lower"),
    "cell_steps_per_s": ("1/s", "higher"),
    "quality_mean": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "nn.forward_calls": ("count", "lower"),
    "nn.forward_ms_p50": ("ms", "lower"),
    "nn.forward_s_total": ("s", "lower"),
    "nn.gflops_computed": ("GFLOP/s", "higher"),
    "core.step_ms_p50": ("ms", "lower"),
    "core.step_ms_tail": ("ms", "lower"),
    "core.encode_ms_per_solve": ("ms", "lower"),
    "core.service_ms_p50": ("ms", "lower"),
    "fluid.nonsolve_ms_per_step": ("ms", "lower"),
    "fluid.solve_calls": ("count", "lower"),
    "fluid.pcg_solve_ms_p50": ("ms", "lower"),
    "fluid.pcg_iters_per_solve": ("count", "lower"),
    "fluid.pcg_s_total": ("s", "lower"),
    "fluid.pcg_gflops_computed": ("GFLOP/s", "higher"),
    "runtime.restart_frac": ("ratio", "lower"),
    "runtime.wasted_step_frac": ("ratio", "lower"),
    "runtime.fallback_step_frac": ("ratio", "lower"),
    "runtime.switches_per_job": ("count", "lower"),
    "runtime.quarantines_per_job": ("count", "lower"),
    "runtime.pcg_share": ("ratio", "lower"),
    "serve.wait_ms_p50": ("ms", "lower"),
    "serve.wait_ms_tail": ("ms", "lower"),
    "serve.batches": ("count", "lower"),
    "serve.mean_batch": ("count", "higher"),
    "serve.inline_frac": ("ratio", "lower"),
    "serve.queue_high_water": ("count", "lower"),
    "serve.degraded_frac": ("ratio", "lower"),
    "serve.rejected_frac": ("ratio", "lower"),
    "loadgen.offered_per_s": ("1/s", "higher"),
    "loadgen.lag_max_ms": ("ms", "lower"),
    "setup.train_s": ("s", "lower"),
    "setup.quality_db_s": ("s", "lower"),
    "setup.prepack_s": ("s", "lower"),
    "quality.qloss_mean": ("ratio", "lower"),
    "quality.success_frac": ("ratio", "higher"),
    "quality.failed_frac": ("ratio", "lower"),
    "obs.trace_overhead_frac": ("ratio", "lower"),
}

# Percentiles considered for a tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def valid_metric_name(name):
    """Metric names: a letter or digit, then at most 63 of [A-Za-z0-9_.-]."""
    return bool(NAME_RE.match(name))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def _rank(n, p):
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n):
    """The highest candidate percentile with at least ten samples beyond
    it, or None when n is too small for any (fewer than 20 samples)."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def tail(values):
    """(percentile level, value) of the tail of `values`; with too few
    samples for the rule, the maximum is reported as level 100."""
    level = tail_percentile(len(values))
    if level is None:
        return 100.0, max(values)
    return level, percentile(values, level)


def quartile_spread(values):
    """Distance between the first and third quartiles as a share of the
    median, with Python's default (exclusive) quartile method."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _ratio(num, den):
    return num / den if den else 0.0


def _ok(jobs):
    return [j for j in jobs if j["status"] == "ok"]


def job_summary(window):
    """End-to-end timing and throughput of one window."""
    ok = _ok(window["jobs"])
    if not ok:
        return None
    latency_ms = [1e3 * j["latency_s"] for j in ok]
    level, tail_ms = tail(latency_ms)
    return {
        "job_p50_ms": statistics.median(latency_ms),
        "job_tail_ms": tail_ms,
        "tail_percentile": level,
        "samples": len(latency_ms),
        "cell_steps_per_s": sum(j["cell_steps"] for j in ok) / window["wall_s"],
    }


def quality(raw):
    qloss = raw["checks"]["qloss"]
    q = raw["q"]
    return {
        "qloss_mean": statistics.fmean(qloss) if qloss else 0.0,
        "success_frac": _ratio(sum(1 for x in qloss if x <= q), len(qloss)),
        "quality_mean": statistics.fmean(1.0 - x for x in qloss) if qloss else 0.0,
        "samples": len(qloss),
    }


def end_to_end(raw):
    """Metric name -> value for the untraced window (NaN timings when no
    job completed, which run.py reports as a failure)."""
    nan = float("nan")
    summary = job_summary(raw["windows"][0]) or {
        "job_p50_ms": nan, "job_tail_ms": nan, "cell_steps_per_s": nan}
    return {
        "setup_s": _median([s["total_s"] for s in raw["setups"]]),
        "job_p50_ms": summary["job_p50_ms"],
        "job_tail_ms": summary["job_tail_ms"],
        "cell_steps_per_s": summary["cell_steps_per_s"],
        "quality_mean": quality(raw)["quality_mean"],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw):
    """Metric name -> value from the traced window (the second one)."""
    untraced, traced = raw["windows"][0], raw["windows"][1]
    jobs = _ok(traced["jobs"])
    attempted = len(traced["jobs"])
    served = raw["workload"] == "serve_open"

    forwards = traced["forwards"]
    fwd_s = [f[0] for f in forwards]
    fwd_total = sum(fwd_s)
    solves = traced["solves"]
    neural = [s for s in solves if s[3]]
    pcg = [s for s in solves if not s[3]]
    pcg_total = sum(s[0] for s in pcg)
    steps = traced["step_s"]
    steps_executed = sum(j["steps_executed"] for j in jobs)
    service = [j["service_s"] for j in jobs]

    m = {}
    # nn: forward passes through the benchmark's sink; served sessions use
    # the server's coalescer instead, whose request counters stand in.
    m["nn.forward_calls"] = float(
        traced["requests_batched"] + traced["requests_inline"] if served else len(forwards))
    m["nn.forward_ms_p50"] = 1e3 * _median(fwd_s)
    m["nn.forward_s_total"] = fwd_total
    m["nn.gflops_computed"] = _ratio(sum(f[1] for f in forwards), fwd_total) / 1e9
    # core: stepper steps and what the surrogate solve spends outside nn.
    m["core.step_ms_p50"] = 1e3 * _median(steps)
    m["core.step_ms_tail"] = 1e3 * tail(steps)[1] if steps else 0.0
    m["core.encode_ms_per_solve"] = (
        1e3 * _ratio(sum(s[0] for s in neural) - fwd_total, len(neural)) if forwards else 0.0)
    m["core.service_ms_p50"] = 1e3 * _median(service)
    # fluid: step time outside the solve, and the exact solver.
    m["fluid.nonsolve_ms_per_step"] = (
        1e3 * _ratio(sum(steps) - sum(s[0] for s in solves), len(steps)) if steps else 0.0)
    m["fluid.solve_calls"] = float(len(solves))
    m["fluid.pcg_solve_ms_p50"] = 1e3 * _median([s[0] for s in pcg])
    if pcg:
        iters = _ratio(sum(s[1] for s in pcg), len(pcg))
    else:
        # PCG restarts and guard fallbacks run inside sessions; their exact
        # counts come from the library's pcg.* counters.
        iters = _ratio(traced["pcg_iterations"], traced["pcg_solves"])
    m["fluid.pcg_iters_per_solve"] = iters
    m["fluid.pcg_s_total"] = pcg_total
    m["fluid.pcg_gflops_computed"] = _ratio(sum(s[2] for s in pcg), pcg_total) / 1e9
    # runtime: the adaptive controller and health guard.
    m["runtime.restart_frac"] = _ratio(sum(j["restarted"] for j in jobs), len(jobs))
    m["runtime.wasted_step_frac"] = _ratio(
        sum(j["discarded_steps"] for j in jobs), steps_executed)
    m["runtime.fallback_step_frac"] = _ratio(
        sum(j["fallback_steps"] for j in jobs), steps_executed)
    m["runtime.switches_per_job"] = _ratio(sum(j["switches"] for j in jobs), len(jobs))
    m["runtime.quarantines_per_job"] = _ratio(
        sum(j["quarantines"] for j in jobs), len(jobs))
    m["runtime.pcg_share"] = _ratio(sum(j["pcg_s"] for j in jobs), sum(service))
    # serve and the load generator (open loop only).
    waits = [1e3 * (j["latency_s"] - j["service_s"]) for j in jobs] if served else []
    m["serve.wait_ms_p50"] = _median(waits)
    m["serve.wait_ms_tail"] = tail(waits)[1] if waits else 0.0
    m["serve.batches"] = float(traced["batches"])
    m["serve.mean_batch"] = _ratio(traced["requests_batched"], traced["batches"])
    m["serve.inline_frac"] = _ratio(
        traced["requests_inline"], traced["requests_inline"] + traced["requests_batched"])
    m["serve.queue_high_water"] = float(traced["queue_high_water"])
    m["serve.degraded_frac"] = _ratio(traced["degraded"], attempted)
    m["serve.rejected_frac"] = _ratio(
        sum(1 for j in traced["jobs"] if j["status"] == "rejected"), attempted)
    m["loadgen.offered_per_s"] = traced["offered_per_s"]
    m["loadgen.lag_max_ms"] = 1e3 * traced["lag_max_s"]
    # set-up phases (medians over the repeated set-ups).
    for phase in ("train_s", "quality_db_s", "prepack_s"):
        m["setup." + phase] = _median([s[phase] for s in raw["setups"]])
    # quality of the checked subset, and failures of the traced window.
    q = quality(raw)
    m["quality.qloss_mean"] = q["qloss_mean"]
    m["quality.success_frac"] = q["success_frac"]
    m["quality.failed_frac"] = _ratio(attempted - len(jobs), attempted)
    base = job_summary(untraced)
    with_trace = job_summary(traced)
    m["obs.trace_overhead_frac"] = (
        with_trace["job_p50_ms"] / base["job_p50_ms"] - 1.0 if base and with_trace else 0.0)
    return m


def failures(raw):
    """(attempted, failed, reasons): jobs attempted over every window, and
    the failed jobs plus one per failed check, each with its reason."""
    attempted = sum(len(w["jobs"]) for w in raw["windows"])
    failed_jobs = sum(1 for w in raw["windows"] for j in w["jobs"] if j["status"] != "ok")
    checks = raw["checks"]
    reasons = []
    hashes = sorted({s["ladder_hash"] for s in raw["setups"]})
    if len(hashes) != 1:
        reasons.append("set-ups built different ladders: %s" % hashes)
    if not checks["qloss"]:
        reasons.append("no job was checked against a PCG reference")
    if any(not math.isfinite(x) for x in checks["qloss"]):
        reasons.append("non-finite quality loss")
    if raw["workload"] == "pcg_exact" and any(x != 0.0 for x in checks["qloss"]):
        reasons.append("exact PCG differs from its own reference")
    if checks["solo_rerun_mismatch"]:
        reasons.append("%d served results differ from their solo rerun"
                       % checks["solo_rerun_mismatch"])
    if raw["workload"] == "serve_open" and not checks["solo_rerun_identical"]:
        reasons.append("no served result was compared with a solo rerun")
    if raw["provenance"]["sfn_env"]:
        reasons.append("SFN_* overrides were set: %s" % raw["provenance"]["sfn_env"])
    failed = failed_jobs + len(reasons)
    if failed_jobs:
        reasons.insert(0, "%d jobs errored, were rejected or were not finite" % failed_jobs)
    return attempted, failed, reasons
