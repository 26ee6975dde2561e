"""Metric tables, statistics and the result line shared by every workload."""

from __future__ import annotations

import json
import resource
import statistics
import sys

#: End-to-end metrics: every workload reports every one of them, as the
#: workload's own operation (see README.md, "Metrics").
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "cbm_mb": "MB",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run.  A layer that is not on a
#: workload's path reports 0 there.
PER_LAYER = {
    "core.build_s": "s",
    "core.candidates_s": "s",
    "core.spanning_s": "s",
    "core.deltas_s": "s",
    "core.deltas": "count",
    "core.tree_levels": "count",
    "core.candidate_edges": "count",
    "runtime.plan_build_ms": "ms",
    "runtime.execute_ms": "ms",
    "runtime.multiply_ms": "ms",
    "runtime.update_ms": "ms",
    "runtime.multiply_mb": "MB",
    "runtime.update_mb": "MB",
    "runtime.scalar_ops": "count",
    "runtime.pool_hit_rate": "ratio",
    "runtime.pool_acquires": "count",
    "gnn.dense_ms": "ms",
    "gnn.dense_mb": "MB",
    "serving.submit_us": "us",
    "serving.batch_size": "req/batch",
    "serving.batches": "count",
    "serving.nonkernel_ms": "ms",
    "serving.shed": "count",
    "serving.retries": "count",
    "reliability.guard_ms": "ms",
    "reliability.fallbacks": "count",
    "streaming.patch_ms": "ms",
    "streaming.rows_patched": "count",
    "streaming.delta_growth": "ratio",
    "streaming.deltas_now": "count",
    "streaming.deltas_at_rebuild": "count",
    "streaming.rebase_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.traced_op_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_ms": "ms",
    "trace.spans": "count",
}

#: Ladder of reported tail percentiles.
TAIL_LADDER = (99.9, 99.0, 90.0)

MB = 1e6


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def chunked_tail(samples, chunk: int) -> tuple[float, float]:
    """Tail latency robust to bursts of machine noise.

    The samples, in the order they were taken, are cut into consecutive
    chunks of ``chunk``; in each chunk the tail is the highest ladder
    percentile with at least ten samples beyond it, and the result is the
    median of the chunks' tails.  Returns ``(tail, percentile)``.  A run
    too short for two whole chunks is an error, not a different statistic.
    """
    q = tail_percentile(chunk)
    whole = len(samples) // chunk
    if q is None or whole < 2:
        raise ValueError(f"{len(samples)} samples give fewer than two chunks of {chunk}")
    tails = [percentile(samples[i * chunk:(i + 1) * chunk], q) for i in range(whole)]
    return median(tails), q


def percentiles(samples) -> dict:
    """p50/p90/p99 of timing samples in ms, for the diagnostic run line."""
    if not samples:
        return {}
    return {f"p{q:g}_ms": round(1e3 * percentile(samples, q), 4) for q in (50, 90, 99)}


def trace_overhead(untraced, traced) -> dict:
    """The ``trace.*`` timing entries: operation p50 with and without spans."""
    plain = 1e3 * median(untraced)
    spanned = 1e3 * median(traced)
    return {
        "trace.untraced_op_ms": plain,
        "trace.traced_op_ms": spanned,
        "trace.overhead_ms": spanned - plain,
        "trace.overhead_pct": 100.0 * (spanned / plain - 1.0),
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def info(tag: str, payload) -> None:
    """A diagnostic line on stdout; the result line always comes last."""
    print(f"perfbench {tag}: {json.dumps(payload, sort_keys=True)}", flush=True)


def emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    line = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": metrics}
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()
