"""Reduces a raw driver report to the benchmark's metrics.

End-to-end metrics come from untraced runs; per-layer metrics from traced
runs, including the self-time ledger computed from the Chrome trace file:
each layer's self time is its spans' durations minus the part of each
span's interval that its (same-thread) child spans cover, and
`unattributed_s` is the root span's own self time, so the layer self times
plus `unattributed_s` add up to the traced wall time.
"""

import json
import math
import statistics

LAYERS = ("soc", "cluster", "fi", "sim", "core", "ml", "serve", "net")

# (name, unit) of every end-to-end metric, printed by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("campaign_inj_per_s", "1/s"),
    ("pipeline_s", "s"),
    ("predict_cells_per_s", "1/s"),
    ("cv_accuracy", "fraction"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_rows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "fraction"),
)

# Per-layer metrics every workload reaches (the driver's --trace 1 set).
PER_LAYER = (
    ("soc.build_s", "s"),
    ("cluster.cluster_cells_s", "s"),
    ("fi.prepare_plan_s", "s"),
    ("fi.prepare_ladder_s", "s"),
    ("fi.plan_injections", "count"),
    ("fi.run_cycles", "count"),
    ("fi.ladder_rungs", "count"),
    ("fi.execute_s", "s"),
    ("fi.execute_inj_per_s", "1/s"),
    ("fi.finalize_s", "s"),
    ("fi.soft_errors", "count"),
    ("fi.records_write_s", "s"),
    ("fi.records_read_s", "s"),
    ("fi.records_bytes", "bytes"),
    ("fi.golden_bundle_bytes", "bytes"),
    ("core.build_dataset_s", "s"),
    ("core.features_s", "s"),
    ("ml.classify_s", "s"),
    ("ml.cross_validate_s", "s"),
    ("ml.train_s", "s"),
    ("ml.kernel_evals", "count"),
    ("ml.support_vectors", "count"),
    ("serve.registry_load_s", "s"),
    ("serve.handle_batch_us.r1", "us"),
    ("serve.handle_batch_us.r64", "us"),
    ("serve.handle_batch_us.r4096", "us"),
    ("net.predict_codec_us.r4096", "us"),
    ("serve.transport_us.r64", "us"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

# Per-layer metrics only some workloads reach: printed in the report of
# the workloads that have them, left out of the result line.
WORKLOAD_LAYER = {
    "retrain": (("ml.select_features_s", "s"), ("ml.grid_search_s", "s")),
    "fleet": (
        ("net.coordinator_run_s", "s"),
        ("net.worker_run_s.w0", "s"),
        ("net.worker_run_s.w1", "s"),
        ("net.worker_records.w0", "count"),
        ("net.worker_records.w1", "count"),
        ("net.transport_overhead_s", "s"),
    ),
}

PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MISSED_MS = 1e9  # latency reported for a percentile that lands on a failure


def supported_percentile(n, wanted):
    """Highest percentile <= `wanted` that still has at least ten samples
    beyond it among `n` samples (None when even the median has not)."""
    best = None
    for p in PERCENTILES:
        if p <= wanted and n * (100.0 - p) / 100.0 >= 10 - 1e-9:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of `values` (failures are +inf)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def self_times(spans):
    """Per-layer self seconds of Chrome trace events ("X" events whose args
    carry id / parent / concurrent). Returns (by_layer, root_self, wall)."""
    main = [s for s in spans if not s["args"].get("concurrent")]
    children = {}
    for s in main:
        children.setdefault(s["args"]["parent"], []).append(s)
    by_layer = {}
    root_self = 0.0
    wall = 0.0
    for s in main:
        start, end = s["ts"], s["ts"] + s["dur"]
        intervals = sorted(
            (max(start, c["ts"]), min(end, c["ts"] + c["dur"]))
            for c in children.get(s["args"]["id"], ()))
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own = (s["dur"] - covered) / 1e6
        if s["args"]["parent"] == 0:
            root_self += own
            wall += s["dur"] / 1e6
        else:
            by_layer[s["cat"]] = by_layer.get(s["cat"], 0.0) + own
    return by_layer, root_self, wall


def median(values):
    return statistics.median(values) if values else None


def end_to_end(raw):
    """serve_p99_ms and serve_rows_per_s are taken per pass of the request
    stream and reported as their median over the run's passes, so a slow
    spell of the host that covers one pass moves the result by one rank.
    serve_p50_ms is the p50 of every request of the run: one pass's p50
    sits in one of two modes about 13 us apart (which mode changes from
    pass to pass), and a median over passes jumps between the modes."""
    samples, values = raw["samples"], raw["values"]
    out = {
        "setup_s": median(samples.get("setup_s", [])),
        "campaign_inj_per_s": median(samples.get("campaign_inj_per_s", [])),
        "pipeline_s": median(samples.get("pipeline_s", [])),
        "predict_cells_per_s": median(samples.get("predict_cells_per_s", [])),
        "cv_accuracy": values.get("cv_accuracy"),
        "serve_rows_per_s": median([
            rows / s for rows, s in zip(samples.get("serve.pass_rows", []),
                                        samples.get("serve.pass_s", []))]),
        "peak_rss_mb": values.get("peak_rss_mb"),
        "success_rate": ((raw["attempted"] - raw["failed"]) / raw["attempted"]
                         if raw["attempted"] else None),
    }
    passes = {}
    for index, _, s in raw["requests"]:
        passes.setdefault(index, []).append(
            s if s is not None and s >= 0 else math.inf)
    pooled = [s for latencies in passes.values() for s in latencies]
    per_pass = min((len(v) for v in passes.values()), default=0)
    notes = {"serve_samples": len(pooled), "serve_passes": len(passes)}
    p = notes["serve_p50_ms"] = supported_percentile(len(pooled), 50.0)
    p50 = percentile(pooled, p) if p is not None else None
    p = notes["serve_p99_ms"] = supported_percentile(per_pass, 99.0)
    p99 = (median([percentile(latencies, p) for latencies in passes.values()])
           if p is not None else None)
    for name, v in (("serve_p50_ms", p50), ("serve_p99_ms", p99)):
        out[name] = (None if v is None else
                     MISSED_MS if math.isinf(v) else v * 1e3)
    return out, notes


def per_layer(raw, spans):
    samples, values = raw["samples"], raw["values"]
    out = {}
    for name, _ in PER_LAYER + sum(WORKLOAD_LAYER.values(), ()):
        if name in samples:
            out[name] = median(samples[name])
        elif name in values:
            out[name] = values[name]
    if "fi.prepare_s" in samples and "fi.prepare_plan_s" in samples:
        out["fi.prepare_ladder_s"] = (median(samples["fi.prepare_s"]) -
                                      median(samples["fi.prepare_plan_s"]))
    r64 = [s for _, rows, s in raw["requests"] if rows == 64 and s is not None
           and s >= 0]
    if r64 and "serve.handle_batch_us.r64" in out:
        out["serve.transport_us.r64"] = (median(r64) * 1e6 -
                                         out["serve.handle_batch_us.r64"])
    by_layer, root_self, wall = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    out["unattributed_s"] = root_self
    out["trace.wall_s"] = wall
    return out


def load_spans(path):
    with open(path, encoding="utf-8") as f:
        return [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
