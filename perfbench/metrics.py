"""Turns the raw report of one ndss_perfbench run into metrics.

The benchmark binary records what it measured (set-up times, per-operation
samples, exact counts, spans); everything derived from those lives here, so
the arithmetic has unit tests (test_metrics.py).
"""

import math
import statistics

# Workload-specific names of the end-to-end metrics: what a reader of the
# printed table sees next to the generic metric it comes from.
WORKLOAD_NAMES = {
    "memo_eval": {"ops_per_s": ("eval_windows_per_s", "windows/s")},
    "serve_zipf": {
        "ops_per_s": ("search_qps", "requests/s"),
        "query_p50_ms": ("search_p50_ms", "ms"),
    },
    "ingest_mix": {
        "ops_per_s": ("ingest_docs_per_s", "acked docs/s"),
        "query_p50_ms": ("fresh_query_p50_ms", "ms"),
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_tokens_per_s": "tokens/s",
    "ops_per_s": "ops/s",
    "query_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "index_bytes_per_token": "B",
    "ok_op_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "index.build_generate_s": "s",
    "index.build_sort_s": "s",
    "index.build_io_s": "s",
    "index.build_write_bytes_per_token": "B",
    "sketch.us_per_query": "us",
    "query.io_ms_per_query": "ms",
    "query.cpu_ms_per_query": "ms",
    "query.io_bytes_per_query": "B",
    "query.read_syscalls_per_query": "count",
    "query.lists_per_query": "count",
    "query.long_lists_per_query": "count",
    "query.empty_lists_per_query": "count",
    "query.batch_cache_hit_ratio": "ratio",
    "query.shared_cache_hits_per_query": "count",
    "query.windows_scanned_per_query": "count",
    "query.candidate_texts_per_query": "count",
    "eval.self_ms_per_window": "ms",
    "list_cache.hit_ratio": "ratio",
    "list_cache.evictions": "count",
    "list_cache.bytes_used_mb": "MB",
    "net.roundtrip_p50_ms": "ms",
    "net.roundtrip_p99_ms": "ms",
    "net.overhead_p50_ms": "ms",
    "shard.search_p50_ms": "ms",
    "shard.search_p99_ms": "ms",
    "shard.shards_at_query_mean": "count",
    "ingest.append_batch_p50_ms": "ms",
    "ingest.append_batch_p90_ms": "ms",
    "ingest.spill_batch_p50_ms": "ms",
    "ingest.compact_s_total": "s",
    "ingest.write_bytes_per_doc_byte": "ratio",
    "ingest.spills": "count",
    "ingest.compactions": "count",
    "trace.overhead_ratio": "ratio",
}

MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank p-th percentile of `values`, or None when fewer than
    MIN_BEYOND samples lie beyond it (the percentile is then not reported)."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def failed_op_ratio(attempted, failed, refused):
    """Share of attempted operations that failed or were refused."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return (failed + refused) / attempted


def self_times(spans):
    """Total self time per span name, in microseconds.

    `spans` are [name, start_us, end_us, parent] rows (parent is the index of
    the enclosing span, -1 for a root). A span's self time is its duration
    minus the part of it that its children cover; overlapping children are
    counted once and children are clipped to the parent, so it is never
    negative.
    """
    children = {}
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(int(parent), []).append(index)
    totals = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, []), key=lambda c: spans[c][1]):
            child_start = max(spans[child][1], cursor)
            child_end = min(spans[child][2], end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        totals[name] = totals.get(name, 0.0) + max(0.0, (end - start) - covered)
    return totals


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(raw):
    """End-to-end metrics of an untraced run, plus the sample counts behind
    the timings (for the printed table)."""
    ops = sum(raw["chunk_ops"])
    seconds = sum(raw["chunk_s"])
    p50 = percentile(raw["query_ms"], 50)
    if p50 is None:
        raise ValueError("too few queries for a median: %d" % len(raw["query_ms"]))
    metrics = {
        "setup_s": _median(raw["setup_s"]),
        "build_tokens_per_s": raw["build_tokens"] / _median(raw["build_s"]),
        "ops_per_s": ops / seconds,
        "query_p50_ms": p50,
        "peak_rss_mb": raw["peak_rss_mb"],
        "index_bytes_per_token": raw["index_bytes"] / raw["indexed_tokens"],
        "ok_op_ratio": 1.0 - failed_op_ratio(
            raw["attempted"], raw["failed"], raw["refused"]),
    }
    samples = {"setup_s": len(raw["setup_s"]), "query_p50_ms": len(raw["query_ms"])}
    return metrics, samples


def tail_latency(raw):
    """The workload's highest reportable query-latency percentile among p99,
    p90 and p75, as (label, value, samples), or None."""
    for p in (99, 90, 75):
        value = percentile(raw["query_ms"], p)
        if value is not None:
            return "p%d" % p, value, len(raw["query_ms"])
    return None


def per_layer(traced, untraced):
    """Per-layer metrics of a traced run. A layer the workload does not
    exercise reads 0."""
    layers = traced.get("layers", {})
    counts = traced["counts"]
    query = layers.get("query", {})
    queries = query.get("queries", 0)

    def per_query(key, scale=1.0):
        return query.get(key, 0) * scale / queries if queries else 0.0

    def pct(values, p):
        value = percentile(values, p)
        return 0.0 if value is None else value

    short = query.get("short_lists", 0)
    m = {
        "index.build_generate_s": _median(traced["build_generate_s"]),
        "index.build_sort_s": _median(traced["build_sort_s"]),
        "index.build_io_s": _median(traced["build_io_s"]),
        "index.build_write_bytes_per_token":
            counts["build_write_bytes"] / traced["build_tokens"],
        "sketch.us_per_query":
            layers["sketch_s"] * 1e6 / layers["sketch_count"],
        "query.io_ms_per_query": per_query("io_seconds", 1e3),
        "query.cpu_ms_per_query": per_query("cpu_seconds", 1e3),
        "query.io_bytes_per_query": per_query("io_bytes"),
        "query.read_syscalls_per_query": per_query("read_syscalls"),
        "query.lists_per_query": (per_query("short_lists") + per_query("long_lists")
                                  + per_query("empty_lists")),
        "query.long_lists_per_query": per_query("long_lists"),
        "query.empty_lists_per_query": per_query("empty_lists"),
        "query.batch_cache_hit_ratio":
            query.get("batch_cache_hits", 0) / short if short else 0.0,
        "query.shared_cache_hits_per_query": per_query("shared_cache_hits"),
        "query.windows_scanned_per_query": per_query("windows_scanned"),
        "query.candidate_texts_per_query": per_query("candidate_texts"),
        "eval.self_ms_per_window": (
            max(0.0, layers["eval_self_s"]) * 1e3 / layers["eval_windows"]
            if "eval_self_s" in layers else 0.0),
    }
    hits = counts.get("list_cache.hits", 0)
    lookups = hits + counts.get("list_cache.misses", 0)
    m["list_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["list_cache.evictions"] = counts.get("list_cache.evictions", 0)
    m["list_cache.bytes_used_mb"] = counts.get("list_cache.bytes_used", 0) / 2.0 ** 20

    walls = layers.get("shard_wall_ms", [])
    served = traced["workload"] == "serve_zipf"
    roundtrips = traced["query_ms"] if served else []
    m["net.roundtrip_p50_ms"] = pct(roundtrips, 50)
    m["net.roundtrip_p99_ms"] = pct(roundtrips, 99)
    overheads = ([r - w for r, w in zip(roundtrips, walls)]
                 if served and len(walls) == len(roundtrips) else [])
    m["net.overhead_p50_ms"] = pct(overheads, 50)
    m["shard.search_p50_ms"] = pct(walls, 50)
    m["shard.search_p99_ms"] = pct(walls, 99)
    m["shard.shards_at_query_mean"] = layers.get("shards_at_query_mean", 0.0)

    ingest = layers.get("ingest", {})
    m["ingest.append_batch_p50_ms"] = pct(ingest.get("append_batch_ms", []), 50)
    m["ingest.append_batch_p90_ms"] = pct(ingest.get("append_batch_ms", []), 90)
    m["ingest.spill_batch_p50_ms"] = pct(ingest.get("spill_batch_ms", []), 50)
    m["ingest.compact_s_total"] = ingest.get("compact_s_total", 0.0)
    m["ingest.write_bytes_per_doc_byte"] = ingest.get("write_bytes_per_doc_byte", 0.0)
    m["ingest.spills"] = ingest.get("spills", 0)
    m["ingest.compactions"] = ingest.get("compactions", 0)

    m["trace.overhead_ratio"] = sum(traced["chunk_s"]) / sum(untraced["chunk_s"])
    return m
