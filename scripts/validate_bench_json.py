#!/usr/bin/env python3
"""Schema check for the BENCH_*.json artifacts bench binaries emit.

Usage:  scripts/validate_bench_json.py [--baseline FILE] [--tolerance R]
            BENCH_snapshot.json [more.json ...]

Validates the contract CI's bench-smoke job gates on (and that
scripts/plot_bench.py & downstream dashboards consume):

  {"bench": <name>, "scale": <number>, "policies": {<policy>: <snapshot>}}

where each <snapshot> is a MetricsSnapshot::ToJson() object holding
"counters"/"gauges"/"histograms" maps, with the per-phase flush counters
(flush.phaseN.*) and per-query-type latency histograms
(query.latency_micros.<type>.<hit|miss>) present, and every histogram
carrying count/min/max/mean/sum and p50/p90/p95/p99/p999 fields. The four
flush.stage_micros.<stage> histograms are required too, and once
flush.cycles > 0 each must count one sample per cycle and their sums must
add up to flush.cycle_micros's sum (the stages partition every cycle).
Likewise, once query.executed > 0 the four query.stage_micros.<stage>
histograms must each count one sample per query, and their sums must add
up to the sum of the query.latency_micros.<type>.<hit|miss> sums (the
stages partition every query). The durable tier's disk.* recovery
counters and flush_buffer.requeues are required
unconditionally (zero on non-durable runs); the wal.* series are
validated as an all-or-nothing family when any of them appears, with
wal.fsync_micros's count cross-checked against the wal.fsyncs counter.

BENCH_net_load.json (bench_net_load) carries one snapshot per
arrival-rate point and is additionally audited for zero silent drops:
bench.offered must equal acked+skipped+nacked and bench.queried_back
must equal bench.acked. Each snapshot must also carry the server's net.*
families, with every net.ingest_ack_micros.<stage> histogram count equal
to net.ingest_acks (the per-request stage decomposition reconciles
exactly).

BENCH_insert_breakdown.json (bench_micro --breakdown) carries a reduced
snapshot per policy — the digestion-cost gauges (bench.insert_cpu_ns,
bench.phase_ns.*) plus the flush counters the phase table is printed from —
and is validated against its own schema.

With --baseline FILE, the insert_breakdown artifact among the inputs is
additionally gated against the committed baseline: per policy, the
bench.insert_cpu_ns gauge may not exceed the baseline by more than
--tolerance (default 0.10, i.e. a 10% regression budget). A win larger
than the tolerance prints the ratchet command to re-pin the baseline.
Scale-mismatched baselines are skipped with a warning, not failed — the
gate only compares like with like.

Exits 0 when every file validates; prints each problem and exits 1
otherwise. Stdlib only (json) — safe for minimal CI images.
"""

import json
import sys

REQUIRED_TOP_KEYS = ("bench", "scale", "policies")
REQUIRED_SNAPSHOT_KEYS = ("counters", "gauges", "histograms")
HISTOGRAM_FIELDS = ("count", "min", "max", "mean", "sum",
                    "p50", "p90", "p95", "p99", "p999")
PHASE_COUNTER_FIELDS = ("runs", "candidates_scanned", "heap_selected",
                        "postings", "entries", "records", "record_bytes",
                        "bytes_freed", "micros")
# Counters every policy run must report, whatever the workload. The
# disk.* recovery counters and flush_buffer.requeues are exported
# unconditionally (zero on non-durable runs), so they are schema too.
REQUIRED_COUNTERS = ("ingest.inserted", "flush.cycles",
                     "flush.records_flushed", "flush.postings_dropped",
                     "disk.postings_added", "disk.records_recovered",
                     "disk.torn_bytes_truncated", "disk.fsyncs",
                     "flush_buffer.requeues", "query.executed")
REQUIRED_GAUGES = ("memory.budget_bytes", "memory.data_used_bytes",
                   "store.resident_records")
QUERY_TYPES = ("single", "and", "or")
FLUSH_STAGES = ("select", "index", "drop", "drain")
QUERY_STAGES = ("postings", "disk", "merge", "materialize")
OUTCOMES = ("hit", "miss")

# Durable-tier series (docs/INTERNALS.md, "Durability"). Exported only
# when the run enables a WAL, so they are validated as an all-or-nothing
# family: any wal.* key present => the whole family must be.
WAL_COUNTERS = ("wal.records_appended", "wal.bytes_appended", "wal.commits",
                "wal.fsyncs", "wal.records_recovered",
                "wal.torn_bytes_truncated")
WAL_HISTOGRAMS = ("wal.fsync_micros",)

# Reduced schema for BENCH_insert_breakdown.json: the digestion perf gate
# reads bench.insert_cpu_ns; the phase table reads bench.phase_ns.*.
BREAKDOWN_GAUGES = (
    "bench.inserts", "bench.insert_cpu_ns", "bench.tweets_per_sec",
    "bench.phase_ns.tokenize", "bench.phase_ns.route", "bench.phase_ns.store",
    "bench.phase_ns.index", "bench.phase_ns.account", "bench.phase_ns.sum")
BREAKDOWN_COUNTERS = (
    "ingest.inserted", "flush.cycles", "flush.records_flushed",
    "flush.phase1.micros", "flush.phase2.micros", "flush.phase3.micros")
# The gate metric and its regression budget.
GATE_GAUGE = "bench.insert_cpu_ns"
DEFAULT_TOLERANCE = 0.10


def check_histogram(errors, where, hist):
    if not isinstance(hist, dict):
        errors.append(f"{where}: histogram is not an object")
        return
    for field in HISTOGRAM_FIELDS:
        if field not in hist:
            errors.append(f"{where}: histogram missing '{field}'")


def check_snapshot(errors, where, snap):
    for key in REQUIRED_SNAPSHOT_KEYS:
        if key not in snap or not isinstance(snap[key], dict):
            errors.append(f"{where}: missing or non-object '{key}'")
            return
    counters, histograms = snap["counters"], snap["histograms"]

    for name in REQUIRED_COUNTERS:
        if name not in counters:
            errors.append(f"{where}: missing counter '{name}'")
    for name in REQUIRED_GAUGES:
        if name not in snap["gauges"]:
            errors.append(f"{where}: missing gauge '{name}'")

    # Per-phase flush counters for all three phases (single-phase policies
    # report under phase1 and still export zeroed phase2/phase3 series).
    for phase in (1, 2, 3):
        for field in PHASE_COUNTER_FIELDS:
            name = f"flush.phase{phase}.{field}"
            if name not in counters:
                errors.append(f"{where}: missing counter '{name}'")

    for hist_name, hist in histograms.items():
        check_histogram(errors, f"{where}/{hist_name}", hist)

    # Latency histograms per query type and outcome. Any given workload
    # seed may not exercise every (type, outcome) cell, but each type must
    # appear in at least one outcome once queries ran.
    if counters.get("query.executed", 0) > 0:
        for qtype in QUERY_TYPES:
            present = any(
                f"query.latency_micros.{qtype}.{outcome}" in histograms
                for outcome in OUTCOMES)
            if not present:
                errors.append(
                    f"{where}: no latency histogram for query type '{qtype}'")

    # Unproven hits are memory hits whose answer also read disk.
    if counters.get("query.unproven_hits", 0) > counters.get(
            "query.memory_hits", 0):
        errors.append(f"{where}: query.unproven_hits exceeds "
                      "query.memory_hits")

    # Stage histograms partition each flush cycle and each query.
    if "flush.cycle_micros" not in histograms:
        errors.append(f"{where}: missing histogram 'flush.cycle_micros'")
    else:
        check_stage_partition(
            errors, where, histograms, "flush.stage_micros", FLUSH_STAGES,
            counters.get("flush.cycles", 0), "flush.cycles",
            histograms["flush.cycle_micros"].get("sum"),
            "the flush.cycle_micros sum")
    executed = counters.get("query.executed", 0)
    if executed > 0:
        check_stage_partition(
            errors, where, histograms, "query.stage_micros", QUERY_STAGES,
            executed, "query.executed",
            sum(histograms.get(f"query.latency_micros.{qtype}.{outcome}",
                               {}).get("sum", 0)
                for qtype in QUERY_TYPES for outcome in OUTCOMES),
            "the query.latency_micros.* sum")

    check_wal_family(errors, where, counters, histograms)


def check_stage_partition(errors, where, histograms, prefix, stages,
                          samples, samples_name, total_sum, total_name):
    """The <prefix>.<stage> histograms partition a timed quantity: once
    there are samples, each stage counts one per sample, and the stage
    sums add up to the quantity's total."""
    found = {}
    for stage in stages:
        name = f"{prefix}.{stage}"
        if not isinstance(histograms.get(name), dict):
            errors.append(f"{where}: missing histogram '{name}'")
            continue
        found[name] = histograms[name]
    if samples == 0 or len(found) != len(stages):
        return
    for name, hist in found.items():
        if hist.get("count") != samples:
            errors.append(f"{where}: {name} count {hist.get('count')} != "
                          f"{samples_name} {samples}")
    stage_sum = sum(hist.get("sum", 0) for hist in found.values())
    if stage_sum != total_sum:
        errors.append(f"{where}: {prefix}.* sums add up to {stage_sum}, "
                      f"{total_name} is {total_sum}")


def check_wal_family(errors, where, counters, histograms):
    """Durability-enabled runs export the wal.* family; a partial family
    means the exporter and this schema have drifted apart."""
    present = (any(name in counters for name in WAL_COUNTERS)
               or any(name in histograms for name in WAL_HISTOGRAMS))
    if not present:
        return
    for name in WAL_COUNTERS:
        if name not in counters:
            errors.append(f"{where}: missing counter '{name}' "
                          f"(wal.* family is all-or-nothing)")
    for name in WAL_HISTOGRAMS:
        if name not in histograms:
            errors.append(f"{where}: missing histogram '{name}' "
                          f"(wal.* family is all-or-nothing)")
    # Every fsync is timed, so the histogram count must equal the counter.
    fsyncs = counters.get("wal.fsyncs")
    hist = histograms.get("wal.fsync_micros")
    if (isinstance(fsyncs, (int, float)) and isinstance(hist, dict)
            and hist.get("count") is not None and hist["count"] != fsyncs):
        errors.append(f"{where}: wal.fsync_micros count {hist['count']} "
                      f"!= wal.fsyncs counter {fsyncs}")


def check_shard_scaling(errors, path, doc):
    """Extra rules for BENCH_shard_scaling.json: one snapshot per shard
    count ("shards1", "shards2", ...), each carrying the bench.* gauges
    the scaling curve is plotted from and the CPU-time histograms the
    work-span (critical-path) series is computed from."""
    policies = doc["policies"]
    shard_keys = [k for k in policies if k.startswith("shards")]
    if len(shard_keys) < 2:
        errors.append(
            f"{path}: shard_scaling needs >=2 'shardsN' snapshots, "
            f"got {sorted(policies)}")
        return
    for key in shard_keys:
        where = f"{path}:{key}"
        snap = policies[key]
        gauges = snap.get("gauges", {})
        for name in ("bench.num_shards", "bench.hw_concurrency",
                     "bench.ingest_tweets_per_sec", "bench.cp_tweets_per_sec",
                     "bench.query_per_sec", "bench.routed_copies"):
            if name not in gauges:
                errors.append(f"{where}: missing gauge '{name}'")
        if gauges.get("bench.num_shards") != int(key[len("shards"):]):
            errors.append(f"{where}: bench.num_shards gauge disagrees "
                          f"with snapshot key")
        for name in ("bench.ingest_tweets_per_sec", "bench.cp_tweets_per_sec"):
            if name in gauges and gauges[name] <= 0:
                errors.append(f"{where}: gauge '{name}' must be > 0")
        histograms = snap.get("histograms", {})
        for name in ("system.digest_cpu_micros_per_batch",
                     "flush.cycle_cpu_micros"):
            if name not in histograms:
                errors.append(f"{where}: missing histogram '{name}'")


def check_net_load(errors, path, doc):
    """Extra rules for BENCH_net_load.json: one snapshot per arrival-rate
    point ("rate<R>"), each carrying the client-side latency histograms
    and the zero-silent-drop accounting gauges — offered must partition
    exactly into acked/skipped/nacked, and every acked record must have
    been queried back (bench.silent_drops == 0)."""
    policies = doc["policies"]
    rate_keys = [k for k in policies if k.startswith("rate")]
    if not rate_keys:
        errors.append(f"{path}: net_load needs >=1 'rate<R>' snapshot, "
                      f"got {sorted(policies)}")
        return
    for key in rate_keys:
        where = f"{path}:{key}"
        snap = policies[key]
        gauges = snap.get("gauges", {})
        for name in ("bench.rate_target", "bench.users", "bench.batch",
                     "bench.offered", "bench.acked", "bench.skipped",
                     "bench.nacked", "bench.nacks_overloaded",
                     "bench.queries_sent", "bench.queries_ok",
                     "bench.queried_back", "bench.silent_drops",
                     "bench.offered_per_sec", "bench.acked_per_sec"):
            if name not in gauges:
                errors.append(f"{where}: missing gauge '{name}'")
        offered = gauges.get("bench.offered", 0)
        accounted = (gauges.get("bench.acked", 0)
                     + gauges.get("bench.skipped", 0)
                     + gauges.get("bench.nacked", 0))
        if offered <= 0:
            errors.append(f"{where}: bench.offered must be > 0")
        elif offered != accounted:
            errors.append(
                f"{where}: offered {offered} != acked+skipped+nacked "
                f"{accounted} (records unaccounted for)")
        if gauges.get("bench.silent_drops", 1) != 0:
            errors.append(f"{where}: bench.silent_drops must be 0, got "
                          f"{gauges.get('bench.silent_drops')}")
        if gauges.get("bench.queried_back") != gauges.get("bench.acked"):
            errors.append(f"{where}: bench.queried_back "
                          f"{gauges.get('bench.queried_back')} != "
                          f"bench.acked {gauges.get('bench.acked')}")
        histograms = snap.get("histograms", {})
        for name in ("net.ingest_latency_micros", "net.query_latency_micros"):
            if name not in histograms:
                errors.append(f"{where}: missing histogram '{name}'")
        ingest = histograms.get("net.ingest_latency_micros", {})
        if isinstance(ingest, dict) and ingest.get("count", 0) <= 0:
            errors.append(f"{where}: net.ingest_latency_micros is empty")
        # Server-side net.* families: ack counters plus the per-stage
        # ack-latency decomposition. Each stage histogram must hold
        # exactly one sample per acked ingest request.
        counters = snap.get("counters", {})
        for name in ("net.ingest_requests", "net.ingest_acks",
                     "net.records_offered", "net.records_acked",
                     "net.frames_received"):
            if name not in counters:
                errors.append(f"{where}: missing counter '{name}'")
        acks = counters.get("net.ingest_acks", 0)
        if acks <= 0:
            errors.append(f"{where}: net.ingest_acks must be > 0")
        for stage in ("decode", "admission", "commit", "respond"):
            name = f"net.ingest_ack_micros.{stage}"
            hist = histograms.get(name)
            if not isinstance(hist, dict):
                errors.append(f"{where}: missing histogram '{name}'")
                continue
            if hist.get("count", -1) != acks:
                errors.append(
                    f"{where}: {name} count {hist.get('count')} != "
                    f"net.ingest_acks {acks} (stage histograms must "
                    f"reconcile exactly)")


SUB_COUNTERS = ("sub.registered", "sub.unsubscribed", "sub.deltas_published",
                "sub.deltas_pushed", "sub.deltas_dropped_on_disconnect",
                "sub.member_evictions", "sub.refills", "sub.snapshot_queries")
# An idle subscription subsystem must be (nearly) free: zero-subscription
# ingest may not trail the no-manager baseline by more than 2%.
ZERO_SUB_BUDGET_BPS = 200


def check_subscriptions(errors, path, doc):
    """Extra rules for BENCH_subscriptions.json: one snapshot per
    standing-query count ("nomanager", "subs0", "subs100", "subs10000").
    Manager-attached points must carry the full sub.* family with the
    accounting invariant intact (published partitions exactly into pushed
    + dropped-on-disconnect); subs0 must publish nothing and stay within
    the zero-subscription overhead budget vs the no-manager baseline."""
    policies = doc["policies"]
    for key in ("nomanager", "subs0", "subs100", "subs10000"):
        if key not in policies:
            errors.append(f"{path}: subscriptions needs a '{key}' snapshot, "
                          f"got {sorted(policies)}")
            return
    for key, snap in policies.items():
        where = f"{path}:{key}"
        gauges = snap.get("gauges", {})
        counters = snap.get("counters", {})
        for name in ("bench.num_subscriptions", "bench.ingest_tweets_per_sec",
                     "bench.baseline_tweets_per_sec", "bench.overhead_bps"):
            if name not in gauges:
                errors.append(f"{where}: missing gauge '{name}'")
        if gauges.get("bench.ingest_tweets_per_sec", 0) <= 0:
            errors.append(f"{where}: bench.ingest_tweets_per_sec must be > 0")
        if key == "nomanager":
            if any(name in counters for name in SUB_COUNTERS):
                errors.append(f"{where}: no-manager baseline must not carry "
                              f"sub.* counters")
            continue
        for name in SUB_COUNTERS:
            if name not in counters:
                errors.append(f"{where}: missing counter '{name}'")
        published = counters.get("sub.deltas_published", -1)
        accounted = (counters.get("sub.deltas_pushed", 0)
                     + counters.get("sub.deltas_dropped_on_disconnect", 0))
        if published != accounted:
            errors.append(
                f"{where}: sub.deltas_published {published} != pushed+dropped "
                f"{accounted} (delta accounting does not partition)")
        if key == "subs0":
            if published != 0:
                errors.append(f"{where}: zero subscriptions must publish "
                              f"nothing, got {published}")
            bps = gauges.get("bench.zero_sub_overhead_bps")
            if bps is None:
                errors.append(f"{where}: missing gauge "
                              f"'bench.zero_sub_overhead_bps'")
            elif bps > ZERO_SUB_BUDGET_BPS:
                errors.append(
                    f"{where}: zero-subscription ingest overhead {bps} bps "
                    f"exceeds the {ZERO_SUB_BUDGET_BPS} bps budget (idle "
                    f"subscription subsystem is not free)")
        elif published <= 0:
            errors.append(f"{where}: {key} should publish deltas, got "
                          f"{published}")


def check_insert_breakdown(errors, path, doc):
    """Reduced schema for bench_micro --breakdown output."""
    for policy, snap in doc["policies"].items():
        where = f"{path}:{policy}"
        for key in REQUIRED_SNAPSHOT_KEYS:
            if key not in snap or not isinstance(snap[key], dict):
                errors.append(f"{where}: missing or non-object '{key}'")
                return
        for name in BREAKDOWN_GAUGES:
            if name not in snap["gauges"]:
                errors.append(f"{where}: missing gauge '{name}'")
        for name in BREAKDOWN_COUNTERS:
            if name not in snap["counters"]:
                errors.append(f"{where}: missing counter '{name}'")
        if snap["gauges"].get(GATE_GAUGE, 0) <= 0:
            errors.append(f"{where}: gauge '{GATE_GAUGE}' must be > 0")


def gate_against_baseline(errors, path, doc, baseline_path, tolerance):
    """Ratcheting perf gate: per-policy digestion CPU cost vs the committed
    baseline. Regressions beyond `tolerance` fail; wins beyond it print the
    command that re-pins the ratchet."""
    try:
        with open(baseline_path, encoding="utf-8") as f:
            base = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{baseline_path}: unreadable baseline: {e}")
        return
    if base.get("bench") != doc.get("bench"):
        errors.append(f"{baseline_path}: baseline bench "
                      f"'{base.get('bench')}' != '{doc.get('bench')}'")
        return
    if base.get("scale") != doc.get("scale"):
        print(f"NOTE perf gate skipped: baseline scale {base.get('scale')} "
              f"!= current scale {doc.get('scale')} (re-record the baseline "
              f"at the CI scale to arm the gate)")
        return
    wins = []
    for policy, snap in base.get("policies", {}).items():
        base_ns = snap.get("gauges", {}).get(GATE_GAUGE)
        cur_snap = doc["policies"].get(policy)
        if base_ns is None or base_ns <= 0:
            continue
        if cur_snap is None:
            errors.append(f"{path}: policy '{policy}' present in baseline "
                          f"but missing from current run")
            continue
        cur_ns = cur_snap.get("gauges", {}).get(GATE_GAUGE, 0)
        ratio = cur_ns / base_ns
        verdict = "ok"
        if ratio > 1 + tolerance:
            errors.append(
                f"{path}: perf regression: {policy} {GATE_GAUGE} "
                f"{cur_ns:.0f}ns vs baseline {base_ns:.0f}ns "
                f"({(ratio - 1) * 100:+.1f}%, budget {tolerance * 100:.0f}%)")
            verdict = "REGRESSION"
        elif ratio < 1 - tolerance:
            wins.append(policy)
            verdict = "win"
        print(f"gate {policy}: {cur_ns:.0f}ns vs baseline {base_ns:.0f}ns "
              f"({(ratio - 1) * 100:+.1f}%) {verdict}")
    if wins:
        print(f"perf win on {', '.join(wins)} — ratchet the baseline with:\n"
              f"  cp {path} {baseline_path}")


def check_file(errors, path, baseline=None, tolerance=DEFAULT_TOLERANCE):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable or invalid JSON: {e}")
        return
    for key in REQUIRED_TOP_KEYS:
        if key not in doc:
            errors.append(f"{path}: missing top-level key '{key}'")
            return
    if not isinstance(doc["scale"], (int, float)):
        errors.append(f"{path}: 'scale' is not a number")
    policies = doc["policies"]
    if not isinstance(policies, dict) or not policies:
        errors.append(f"{path}: 'policies' is empty or not an object")
        return
    if doc["bench"] == "insert_breakdown":
        check_insert_breakdown(errors, path, doc)
        if baseline is not None and not errors:
            gate_against_baseline(errors, path, doc, baseline, tolerance)
        return
    for policy, snap in policies.items():
        check_snapshot(errors, f"{path}:{policy}", snap)
    if doc["bench"] == "shard_scaling":
        check_shard_scaling(errors, path, doc)
    if doc["bench"] == "net_load":
        check_net_load(errors, path, doc)
    if doc["bench"] == "subscriptions":
        check_subscriptions(errors, path, doc)


def main(argv):
    baseline = None
    tolerance = DEFAULT_TOLERANCE
    files = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--baseline":
            i += 1
            if i >= len(argv):
                print("--baseline needs a file argument", file=sys.stderr)
                return 2
            baseline = argv[i]
        elif arg == "--tolerance":
            i += 1
            if i >= len(argv):
                print("--tolerance needs a number argument", file=sys.stderr)
                return 2
            tolerance = float(argv[i])
        else:
            files.append(arg)
        i += 1
    if not files:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    for path in files:
        check_file(errors, path, baseline=baseline, tolerance=tolerance)
    for err in errors:
        print(f"FAIL {err}")
    if errors:
        print(f"{len(errors)} problem(s) in {len(files)} file(s)")
        return 1
    print(f"OK: {len(files)} file(s) validate")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
