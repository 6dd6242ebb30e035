"""E16's frozen definitions: system under test, workloads, metric names.

Everything a later PR quotes lives here by name.  ``BENCHMARK.json`` at
the repository root carries the subset the benchmark driver gates on
(the end-to-end metrics every workload reports); the self-test lints
the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

# ----------------------------------------------------------------------
# System under test (identical for every workload)
# ----------------------------------------------------------------------
#: ``SyntheticDatasetBuilder(seed=DATASET_SEED).build(DATASET_OBJECTS, ...)``
DATASET_SEED = 2016
DATASET_OBJECTS = 20_000
DATASET_KWARGS = dict(
    vocabulary_size=200, doc_length=(3, 8), spatial="clustered", clusters=12
)
#: ``--smoke`` dataset size (everything else identical).
SMOKE_OBJECTS = 2_000
SHARDS = 4
#: ``--fsync never`` times log framing, not the sandbox's disk.
FSYNC = "never"
#: Closed loop: each client waits for a reply before its next request.
#: Frozen (not derived from the host) so two hosts run the same load.
CLIENTS = 2
#: Spawn-to-ready is timed this many times per run; the median is
#: ``setup_s`` and the last spawn is the server the run measures.
SETUP_SPAWNS = 3
#: The timed window is cut into slices of this many seconds; the gated
#: window metrics of a workload are read off the fastest
#: ``Workload.calm_share`` of them (README, "Calm slices").
SLICE_SECONDS = 1.0

HOT_SET_SIZE = 200
TOPK_K = 10
#: The missing object of a why-not session is drawn from ranks
#: (k, k + WHYNOT_RANK_WINDOW] of the session's query.
WHYNOT_RANK_WINDOW = 20
#: preference : keywords : combined
REFINEMENT_WEIGHTS = (("preference", 5), ("keywords", 3), ("combined", 2))
#: hot top-k : cold top-k : why-not session : mutation batch
MIXED_WEIGHTS = (("hot", 70), ("cold", 12), ("session", 10), ("mutation", 8))
MUTATION_INSERTS = 6
MUTATION_KEYWORDS = 4
#: Object ids the generator mints start here (the dataset uses 0..n-1);
#: each client owns a disjoint range so concurrent batches never collide.
FIRST_MINTED_OID = 1_000_000
MINTED_OIDS_PER_CLIENT = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Operations per second of ``--seconds`` the 1-client traced replay
    #: issues: a fixed count, so traced counters repeat exactly.
    trace_ops_per_second: float
    #: Operations per second of ``--seconds`` generated before timing
    #: starts (later ones are generated on demand); sized above the seed
    #: commit's rate so the generator does no engine work in the window.
    pregenerate_per_second: float
    #: Where every request costs about the same a slow slice is a slice
    #: the host disturbed, and only the fastest third is read.  Where
    #: requests differ a hundredfold in cost a slow slice is as likely
    #: a dear request, the very thing the workload is there to show, so
    #: the whole window is read.
    calm_share: float = 1.0


WORKLOADS = (
    Workload(
        "hot_read",
        "Zipf(1.0) over 200 pre-warmed top-k queries that fit the cache: "
        "transport, JSON and cache fetch are all of the time",
        trace_ops_per_second=150,
        pregenerate_per_second=0,
        calm_share=1 / 3,
    ),
    Workload(
        "cold_read",
        "every top-k query distinct, hit rate 0, working set beyond the "
        "cache: scatter, kernel scan and materialise dominate",
        trace_ops_per_second=30,
        pregenerate_per_second=0,
        calm_share=1 / 3,
    ),
    Workload(
        "whynot_session",
        "the paper's loop, query then explain then one refinement: count, "
        "rank and dual-space kernel paths, KcR-tree, why-not modules",
        trace_ops_per_second=1.6,
        pregenerate_per_second=14,
    ),
    Workload(
        "mixed_rw",
        "70% hot, 12% cold, 10% why-not sessions, 8% mutation batches: "
        "caches maintained, lock shared and exclusive, WAL appends",
        trace_ops_per_second=8,
        pregenerate_per_second=60,
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}
#: Workloads that read the pre-warmed hot set.
HOT_SET_WORKLOADS = ("hot_read", "mixed_rw")
#: Workloads whose served answers can be checked against a static oracle.
READ_ONLY_WORKLOADS = ("hot_read", "cold_read", "whynot_session")

#: Oracle sample sizes at ``--seconds`` = ORACLE_FULL_SECONDS or longer;
#: shorter runs check proportionally fewer, never below the floors.  A
#: set-path ``rank_all`` over 20k objects costs ~0.2 s, so the driver's
#: short runs (92 of them inside its time cap) cannot afford all fifty
#: each; across its 22 runs of a workload it still checks hundreds.
ORACLE_FULL_SECONDS = 80
ORACLE_TOPK_SAMPLES = (50, 10)  # (full, floor)
ORACLE_WHYNOT_SAMPLES = (30, 6)
ORACLE_QUIESCED_QUERIES = (50, 20)

# ----------------------------------------------------------------------
# Request classes
# ----------------------------------------------------------------------
TOPK, WHYNOT, MUTATION = "topk", "whynot", "mutation"
REQUEST_CLASSES = (TOPK, WHYNOT, MUTATION)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Regression bound as a share of the parent's median.
    bound: float
    #: Gated by the benchmark driver through ``BENCHMARK.json``.  The
    #: driver wants a gated metric on *every* workload, never 0, and
    #: steady across seeds on each of them, which rules out the
    #: per-class latencies, ``error_rate`` and (mixed_rw) the top-k
    #: median and tail.
    gated: bool = True


#: Every bound is the contract's cap, 0.25.  Three times the widest
#: ten-seed IQR/median (README.md, "Spread the bounds come from") would
#: allow 0.20 for some, but the benchmark check's runs of this commit
#: spread several times wider than the builder's, so nothing tighter is
#: claimed.  The driver takes one bound per metric for all workloads.
#: ``throughput_rps``, ``server_cpu_ms_per_req`` and ``topk_iqm_ms`` are
#: read off each workload's calm slices.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("server_rss_mb", "MiB", "lower", 0.25),
    EndToEnd("throughput_rps", "1/s", "higher", 0.25),
    EndToEnd("server_cpu_ms_per_req", "ms", "lower", 0.25),
    # The gated top-k latency is the interquartile mean: on mixed_rw the
    # median sits on the cliff between reads that waited for a writer
    # and reads that did not, and its ten-seed spread reads 8-29 %.
    EndToEnd("topk_iqm_ms", "ms", "lower", 0.25),
    EndToEnd("topk_p50_ms", "ms", "lower", 0.25, gated=False),
    EndToEnd("topk_p95_ms", "ms", "lower", 0.25, gated=False),
    EndToEnd("whynot_p50_ms", "ms", "lower", 0.25, gated=False),
    EndToEnd("whynot_p95_ms", "ms", "lower", 0.25, gated=False),
    EndToEnd("mutation_p50_ms", "ms", "lower", 0.25, gated=False),
    EndToEnd("mutation_p90_ms", "ms", "lower", 0.25, gated=False),
    EndToEnd("error_rate", "ratio", "lower", 0.0, gated=False),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: How passes.per_layer_values computes it: ("span", names, per),
    #: ("stat", path), ("rate", numerator paths, denominator paths) or
    #: (key,) for a value the generator or the tracer counts itself.
    source: tuple
    #: "end-to-end metric @ workload" it should move; elsewhere the
    #: prediction is no change.
    moves: str


def _span(name, spans, per, moves):
    """Mean self time of ``spans`` per request of class ``per`` (a latency
    class, a why-not kind, or "all")."""
    spans = (spans,) if isinstance(spans, str) else tuple(spans)
    return PerLayer(name, "ms", "lower", ("span", spans, per), moves)


def _path(dotted):
    return tuple(dotted.split("."))


def _stat(name, path, moves, *, unit="count", better="lower"):
    """Change of one ``GET /api/stats`` counter over the traced replay."""
    return PerLayer(name, unit, better, ("stat", _path(path)), moves)


def _rate(name, numerator, denominator, moves, *, unit="ratio", better="higher"):
    """sum(numerator) / sum(denominator) of ``/api/stats`` changes."""
    source = ("rate", tuple(map(_path, numerator)), tuple(map(_path, denominator)))
    return PerLayer(name, unit, better, source, moves)


def _skip_rate(name, prefix, moves):
    skipped, scanned = f"shards.{prefix}_shards_skipped", f"shards.{prefix}_shards_scanned"
    return _rate(name, (skipped,), (skipped, scanned), moves)


def _own(name, unit, better, key, moves):
    """Counted by the generator or the tracer (passes.per_layer_values)."""
    return PerLayer(name, unit, better, (key,), moves)


_HOT = "topk_iqm_ms, topk_p50_ms, throughput_rps @ hot_read"
_COLD = "topk_iqm_ms, topk_p50_ms, throughput_rps @ cold_read"
_WHY = "whynot_p50_ms, whynot_p95_ms, throughput_rps @ whynot_session"
_MUT = "mutation_p50_ms, mutation_p90_ms, throughput_rps @ mixed_rw"
_DROPS = "topk_iqm_ms, topk_p50_ms @ mixed_rw"
_NONE = "none (validity of the run)"
_TOPK_REQUESTS = ("cache.hits", "cache.inflight_waits", "cache.misses")
_WHYNOT_REQUESTS = (
    "whynot_cache.hits", "whynot_cache.inflight_waits", "whynot_cache.misses"
)

PER_LAYER = (
    # -- generator --------------------------------------------------
    _own("gen.requests_sent", "count", "higher", "gen_sent", _NONE),
    _own("gen.requests_ok", "count", "higher", "gen_ok", _NONE),
    _own("gen.requests_failed", "count", "lower", "gen_failed", "error_rate"),
    _own("gen.cpu_share", "ratio", "lower", "gen_cpu_share", _NONE),
    # Client-observed medians of the bare 1-client replay: the steadier
    # companions of the timed pass's per-class latencies.
    _own("client.topk_p50_ms", "ms", "lower", "client_p50_topk", "topk_iqm_ms, topk_p50_ms"),
    _own("client.whynot_p50_ms", "ms", "lower", "client_p50_whynot", _WHY),
    _own("client.mutation_p50_ms", "ms", "lower", "client_p50_mutation", _MUT),
    # -- service.server ---------------------------------------------
    _span("server.transport_ms", "client.request", "all", _HOT),
    _span("server.handler_self_ms", "server.do_POST", "all", _HOT),
    _span("server.json_ms", ("server.read_json", "server.send_json"), "all", _HOT),
    _own("server.connections_per_req", "ratio", "lower", "gen_connections", _HOT),
    _own("server.bytes_in_per_req", "B", "lower", "gen_bytes_in", _HOT),
    _own("server.bytes_out_per_req", "B", "lower", "gen_bytes_out", _HOT),
    _stat("server.shed", "resilience.inflight.shed", "error_rate"),
    # -- service.protocol, service.session --------------------------
    _span("protocol.decode_ms", "protocol.decode", "all", _HOT),
    _span("protocol.encode_ms", "protocol.encode", "all", _HOT),
    _span("session.create_ms", "session.create", TOPK, _HOT),
    # -- service.executor -------------------------------------------
    _span("executor.fetch_self_ms", "executor.execute", TOPK, _HOT),
    _stat("executor.topk_hits", "cache.hits", _HOT, better="higher"),
    _stat("executor.topk_misses", "cache.misses", _COLD),
    _rate("executor.topk_hit_rate", _TOPK_REQUESTS[:2], _TOPK_REQUESTS, _HOT),
    _stat("executor.topk_evictions", "cache.evictions", _COLD),
    _stat("executor.inflight_waits", "cache.inflight_waits", _HOT),
    _stat("executor.whynot_hits", "whynot_cache.hits", _WHY, better="higher"),
    _stat("executor.whynot_misses", "whynot_cache.misses", _WHY),
    _rate("executor.whynot_hit_rate", _WHYNOT_REQUESTS[:2], _WHYNOT_REQUESTS, _WHY),
    _own("executor.whynot_topk_reruns", "count", "lower", "whynot_reruns", _WHY),
    _span("executor.maintain_topk_ms", "executor.maintain_topk", MUTATION, _MUT),
    _span("executor.maintain_whynot_ms", "executor.maintain_whynot", MUTATION, _MUT),
    _stat("executor.maintained_kept", "cache.maintained_kept", _MUT, better="higher"),
    _stat("executor.maintained_patched", "cache.maintained_patched", _MUT),
    _stat("executor.maintained_dropped", "cache.maintained_dropped", _DROPS),
    _stat("executor.skyband_rescans", "cache.skyband_rescans", _DROPS),
    _own("executor.linked_kept", "count", "higher", "linked_kept", _MUT),
    _own("executor.linked_patched", "count", "lower", "linked_patched", _MUT),
    _own(
        "executor.linked_dropped", "count", "lower", "linked_dropped",
        "whynot_p50_ms @ mixed_rw",
    ),
    # -- service.api + core.mutations lock --------------------------
    _span("api.query_self_ms", "api.query", TOPK, _COLD),
    _span("api.answer_whynot_self_ms", "api.answer_whynot", WHYNOT, _WHY),
    _span("api.apply_mutations_self_ms", "api.apply_mutations", MUTATION, _MUT),
    _span("api.read_lock_wait_ms", "api.read_lock_wait", "all", "topk_p95_ms @ mixed_rw"),
    _span(
        "api.write_lock_wait_ms", "api.write_lock_wait", MUTATION,
        "mutation_p50_ms @ mixed_rw",
    ),
    # -- service.sharded + core.sharding ----------------------------
    _span("sharded.search_self_ms", "sharded.search", TOPK, _COLD),
    # The server's own timers, per search.
    _rate(
        "sharded.scatter_ms", ("shards.topk_scatter_ms",), ("shards.topk_searches",),
        _COLD, unit="ms", better="lower",
    ),
    _rate(
        "sharded.merge_ms", ("shards.topk_merge_ms",), ("shards.topk_searches",),
        _COLD, unit="ms", better="lower",
    ),
    _span("sharding.bounds_ms", "sharding.score_upper_bounds", TOPK, _COLD),
    _stat("sharding.topk_shards_scanned", "shards.topk_shards_scanned", _COLD),
    _stat(
        "sharding.topk_shards_skipped", "shards.topk_shards_skipped", _COLD,
        better="higher",
    ),
    _skip_rate("sharding.topk_skip_rate", "topk", _COLD),
    _skip_rate("sharding.count_skip_rate", "count", _WHY),
    _skip_rate("sharding.dual_skip_rate", "dual", _WHY),
    _skip_rate("sharding.doc_skip_rate", "doc", _WHY),
    _span("sharding.apply_mutations_ms", "sharding.apply_mutations", MUTATION, _MUT),
    # -- core.kernel ------------------------------------------------
    _span("kernel.scan_top_k_ms", "kernel.scan_top_k", TOPK, _COLD),
    _own("kernel.scan_calls", "count", "lower", "scan_calls", _COLD),
    _own("kernel.rows_scanned", "count", "lower", "rows_scanned", _COLD),
    _stat("kernel.score_passes", "kernel.score_passes", _WHY),
    _stat("kernel.full_passes", "kernel.full_passes", _WHY),
    _stat("kernel.point_scores", "kernel.point_scores", _WHY),
    _stat("kernel.count_better_calls", "kernel.count_better_calls", _WHY),
    _span("kernel.count_better_ms", "kernel.count_better", WHYNOT, _WHY),
    _stat("kernel.rank_of_many_calls", "kernel.rank_of_many_calls", _WHY),
    _span("kernel.rank_of_many_ms", "kernel.rank_of_many", WHYNOT, _WHY),
    _stat("kernel.dual_views", "kernel.dual_views", _WHY),
    _span("kernel.dual_view_ms", "kernel.dual_view", WHYNOT, _WHY),
    _stat("kernel.doc_rank_scans", "kernel.doc_rank_scans", _WHY),
    _span("kernel.apply_mutations_ms", "kernel.apply_mutations", MUTATION, _MUT),
    # -- whynot.* + index.* -----------------------------------------
    _span("whynot.explain_ms", "whynot.explain", "explain", _WHY),
    _span("whynot.preference_ms", "whynot.refine_preference", "preference", _WHY),
    _span("whynot.keywords_ms", "whynot.refine_keywords", "keywords", _WHY),
    _span("whynot.combined_ms", "whynot.refine_combined", "combined", _WHY),
    _span("index.insert_batch_ms", "index.insert_batch", MUTATION, _MUT),
    # Not in the issue's list: a delete that underflows a node re-inserts
    # the orphans one by one (seconds, on the seed commit's KcR-tree).
    _span("index.delete_ms", "index.delete", MUTATION, _MUT),
    _stat("index.rebuilds", "mutations.indexes_rebuilt", _MUT),
    # -- core.mutations + service.wal -------------------------------
    _span("mutations.apply_ms", "mutations.apply", MUTATION, _MUT),
    _stat("mutations.batches", "mutations.batches", _NONE, better="higher"),
    _own("mutations.ops", "count", "higher", "mutation_ops", _NONE),
    _span("wal.append_ms", "wal.append", MUTATION, _MUT),
    _stat("wal.records_appended", "durability.records_appended", _NONE, better="higher"),
    _stat("wal.bytes_appended", "durability.bytes_appended", _NONE, unit="B"),
    _own(
        "wal.bytes_per_op", "B", "lower", "wal_bytes_per_op",
        "none (storage cost; no latency at fsync never)",
    ),
    _stat("wal.syncs", "durability.syncs", _MUT),
    # -- tracing itself ---------------------------------------------
    _own("trace.overhead_pct", "%", "lower", "trace_overhead", _NONE),
    _own("trace.self_time_coverage", "ratio", "higher", "trace_coverage", _NONE),
)
