"""The two passes over a workload: timed (outside-in) and traced.

The timed pass spawns a real server process, drives it with the
closed-loop clients for a fixed time and reports what a client sees.
The traced pass never mixes into it: it replays a fixed number of the
same workload's operations with one client against an in-process
server, once bare and once with the layer wrappers installed, and
reports where the time went and how much the wrappers cost.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterator, Sequence

import catalogue as cat
import oracle
import streams
from loadgen import Client, LoadResult, drive
from measure import calm_share, interquartile_mean, percentile, supports_percentile
from sut import ServerProcess, get_json
from tracing import LayerTimes, Tracer, layer_times

from repro.core.objects import SpatialDatabase
from repro.datasets.generators import SyntheticDatasetBuilder
from repro.datasets.loaders import load_json, save_json
from repro.service.api import YaskEngine
from repro.service.server import YaskHTTPServer
from repro.service.wal import recover_engine


@dataclass
class Context:
    """What every pass of one invocation shares."""

    src: Path
    out: Path
    seed: int
    seconds: float
    objects: int = cat.DATASET_OBJECTS
    dataset: Path = field(init=False)
    database: SpatialDatabase = field(init=False)
    hot: list[streams.Operation] = field(init=False)
    _picker: YaskEngine | None = None

    def __post_init__(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.dataset = self.out / f"dataset-{self.objects}.json"
        if not self.dataset.exists():
            database = SyntheticDatasetBuilder(seed=cat.DATASET_SEED).build(
                self.objects, **cat.DATASET_KWARGS
            )
            scratch = self.dataset.with_suffix(".tmp")
            save_json(database, scratch)
            scratch.replace(self.dataset)
        self.database = load_json(self.dataset)
        self.hot = streams.hot_set(self.database, self.seed)

    def picker(self, query):
        """In-process top-k that picks sessions' missing objects."""
        if self._picker is None:
            self._picker = YaskEngine(self.database, shards=cat.SHARDS)
        return self._picker.query(query)

    def close(self) -> None:
        if self._picker is not None:
            self._picker.close()

    def stream(self, workload: str, client: int) -> Iterator[streams.Operation]:
        return streams.client_stream(
            workload, self.seed, client, self.database, self.picker, self.hot
        )

    def scaled(self, full_and_floor: tuple[int, int]) -> int:
        """An oracle sample size for this run length."""
        full, floor = full_and_floor
        return max(floor, round(full * min(1.0, self.seconds / cat.ORACLE_FULL_SECONDS)))

    def hard_timeout_s(self) -> float:
        return max(60.0, 6.0 * self.seconds)


@dataclass
class PassResult:
    workload: str
    #: metric name -> (value, unit, sample count or None)
    metrics: dict[str, tuple[float, str, int | None]]
    attempted: int
    failures: list[str]
    diagnostics: dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures


def _warm_up(port: int, ctx: Context, workload: str) -> None:
    """Issue the hot set once, untimed, so hot reads are cache hits."""
    if workload not in cat.HOT_SET_WORKLOADS:
        return
    client = Client(port)
    for operation in ctx.hot:
        client.issue(operation)
    client.close()
    if client.log.failures:
        raise RuntimeError(f"warm-up failed: {client.log.failures[0]}")


def _by_class(load: LoadResult) -> dict[str, list[float]]:
    classes: dict[str, list[float]] = {name: [] for name in cat.REQUEST_CLASSES}
    for cls, _path, elapsed_ms, _request in load.latencies:
        classes[cls].append(elapsed_ms)
    return classes


def _oracle_static(ctx: Context, load: LoadResult) -> list[str]:
    """Sampled served answers against the static-dataset oracles."""
    topk = load.samples(cat.TOPK)[: ctx.scaled(cat.ORACLE_TOPK_SAMPLES)]
    whynot = load.samples(cat.WHYNOT)[: ctx.scaled(cat.ORACLE_WHYNOT_SAMPLES)]
    mismatches = oracle.check_topk(ctx.database, topk)
    if whynot:
        mismatches += oracle.check_whynot(ctx.database, whynot)
    return mismatches


# ----------------------------------------------------------------------
# Timed pass
# ----------------------------------------------------------------------
def timed_pass(ctx: Context, workload: str) -> PassResult:
    logs = ctx.out / workload
    logs.mkdir(parents=True, exist_ok=True)
    wal_root = Path(tempfile.mkdtemp(prefix="wal-", dir=ctx.out))
    spec = cat.WORKLOAD_BY_NAME[workload]
    # Generate ahead of the window, before any server competes for CPU.
    ahead = round(spec.pregenerate_per_second * ctx.seconds / cat.CLIENTS)
    client_streams = []
    for index in range(cat.CLIENTS):
        stream = ctx.stream(workload, index)
        client_streams.append(chain(list(islice(stream, ahead)), stream))

    server: ServerProcess | None = None
    try:
        setups = []
        for spawn in range(cat.SETUP_SPAWNS):
            if server is not None:
                server.stop()
            server = ServerProcess(
                src=ctx.src,
                dataset=ctx.dataset,
                wal_dir=wal_root / str(spawn),
                log_prefix=logs / f"server-{spawn}",
            )
            server.wait_ready()
            setups.append(server.setup_s)
        assert server is not None
        _warm_up(server.port, ctx, workload)

        # Each client keeps its share of the larger oracle sample.
        reservoir = -(
            -max(ctx.scaled(cat.ORACLE_TOPK_SAMPLES), ctx.scaled(cat.ORACLE_WHYNOT_SAMPLES))
            // cat.CLIENTS
        )
        clients = [
            Client(
                server.port,
                index=index,
                seed=streams.derive_seed(ctx.seed, workload, index, "reservoir"),
                reservoir=reservoir,
            )
            for index in range(cat.CLIENTS)
        ]
        cpu_before = server.cpu_s()
        load = drive(
            clients,
            client_streams,
            seconds=ctx.seconds,
            hard_timeout_s=ctx.hard_timeout_s(),
            on_timeout=server.kill,
            gauge=server.cpu_s,
        )
        failures = list(load.failures)
        if load.timed_out:
            failures.append(f"{workload}: hard timeout, run abandoned")
            return PassResult(workload, {}, max(load.sent, 1), failures)
        cpu_ms = (server.cpu_s() - cpu_before) * 1000.0
        rss_mb = server.peak_rss_mb()

        if workload in cat.READ_ONLY_WORKLOADS:
            failures += _oracle_static(ctx, load)
        else:
            failures += _oracle_mutated(ctx, server, load)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(wal_root, ignore_errors=True)

    classes = _by_class(load)
    # The gated window metrics are read off the calm share of the slices
    # (all of them where requests differ in cost; README, "Calm slices").
    slices = load.slices()
    rates = [len(s.rows) / s.seconds for s in slices]
    calm = [slices[index] for index in calm_share(rates, spec.calm_share)]
    calm_ok = sum(len(s.rows) for s in calm)
    calm_s = sum(s.seconds for s in calm)
    calm_topk = [row[2] for s in calm for row in s.rows if row[0] == cat.TOPK]
    metrics: dict[str, tuple[float, str, int | None]] = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "server_rss_mb": (rss_mb, "MiB", None),
        "throughput_rps": (calm_ok / calm_s, "1/s", calm_ok),
        "server_cpu_ms_per_req": (
            sum(s.gauge for s in calm) * 1000.0 / max(calm_ok, 1), "ms", calm_ok
        ),
    }
    if calm_topk:
        metrics["topk_iqm_ms"] = (interquartile_mean(calm_topk), "ms", len(calm_topk))
    for prefix, cls, tail in (
        ("topk", cat.TOPK, 95), ("whynot", cat.WHYNOT, 95), ("mutation", cat.MUTATION, 90),
    ):
        samples = classes[cls]
        if samples:
            metrics[f"{prefix}_p50_ms"] = (percentile(samples, 50), "ms", len(samples))
            metrics[f"{prefix}_p{tail}_ms"] = (percentile(samples, tail), "ms", len(samples))
    attempted = max(load.sent, 1)
    metrics["error_rate"] = (len(failures) / attempted, "ratio", attempted)

    diagnostics: dict[str, object] = {
        "window_s": load.elapsed_s,
        "operations": load.total("operations"),
        "generator_cpu_share": load.cpu_share,
        "calm_window_s": calm_s,
        "whole_window_throughput_rps": load.ok / load.elapsed_s,
        "whole_window_server_cpu_ms_per_req": cpu_ms / max(load.ok, 1),
        "slices_rps": [round(rate, 1) for rate in rates],
        "setup_s_all": setups,
        "fsync": cat.FSYNC,
    }
    if load.cpu_share > 0.7:
        failures.append(
            f"{workload}: generator CPU share {load.cpu_share:.2f} > 0.7, "
            "the run measured the generator"
        )
    for cls, samples in classes.items():
        if samples and supports_percentile(len(samples), 99):
            diagnostics[f"{cls}_p99_ms"] = percentile(samples, 99)
    by_path: dict[str, list[float]] = {}
    for cls, path, elapsed_ms, _ in load.latencies:
        if cls == cat.WHYNOT:
            by_path.setdefault(path.rsplit("/", 1)[1], []).append(elapsed_ms)
    for kind, samples in sorted(by_path.items()):
        diagnostics[f"whynot_{kind}_p50_ms"] = percentile(samples, 50)
        diagnostics[f"whynot_{kind}_samples"] = len(samples)
    return PassResult(workload, metrics, attempted, failures, diagnostics)


def _oracle_mutated(ctx: Context, server: ServerProcess, load: LoadResult) -> list[str]:
    """mixed_rw: ledger, quiesced queries, then crash and recover."""
    ledger = load.ledger()
    mismatches, rebuilt = oracle.check_ledger(ctx.database, ledger, server.stats())
    probe = Client(server.port, reservoir=1 << 30)
    probes = ctx.stream("cold_read", cat.CLIENTS)  # a stream no client used
    for operation in islice(probes, ctx.scaled(cat.ORACLE_QUIESCED_QUERIES)):
        probe.issue(operation)
    probe.close()
    mismatches += probe.log.failures
    mismatches += oracle.check_quiesced(rebuilt, probe.log.samples.get(cat.TOPK, []))
    server.kill()
    mismatches += oracle.check_recovery(
        ctx.dataset, server.wal_dir, ledger, len(rebuilt)
    )
    return mismatches


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
@dataclass
class Replay:
    load: LoadResult
    stats: dict  # /api/stats delta over the replay
    stats_after: dict
    tracer: Tracer | None


def _delta(before: object, after: object) -> object:
    """Numeric difference of two ``/api/stats`` bodies, leaf by leaf."""
    if isinstance(after, dict) and isinstance(before, dict):
        return {key: _delta(before.get(key), value) for key, value in after.items()}
    if isinstance(after, bool) or not isinstance(after, (int, float)):
        return after
    return after - (before if isinstance(before, (int, float)) else 0)


def _at(stats: dict, path: Sequence[str]) -> float:
    value: object = stats
    for key in path:
        value = value.get(key) if isinstance(value, dict) else None
    return float(value) if isinstance(value, (int, float)) else 0.0


def _replay(
    ctx: Context, workload: str, operations: list[streams.Operation], traced: bool
) -> Replay:
    """One client, a fixed operation list, a fresh in-process server."""
    wal_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=ctx.out))
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    server = None
    try:
        engine, _ = recover_engine(
            wal_dir, database=load_json(ctx.dataset), fsync=cat.FSYNC, shards=cat.SHARDS
        )
        server = YaskHTTPServer(engine, port=0)
        server.start_background()
        port = server.server_address[1]
        _warm_up(port, ctx, workload)
        if tracer is not None:
            tracer.reset()
        before = get_json(port, "/api/stats")[1]
        client = Client(
            port,
            seed=streams.derive_seed(ctx.seed, workload, "trace-reservoir"),
            reservoir=max(cat.ORACLE_TOPK_SAMPLES[1], cat.ORACLE_WHYNOT_SAMPLES[1]),
            on_request=tracer.client_span if tracer is not None else None,
        )
        load = drive(
            [client],
            [iter(operations)],
            seconds=None,
            hard_timeout_s=ctx.hard_timeout_s(),
            on_timeout=lambda: None,
        )
        after = get_json(port, "/api/stats")[1]
    finally:
        if tracer is not None:
            tracer.uninstall()
        if server is not None:
            server.shutdown()
            server.server_close()
        shutil.rmtree(wal_dir, ignore_errors=True)
    return Replay(load, _delta(before, after), after, tracer)


def traced_pass(ctx: Context, workload: str) -> PassResult:
    spec = cat.WORKLOAD_BY_NAME[workload]
    count = max(1, round(spec.trace_ops_per_second * ctx.seconds))
    operations = list(islice(ctx.stream(workload, 0), count))
    bare = _replay(ctx, workload, operations, traced=False)
    traced = _replay(ctx, workload, operations, traced=True)
    assert traced.tracer is not None
    logs = ctx.out / workload
    logs.mkdir(parents=True, exist_ok=True)
    traced.tracer.dump(logs / "trace.jsonl")

    failures = list(bare.load.failures) + list(traced.load.failures)
    if bare.load.timed_out or traced.load.timed_out:
        failures.append(f"{workload}: hard timeout in the traced pass")
    if workload in cat.READ_ONLY_WORKLOADS:
        failures += _oracle_static(ctx, bare.load)
    else:
        failures += oracle.check_ledger(
            ctx.database, traced.load.ledger(), traced.stats_after
        )[0]

    times = layer_times(traced.tracer.spans)
    values = per_layer_values(bare, traced, times)
    failures += _invariants(workload, values)
    metrics = {
        metric.name: (values[metric.name], metric.unit, None) for metric in cat.PER_LAYER
    }
    diagnostics = {
        "operations": count,
        "spans": len(traced.tracer.spans),
        "wrap_missing": traced.tracer.missing,
        "bare_s": bare.load.elapsed_s,
        "traced_s": traced.load.elapsed_s,
    }
    attempted = max(bare.load.sent + traced.load.sent, 1)
    return PassResult(workload, metrics, attempted, failures, diagnostics)


def per_layer_values(bare: Replay, traced: Replay, times: LayerTimes) -> dict[str, float]:
    """Every per-layer metric of the catalogue, by name."""
    load, stats, tracer = traced.load, traced.stats, traced.tracer
    assert tracer is not None
    requests = {"all": load.ok}
    for cls, path, _elapsed, _request in load.latencies:
        requests[cls] = requests.get(cls, 0) + 1
        kind = path.rsplit("/", 1)[1]
        requests[kind] = requests.get(kind, 0) + 1
    replies = [reply for _, _, reply in load.ledger()]
    bare_classes = _by_class(bare.load)
    round_trips = sum(ms for _, _, ms, _ in load.latencies)
    mutation_ops = sum(
        _at(stats, ("mutations", key)) for key in ("inserted", "updated", "deleted")
    )

    def linked(key: str) -> float:
        return float(sum(r.get("cache_maintenance", {}).get(key, 0) for r in replies))

    def client_p50(cls: str) -> float:
        return percentile(bare_classes[cls], 50) if bare_classes[cls] else 0.0

    simple = {
        "gen_sent": load.sent,
        "gen_ok": load.ok,
        "gen_failed": len(load.failures),
        "gen_cpu_share": load.cpu_share,
        "gen_connections": load.total("connections") / max(load.ok, 1),
        "gen_bytes_in": load.total("bytes_in") / max(load.ok, 1),
        "gen_bytes_out": load.total("bytes_out") / max(load.ok, 1),
        "client_p50_topk": client_p50(cat.TOPK),
        "client_p50_whynot": client_p50(cat.WHYNOT),
        "client_p50_mutation": client_p50(cat.MUTATION),
        "whynot_reruns": tracer.whynot_topk_reruns,
        "linked_kept": linked("linked_kept"),
        "linked_patched": linked("linked_patched"),
        "linked_dropped": linked("linked_dropped"),
        "scan_calls": times.by_name.get("kernel.scan_top_k", (0, 0.0))[0],
        "rows_scanned": tracer.rows_scanned,
        "mutation_ops": mutation_ops,
        "wal_bytes_per_op": _at(stats, ("durability", "bytes_appended"))
        / max(mutation_ops, 1),
        "trace_overhead": 100.0
        * (traced.load.elapsed_s - bare.load.elapsed_s)
        / bare.load.elapsed_s,
        "trace_coverage": sum(times.by_request.values()) / max(round_trips, 1e-9),
    }
    values: dict[str, float] = {}
    for metric in cat.PER_LAYER:
        kind, *rest = metric.source
        if kind == "span":
            names, per = rest
            total = sum(times.by_name.get(name, (0, 0.0))[1] for name in names)
            values[metric.name] = total / requests[per] if requests.get(per) else 0.0
        elif kind == "stat":
            values[metric.name] = _at(stats, rest[0])
        elif kind == "rate":
            numerator = sum(_at(stats, path) for path in rest[0])
            denominator = sum(_at(stats, path) for path in rest[1])
            values[metric.name] = numerator / denominator if denominator else 0.0
        else:
            values[metric.name] = float(simple[kind])
    return values


def _invariants(workload: str, values: dict[str, float]) -> list[str]:
    """What each workload is built to guarantee; a miss is a failure."""
    broken = []
    if workload == "hot_read" and values["kernel.scan_calls"]:
        broken.append("hot_read ran kernel scans: the hot set missed the cache")
    if workload == "cold_read" and values["executor.topk_hit_rate"]:
        broken.append("cold_read hit the cache: its queries are not distinct")
    if workload == "whynot_session" and values["executor.whynot_topk_reruns"]:
        broken.append("why-not answering re-ran a cached top-k (E10's invariant)")
    if abs(values["trace.self_time_coverage"] - 1.0) > 0.05:
        broken.append(
            "span self times sum to "
            f"{values['trace.self_time_coverage']:.3f} of the round trips"
        )
    return broken
