"""Self-tests of the E16 benchmark's own arithmetic and contract.

Collected by the tier-1 command (``python -m pytest -x -q`` from the
repository root); the one test that spawns servers is ``slow``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import run  # puts benchmarks/e16 and src/ on sys.path
import catalogue as cat
import compare
import oracle
import streams
from loadgen import ClientLog, LoadResult, Sample
from measure import (
    calm_share, interquartile_mean, percentile, spread, supports_percentile,
)
from passes import PassResult
from tracing import CLIENT_SPAN, Span, covered, layer_times, self_times

from repro.datasets.generators import SyntheticDatasetBuilder
from repro.service.api import YaskEngine
from repro.service.protocol import query_from_dict, result_to_dict

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 50) == 7.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert supports_percentile(200, 95)
    assert not supports_percentile(199, 95)
    assert supports_percentile(100, 90)
    assert not supports_percentile(99, 90)
    assert supports_percentile(1000, 99)
    assert not supports_percentile(19, 50)


def test_interquartile_mean_ignores_both_tails():
    assert interquartile_mean([1.0, 2.0, 3.0, 4.0, 1000.0, 0.0, 2.5, 3.5]) == 2.75
    assert interquartile_mean([5.0]) == 5.0
    with pytest.raises(ValueError):
        interquartile_mean([])


def test_spread_is_iqr_over_median():
    assert spread([1.0, 2.0]) == 0.0
    assert spread([10.0] * 8) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_calm_share_keeps_the_fastest_slices():
    rates = [900.0, 1000.0, 700.0, 1010.0, 710.0, 990.0]
    assert calm_share(rates, 1 / 3) == [3, 1]
    assert sorted(calm_share(rates, 1.0)) == [0, 1, 2, 3, 4, 5]
    assert calm_share([5.0, 5.0], 0.1) == [0]  # never none, ties by position
    with pytest.raises(ValueError):
        calm_share([], 0.5)


def test_a_reply_belongs_to_the_slice_it_arrived_in():
    rows = [("topk", "/api/query", float(ms), n) for n, ms in enumerate((3, 4, 5, 6), 1)]
    logs = [
        ClientLog(latencies=rows[:2], finished=[10.2, 11.5]),
        ClientLog(latencies=rows[2:], finished=[10.9, 12.4]),  # the last: after the window
    ]
    load = LoadResult(logs, 2.5, marks=[(10.0, 1.0), (11.0, 1.75), (12.0, 2.0)])
    first, second = load.slices()
    assert (first.seconds, first.gauge, first.rows) == (1.0, 0.75, [rows[0], rows[2]])
    assert (second.seconds, second.gauge, second.rows) == (1.0, 0.25, [rows[1]])
    assert LoadResult(logs, 2.5).slices() == []


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small():
    database = SyntheticDatasetBuilder(seed=cat.DATASET_SEED).build(
        400, **cat.DATASET_KWARGS
    )
    engine = YaskEngine(database, shards=cat.SHARDS)
    yield database, engine
    engine.close()


def _head(small, workload: str, seed: int, client: int = 0, count: int = 40) -> bytes:
    database, engine = small
    hot = streams.hot_set(database, seed)
    stream = streams.client_stream(workload, seed, client, database, engine.query, hot)
    return b"\n".join(streams.encode(op) for op in islice(stream, count))


@pytest.mark.parametrize("workload", cat.WORKLOAD_NAMES)
def test_same_seed_same_bytes_other_seed_other_bytes(small, workload):
    assert _head(small, workload, seed=5) == _head(small, workload, seed=5)
    assert _head(small, workload, seed=5) != _head(small, workload, seed=6)
    assert _head(small, workload, seed=5) != _head(small, workload, seed=5, client=1)


def test_mixed_stream_mutates_only_its_own_inserts(small):
    database, engine = small
    stream = streams.client_stream(
        "mixed_rw", 9, 1, database, engine.query, streams.hot_set(database, 9)
    )
    minted = range(
        cat.FIRST_MINTED_OID + cat.MINTED_OIDS_PER_CLIENT,
        cat.FIRST_MINTED_OID + 2 * cat.MINTED_OIDS_PER_CLIENT,
    )
    live: set[int] = set()
    kinds = set()
    tokens = set()
    for operation in islice(stream, 400):
        kinds.add(operation.kind)
        if operation.kind != "mutation":
            continue
        body = operation.steps[0].body
        assert body["batch_token"] not in tokens
        tokens.add(body["batch_token"])
        for mutation in body["mutations"]:
            assert mutation["oid"] in minted
            if mutation["op"] == "insert":
                assert mutation["oid"] not in live
                live.add(mutation["oid"])
            elif mutation["op"] == "update":
                assert mutation["oid"] in live
            else:
                live.remove(mutation["oid"])
    assert kinds == {"hot", "cold", "session", "mutation"}


# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------
def test_covered_is_the_clipped_union():
    assert covered([(0, 10), (5, 20)], 0, 100) == 20
    assert covered([(0, 10), (20, 30)], 5, 25) == 10
    assert covered([], 0, 10) == 0


def test_self_time_on_a_hand_built_tree():
    ms = 1_000_000
    spans = [  # appended as they end: children first
        Span("kernel.scan_top_k", 30 * ms, 60 * ms, 4, 3, 7),
        Span("sharded.search", 20 * ms, 70 * ms, 3, 2, 7),
        Span("server.send_json", 75 * ms, 85 * ms, 5, 2, 7),
        Span("server.do_POST", 10 * ms, 90 * ms, 2, 1, 7),
        Span(CLIENT_SPAN, 0, 100 * ms, 1, None, 7),
        Span("kernel.scan_top_k", 40 * ms, 50 * ms, 6, None, None),  # pool thread
    ]
    own = self_times(spans)
    assert own == {
        1: 20 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms, 6: 10 * ms
    }
    times = layer_times(spans)
    assert times.by_name["kernel.scan_top_k"] == (2, 40.0)
    assert times.by_name[CLIENT_SPAN] == (1, 20.0)
    # The request's tree sums to the client's round trip; the detached
    # pool-thread span belongs to no request.
    assert times.by_request == {7: 100.0}


# ----------------------------------------------------------------------
# BENCHMARK.json lint
# ----------------------------------------------------------------------
ISSUE_END_TO_END = """setup_s server_rss_mb throughput_rps server_cpu_ms_per_req
topk_p50_ms topk_p95_ms whynot_p50_ms whynot_p95_ms mutation_p50_ms
mutation_p90_ms error_rate""".split()

ISSUE_PER_LAYER = """gen.requests_sent gen.requests_ok gen.requests_failed
gen.cpu_share server.transport_ms server.handler_self_ms server.json_ms
server.connections_per_req server.bytes_in_per_req server.bytes_out_per_req
server.shed protocol.decode_ms protocol.encode_ms session.create_ms
executor.fetch_self_ms executor.topk_hits executor.topk_misses
executor.topk_hit_rate executor.topk_evictions executor.inflight_waits
executor.whynot_hits executor.whynot_misses executor.whynot_hit_rate
executor.whynot_topk_reruns executor.maintain_topk_ms
executor.maintain_whynot_ms executor.maintained_kept
executor.maintained_patched executor.maintained_dropped
executor.skyband_rescans executor.linked_kept executor.linked_patched
executor.linked_dropped api.query_self_ms api.answer_whynot_self_ms
api.apply_mutations_self_ms api.read_lock_wait_ms api.write_lock_wait_ms
sharded.search_self_ms sharded.scatter_ms sharded.merge_ms sharding.bounds_ms
sharding.topk_shards_scanned sharding.topk_shards_skipped
sharding.topk_skip_rate sharding.count_skip_rate sharding.dual_skip_rate
sharding.doc_skip_rate sharding.apply_mutations_ms kernel.scan_top_k_ms
kernel.scan_calls kernel.rows_scanned kernel.score_passes kernel.full_passes
kernel.point_scores kernel.count_better_calls kernel.count_better_ms
kernel.rank_of_many_calls kernel.rank_of_many_ms kernel.dual_views
kernel.dual_view_ms kernel.doc_rank_scans kernel.apply_mutations_ms
whynot.explain_ms whynot.preference_ms whynot.keywords_ms whynot.combined_ms
index.insert_batch_ms index.rebuilds mutations.apply_ms mutations.batches
mutations.ops wal.append_ms wal.records_appended wal.bytes_appended
wal.bytes_per_op wal.syncs trace.overhead_pct""".split()


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/e16"]
    assert BENCHMARK["command"][-1] == "benchmarks/e16/run.py"
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25, "every bound set, none above the cap"
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert unit.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(name.fullmatch(n) for n in names)
    assert len(names) == len(set(names)), "a name is used once"
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert len(json.dumps(BENCHMARK)) < 64 * 1024


def test_benchmark_json_matches_the_catalogue_and_the_issue():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(cat.WORKLOAD_NAMES)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in cat.WORKLOADS]
    gated = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in cat.END_TO_END if m.gated
    ]
    assert BENCHMARK["end_to_end"] == gated
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in cat.PER_LAYER
    ]
    assert set(ISSUE_END_TO_END) <= {m.name for m in cat.END_TO_END}
    assert set(ISSUE_PER_LAYER) <= {m.name for m in cat.PER_LAYER}


# ----------------------------------------------------------------------
# The correctness gate fails the run
# ----------------------------------------------------------------------
def test_a_wrong_oracle_expectation_exits_non_zero(small, tmp_path, monkeypatch, capsys):
    database, engine = small
    operation = streams.hot_set(database, 1)[0]
    step = operation.steps[0]
    query = query_from_dict(step.body)
    reply = {"result": result_to_dict(engine.query(query))}
    good = Sample(step, step.body, reply)
    assert oracle.check_topk(database, [good]) == []
    tampered = json.loads(json.dumps(reply))
    tampered["result"]["entries"][0]["score"] += 1e-12
    mismatches = oracle.check_topk(database, [Sample(step, step.body, tampered)])
    assert len(mismatches) == 1

    def failing_pass(ctx, workload):
        return PassResult(
            workload, {"topk_p50_ms": (1.0, "ms", 1)}, 1, list(mismatches)
        )

    monkeypatch.setattr(run, "timed_pass", failing_pass)
    arguments = ["--smoke", "--workload", "hot_read", "--trace", "0", "--out", str(tmp_path)]
    assert run.main(arguments) == 1
    assert "FAILED: top-k" in capsys.readouterr().out


def test_ledger_oracle_catches_a_lost_batch(small):
    database, _ = small
    insert = {"op": "insert", "oid": 10**6, "x": 0.5, "y": 0.5, "keywords": ["kw001"]}
    ledger = [(1, [insert], {}), (2, [{"op": "delete", "oid": 10**6}], {})]
    stats = {"mutations": {"generation": 2, "kernel": {"live_rows": len(database)}}}
    assert oracle.check_ledger(database, ledger, stats)[0] == []
    stats["mutations"]["generation"] = 1
    assert oracle.check_ledger(database, ledger, stats)[0]
    assert oracle.check_ledger(database, [(2, [insert], {})], stats)[0]


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, better="lower", bound=0.1)[0] == "unchanged"
    slower = [value * 1.3 for value in steady]
    assert compare.verdict(steady, slower, better="lower", bound=0.1)[0] == "regressed"
    assert compare.verdict(steady, slower, better="higher", bound=0.1)[0] == "improved"
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(noisy, noisy, better="lower", bound=0.1)[0] == "unresolved"
    assert compare.verdict([0.0], [0.01], better="lower", bound=0.0)[0] == "regressed"
    assert compare.verdict([0.0], [0.0], better="lower", bound=0.0)[0] == "unchanged"


def _document(p50: float, errors: float = 0.0) -> dict:
    metrics = {
        "topk_p50_ms": {"value": p50, "unit": "ms", "samples": 100},
        "error_rate": {"value": errors, "unit": "ratio", "samples": 100},
    }
    return {"workloads": {"hot_read": {"end_to_end": {"metrics": metrics}}}}


def test_compare_exits_non_zero_on_regression_or_errors(tmp_path, capsys):
    base, same, slow, wrong = (tmp_path / n for n in ("a", "b", "c", "d"))
    base.write_text(json.dumps(_document(2.0)))
    same.write_text("\n".join(json.dumps(_document(v)) for v in (2.0, 2.02, 1.98)))
    slow.write_text(json.dumps(_document(3.0)))
    wrong.write_text(json.dumps(_document(2.0, errors=0.01)))
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(slow)]) == 1
    assert compare.main([str(base), str(wrong)]) == 1
    assert "1.500x of 2" in capsys.readouterr().out


# ----------------------------------------------------------------------
# End to end (spawns servers: slow tier)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_smoke_run_passes_every_check(tmp_path):
    finished = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert finished.returncode == 0, finished.stdout[-3000:] + finished.stderr[-3000:]
    document = json.loads((tmp_path / "result-seed1.json").read_text())
    assert set(document["workloads"]) == set(cat.WORKLOAD_NAMES)
    for entry in document["workloads"].values():
        assert entry["end_to_end"]["failed"] == entry["per_layer"]["failed"] == 0
