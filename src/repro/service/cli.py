"""The ``yask`` command line interface.

Subcommands:

* ``yask serve [--host --port --dataset]`` — run the HTTP service.
* ``yask query --x --y --keywords --k [--ws]`` — one-shot top-k query.
* ``yask batch --file queries.json [--workers --repeat]`` — execute a
  file (or stdin) of query payloads through the caching
  :class:`~repro.service.executor.QueryExecutor`.
* ``yask whynot --x --y --keywords --k --missing [--lambda --model]`` —
  one-shot why-not question (explanation + refinement).
* ``yask whynot-batch --file questions.json [--workers --repeat]`` —
  answer a file (or stdin) of why-not question payloads through the
  caching :class:`~repro.service.executor.WhyNotExecutor`.
* ``yask demo`` — print the full demonstration screen (Figs. 3-5) for
  the Carol scenario on the 539-hotel dataset.
* ``yask recover --wal-dir DIR`` — rebuild an engine from a snapshot +
  write-ahead log and print the recovery report.
* ``yask follow --wal-dir DIR`` — serve read-only queries from a
  replica that tails a primary's log directory.

Datasets: ``hotels`` (the 539 Hong Kong hotels), ``coffee`` (Example 1's
cafes) or a path to a JSON file produced by
:func:`repro.datasets.save_json`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Sequence

from repro import faults
from repro.core.geometry import Point
from repro.core.objects import SpatialDatabase
from repro.core.query import Weights
from repro.datasets.hotels import GRAND_VICTORIA, coffee_shops, hong_kong_hotels
from repro.datasets.loaders import load_json
from repro.service.api import YaskEngine
from repro.service.executor import QueryExecutor, WhyNotExecutor
from repro.service.panels import render_demo_screen
from repro.service.protocol import (
    ProtocolError,
    batch_execution_to_dict,
    batch_queries_from_dict,
    batch_whynot_questions_from_dict,
    explanation_to_dict,
    keyword_refinement_to_dict,
    preference_refinement_to_dict,
    result_to_dict,
    whynot_batch_execution_to_dict,
)
from repro.service.server import serve_forever
from repro.whynot.errors import WhyNotError

__all__ = ["main", "build_parser", "load_dataset"]


def load_dataset(spec: str) -> SpatialDatabase:
    """Resolve a dataset spec: a builtin name or a JSON file path."""
    if spec == "hotels":
        return hong_kong_hotels()
    if spec == "coffee":
        return coffee_shops()
    return load_json(spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yask",
        description=(
            "YASK: a why-not question answering engine for spatial keyword "
            "query services (PVLDB 2016 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shard_args(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--shards",
            type=_shard_count_arg,
            default=None,
            help=(
                "partition the database into N spatial shards "
                "(scatter-gather top-k + pruned why-not scans; "
                "default: unsharded)"
            ),
        )
        command.add_argument(
            "--partitioner",
            choices=("grid", "round-robin"),
            default="grid",
            help="shard partition strategy (round-robin is the ablation)",
        )

    def add_wal_args(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--wal-dir",
            default=None,
            help=(
                "write-ahead-log directory (enables durability; any "
                "existing snapshot + log is recovered first, and the "
                "given --dataset seeds a log that has neither)"
            ),
        )
        command.add_argument(
            "--fsync",
            choices=("always", "never"),
            default="always",
            help=(
                "WAL fsync policy: always = every batch is on disk "
                "before it is acknowledged; never = leave flushing to "
                "the OS (faster, may lose the tail on power failure)"
            ),
        )

    def add_inflight_arg(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--max-inflight",
            type=int,
            default=None,
            help=(
                "admission-control bound: requests beyond this many "
                "in flight are shed with a structured 503 and a "
                "Retry-After header (default: unbounded)"
            ),
        )

    serve = sub.add_parser("serve", help="run the HTTP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--dataset", default="hotels")
    add_inflight_arg(serve)
    add_shard_args(serve)
    add_wal_args(serve)
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help=(
            "write a snapshot (and compact the log) every N mutation "
            "batches; requires --wal-dir"
        ),
    )
    serve.add_argument(
        "--snapshot-interval-secs",
        type=float,
        default=None,
        help=(
            "also snapshot on a wall-clock cadence: every N seconds, if "
            "any batches landed since the last snapshot; combines with "
            "--snapshot-every and requires --wal-dir"
        ),
    )
    serve.add_argument(
        "--cache-skyband",
        type=int,
        default=8,
        help=(
            "skyband width Δ: extra ranked candidates each cached top-k "
            "entry keeps so mutations patch cached answers in O(Δ) "
            "instead of evicting them (0 restores drop-on-write)"
        ),
    )

    def add_query_args(command: argparse.ArgumentParser) -> None:
        command.add_argument("--dataset", default="hotels")
        add_shard_args(command)
        command.add_argument("--x", type=float, required=True)
        command.add_argument("--y", type=float, required=True)
        command.add_argument(
            "--keywords", required=True, help="comma-separated query keywords"
        )
        command.add_argument("--k", type=int, default=3)
        command.add_argument(
            "--ws",
            type=float,
            default=None,
            help="spatial weight (default: server parameter 0.5)",
        )

    def add_deadline_arg(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--deadline-ms",
            type=float,
            default=None,
            help=(
                "time budget in milliseconds: a top-k query degrades to "
                "a partial answer over the shards that responded (with a "
                "'degraded' envelope saying what was skipped); a why-not "
                "question either answers exactly or reports degradation "
                "— never a silently wrong count"
            ),
        )

    query = sub.add_parser("query", help="run one top-k query")
    add_query_args(query)
    add_deadline_arg(query)

    batch = sub.add_parser(
        "batch",
        help="execute a JSON file of top-k queries through the executor",
    )
    batch.add_argument("--dataset", default="hotels")
    add_shard_args(batch)
    batch.add_argument(
        "--file",
        required=True,
        help="path to a JSON list of query payloads "
        '([{"x", "y", "keywords", "k", "ws"?}, ...]), or "-" for stdin',
    )
    batch.add_argument(
        "--workers", type=int, default=8, help="worker-pool width"
    )
    batch.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="execute the workload this many times (repeats hit the cache)",
    )

    whynot_batch = sub.add_parser(
        "whynot-batch",
        help="answer a JSON file of why-not questions through the executor",
    )
    whynot_batch.add_argument("--dataset", default="hotels")
    add_shard_args(whynot_batch)
    whynot_batch.add_argument(
        "--file",
        required=True,
        help="path to a JSON list of why-not question payloads "
        '([{"x", "y", "keywords", "k", "missing", "model"?, "lambda"?, '
        '"ws"?}, ...]), or "-" for stdin',
    )
    whynot_batch.add_argument(
        "--workers", type=int, default=8, help="worker-pool width"
    )
    whynot_batch.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="answer the workload this many times (repeats hit the cache)",
    )

    mutate = sub.add_parser(
        "mutate",
        help="apply a JSON file of insert/update/delete mutations",
    )
    mutate.add_argument("--dataset", default="hotels")
    add_shard_args(mutate)
    mutate.add_argument(
        "--file",
        required=True,
        help="path to a JSON list of mutation payloads "
        '([{"op": "insert"|"update"|"delete", "oid", "x"?, "y"?, '
        '"keywords"?, "name"?}, ...]), or "-" for stdin',
    )
    mutate.add_argument(
        "--batch-size",
        type=int,
        default=0,
        help="apply the file in batches of this many mutations "
        "(0 = one atomic batch)",
    )
    add_wal_args(mutate)

    whynot = sub.add_parser("whynot", help="ask a why-not question")
    add_query_args(whynot)
    add_deadline_arg(whynot)
    whynot.add_argument(
        "--missing",
        required=True,
        help="comma-separated object names or ids expected in the result",
    )
    whynot.add_argument("--lambda", dest="lam", type=float, default=0.5)
    whynot.add_argument(
        "--model",
        choices=("preference", "keywords", "both"),
        default="both",
    )

    demo = sub.add_parser("demo", help="print the demonstration screens")
    demo.add_argument("--width", type=int, default=64)

    stats = sub.add_parser(
        "stats", help="print dataset and index structure statistics"
    )
    stats.add_argument("--dataset", default="hotels")
    stats.add_argument("--max-entries", type=_max_entries_arg, default=32)

    audit = sub.add_parser(
        "audit",
        help="run a top-k query and verify the result against the oracle",
    )
    add_query_args(audit)

    recover = sub.add_parser(
        "recover",
        help="rebuild an engine from a WAL directory and print the report",
    )
    recover.add_argument("--wal-dir", required=True)
    recover.add_argument(
        "--dataset",
        default=None,
        help=(
            "seed dataset for a log with no snapshot (must be the same "
            "database the log was started from; ignored when a snapshot "
            "exists)"
        ),
    )
    recover.add_argument(
        "--snapshot",
        action="store_true",
        help="write a fresh snapshot after recovery (compacts the log)",
    )

    follow = sub.add_parser(
        "follow",
        help="serve read-only queries by tailing a primary's WAL directory",
    )
    follow.add_argument("--wal-dir", required=True)
    follow.add_argument("--host", default="127.0.0.1")
    follow.add_argument("--port", type=int, default=8081)
    add_inflight_arg(follow)
    follow.add_argument(
        "--dataset",
        default=None,
        help="seed dataset for a log with no snapshot",
    )
    add_shard_args(follow)

    return parser


def _parse_keywords(raw: str) -> frozenset[str]:
    keywords = frozenset(part.strip() for part in raw.split(",") if part.strip())
    if not keywords:
        raise SystemExit("at least one query keyword is required")
    return keywords


def _parse_missing(raw: str) -> list[int | str]:
    refs: list[int | str] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        refs.append(int(part) if part.isdigit() else part)
    if not refs:
        raise SystemExit("at least one missing object is required")
    return refs


def _int_at_least(value: str, minimum: int, what: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}"
        ) from None
    if number < minimum:
        raise argparse.ArgumentTypeError(f"{what} must be at least {minimum}")
    return number


def _shard_count_arg(value: str) -> int:
    """``--shards`` values: a positive integer."""
    return _int_at_least(value, 1, "shard count")


def _max_entries_arg(value: str) -> int:
    """``--max-entries`` values: an R-tree fanout, at least 2."""
    return _int_at_least(value, 2, "max entries")


def _engine_options(args: argparse.Namespace) -> dict:
    """The engine keywords of the ``add_shard_args`` flags, spelled once."""
    if args.shards is None and args.partitioner != "grid":
        raise SystemExit(
            "--partitioner configures the sharded engine; "
            "add --shards N (or drop it)"
        )
    return {"shards": args.shards, "partitioner": args.partitioner}


def _make_engine(args: argparse.Namespace) -> YaskEngine:
    return YaskEngine(load_dataset(args.dataset), **_engine_options(args))


def _make_durable_engine(args: argparse.Namespace) -> YaskEngine:
    """Build the engine, recovering from ``--wal-dir`` when given."""
    if getattr(args, "wal_dir", None) is None:
        return _make_engine(args)
    from repro.service.wal import WalError, recover_engine

    try:
        engine, report = recover_engine(
            args.wal_dir,
            database=load_dataset(args.dataset),
            fsync=args.fsync,
            **_engine_options(args),
        )
    except WalError as exc:
        raise SystemExit(f"recovery failed: {exc}")
    print(
        f"recovered generation {report.generation} from {args.wal_dir} "
        f"({report.records_replayed} record(s) replayed)",
        file=sys.stderr,
    )
    return engine


def _deadline_of(args: argparse.Namespace) -> faults.Deadline | None:
    budget = getattr(args, "deadline_ms", None)
    if budget is None:
        return None
    if budget <= 0:
        raise SystemExit("--deadline-ms must be positive")
    return faults.Deadline(budget)


def _run_query(args: argparse.Namespace) -> int:
    engine = _make_engine(args)
    deadline = _deadline_of(args)
    try:
        weights = Weights.from_spatial(args.ws) if args.ws is not None else None
        query = engine.make_query(
            Point(args.x, args.y), _parse_keywords(args.keywords), args.k,
            weights=weights,
        )
        scope = (
            faults.deadline_scope(deadline)
            if deadline is not None
            else contextlib.nullcontext()
        )
        with scope:
            timed = engine.timed_query(query)
    finally:
        engine.close()
    payload = result_to_dict(timed.value)
    if deadline is not None and deadline.degraded:
        payload["degraded"] = deadline.to_dict()
        print(
            f"degraded: {deadline.to_dict()['shards_skipped']} shard(s) "
            "skipped past the deadline",
            file=sys.stderr,
        )
    print(json.dumps(payload, indent=2))
    print(f"executed in {timed.response_ms:.2f} ms", file=sys.stderr)
    return 0


def _load_workload(args: argparse.Namespace, envelope_key: str) -> dict:
    """Read a JSON workload file (or stdin) for the batch subcommands.

    Accepts both the bare list and the HTTP batch envelope
    (``{envelope_key: [...]}``).
    """
    if args.repeat < 1:
        raise SystemExit("--repeat must be at least 1")
    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    if args.file == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise SystemExit(f"cannot read {args.file}: {exc}")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"invalid JSON in {args.file}: {exc}")
    if isinstance(payload, list):
        payload = {envelope_key: payload}
    return payload


def _run_batch(args: argparse.Namespace) -> int:
    payload = _load_workload(args, "queries")
    engine = _make_engine(args)
    try:
        queries = batch_queries_from_dict(
            payload, default_weights=engine.default_weights
        )
    except ProtocolError as exc:
        raise SystemExit(f"bad batch payload: {exc}")
    executor = QueryExecutor(engine, max_workers=args.workers)
    try:
        batches = [
            executor.execute_batch(queries) for _ in range(args.repeat)
        ]
    finally:
        executor.close()
        engine.close()
    stats = executor.stats()
    print(
        json.dumps(
            {
                "batches": [batch_execution_to_dict(batch) for batch in batches],
                "cache": stats.to_dict(),
            },
            indent=2,
        )
    )
    print(
        f"{args.repeat} batch(es) of {len(queries)} queries: "
        f"{stats.hits + stats.inflight_waits} served without execution "
        f"(hit rate {stats.hit_rate:.0%})",
        file=sys.stderr,
    )
    return 0


def _run_whynot_batch(args: argparse.Namespace) -> int:
    payload = _load_workload(args, "questions")
    engine = _make_engine(args)
    try:
        questions = batch_whynot_questions_from_dict(
            payload, default_weights=engine.default_weights
        )
    except ProtocolError as exc:
        raise SystemExit(f"bad batch payload: {exc}")
    topk = QueryExecutor(engine, max_workers=args.workers)
    executor = WhyNotExecutor(engine, topk, max_workers=args.workers)
    try:
        batches = [
            executor.execute_batch(questions) for _ in range(args.repeat)
        ]
    finally:
        executor.close()
        topk.close()
        engine.close()
    stats = executor.stats()
    print(
        json.dumps(
            {
                "batches": [
                    whynot_batch_execution_to_dict(batch) for batch in batches
                ],
                "cache": topk.stats().to_dict(),
                "whynot_cache": stats.to_dict(),
            },
            indent=2,
        )
    )
    errors = sum(1 for batch in batches for e in batch if not e.ok)
    print(
        f"{args.repeat} batch(es) of {len(questions)} why-not questions: "
        f"{stats.hits + stats.inflight_waits} served without recomputation "
        f"(hit rate {stats.hit_rate:.0%}), {errors} rejected",
        file=sys.stderr,
    )
    return 0


def _run_mutate(args: argparse.Namespace) -> int:
    """Apply a mutation workload to a freshly built engine and report.

    The in-process twin of ``POST /api/mutations`` — useful for smoke
    testing ingest workloads and for measuring incremental-apply cost on
    a dataset before wiring it into a serving deployment.
    """
    from repro.core.mutations import MutationError
    from repro.service.protocol import mutations_from_dict

    if args.batch_size < 0:
        raise SystemExit("--batch-size must be non-negative")
    args.repeat = 1
    args.workers = 1
    payload = _load_workload(args, "mutations")
    engine = _make_durable_engine(args)
    try:
        mutations = mutations_from_dict(payload, max_mutations=None)
    except ProtocolError as exc:
        engine.close()
        raise SystemExit(f"bad mutation payload: {exc}")
    size = args.batch_size or len(mutations)
    reports = []
    try:
        for start in range(0, len(mutations), size):
            report = engine.apply_mutations(mutations[start : start + size])
            reports.append(report.to_dict())
    except MutationError as exc:
        print(f"mutation error: {exc}", file=sys.stderr)
        return 2
    finally:
        engine.close()
    print(
        json.dumps(
            {"batches": reports, "stats": engine.mutation_stats()}, indent=2
        )
    )
    applied = sum(
        report["inserted"] + report["updated"] + report["deleted"]
        for report in reports
    )
    print(
        f"applied {applied} mutation(s) in {len(reports)} batch(es); "
        f"database now holds {len(engine.database)} objects",
        file=sys.stderr,
    )
    return 0


def _run_whynot(args: argparse.Namespace) -> int:
    engine = _make_engine(args)
    deadline = _deadline_of(args)
    weights = Weights.from_spatial(args.ws) if args.ws is not None else None
    query = engine.make_query(
        Point(args.x, args.y), _parse_keywords(args.keywords), args.k,
        weights=weights,
    )
    missing = _parse_missing(args.missing)
    scope = (
        faults.strict_deadline_scope(deadline)
        if deadline is not None
        else contextlib.nullcontext()
    )
    try:
        with scope:
            payload: dict = {
                "explanation": explanation_to_dict(
                    engine.explain(query, missing)
                )
            }
            if args.model in ("preference", "both"):
                refinement = engine.refine_preference(
                    query, missing, lam=args.lam
                )
                payload["preference"] = preference_refinement_to_dict(
                    refinement
                )
            if args.model in ("keywords", "both"):
                refinement = engine.refine_keywords(
                    query, missing, lam=args.lam
                )
                payload["keywords"] = keyword_refinement_to_dict(refinement)
    except faults.DeadlineExceeded as exc:
        deadline.note_failed("why-not answering exceeded the deadline")
        print(
            json.dumps(
                {"degraded": deadline.to_dict(), "error": str(exc)}, indent=2
            )
        )
        print(f"why-not degraded: {exc}", file=sys.stderr)
        return 3
    except WhyNotError as exc:
        print(f"why-not error: {exc}", file=sys.stderr)
        return 2
    finally:
        engine.close()
    print(json.dumps(payload, indent=2))
    return 0


def _run_demo(args: argparse.Namespace) -> int:
    database = hong_kong_hotels()
    engine = YaskEngine(database)
    venue = Point(114.1722, 22.2975)  # the "conference venue" of Example 2
    result = engine.top_k(venue, {"clean", "comfortable"}, k=3)
    answer = engine.why_not(result.query, [GRAND_VICTORIA])
    print(render_demo_screen(database, result, answer, width=args.width))
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    from repro.index.kcrtree import KcRTree
    from repro.index.setrtree import SetRTree
    from repro.index.stats import tree_statistics

    database = load_dataset(args.dataset)
    print("dataset:")
    for key, value in database.summary().items():
        print(f"  {key} = {value}")
    # The paper's two indexes, bulk-loaded for the report alone.
    set_rtree = SetRTree.build(database, max_entries=args.max_entries)
    kcr_tree = KcRTree.build(database, max_entries=args.max_entries)
    print("SetR-tree:")
    print(f"  {tree_statistics(set_rtree).describe()}")
    print("KcR-tree:")
    print(f"  {tree_statistics(kcr_tree).describe()}")
    return 0


def _run_recover(args: argparse.Namespace) -> int:
    """Recover an engine from a log directory and print the report.

    Exit code 2 signals corruption (or a log that needs a seed
    database), distinguishing "the log is bad" from transient errors.
    """
    from repro.service.wal import WalError, recover_engine

    database = load_dataset(args.dataset) if args.dataset else None
    try:
        engine, report = recover_engine(args.wal_dir, database=database)
    except WalError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 2
    try:
        payload = report.to_dict()
        if args.snapshot:
            engine.snapshot()
            payload["durability"] = engine.durability_stats()
    finally:
        engine.close()
    print(json.dumps(payload, indent=2))
    return 0


def _run_follow(args: argparse.Namespace) -> int:
    from repro.service.wal import FollowerEngine, WalError

    database = load_dataset(args.dataset) if args.dataset else None
    try:
        follower = FollowerEngine(
            args.wal_dir, database=database, **_engine_options(args)
        )
    except WalError as exc:
        print(f"follower bootstrap failed: {exc}", file=sys.stderr)
        return 2
    serve_forever(
        follower.engine,
        host=args.host,
        port=args.port,
        follower=follower,
        max_inflight=args.max_inflight,
    )
    return 0


def _run_audit(args: argparse.Namespace) -> int:
    engine = _make_engine(args)
    try:
        weights = Weights.from_spatial(args.ws) if args.ws is not None else None
        result = engine.top_k(
            Point(args.x, args.y), _parse_keywords(args.keywords), args.k,
            weights=weights,
        )
        report = engine.audit(result)
    finally:
        engine.close()
    print(report.describe())
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        if args.snapshot_every is not None and args.wal_dir is None:
            raise SystemExit("--snapshot-every requires --wal-dir")
        if args.snapshot_interval_secs is not None and args.wal_dir is None:
            raise SystemExit("--snapshot-interval-secs requires --wal-dir")
        serve_forever(
            _make_durable_engine(args),
            host=args.host,
            port=args.port,
            snapshot_every=args.snapshot_every,
            snapshot_interval_secs=args.snapshot_interval_secs,
            max_inflight=args.max_inflight,
            cache_skyband=args.cache_skyband,
        )
        return 0
    if args.command == "query":
        return _run_query(args)
    if args.command == "batch":
        return _run_batch(args)
    if args.command == "mutate":
        return _run_mutate(args)
    if args.command == "whynot":
        return _run_whynot(args)
    if args.command == "whynot-batch":
        return _run_whynot_batch(args)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "audit":
        return _run_audit(args)
    if args.command == "recover":
        return _run_recover(args)
    if args.command == "follow":
        return _run_follow(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
