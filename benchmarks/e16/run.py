"""E16: end-to-end HTTP benchmark with a per-layer latency budget.

    python3 benchmarks/e16/run.py --seed 1                 # all workloads, both passes
    python3 benchmarks/e16/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

Every workload gets a fresh ``yask serve`` process, is driven over
loopback HTTP by two closed-loop clients, has its answers checked
against an oracle, and prints every metric by name with its unit.
With one ``--workload`` and ``--trace 0|1`` the last line of stdout is
the driver's JSON object.  Exit status is non-zero when any request
failed, any oracle disagreed or a workload timed out.  README.md has
the catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"e16: {SRC}/repro not found; run from a checkout of the repository")
sys.path[:0] = [str(HERE), str(SRC)]

import catalogue as cat  # noqa: E402
from passes import Context, PassResult, timed_pass, traced_pass  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--workload", choices=cat.WORKLOAD_NAMES, help="run one (default: all)"
    )
    parser.add_argument(
        "--seconds", type=float, default=run_seconds,
        help="length of the timed window; the traced replay's fixed "
        "operation count scales with it (default: %(default)s)",
    )
    parser.add_argument(
        "--trace", choices=("0", "1", "both"), default="both",
        help="0: timed pass only, 1: traced pass only (default: both)",
    )
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="logs, traces, dataset cache and results (default: %(default)s)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"{cat.SMOKE_OBJECTS} objects and a 1 s window, all checks on",
    )
    parser.add_argument(
        "--append-history", type=Path, metavar="PATH",
        help="append this run's result as one JSON line to PATH",
    )
    return parser


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _entry(result: PassResult) -> dict:
    return {
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in result.metrics.items()
        },
        "attempted": result.attempted,
        "failed": len(result.failures),
        "failures": result.failures[:10],
        "diagnostics": result.diagnostics,
    }


def _print_pass(title: str, result: PassResult, notes: dict[str, str]) -> None:
    print(f"  {title}")
    for name, (value, unit, samples) in result.metrics.items():
        count = f"n={samples}" if samples is not None else ""
        print(f"    {name:<30} {value:>14.4f} {unit:<6} {count:<9} {notes.get(name, '')}")
    for name, value in result.diagnostics.items():
        shown = f"{value:.4f}" if isinstance(value, float) else value
        print(f"    ({name} = {shown})")
    for failure in result.failures[:10]:
        print(f"    FAILED: {failure[:300]}")


def _driver_line(result: PassResult, names: list[str]) -> str:
    """The benchmark driver's contract: one JSON object, last on stdout."""
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": min(len(result.failures), result.attempted),
            "metrics": {
                name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
                for name in names
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    seconds = 1.0 if args.smoke else args.seconds
    ctx = Context(
        src=SRC, out=args.out, seed=args.seed, seconds=seconds,
        objects=cat.SMOKE_OBJECTS if args.smoke else cat.DATASET_OBJECTS,
    )
    workloads = [args.workload] if args.workload else list(cat.WORKLOAD_NAMES)
    document = {
        "meta": {
            "benchmark": "e16",
            "commit": _commit(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "seed": args.seed,
            "seconds": seconds,
            "clients": cat.CLIENTS,
            "objects": ctx.objects,
            "shards": cat.SHARDS,
            "fsync": f"{cat.FSYNC} (times log framing, not the disk)",
        },
        "workloads": {},
    }
    last: PassResult | None = None
    try:
        for workload in workloads:
            print(
                f"== {workload}: seed {args.seed}, {seconds:g} s window, "
                f"{cat.CLIENTS} closed-loop clients, {ctx.objects} objects, "
                f"{cat.SHARDS} shards, fsync {cat.FSYNC} =="
            )
            entry = document["workloads"][workload] = {}
            if args.trace in ("0", "both"):
                last = timed_pass(ctx, workload)
                entry["end_to_end"] = _entry(last)
                bounds = {
                    m.name: f"bound {m.bound:.0%}" + ("" if m.gated else ", not driver-gated")
                    for m in cat.END_TO_END
                }
                _print_pass("end-to-end (timed pass)", last, bounds)
            if args.trace in ("1", "both"):
                last = traced_pass(ctx, workload)
                entry["per_layer"] = _entry(last)
                moves = {m.name: f"-> {m.moves}" for m in cat.PER_LAYER}
                _print_pass("per-layer (traced replay, 1 client)", last, moves)
    finally:
        ctx.close()

    failed = sum(
        part["failed"] for entry in document["workloads"].values() for part in entry.values()
    )
    result_path = args.out / f"result-seed{args.seed}.json"
    result_path.write_text(json.dumps(document, indent=1))
    if args.append_history is not None:
        with open(args.append_history, "a", encoding="utf-8") as history:
            history.write(json.dumps(document) + "\n")
    print(f"result: {result_path}; failed checks: {failed}")
    if args.workload and args.trace != "both" and last is not None:
        names = (
            [m.name for m in cat.END_TO_END if m.gated]
            if args.trace == "0"
            else [m.name for m in cat.PER_LAYER]
        )
        if all(name in last.metrics for name in names):  # not after a timeout
            print(_driver_line(last, names))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
