"""Compare two E16 results: ``python3 benchmarks/e16/compare.py A B``.

``A`` is the base (the parent commit), ``B`` the change.  Each is a
result JSON written by ``run.py``, or a JSONL history of several runs
(``run.py --append-history``); with several runs a side's value is
their median and its spread their inter-quartile range over the
median.  Per end-to-end metric and workload it prints both values, the
ratio B/A, the bound and a verdict:

* ``regressed`` / ``improved``: B is worse / better than A by more than
  both the metric's bound and the wider of the two spreads;
* ``unresolved``: neither, and a spread is wider than the bound, so the
  runs cannot tell;
* ``unchanged``: within the bound, spreads within the bound.

Exit status is non-zero on any ``regressed`` or a higher ``error_rate``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue as cat  # noqa: E402
from measure import spread  # noqa: E402


def load_runs(path: Path) -> list[dict]:
    """One result document, or one per line of a history file."""
    text = path.read_text(encoding="utf-8")
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def values(runs: list[dict], workload: str, section: str, metric: str) -> list[float]:
    found = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get(section, {})
        if metric in entry.get("metrics", {}):
            found.append(entry["metrics"][metric]["value"])
    return found


def verdict(
    base: list[float], change: list[float], *, better: str, bound: float
) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)``: worsening is the change of the
    median as a share of the base median, positive when B is worse."""
    a, b = statistics.median(base), statistics.median(change)
    wider = max(spread(base), spread(change))
    if a == 0:
        worsening = 0.0 if b == 0 else float("inf")
    else:
        worsening = (b - a) / abs(a)
    if better == "higher":
        worsening = -worsening
    threshold = max(bound, wider)
    if worsening > threshold:
        return "regressed", worsening, wider
    if worsening < -threshold:
        return "improved", worsening, wider
    if wider > bound:
        return "unresolved", worsening, wider
    return "unchanged", worsening, wider


def _row(name: str, width: int, a: list[float], b: list[float], unit: str) -> str:
    """Both medians and the ratio B/A with its base."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    ratio = f"{med_b / med_a:.3f}x of {med_a:.4g}" if med_a else "n/a"
    return (
        f"  {name:<{width}} A {med_a:>12.4f} B {med_b:>12.4f} {unit:<5} "
        f"B/A {ratio:<22}"
    )


def compare(base: list[dict], change: list[dict], *, layers: bool = False) -> int:
    regressions = 0
    workloads = [
        name for name in cat.WORKLOAD_NAMES
        if any(name in run["workloads"] for run in base)
        and any(name in run["workloads"] for run in change)
    ]
    for workload in workloads:
        print(f"== {workload} ==")
        for metric in cat.END_TO_END:
            a = values(base, workload, "end_to_end", metric.name)
            b = values(change, workload, "end_to_end", metric.name)
            if not a or not b:
                continue
            word, worsening, wider = verdict(
                a, b, better=metric.better, bound=metric.bound
            )
            regressions += word == "regressed"
            print(
                _row(metric.name, 24, a, b, metric.unit)
                + f" bound {metric.bound:>4.0%} spread {wider:>5.1%} "
                f"(n={len(a)},{len(b)})  {word}"
            )
        if not layers:
            continue
        for layer in cat.PER_LAYER:
            a = values(base, workload, "per_layer", layer.name)
            b = values(change, workload, "per_layer", layer.name)
            if not a or not b or not (any(a) or any(b)):
                continue
            print(_row(layer.name, 30, a, b, layer.unit))
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="A: result JSON or JSONL history")
    parser.add_argument("change", type=Path, help="B: result JSON or JSONL history")
    parser.add_argument(
        "--layers", action="store_true",
        help="also print every non-zero per-layer metric side by side",
    )
    args = parser.parse_args(argv)
    regressions = compare(
        load_runs(args.base), load_runs(args.change), layers=args.layers
    )
    print(f"regressed: {regressions}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
