"""Compare two ledger result files under the bounds of BENCHMARK.json.

Usage::

    python3 perfledger/compare.py PARENT.json CHANGE.json

Each file is what ``run.py`` writes: one run, or the combined
``ledger.json`` (several runs; a workload may appear more than once,
e.g. once per seed).  For every pairing of end-to-end metric and
workload present on both sides the median of the parent's runs is
compared with the median of the change's runs, in the metric's own
direction, against the metric's own bound:

``ok``          not worse than the parent by more than the bound
``improved``    better than the parent by more than the bound
``REGRESSED``   worse than the parent by more than the bound
``unresolved``  the quartile spread of either side exceeds the bound,
                so the difference cannot be told from noise — unless
                every run of the change reads better than every run of
                the parent.  Unresolved is not unchanged.

The spread is taken across runs when a side has at least four runs of
the workload, otherwise from the quartiles each row carries (the reps
inside its run).  Per-layer rows have no bound: they are listed with
their relative change when ``--layers`` is given.  Exit codes: 0 — no
regression; 1 — at least one regression; 2 — usage or input error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfledger.harness import read_result  # noqa: E402

__all__ = ["load_runs", "verdict", "compare", "main"]

#: (workload, metric name) -> list of (value, q1, q3) over runs.
Samples = Dict[Tuple[str, str], List[Tuple[float, float, float]]]


def load_runs(path: str, trace: int) -> Samples:
    samples: Samples = {}
    for header, rows in read_result(Path(path)):
        if header.get("trace") != trace:
            continue
        for row in rows:
            samples.setdefault((header["workload"], row.name), []).append(
                (row.value, row.q1, row.q3))
    return samples


def spread(runs: List[Tuple[float, float, float]]) -> float:
    """Quartile distance as a share of the median."""
    values = [value for value, _q1, _q3 in runs]
    centre = statistics.median(values)
    if not centre:
        return 0.0
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return abs((q[2] - q[0]) / centre)
    return max(abs((q3 - q1) / centre) for _value, q1, q3 in runs)


def verdict(parent: List[Tuple[float, float, float]],
            change: List[Tuple[float, float, float]],
            better: str, bound: float) -> Tuple[str, float]:
    """(verdict, signed worsening as a share of the parent's median)."""
    old = statistics.median(v for v, _, _ in parent)
    new = statistics.median(v for v, _, _ in change)
    if not old:
        return "ok", 0.0
    worse = (new - old) / abs(old)
    if better == "higher":
        worse = -worse
    if max(spread(parent), spread(change)) > bound:
        olds = [v for v, _, _ in parent]
        news = [v for v, _, _ in change]
        all_better = max(news) < min(olds) if better == "lower" \
            else min(news) > max(olds)
        if not all_better:
            return "unresolved", worse
    if worse > bound:
        return "REGRESSED", worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse


def compare(parent: Samples, change: Samples, contract: dict,
            out=None) -> int:
    """Print one line per (workload, metric); return the regressions."""
    out = out if out is not None else sys.stdout
    regressions = 0
    for metric in contract["end_to_end"]:
        for entry in contract["workloads"]:
            key = (entry["name"], metric["name"])
            if key not in parent or key not in change:
                continue
            word, worse = verdict(parent[key], change[key],
                                  metric["better"], metric["bound"])
            regressions += word == "REGRESSED"
            old = statistics.median(v for v, _, _ in parent[key])
            new = statistics.median(v for v, _, _ in change[key])
            print(f"  {entry['name']:<20} {metric['name']:<16} "
                  f"{old:>12.6g} -> {new:<12.6g} {metric['unit']:<5} "
                  f"worse by {worse:+7.1%} (bound {metric['bound']:.0%})  "
                  f"{word}", file=out)
    return regressions


def layer_changes(parent: Samples, change: Samples, out=None) -> None:
    out = out if out is not None else sys.stdout
    for key in sorted(set(parent) & set(change)):
        old = statistics.median(v for v, _, _ in parent[key])
        new = statistics.median(v for v, _, _ in change[key])
        if old == new == 0.0:
            continue
        ratio = f"{(new - old) / abs(old):+8.1%}" if old else "     new"
        print(f"  {key[0]:<20} {key[1]:<44} {old:>12.6g} -> {new:<12.6g} "
              f"{ratio}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--layers", action="store_true",
                        help="also list the per-layer rows (no bound)")
    args = parser.parse_args(argv)
    try:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
        parent = load_runs(args.parent, trace=0)
        change = load_runs(args.change, trace=0)
        if args.layers:
            parent_layers = load_runs(args.parent, trace=1)
            change_layers = load_runs(args.change, trace=1)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    regressions = compare(parent, change, contract)
    if args.layers:
        layer_changes(parent_layers, change_layers)
    print("no regressions" if not regressions
          else f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
