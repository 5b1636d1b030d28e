"""Diff two pytest-benchmark JSON files and fail on median regressions.

Usage::

    python benchmarks/compare_bench.py BASELINE.json CURRENT.json \
        [--threshold 0.15]

Benchmarks are matched by ``fullname``; for each pair the relative
change of ``stats.median`` is printed, and any benchmark slower than
``baseline * (1 + threshold)`` is a regression.  Exit codes:

* 0 — no benchmark regressed beyond the threshold,
* 1 — at least one regression,
* 2 — usage or input errors (missing file, not benchmark JSON).

Benchmarks present on one side only are reported but never fail the
run: baselines age as suites grow, and a rename must not masquerade as
a perf win.  This turns the committed ``benchmarks/baselines/*.json``
into an enforced guardrail instead of archaeology.  (The repo-root
``BENCH_<pr>.json`` files are perf-ledger rows, not pytest-benchmark
JSON; ``perfledger/compare.py`` reads those.)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

__all__ = ["compare", "main"]


def _die(message: str) -> "SystemExit":
    """Usage/IO failure: message to stderr, exit code 2."""
    print(f"compare_bench: {message}", file=sys.stderr)
    return SystemExit(2)


def _load_medians(path: str) -> Dict[str, float]:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise _die(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _die(f"{path} is not JSON: {exc}")
    benches = payload.get("benchmarks") if isinstance(payload, dict) else None
    if not isinstance(benches, list):
        raise _die(f"{path} has no 'benchmarks' list (is it "
                   "pytest-benchmark --benchmark-json output?)")
    medians: Dict[str, float] = {}
    for bench in benches:
        name = bench.get("fullname") or bench.get("name")
        stats = bench.get("stats") or {}
        median = stats.get("median")
        if name and isinstance(median, (int, float)):
            medians[name] = float(median)
    return medians


def compare(baseline: Dict[str, float], current: Dict[str, float],
            threshold: float, out=None) -> int:
    """Print the diff table; return the number of regressions."""
    out = out if out is not None else sys.stdout
    regressions = 0
    shared = sorted(set(baseline) & set(current))
    width = max((len(n) for n in shared), default=10)
    for name in shared:
        old, new = baseline[name], current[name]
        delta = (new - old) / old if old > 0 else 0.0
        slower = delta > threshold
        regressions += slower
        marker = "REGRESSED" if slower else "ok"
        print(f"  {name:<{width}}  {old * 1e3:10.2f}ms -> {new * 1e3:10.2f}ms"
              f"  {delta:+7.1%}  {marker}", file=out)
    for name in sorted(set(baseline) - set(current)):
        print(f"  {name}: missing from current run (ignored)", file=out)
    for name in sorted(set(current) - set(baseline)):
        print(f"  {name}: new benchmark, no baseline (ignored)", file=out)
    if not shared:
        print("  no shared benchmarks to compare", file=out)
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmark medians regress vs a baseline")
    parser.add_argument("baseline", help="pytest-benchmark JSON baseline")
    parser.add_argument("current", help="pytest-benchmark JSON to check")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed relative slowdown (default 0.15)")
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("--threshold must be non-negative")

    baseline = _load_medians(args.baseline)
    current = _load_medians(args.current)
    print(f"compare_bench: {args.baseline} vs {args.current} "
          f"(threshold {args.threshold:.0%})")
    regressions = compare(baseline, current, args.threshold)
    if regressions:
        print(f"compare_bench: {regressions} benchmark(s) regressed "
              f"beyond {args.threshold:.0%}")
        return 1
    print("compare_bench: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
