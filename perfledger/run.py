"""Perf ledger: the repo's benchmark, one command.

``python3 perfledger/run.py``
    Runs the six workloads one at a time, each in a fresh interpreter:
    an untraced run for the end-to-end metrics, then a traced run for
    the per-layer metrics.  Prints every metric by name with unit,
    median, quartiles and sample count, prints each workload's
    ``ops_attempted`` / ``ops_failed``, writes all rows to ``--out``
    and exits non-zero if any correctness gate failed.

``python3 perfledger/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload (what the driver calls).  The last line of
    standard output is one JSON object: ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — every end-to-end metric of
    ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
    ``--trace 1``.  A per-layer row of a layer the workload does not
    touch reads 0.

See ``perfledger/README.md`` for the workloads, the metrics and which
layer row should move which end-to-end row.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: Fresh-interpreter set-ups timed per untraced run (median reported).
SETUP_REPEATS = 5
SETUP_CHILD = Path(__file__).resolve().parent / "setup_child.py"
DEFAULT_SEED = 1


def measure_setup(workload: str, seed: int, repeats: int):
    """Reference-host seconds from spawn to READY, ``repeats`` times."""
    from perfledger.harness import HostSpeed
    speed = HostSpeed()
    raw = []
    for _ in range(repeats):
        speed.sample(2)
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(SETUP_CHILD), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        line = child.stdout.readline()
        raw.append(time.perf_counter() - started)
        child.stdout.read()
        child.stdout.close()
        code = child.wait()
        if line.strip() != "READY" or code != 0:
            raise RuntimeError(f"set-up child for {workload} failed "
                               f"(exit {code}, said {line!r})")
    speed.sample(2)
    return [seconds * speed.scale for seconds in raw]


def format_row(row) -> str:
    return (f"  {row.name:<44} {row.unit:<6} {row.value:>16.6g}  "
            f"q1 {row.q1:<12.6g} q3 {row.q3:<12.6g} n {row.n}")


def single_run(args, contract) -> int:
    from perfledger import harness
    from perfledger.workloads import load

    workload, seed, traced = args.workload, args.seed, bool(args.trace)
    e2e = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in contract["per_layer"]}
    module = load(workload)
    print(f"== {workload}  seed {seed}  {args.seconds:g} s  "
          f"{'traced' if traced else 'untraced'} ==", flush=True)

    ctx = module.setup(workload, seed)
    try:
        outcome = module.run(ctx, args.seconds, seed, traced)
    finally:
        module.teardown(ctx)
    # After the run: the calibration's working set must not be in this
    # process when a workload forks its shard from it.
    setup_samples = [] if traced \
        else measure_setup(workload, seed, SETUP_REPEATS)

    rows = []
    if traced:
        from perfledger.probes import run_all_probes
        values = dict(outcome.layers)
        values.update(run_all_probes())
        if outcome.derive is not None:
            values.update(outcome.derive(values))
        unknown = sorted(set(values) - set(layers))
        if unknown:
            raise RuntimeError(f"rows missing from BENCHMARK.json: {unknown}")
        # A layer this workload does not touch reads 0 (and is not
        # printed): the driver wants every per-layer name in every run.
        for name, unit in layers.items():
            rows.append(harness.summarise(
                name, unit, [float(values.get(name, 0.0))], seed))
        shown = set(values)
        if outcome.recorder is not None:
            path = harness.OUT_DIR / f"trace-{workload}.jsonl"
            count = outcome.recorder.write_jsonl(path)
            print(f"  {count} span lines -> {path.relative_to(ROOT)}")
    else:
        samples = dict(outcome.samples, setup_s=setup_samples)
        if set(samples) != set(e2e):
            raise RuntimeError(
                f"end-to-end metrics {sorted(samples)} != {sorted(e2e)}")
        for name, unit in e2e.items():
            rows.append(harness.summarise(name, unit, samples[name], seed))
        shown = set(e2e)

    for row in rows:
        if row.name in shown:
            print(format_row(row))
    for note in outcome.notes:
        print(f"  # {note}")
    print(f"  ops_attempted {outcome.attempted}  ops_failed {outcome.failed}")

    header = {"host": harness.host_fingerprint(), "workload": workload,
              "seed": seed, "seconds": args.seconds, "trace": int(traced),
              "ops_attempted": outcome.attempted,
              "ops_failed": outcome.failed, "raw": outcome.raw}
    out = Path(args.out) if args.out else harness.OUT_DIR / (
        f"result-{workload}-trace{int(traced)}.json")
    harness.write_result(out, header, rows)

    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {row.name: {"value": row.value, "unit": row.unit}
                    for row in rows}}), flush=True)
    return 0 if outcome.failed == 0 else 1


def all_runs(args, contract) -> int:
    """Every workload, untraced then traced, one fresh interpreter each;
    nothing else is started while a workload runs."""
    from perfledger import harness
    documents = []
    worst = 0
    for entry in contract["workloads"]:
        for trace in (0, 1):
            part = harness.OUT_DIR / (
                f"result-{entry['name']}-trace{trace}.json")
            code = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", entry["name"], "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--out", str(part)], cwd=str(ROOT)).returncode
            worst = max(worst, code)
            if part.exists():
                documents.append(json.loads(part.read_text()))
    out = Path(args.out) if args.out else harness.OUT_DIR / "ledger.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"schema": harness.SCHEMA, "host": harness.host_fingerprint(),
         "runs": documents}, indent=1, sort_keys=True) + "\n")
    failed = sum(doc["ops_failed"] for doc in documents)
    print(f"== ledger: {len(documents)} runs -> {out}  "
          f"ops_failed {failed}  exit {worst} ==")
    return worst


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("perfledger: src/repro not found next to perfledger/; "
              "nothing to measure", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="",
                        help="result file (default: perfledger/out/...)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return all_runs(args, contract)
    return single_run(args, contract)


if __name__ == "__main__":
    sys.exit(main())
