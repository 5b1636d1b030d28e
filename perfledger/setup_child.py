"""Set-up probe: a fresh interpreter that only sets a workload up.

``run.py`` starts this several times per run and times spawn ->
``READY``: interpreter start, imports, scenario build, shard / service
start — everything before the first timed operation.  The tear-down
that follows is not timed.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv) -> int:
    workload, seed = argv[1], int(argv[2])
    from perfledger.workloads import load
    module = load(workload)
    ctx = module.setup(workload, seed)
    try:
        print("READY", flush=True)
    finally:
        module.teardown(ctx)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
