"""Compare two exported sweeps artifact by artifact.

Usage::

    python -m repro.experiments --fast --json a.json
    python -m repro.experiments --fast --jobs 2 --json b.json
    python -m repro.experiments.compare a.json b.json

Exits 1 and prints one line per mismatch, naming the key; exits 0 when
every artifact is the same under ``runner.HOST_FACTS``: exact keys
byte-equal but for ``wall_time``, S1/S2 exact but for their declared
host-fact metric families, live keys present on both sides.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

from ..service.worker import canonical_artifact_bytes
from .runner import HOST_FACTS

__all__ = ["diverging", "main"]


def diverging(a: List[dict], b: List[dict]) -> List[str]:
    """One line per mismatch between two lists of exported artifacts
    (:func:`~repro.experiments.export.result_to_dict` dicts), paired by
    ``experiment_id``: a key on one side only, the keys in a different
    order, or a non-live artifact whose canonical bytes differ."""
    ids_a, ids_b = ([p["experiment_id"] for p in side] for side in (a, b))
    lines = [f"{key}: only in {side}"
             for side, mine, theirs in (("A", ids_a, ids_b),
                                        ("B", ids_b, ids_a))
             for key in mine if key not in theirs]
    if not lines and ids_a != ids_b:
        lines.append(f"order: {' '.join(ids_a)} vs {' '.join(ids_b)}")
    by_id = dict(zip(ids_b, b))
    for key, mine in zip(ids_a, a):
        families = HOST_FACTS.get(key, ())
        if key in by_id and families is not None and (
                canonical_artifact_bytes(mine, families)
                != canonical_artifact_bytes(by_id[key], families)):
            lines.append(f"{key}: differs")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print("usage: python -m repro.experiments.compare A.json B.json",
              file=sys.stderr)
        return 2
    lines = diverging(*(json.loads(Path(path).read_text())["artifacts"]
                        for path in paths))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
