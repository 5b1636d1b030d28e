"""Export experiment results to JSON/CSV for external plotting.

``python -m repro.experiments --json results.json`` dumps every
regenerated artifact (tables as text, metrics as numbers, raw series as
arrays) so the figures can be re-plotted with any tool without rerunning
the simulations.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from .common import ExperimentResult

__all__ = ["SCHEMA_VERSION", "result_to_dict", "result_from_dict",
           "write_json", "write_series_csv", "metrics_jsonl_lines",
           "write_metrics_jsonl"]

#: Version stamped into every exported artifact.  Bump it whenever the
#: dict layout changes and register an upgrade step in ``_UPGRADES`` —
#: the service's persistent artifact store replays old artifacts
#: through :func:`result_from_dict` long after the format moved on.
#:
#: History: v1 = unversioned seed format (no ``schema_version`` key);
#: v2 = v1 plus the version stamp itself.
SCHEMA_VERSION = 2


def _upgrade_v1(payload: dict) -> dict:
    """v1 -> v2: the layout is unchanged, only the stamp is new."""
    payload = dict(payload)
    payload["schema_version"] = 2
    return payload


#: ``version -> upgrade step`` producing ``version + 1``.  Applied in
#: sequence until the payload reaches :data:`SCHEMA_VERSION`.
_UPGRADES = {1: _upgrade_v1}


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-serializable view of one experiment result."""
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "tables": list(result.tables),
        "notes": list(result.notes),
        "metrics": dict(result.metrics),
        "series": {name: _serializable(series)
                   for name, series in result.series.items()},
        "wall_time": result.wall_time,
    }


def result_from_dict(payload: dict) -> ExperimentResult:
    """Rebuild a result written by :func:`result_to_dict`.

    The runner's ``--resume`` mode uses this to re-render previously
    completed experiments without re-running them; the round trip is
    render-exact (tables/notes are stored as final text).

    Older payloads (missing the stamp = v1) are upgraded in place
    through the registered steps; a payload from a *newer* writer than
    this reader raises ``ValueError`` rather than silently dropping
    fields it cannot interpret.
    """
    try:
        version = int(payload.get("schema_version", 1))
    except (TypeError, ValueError):
        raise ValueError(
            f"artifact schema_version is not an integer: "
            f"{payload.get('schema_version')!r}")
    if version < 1:
        raise ValueError(f"artifact schema_version {version} is invalid")
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"artifact schema_version {version} is newer than this "
            f"reader's {SCHEMA_VERSION}; upgrade the repro package to "
            f"load it")
    while version < SCHEMA_VERSION:
        payload = _UPGRADES[version](payload)
        version += 1
    result = ExperimentResult(payload["experiment_id"], payload["title"])
    result.tables = [str(t) for t in payload.get("tables", [])]
    result.notes = [str(n) for n in payload.get("notes", [])]
    result.metrics = dict(payload.get("metrics", {}))
    result.wall_time = float(payload.get("wall_time", 0.0))
    for name, series in payload.get("series", {}).items():
        if isinstance(series, dict) and {"times", "values"} <= set(series):
            result.series[name] = (list(series["times"]),
                                   list(series["values"]))
        else:
            result.series[name] = list(series)
    return result


def _serializable(series) -> object:
    if isinstance(series, tuple) and len(series) == 2:
        times, values = series
        return {"times": list(times), "values": list(values)}
    return list(series)


def write_json(results: Iterable[ExperimentResult], path: str) -> None:
    """Write all results to one JSON document."""
    payload = {"artifacts": [result_to_dict(r) for r in results]}
    Path(path).write_text(json.dumps(payload, indent=2))


def metrics_jsonl_lines(results: Iterable[ExperimentResult]
                        ) -> Iterable[str]:
    """One sorted-key JSON line per result: id, title, failed, metrics.

    Deliberately excludes ``wall_time``, so a serial and a ``--jobs``
    sweep write the same line for every exact artifact (the
    determinism suite pins this).  S1's and S2's lines differ only in
    the host-fact metric families ``runner.HOST_FACTS`` declares; the
    live artifacts' lines (L3, SV1) are not byte-stable.
    """
    for result in results:
        yield json.dumps({
            "experiment_id": result.experiment_id,
            "title": result.title,
            "failed": result.metrics.get("failed", 0.0) == 1.0,
            "metrics": dict(result.metrics),
        }, sort_keys=True)


def write_metrics_jsonl(results: Iterable[ExperimentResult],
                        path: str) -> int:
    """Write the metrics JSONL next to the run; returns the line count."""
    count = 0
    with open(path, "w") as handle:
        for line in metrics_jsonl_lines(results):
            handle.write(line + "\n")
            count += 1
    return count


def write_series_csv(result: ExperimentResult, name: str,
                     path: str) -> None:
    """Write one named series of a result as a two-column CSV."""
    if name not in result.series:
        raise KeyError(f"result {result.experiment_id} has no series "
                       f"{name!r}; available: {sorted(result.series)}")
    series = result.series[name]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if isinstance(series, tuple) and len(series) == 2:
            writer.writerow(["time", "value"])
            writer.writerows(zip(*series))
        else:
            writer.writerow(["index", "value"])
            writer.writerows(enumerate(series))
