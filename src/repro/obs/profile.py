"""Profiling hooks: per-section cumulative time inside the fluid engine.

``--profile`` runs ``cProfile`` around the sweep, which attributes the
event engine's time per callback; what it cannot see is the inside of
one function, so the fluid engine times its four per-epoch sections in
``perf_counter`` pairs and merges them into a process-global
accumulator that ``--profile`` reports to stderr next to the cProfile
table, aggregated across every engine the sweep built.

Profiling is activated explicitly (``enable_profiling()``); when off,
the fluid engine skips the timing branch entirely.
"""

from __future__ import annotations

from typing import Dict, List, TextIO

__all__ = ["enable_profiling", "disable_profiling", "profiling_active",
           "merge_profile", "profile_snapshot", "reset_profile",
           "write_profile_report"]

_ENABLED = False

#: qualname -> [call count, cumulative seconds]
_ACCUM: Dict[str, List[float]] = {}


def enable_profiling() -> None:
    global _ENABLED
    _ENABLED = True


def disable_profiling() -> None:
    global _ENABLED
    _ENABLED = False


def profiling_active() -> bool:
    return _ENABLED


def merge_profile(profile: Dict[str, List[float]]) -> None:
    """Fold one engine run's ``{key: [count, seconds]}`` into the global."""
    accum = _ACCUM
    for key, (count, seconds) in profile.items():
        entry = accum.get(key)
        if entry is None:
            accum[key] = [count, seconds]
        else:
            entry[0] += count
            entry[1] += seconds


def profile_snapshot() -> Dict[str, List[float]]:
    """Copy of the global accumulator (``{key: [count, seconds]}``)."""
    return {key: list(value) for key, value in _ACCUM.items()}


def reset_profile() -> None:
    _ACCUM.clear()


def write_profile_report(stream: TextIO, top: int = 25) -> None:
    """Human-readable table of the accumulator, hottest first."""
    rows = sorted(_ACCUM.items(), key=lambda item: item[1][1], reverse=True)
    if not rows:
        stream.write("[profile] no instrumented callbacks recorded\n")
        return
    stream.write(f"[profile] {'cumulative s':>12}  {'calls':>10}  "
                 f"{'per-call us':>12}  callback\n")
    for key, (count, seconds) in rows[:top]:
        per_call_us = seconds / count * 1e6 if count else 0.0
        stream.write(f"[profile] {seconds:12.4f}  {int(count):10d}  "
                     f"{per_call_us:12.2f}  {key}\n")
