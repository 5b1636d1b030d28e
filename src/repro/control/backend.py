"""The meta-controller's adjustment log.

The meta-controller records every parameter adjustment it applies — a
``(t, loop, params)`` triple — through a :class:`MemoryBackend`: append
adjustments, read them back, keep the latest applied parameter set per
loop.  It backs tests, experiments and the A4 ablation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["MemoryBackend", "HISTORY_LIMIT"]

#: One applied adjustment: (time, loop name, {param: value}).
Adjustment = Tuple[float, str, Dict[str, float]]

#: Adjustments :class:`MemoryBackend` remembers.  A tuned live run
#: applies several per second for as long as it lives; the log is an
#: audit trail of the recent past, not state anything steers by.
HISTORY_LIMIT = 4096


class MemoryBackend:
    """What the meta-controller persists its decisions through: the
    last ``HISTORY_LIMIT`` adjustments, and — exactly, however old —
    the latest per loop."""

    def __init__(self) -> None:
        self._log: Deque[Adjustment] = deque(maxlen=HISTORY_LIMIT)
        self._latest: Dict[str, Dict[str, float]] = {}

    def record(self, t: float, loop: str,
               params: Dict[str, float]) -> None:
        """Append one applied adjustment."""
        self._log.append((t, loop, dict(params)))
        self._latest[loop] = dict(params)

    def history(self, loop: Optional[str] = None) -> List[Adjustment]:
        """All recorded adjustments, optionally filtered by loop name."""
        if loop is None:
            return list(self._log)
        return [entry for entry in self._log if entry[1] == loop]

    def latest(self, loop: str) -> Optional[Dict[str, float]]:
        """The most recent parameter set applied by ``loop``, if any."""
        params = self._latest.get(loop)
        return dict(params) if params is not None else None

    def clear(self) -> None:
        """Drop all recorded state."""
        self._log.clear()
        self._latest.clear()

    def __len__(self) -> int:
        return len(self._log)
