"""Shared machinery of the perf ledger: host-speed calibration,
statistics, result rows and the host fingerprint.

Everything here is independent of the program under test; the workload
modules import it, the self-tests under ``perfledger/tests`` pin it.

Host-speed normalisation
------------------------
The sandbox this ledger runs in flips between two speeds about 28 %
apart (a shared physical host), in episodes from a tenth of a second
to a minute, and the share of time it spends in each drifts over tens
of minutes.  Raw ten-second medians are therefore bimodal and drift.
CPU-bound timings are reported in *reference-host seconds*: the
measured seconds times ``REF_CAL_S / cal``, where ``cal`` is the CPU
time of two fixed pure-Python kernels (:func:`cal_loop`) taken beside
the work
it scales — between slices or reps for the workloads that keep a core
busy (:func:`measure`), the mean over the whole run for those that
are busy only part of the time (:class:`HostSpeed`).  Quantities
dominated by timers rather than CPU (one-way delays, poll waits) are
never scaled.  Workloads put the raw medians behind their scaled
values in the result file's header.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = ["LEDGER_DIR", "REPO_ROOT", "OUT_DIR", "SCHEMA", "REF_CAL_S",
           "cal_loop", "calibrate", "Timing", "measure",
           "repeat_for",
           "HostSpeed", "quartiles", "percentile", "tail_percentile", "Row",
           "split_name", "summarise", "host_fingerprint", "write_result",
           "read_result", "Lateness", "proc_cpu_seconds", "proc_children",
           "proc_peak_rss_mb", "self_peak_rss_mb"]

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent
OUT_DIR = LEDGER_DIR / "out"

#: Result-file schema tag; bump when the row layout changes.
SCHEMA = "perfledger/1"

#: The calibration is the geometric mean of two pure-Python kernels:
#: an integer loop (follows the host's clock) and a pseudo-random walk
#: over ``WALK_POOL`` small objects, ~6 MB (follows its caches).  Over
#: eight minutes of a drifting host, 20 s block medians of a simulator
#: rep scaled by the integer loop alone still moved by 0.75-1.19x, by
#: the walk alone 0.77-1.00x, by their geometric mean 0.96-1.05x (two
#: outlier blocks aside), against 0.71-1.21x raw.
ARITH_ITERS = 50_000
WALK_ITERS = 20_000
WALK_POOL = 50_000
#: The calibration on the reference host (2 x Xeon 2.1 GHz, CPython
#: 3.11) in its fast mode: sqrt(1.8 ms x 1.5 ms).  A constant of the
#: ledger: it only fixes the scale of reference-host seconds, never a
#: comparison.
REF_CAL_S = 0.00164


@functools.lru_cache(maxsize=None)
def walk_pool() -> list:
    return [[i, float(i)] for i in range(WALK_POOL)]


def arith_loop(iterations: int) -> float:
    """Thread-CPU seconds of a fixed integer loop.  (CPU time, not wall
    time: a calibration that is preempted while other processes of the
    workload keep both cores busy must not read as a slow host.)"""
    clock = time.thread_time
    started = clock()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return clock() - started


def walk_loop(iterations: int) -> float:
    """Thread-CPU seconds of a read-modify-write walk over the pool in
    a fixed pseudo-random order."""
    pool, size = walk_pool(), WALK_POOL
    clock = time.thread_time
    started = clock()
    acc, index = 0, 1
    for _ in range(iterations):
        index = (index * 7919 + 13) % size
        item = pool[index]
        acc += item[0]
        item[1] = acc
    return clock() - started


def cal_loop() -> float:
    """One plain, unbiased calibration sample (~4 ms)."""
    return math.sqrt(arith_loop(ARITH_ITERS) * walk_loop(WALK_ITERS))


def calibrate() -> float:
    """Low-noise calibration for pairing with the slice of work next to
    it (:func:`measure`): best of three half-length runs of each
    kernel, expressed per full length.  Biased towards the host's fast
    mode, which cancels between commits measured the same way."""
    arith = min(arith_loop(ARITH_ITERS // 2) for _ in range(3))
    walk = min(walk_loop(WALK_ITERS // 2) for _ in range(3))
    return 2.0 * math.sqrt(arith * walk)


@dataclass
class Timing:
    """One timed operation: raw and reference-host seconds."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    wall_ref_s: float = 0.0
    cpu_ref_s: float = 0.0


def measure(slices: Iterable[Callable[[], object]]) -> Timing:
    """Time ``slices`` back to back, each bracketed by a calibration.

    A slice's wall and process-CPU seconds are scaled by the mean of
    the calibration before and after it, so a host-speed change inside
    a long operation is tracked at slice granularity.  Pass a single
    callable in a list for operations that cannot be cut.
    """
    perf = time.perf_counter
    cpu = time.process_time
    timing = Timing()
    before = calibrate()
    for piece in slices:
        wall0, cpu0 = perf(), cpu()
        piece()
        wall, used = perf() - wall0, cpu() - cpu0
        after = calibrate()
        scale = REF_CAL_S / ((before + after) / 2)
        timing.wall_s += wall
        timing.cpu_s += used
        timing.wall_ref_s += wall * scale
        timing.cpu_ref_s += used * scale
        before = after
    return timing


def repeat_for(seconds: float, rep: Callable[[], object],
               minimum: int = 3) -> list:
    """Results of ``rep()`` called until ``seconds`` have passed, at
    least ``minimum`` times."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < minimum or time.perf_counter() < deadline:
        results.append(rep())
    return results


class HostSpeed:
    """Host-speed scale of one run, from many calibration samples.

    For workloads that are busy only part of the time (a paced
    generator, a polling client, other processes) a calibration taken
    beside one operation is too noisy to pair with it, but the share of
    time the host spends in its slow mode drifts slowly against a 10 s
    run: the mean of plain, unbiased calibration samples spread through
    the run scales the run's raw medians.  (The mean, not the median:
    the samples are bimodal, and the median of a bimodal sample jumps
    between the modes.)

    Sample from the workload's own thread, between its operations.  A
    background thread was tried: a 4 ms pure-Python loop holds the
    interpreter lock against the open-loop sender (it ran up to 50 ms
    late and its catch-up bursts overflowed socket buffers) and against
    ``run_load``'s event loop (pacer bursts, green drops).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: ``time.time()`` at the end of each sample, for callers that
        #: scale an interval by the calibrations taken inside it.
        self.stamps: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(cal_loop())
            self.stamps.append(time.time())

    def scale_between(self, start: float, end: float,
                      minimum: int = 3) -> float:
        """Scale from the samples stamped in ``[start, end]`` (epoch
        seconds); the run's scale when there are fewer than
        ``minimum``."""
        inside = [value for value, stamp in zip(self.samples, self.stamps)
                  if start <= stamp <= end]
        if len(inside) < minimum:
            return self.scale
        return REF_CAL_S / statistics.fmean(inside)

    @property
    def cal_s(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def scale(self) -> float:
        """Reference-host seconds per measured second."""
        return REF_CAL_S / self.cal_s


# -- statistics ---------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single sample is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0])
    q = statistics.quantiles(values, n=4)
    return (q[0], q[2])


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in (0, 1])."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


#: Candidate tail percentiles, lowest first.
_TAILS = (0.75, 0.90, 0.95, 0.99, 0.999)


def tail_percentile(samples: Sequence[float]) -> Tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(label, value)``, e.g. ``("p99", 12.3)``; falls back to
    the median when even p75 has fewer than ten samples above it.
    """
    n = len(samples)
    best = 0.5
    for q in _TAILS:
        if n - math.ceil(q * n) >= 10:
            best = q
    label = f"p{best * 100:g}".replace(".", "_")
    return label, percentile(samples, best)


# -- result rows --------------------------------------------------------------


@dataclass
class Row:
    """One metric of one run, as written to the result file."""

    layer: str
    metric: str
    unit: str
    value: float
    q1: float
    q3: float
    n: int
    seed: int

    @property
    def name(self) -> str:
        return self.metric if self.layer == "e2e" \
            else f"{self.layer}.{self.metric}"


def split_name(name: str) -> Tuple[str, str]:
    """``"sim.engine.events"`` -> ``("sim.engine", "events")``;
    a name without a dot is an end-to-end metric."""
    layer, _, metric = name.rpartition(".")
    return (layer, metric) if layer else ("e2e", name)


def summarise(name: str, unit: str, samples: Sequence[float],
              seed: int) -> Row:
    """Median + quartiles + n of ``samples`` as one row."""
    layer, metric = split_name(name)
    q1, q3 = quartiles(samples)
    return Row(layer, metric, unit, statistics.median(samples), q1, q3,
               len(samples), seed)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess); the
    driver's checkouts are not repositories, hence the fallback."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref:"):
            ref = git / head.split(None, 1)[1]
            return ref.read_text().strip()
        return head
    except OSError:
        return "unknown"


def host_fingerprint() -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "ref_cal_s": REF_CAL_S,
        "cal_s_now": calibrate(),
    }


def write_result(path: Path, header: Dict[str, object],
                 rows: Sequence[Row]) -> None:
    """Header (schema, host, run parameters) + one dict per row."""
    document = {"schema": SCHEMA, **header,
                "rows": [asdict(row) for row in rows]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def read_result(path: Path) -> List[Tuple[Dict[str, object], List[Row]]]:
    """``(header, rows)`` of every run in a result file: one for a
    single run's file, several for the combined ``ledger.json``."""
    document = json.loads(Path(path).read_text())
    if document.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} result file")
    runs = []
    for run in document.get("runs", [document]):
        rows = [Row(**row) for row in run["rows"]]
        runs.append(({key: value for key, value in run.items()
                      if key != "rows"}, rows))
    return runs


# -- open-loop generators -----------------------------------------------------


class Lateness:
    """How late an open-loop generator ran behind its own schedule.

    ``note(due, now)`` is called once per scheduled send with the time
    the send was due and the time it actually happened; latency is
    always measured from ``due``, so the wait a stalled generator
    imposes on later requests is counted, and ``max_s`` reports how
    large that stall was.
    """

    __slots__ = ("max_s", "count")

    def __init__(self) -> None:
        self.max_s = 0.0
        self.count = 0

    def note(self, due: float, now: float) -> float:
        late = max(0.0, now - due)
        if late > self.max_s:
            self.max_s = late
        self.count += 1
        return late


def proc_cpu_seconds(pid: int, with_children: bool = True) -> float:
    """CPU seconds of ``pid`` from ``/proc`` (user + system, plus the
    waited-for children it has reaped); 0.0 once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    ticks = int(fields[11]) + int(fields[12])
    if with_children:
        ticks += int(fields[13]) + int(fields[14])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_children(pid: int) -> List[int]:
    """Live direct children of ``pid`` (Linux ``/proc`` task lists)."""
    out: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                out.extend(int(p) for p in handle.read().split())
    except OSError:
        pass
    return out


def proc_peak_rss_mb(pid: int) -> float:
    """High-water resident set of ``pid`` in MB (``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
