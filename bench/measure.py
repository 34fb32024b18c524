"""Small measuring helpers: percentiles, machine speed, memory, bytes on disk."""

from __future__ import annotations

import os
import resource
import statistics
from array import array
from multiprocessing import get_context
from time import perf_counter
from typing import List, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer and the number is one or two outliers, not a tail.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``samples``.

    Raises ``ValueError`` when fewer than ``MIN_SAMPLES_BEYOND`` samples
    lie beyond the percentile, so a run too short to support the figure
    fails instead of printing noise.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    beyond = len(samples) * min(q, 100 - q) / 100
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has {beyond:.1f} samples beyond "
            f"it; {MIN_SAMPLES_BEYOND} are needed"
        )
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of the calling process, in MB (Linux: KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a running process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def bytes_under(directory: str) -> int:
    """Total size of the regular files directly inside ``directory``."""
    with os.scandir(directory) as entries:
        return sum(entry.stat().st_size for entry in entries if entry.is_file())


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------
#: Seconds one ``calibration_kernel`` takes on the seed machine when it is
#: quiet (2.1 GHz Xeon guest, CPython 3.11, process pinned to one CPU).
KERNEL_REFERENCE_S = 0.00042
#: Pause between two samples of the gauge process.
GAUGE_INTERVAL_S = 0.025
#: Fewest samples ``MachineGauge.speed`` averages over.
MIN_GAUGE_SAMPLES = 30
#: Share of the slowest samples ``MachineGauge.speed`` leaves out: those in
#: which the gauge lost the CPU to the engine half-way through the kernel.
GAUGE_TRIM = 0.10


def calibration_kernel() -> int:
    """About half a millisecond of interpreter work shaped like the program's
    hot loops (dict updates, integer arithmetic, array slices, float scoring,
    a keyed sort, small allocations), and nothing else: no I/O, no thread."""
    counts = {}
    for i in range(1500):
        key = (i * 2654435761) & 16383
        counts[key] = counts.get(key, 0) + (i >> 3)
    column = array("I", counts)
    evens, odds = column[::2], column[1::2]
    scored = [(key, count * 1.2 / (count + 0.75)) for key, count in counts.items()]
    scored.sort(key=_second)
    return len(evens) + len(odds) + len(scored)


def _second(pair: Tuple[int, float]) -> float:
    return pair[1]


def _gauge_main(stop, connection) -> None:
    """The gauge process: time the kernel every ``GAUGE_INTERVAL_S`` until told
    to stop, then send ``[(when, kernel seconds), ...]`` back."""
    samples = []
    while not stop.wait(GAUGE_INTERVAL_S):
        calibration_kernel()  # untimed: refills the caches the engine emptied
        started = perf_counter()
        calibration_kernel()
        samples.append((started, perf_counter() - started))
    connection.send(samples)
    connection.close()


class MachineGauge:
    """How fast the machine ran interpreter code, at any moment of a run.

    The seed machine is a shared 2-vCPU guest whose speed wanders by up to
    50 % for tens of seconds at a time; a time measured on it says as much
    about the neighbours as about the program.  While a run lasts, a small
    process of its own, pinned to the CPU the engine runs on, times
    ``calibration_kernel`` forty times a second (about 4 % of that CPU).
    ``speed(start, end)`` is then the mean kernel time over an interval
    against the reference machine's, and the runner divides every time it
    measured by the speed over that time's interval.  A slower program is
    slower against the same kernel and shows in full; a slower machine
    slows both and cancels.  The gauge lives in its own process so that
    nothing the program does to its own heap can move it.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so the
    gauge's timestamps and the measuring processes' intervals compare.
    """

    def __init__(self) -> None:
        context = get_context("spawn")
        self._stop = context.Event()
        self._receiver, sender = context.Pipe(duplex=False)
        self._process = context.Process(target=_gauge_main, args=(self._stop, sender))
        self.samples: List[Tuple[float, float]] = []

    def __enter__(self) -> "MachineGauge":
        self._process.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._receiver.poll(10):
            self.samples = self._receiver.recv()
        self._process.join(10)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()

    def speed(self, start: float, end: float) -> float:
        """Mean kernel time over ``[start, end]`` / on the reference machine
        (1.25 = the machine was 25 % slower); call after the ``with`` block.

        A mean, because a time the runner divides by it is a sum over the
        same interval and slows with the share of the interval the machine
        was slow in; a median would flip between the machine's two moods.
        """
        inside = [seconds for when, seconds in self.samples if start <= when <= end]
        if len(inside) < MIN_GAUGE_SAMPLES:
            # A short interval: take the samples nearest to its middle.
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            inside = [seconds for _, seconds in nearest[:MIN_GAUGE_SAMPLES]]
        inside.sort()
        kept = inside[: len(inside) - int(len(inside) * GAUGE_TRIM)]
        return statistics.fmean(kept) / KERNEL_REFERENCE_S


def pin_to_last_cpu() -> None:
    """Pin this process, and with it every process it starts from now on, to
    the last CPU it may run on (nothing happens where affinity is not a thing).

    The whole benchmark runs there: the parent while it builds, the gauge,
    each child and, on ``svc-mixed``, both the load generator and the
    ``serve`` subprocess.  One CPU, because the gauge can only vouch for the
    CPU it runs on — with the load generator on the other one, client-observed
    latencies of the same seed spread by 20 % in a noisy hour while the
    server-bound figures next to the gauge spread by 5 % — and because two
    Python threads on two CPUs hand the interpreter lock back and forth
    across cores, which makes the 2-shard thread executor up to twice as slow
    as on one CPU and far less repeatable.
    """
    if hasattr(os, "sched_getaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
