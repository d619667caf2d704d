"""The host's speed during a pass, read from a fixed reference chunk.

The benchmark runs on a shared host whose speed changes in phases: the same
pure-Python work can take 1.7 times as long for seconds to minutes at a
time, with little steal time reported.  A pass's wall time alone therefore
measures the neighbours as much as the engine.

While a pass runs, a SIGALRM timer interrupts it every ``INTERVAL_S`` and
times one ``chunk()``: a fixed piece of ``Fraction`` and dict work that
uses nothing of the engine, so no change to the engine can speed it up or
slow it down.  Each chunk time says how fast the host ran over the slice
of the pass before it, and the slices are of equal length, so the mean of
``NOMINAL_S / chunk time`` over the pass is the host's mean speed relative
to nominal.  The harness subtracts the chunks' own time from the pass and
rescales what is left:

    wall at nominal speed = engine wall * mean(NOMINAL_S / chunk time)

The mean of the speeds, not of the chunk times, is the right one: the host
switches between fast and slow phases within a pass, and the engine's work
in a slice is its length times the speed in it.

Each chunk gives two readings.  Its thread CPU time rescales ``cpu_s``.
Its wall time less the time it waited in this machine's run queue rescales
``wall_s``: that reading includes the time the host took the virtual CPU
away (steal), which stretches the engine's wall time too, but a chunk that
queues behind the engine's own worker processes does not read as a slow
host.  A slow host inflates CPU time and wall time alike.

Python runs the handler between bytecodes of the main thread, so the engine
is never interrupted inside a C call and its results cannot change.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05

# The chunk time, in seconds, that the rescaled times refer to: a typical
# one on the 2-core Xeon VM the README's figures come from.
NOMINAL_S = 0.00115

WARMUP_CHUNKS = 50

_SCHEDSTAT = "/proc/thread-self/schedstat"


def run_queue_wait_s() -> float:
    """Seconds this thread has waited for a CPU while runnable, or 0 where
    the kernel does not report it."""
    try:
        with open(_SCHEDSTAT, "rb") as fh:
            return int(fh.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


def chunk():
    """The fixed reference work: about a millisecond of Fraction and dict
    operations, the mix the engine's own hot loops are made of."""
    acc = Fraction(0)
    table = {}
    for i in range(120):
        f = Fraction(i + 1, i % 9 + 2)
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0) + f
        acc += f * f
    return acc, sorted(table.items())


class Reference:
    """Times reference chunks, on demand and on a timer while active."""

    def __init__(self, warmup: int = WARMUP_CHUNKS) -> None:
        self.wall_s = 0.0  # to take out of the pass's wall time
        self.cpu_s = 0.0   # to take out of the pass's CPU time
        self.host_speed = 0.0  # sum of NOMINAL_S / (wall less run-queue wait)
        self.cpu_speed = 0.0   # sum of NOMINAL_S / CPU time
        self.count = 0
        self._previous = None
        for _ in range(warmup):
            chunk()

    def sample(self, *_signal_args) -> None:
        q0 = run_queue_wait_s()
        w0, c0 = time.perf_counter(), time.thread_time()
        chunk()
        c1, w1 = time.thread_time(), time.perf_counter()
        cpu, wall = c1 - c0, w1 - w0
        host = max(wall - (run_queue_wait_s() - q0), cpu)
        self.cpu_s += cpu
        self.wall_s += wall
        self.host_speed += NOMINAL_S / host
        self.cpu_speed += NOMINAL_S / cpu
        self.count += 1

    def __enter__(self) -> "Reference":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(speed_sum: float, count: int) -> float:
    """The factor that rescales a time to the nominal host speed, from the
    sum of ``count`` speed readings: below 1 when the host ran slow."""
    return speed_sum / count
