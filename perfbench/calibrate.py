"""The reference loop that rescales a process's CPU time to a fixed speed.

The machine this benchmark was written on (two vCPUs of a shared host)
ran the same work up to twice as slowly for tens of seconds to minutes at
a time, on one core or both, and process CPU time slowed with it (the
lost speed is not steal time the kernel subtracts).  A run's median then
measured the host's load, not the program: over ten 30-second runs the
median ``paper`` pass spread by 0.21-0.27 of itself and the median
``variability`` unit by up to 0.36.

So every timed process shares its core with a *calibrator*: a process
pinned to the same core at ``nice`` :data:`NICE` (about a tenth of the
core while the timed process runs) that repeats a fixed chunk of
interpreter and small dense LAPACK work — the two kinds of work the
program does most — and reports, after each chunk, the time, the chunk
count and its own CPU time.  Sharing one core at millisecond time
slices, both slow down together.  The calibrator's rate over the timed
window (chunks per second of its CPU time) measures the core's speed
during exactly that window, and

    work_s = cpu_s * rate / NOMINAL_RATE

is the timed process's CPU time as it would read on a core running the
chunk at :data:`NOMINAL_RATE`.  Over 20-40 fresh-process ``paper``
passes or ``variability`` units in one experiment, single passes spread
by 0.15-0.56 of their median in CPU time and by 0.03-0.08 in ``work_s``.
Chunks with a large data footprint (a 4 MB gather, a walk over 60 k
dicts) tracked the program worse, not better.

Run as ``python -m perfbench.calibrate``; the parent side is
:class:`Calibrator`.
"""

from __future__ import annotations

import bisect
import ctypes
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

#: The calibrator's niceness: CFS weight 110 against a nice-0 process's
#: 1024, so it takes ~10 % of the shared core.
NICE = 10
#: Interpreter iterations and 33x33 solves per chunk (~0.8 ms at nominal).
ITERATIONS = 8000
SOLVES = 16
#: Chunks per CPU second that define a speed of 1.0: a round number of
#: the order measured on a 2-vCPU Xeon VM (~1060 with the core to
#: itself).  Only ratios of ``work_s`` values matter.
NOMINAL_RATE = 1200.0
#: Fewer chunks than this in a window measure no speed.
MIN_CHUNKS = 10
#: ``prctl`` option (linux/prctl.h): the signal a process gets when its
#: parent exits.
PR_SET_PDEATHSIG = 1


def main() -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((33, 33)) + 33.0 * np.eye(33)
    rhs = rng.standard_normal(33)
    out = sys.stdout
    count = 0
    while True:
        total = 0
        for i in range(ITERATIONS):
            total += i * i % 7
        for _ in range(SOLVES):
            np.linalg.solve(matrix, rhs)
        count += 1
        out.write(f"{time.perf_counter()!r} {count} {time.process_time()!r}\n")
        out.flush()


class Calibrator:
    """A calibrator process pinned to ``core``; paused until :meth:`resume`.

    :meth:`rate` gives its chunk rate inside a ``perf_counter`` window of
    any process (``perf_counter`` is the system-wide monotonic clock).
    :meth:`close` kills and reaps it; use the object as a context manager.
    """

    def __init__(self, core: int, env: dict):
        def pin_and_nice() -> None:
            os.sched_setaffinity(0, {core})
            os.nice(NICE)
            # A paused calibrator whose parent was killed would stay
            # stopped forever: have the kernel kill it with its parent.
            prctl = ctypes.CDLL(None, use_errno=True).prctl
            prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                              ctypes.c_ulong, ctypes.c_ulong]
            prctl.restype = ctypes.c_int
            prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)

        self.core = core
        self.samples: List[Tuple[float, int, float]] = []
        self._first = threading.Event()
        self._process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.calibrate"],
            env=env,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            preexec_fn=pin_and_nice,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            if not self._first.wait(60.0):
                raise RuntimeError(f"calibrator on core {core} reported nothing")
            self.pause()
        except BaseException:
            self.close()
            raise

    def _read(self) -> None:
        for line in self._process.stdout:  # type: ignore[union-attr]
            stamp, count, cpu = line.split()
            self.samples.append((float(stamp), int(count), float(cpu)))
            self._first.set()

    def resume(self) -> None:
        os.kill(self._process.pid, signal.SIGCONT)

    def pause(self) -> None:
        os.kill(self._process.pid, signal.SIGSTOP)

    @contextmanager
    def running(self) -> Iterator[None]:
        """Resumed inside the block, paused after it."""
        self.resume()
        try:
            yield
        finally:
            self.pause()

    def rate(self, start: float, end: float) -> float:
        """Chunks per calibrator CPU second from its last report at or
        before ``start`` to its first report at or after ``end``."""
        samples = list(self.samples)
        stamps = [stamp for stamp, _, _ in samples]
        first = max(bisect.bisect_right(stamps, start) - 1, 0)
        last = min(bisect.bisect_left(stamps, end), len(samples) - 1)
        (_, count0, cpu0), (_, count1, cpu1) = samples[first], samples[last]
        if count1 - count0 < MIN_CHUNKS or cpu1 <= cpu0:
            raise RuntimeError(
                f"calibrator on core {self.core}: {count1 - count0} chunks in a "
                f"{end - start:.3f} s window"
            )
        return (count1 - count0) / (cpu1 - cpu0)

    def speed(self, start: float, end: float) -> float:
        """The core's speed in ``[start, end]``: 1.0 is the nominal rate."""
        return self.rate(start, end) / NOMINAL_RATE

    def work_s(self, cpu_s: float, window: Sequence[float]) -> float:
        """``cpu_s`` spent in ``window`` on this core, at the nominal rate."""
        start, end = window
        return cpu_s * self.speed(start, end)

    def close(self) -> None:
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait()
        self._reader.join()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def mean_speed(calibrators: Dict[int, Calibrator], start: float, end: float) -> float:
    """The machine's speed in ``[start, end]``: the mean over its cores."""
    speeds = [c.speed(start, end) for c in calibrators.values()]
    return sum(speeds) / len(speeds)


@contextmanager
def calibrators(cores: Sequence[int], env: dict) -> Iterator[Dict[int, Calibrator]]:
    """One paused :class:`Calibrator` per core, all closed on the way out."""
    with ExitStack() as stack:
        yield {core: stack.enter_context(Calibrator(core, env)) for core in cores}


if __name__ == "__main__":
    main()
