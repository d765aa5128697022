"""Host speed, measured beside and during the records so that timings can be normalised.

On a shared host the speed of one CPU switches between a fast and a slow
state (about 1.8 times slower) every few tens to hundreds of milliseconds,
with nothing visible to the guest: no steal time, and CPU time tracks wall
time.  A fixed pure-Python loop measures that state where the record runs.
`Sampler` runs a short loop from a SIGALRM handler every PERIOD seconds, so
records longer than PERIOD are sampled while they run; a record also gets the
samples taken right before and right after it.  The record's work in
reference units is then

    normalised seconds = seconds * REF_UNIT_MS / 1000 * mean(1 / sample)

with the samples in seconds per unit loop: the mean of speed over the record's
wall time, so a record that spent half its time in the slow state counts half
its time at the slow speed.  The time spent in the handler is subtracted from
every interval it falls in.  The loop does what the package does most
(integer floor division, list indexing, dict updates and small calls), and it
is part of the benchmark, so no change to the package moves it.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

# Reference time of one unit loop: normalised figures are what the records
# would take on a host that runs the unit loop in this time.  It is about the
# loop's time in the fast state of the baseline host.  Changing it rescales
# every normalised figure, so it is fixed.
REF_UNIT_MS = 0.3
UNIT = 1000  # iterations of one unit loop
BOUNDARY_UNITS = 8  # unit loops run between two records
PERIOD = 0.025  # seconds between samples taken by the signal handler

clock = time.perf_counter


def _step(i: int, a: int) -> int:
    return -((-i * 7) // a)


def loop(n: int = UNIT) -> int:
    """The fixed unit of work whose time measures host speed."""
    table: dict[int, int] = {}
    row = list(range(64))
    acc = 0
    for i in range(n):
        a = row[i & 63] + 2
        q = _step(i, a)
        key = q & 255
        table[key] = table.get(key, 0) + 1
        acc += q - row[(i * 5) & 63]
    return acc + len(table)


def normalise(seconds: float, samples) -> float:
    """``seconds`` in reference units, given unit-loop samples (seconds each)
    taken over the interval."""
    return seconds * REF_UNIT_MS / 1000 * statistics.fmean(1 / s for s in samples)


def unit_seconds(units: int = BOUNDARY_UNITS) -> float:
    """Mean seconds per unit loop over ``units`` loops run here."""
    t0 = clock()
    for _ in range(units):
        loop()
    return (clock() - t0) / units


def sample_for_life(directory: str) -> None:
    """Sample host speed in this process every PERIOD seconds until it exits,
    appending each sample to a file of its own in ``directory``.

    Used in the forked processes of a two-process pass, which the benchmark
    does not otherwise control; see `normalise_parallel`.
    """
    fd = os.open(os.path.join(directory, str(os.getpid())), os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def tick(signum, frame):
        t0 = clock()
        loop()
        os.write(fd, f"{clock() - t0!r}\n".encode())

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)


def normalise_parallel(wall: float, directory: str, processes: int) -> float:
    """``wall`` seconds of a pass of ``processes`` sampled processes in
    reference units: less the mean time each process spent sampling, and
    scaled by the speed of all their samples."""
    samples = []
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            samples.extend(float(line) for line in fh)
    if not samples:
        raise RuntimeError("the processes of the pass took no host-speed samples")
    return normalise(wall - sum(samples) / processes, samples)


class Sampler:
    """Unit-loop samples, taken every PERIOD seconds by a SIGALRM handler and
    on demand; use as a context manager in the main thread."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # seconds per unit loop, in the order taken
        self.stolen = 0.0  # total seconds spent in the handler

    def _tick(self, signum, frame) -> None:
        t0 = clock()
        loop()
        t1 = clock()
        self.samples.append(t1 - t0)
        self.stolen += clock() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self.boundary()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def boundary(self) -> None:
        """Run BOUNDARY_UNITS unit loops here and keep their mean as one sample."""
        stolen = self.stolen
        seconds = unit_seconds()
        self.samples.append(seconds - (self.stolen - stolen) / BOUNDARY_UNITS)

    def timed(self, fn, *args):
        """(result, seconds, normalised seconds) of fn(*args).

        Seconds are wall time less the time spent in the handler; the
        normalisation uses the boundary sample right before the call, the
        samples the handler took during it and a boundary sample right after.
        """
        first = len(self.samples) - 1
        stolen, t0 = self.stolen, clock()
        result = fn(*args)
        seconds = clock() - t0 - (self.stolen - stolen)
        self.boundary()
        return result, seconds, normalise(seconds, self.samples[first:])
