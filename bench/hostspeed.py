"""Host-speed correction for wall-clock timings.

On a shared virtual machine the same Python code can run up to ~1.8x slower
for seconds at a time when neighbours load the host; `time.process_time`
slows by the same factor, so no clock hides it.  A short fixed probe loop,
run every 20 ms from a SIGALRM handler, measures the host's speed
during a timed region.  A timing is reported at the reference speed: each
probe interval contributes its wall time scaled by
REFERENCE_PROBE_S / probe_duration, so a region that ran half on a slow host
and half on a fast one is corrected by the time-weighted mean speed.

The probe runs in the handler, between bytecodes of the measured code, and
its own time is subtracted from every timing through the `intervals` log.
"""

from __future__ import annotations

import signal
import time

# probe duration at the reference host speed; reported seconds are seconds
# on a host where one probe takes exactly this long
REFERENCE_PROBE_S = 4.0e-4
PROBE_INTERVAL_S = 0.02


def probe() -> float:
    """Run the fixed probe loop once and return its wall time in seconds.

    Integer arithmetic, list and dict traffic in the interpreter loop, the
    same mix as the measured code, so both slow down by the same factor.
    """
    start = time.perf_counter()
    acc = 0
    table = {}
    ring = [0] * 64
    for i in range(1500):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 3
        ring[i & 63] = acc
        table[x & 255] = ring[(i * 7) & 63]
    return time.perf_counter() - start


def speed_factor(durations) -> float:
    """Mean of REFERENCE_PROBE_S / d: multiply a wall time by it to get the
    time at reference speed."""
    return sum(REFERENCE_PROBE_S / d for d in durations) / len(durations)


class SpeedSampler:
    """Probe the host every PROBE_INTERVAL_S of wall time while active.

    `samples` holds probe durations and `intervals` the (start, end) stamps
    of the handler around each probe, both growing for the life of the
    sampler.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        d = probe()
        end = time.perf_counter()
        self.samples.append(d)
        self.intervals.append((start, end))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor_since(self, mark: int) -> float:
        """Speed factor over the samples taken after `mark`; probes once on
        the spot when the region was too short to be sampled."""
        recent = self.samples[mark:]
        return speed_factor(recent if recent else [probe()])
