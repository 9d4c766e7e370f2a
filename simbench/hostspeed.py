"""Host-speed correction for the benchmark's host-time metrics.

The shared VM this benchmark was built on runs a fixed pure-Python loop
at speeds that differ by up to 1.8x from one second to the next, and
whole minutes fall in a fast or a slow phase.  Fresh processes and
medians over samples cannot average a phase longer than a run, so the
host times are corrected for the speed the host ran at while they were
measured.

:class:`HostSpeed` times a fixed calibration loop (about a millisecond)
every 0.1 s of the process from a ``SIGALRM`` interval timer, between
the program's bytecodes.  :meth:`HostSpeed.span` then splits a stretch of
the program's time at those samples, leaves the sampler's own time out,
and scales each piece by ``REFERENCE_CAL_S`` over the calibration time
around it: the result is the seconds the stretch would have taken on a
host that runs the loop in ``REFERENCE_CAL_S``.  The scale does not
depend on the program, so a change that makes the program faster or
slower moves the scaled time just as much as the plain one.

The calibration touches no state of the simulation (a preallocated dict
and ints), so a sampled run's outputs are byte-identical to an
unsampled one's.  Standard library only: the sampler starts before the
simulator is imported.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: calibration loop iterations: about 1 ms on the benchmark's host
CAL_ITERATIONS = 10_000
#: the calibration time of the reference host: the fast phase of the
#: 2-vCPU Xeon VM the benchmark was built on (its median in that phase)
REFERENCE_CAL_S = 0.00105
#: host seconds between samples
INTERVAL_S = 0.1

_SLOTS = dict.fromkeys(range(64), 0)


def _calibrate() -> int:
    slots, acc = _SLOTS, 0
    for i in range(CAL_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
        slots[i & 63] = acc
    return acc


class HostSpeed:
    """Samples the host's speed while the program runs.

    ``marks`` holds ``(start, end, cal_s)`` per sample, on the
    ``time.monotonic`` clock: the sample ran from ``start`` to ``end``
    and its calibration loop took ``cal_s``.
    """

    def __init__(self) -> None:
        self.marks: List[Tuple[float, float, float]] = []

    def sample(self, *_signal) -> None:
        start = time.monotonic()
        _calibrate()
        cal_s = time.monotonic() - start
        self.marks.append((start, time.monotonic(), cal_s))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling, with a last sample after every timed stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def span(self, start: float, end: float) -> Tuple[float, float]:
        """``(scaled_s, raw_s)`` of the program's time from ``start`` to
        ``end``, sampling time left out of both.

        Each piece between two samples is scaled by the mean calibration
        time of the samples at its ends (the one after it alone when no
        sample came before it).  Needs a sample that starts after ``end``:
        call it after :meth:`stop`.
        """
        scaled = raw = 0.0
        left, before = start, None
        for m_start, m_end, cal_s in self.marks:
            if m_end <= start:
                before = cal_s
                continue
            right = min(m_start, end)
            if right > left:
                speed = cal_s if before is None else (before + cal_s) / 2
                raw += right - left
                scaled += (right - left) * REFERENCE_CAL_S / speed
            if m_start >= end:
                return scaled, raw
            left, before = max(left, m_end), cal_s
        raise ValueError("no host-speed sample after the end of the span")

    def median_cal_s(self) -> float:
        cals = sorted(m[2] for m in self.marks)
        return cals[len(cals) // 2]
