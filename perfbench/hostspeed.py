"""How fast the host runs a fixed kernel, sampled while an op runs.

On a shared host the speed of one core drifts by 20-40% over seconds and
minutes (other tenants, not this process: CPU time tracks wall time).  A
20-second run that lands in a slow phase then reads 20-40% slow, whatever
the program does.  To take that out, a timer signal interrupts the op every
``INTERVAL`` seconds and times a fixed probe kernel of the benchmark's own
(interpreter bytecode and small numpy arrays, the mix penmix spends its time
in).  The op's time is then rescaled to what it would have been with the
probe running at ``REFERENCE_S``:

    normalized = (elapsed - time spent probing) * mean(REFERENCE_S / probe)

The probe uses no penmix code, so an optimization of penmix moves the
normalized time exactly as it moves the raw time.  What it cannot see is a
change that slows the whole interpreter (a busy background thread holding
the GIL, say): that slows op and probe alike.  The raw ``ops_per_s`` stays in
the report for that reason.

Set-up runs in a child interpreter, so it is not probed from inside: the
parent probes just before spawning it and just after it is ready.
"""
from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

#: seconds between probes while an op runs
INTERVAL = 0.05
#: the probe's time on an idle core of the host NOTES.md describes; it only
#: sets the scale of the normalized figures
REFERENCE_S = 5e-4

_X = np.linspace(0.5, 1.5, 1024)


def kernel() -> float:
    """Seconds the fixed probe kernel takes now (about 0.5 ms at full speed)."""
    t0 = perf_counter()
    acc = 0
    for i in range(2500):
        acc += i * i % 7
    y = _X.copy()
    for _ in range(28):
        y = np.sqrt(y * 1.0001) + np.exp(-y) * 0.1
    return perf_counter() - t0


def scale(samples) -> float:
    """Factor that takes a time measured at these probe times to the
    reference speed: the mean of ``REFERENCE_S / sample``."""
    return sum(REFERENCE_S / s for s in samples) / len(samples)


class SpeedProbe:
    """Times one op (``with SpeedProbe() as probe: op()``) and probes the
    host before, during and after it.

    After the block, ``elapsed`` is the op's wall time without the probes
    inside it, and ``normalized`` that time at the reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.elapsed = 0.0
        self.normalized = 0.0
        self._previous = None
        self._t0 = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(kernel())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self.samples = [kernel()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.elapsed = perf_counter() - self._t0 - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())
        self.normalized = self.elapsed * scale(self.samples)
