"""Host-speed sampling, to take the speed of a shared host out of job times.

Other tenants slow the host's CPUs by up to 2.3x, in stretches from a
fraction of a second to minutes, and process CPU time slows with wall
time.  So while the benchmark measures, a ``SIGPROF`` interval timer runs
a small fixed piece of pure-Python work (``probe``: Fraction and mod-p
products over dicts of tuple keys, like the engine's inner loops) every
``INTERVAL_S`` of process CPU time, and times it.  No thread or process is
started: the handler runs in the main thread between two bytecodes of
whatever is running.

``Sampler.measure`` times a block (one job, or one set-up) with a sample
just before and just after it, and returns its times twice:

- raw: wall and CPU seconds of the block, less the probes run inside it;
- normalised: the raw time multiplied by the mean of ``NOMINAL_S / t``
  over the wall times t of the probes taken before, inside and after the
  block.  The samples are evenly spaced in CPU time and the block does
  1 / t of its work per unit of time, so this is the time the block would
  take at the speed where the probe takes ``NOMINAL_S``.

CPU time is scaled by the same factor, and the probes' wall time is what
is subtracted from it: while the interval timer is armed, the process CPU
clock read inside the handler often does not advance across a probe.

``NOMINAL_S`` is the probe's best time, run alone, on the 2-vCPU x86-64
VM where the benchmark was defined.  Normalised figures are in units of
that speed.  There they came out 5 to 40% below the best raw times of the
same runs: a probe run inside a job finds its caches filled by the job,
and on a busy host even a job's best raw repeat runs slow.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02        # process CPU seconds between two samples
NOMINAL_S = 0.0005       # the probe's best time on the defining VM

_Q = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
_Z = {(i, j): 7 * i - 3 * j + 2 for i in range(3) for j in range(2)}
_P = 32003


def probe():
    """150 Fraction and 150 mod-p multiply-adds into dicts (0.5 ms)."""
    out, mod = {}, {}
    for (i, j), c in _Q.items():
        for (k, l), d in _Z.items():
            m = (i + k, j + l)
            out[m] = out.get(m, 0) + c * d
            mod[m] = (mod.get(m, 0) + (i * 7919 + j) * d) % _P
    return out, mod


class Span:
    """Raw and normalised wall and CPU seconds of one measured block."""
    __slots__ = ("wall", "cpu", "norm_wall", "norm_cpu")

    def __init__(self, wall, cpu, norm_wall, norm_cpu):
        self.wall, self.cpu = wall, cpu
        self.norm_wall, self.norm_cpu = norm_wall, norm_cpu


class Sampler:
    """Probe times, taken every ``INTERVAL_S`` of CPU time once started."""

    def __init__(self):
        self.wall = []                     # each probe's wall time, in order
        self.spent = 0.0                   # their sum
        self._busy = False

    def _sample(self):
        t0 = time.perf_counter()
        probe()
        wall = time.perf_counter() - t0
        self.wall.append(wall)
        self.spent += wall

    def _on_signal(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def measure(self, block):
        """Run ``block()``, which must not raise; return its result and
        its ``Span``.  No signal-driven sample is taken between reading
        the clocks and the probe totals, so the probes are subtracted
        exactly."""
        self._busy = True
        self._sample()
        first = len(self.wall) - 1
        spent = self.spent
        w0, c0 = time.perf_counter(), time.process_time()
        self._busy = False
        result = block()
        self._busy = True
        in_probes = self.spent - spent
        wall = time.perf_counter() - w0 - in_probes
        cpu = time.process_time() - c0 - in_probes
        self._sample()
        self._busy = False
        rate = statistics.fmean(NOMINAL_S / t for t in self.wall[first:])
        return result, Span(wall, cpu, wall * rate, cpu * rate)
