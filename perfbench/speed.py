"""Operation timing at a reference machine speed.

The benchmark's machine is shared. It switches, for seconds to tens of
seconds at a time, between a fast and a slow state about 1.5x apart, and
the switch shows in CPU time as much as in wall time (see README.md). Every
kind of work in the benchmark slowed by the same factor, 1.50-1.58, when
timed in one state, but an operation longer than a state timed a mixture.
The share of time in the fast state ranged from 2% to 60% between runs,
so the median of a run's operation times moved by up to a third.

A ``Stopwatch`` therefore times the machine as well as the work: a short
fixed kernel that calls no ccplan code runs every SAMPLE_EVERY_S while the
work runs, and once when it ends. The work's CPU time, less the sampler's
own, is scaled by REFERENCE_KERNEL_S over the harmonic mean of the kernel
times. For samples spread evenly over the work's running time, that
harmonic mean is proportional to the work's CPU time per unit of work, so
the result reads as seconds on this machine at its reference speed: a
change to ccplan moves it, a change in the machine's state does not.

Every pass follows other work: a second pass in a row ran 11% faster on
warm caches, so there is no pass on entry, where it would follow the
previous Stopwatch's exit pass.

The timer runs on wall time. While a CPU-time timer (ITIMER_PROF) is armed,
Linux reads the process's CPU clock only to the scheduler tick, here 4 ms,
which put the median certificate at exactly 4 ms.
"""

import math
import resource
import signal
import statistics
import time

import numpy as np

# Close to the kernel's median time in the slow state on the machine of
# machine.json, so scaled times read close to the seconds seen there.
REFERENCE_KERNEL_S = 0.00115
SAMPLE_EVERY_S = 0.025

_rng = np.random.default_rng(0)
_K_SMALL = _rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
_K_RHS = _rng.normal(size=4)
_K_QP = _rng.normal(size=(136, 136))
_K_QP = _K_QP @ _K_QP.T + 136.0 * np.eye(136)
_K_POINTS = _rng.normal(size=(20_000, 3))
_K_DIRECTIONS = _rng.normal(size=(3, 3))
del _rng


def cpu_seconds():
    """CPU time of this process and its reaped children.

    The benchmark runs one caller with BLAS pinned to one thread, so on an
    idle core an operation's CPU time equals its wall time; on a shared
    machine, wall time also holds whatever the scheduler or hypervisor took
    away, which widened the spread between runs up to threefold.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_kernel():
    """Thread CPU seconds of one pass of a fixed kernel that mixes the
    program's kinds of work: scalar Python with small-array NumPy (as in
    the GJK and certificate code), a dense factorisation of the pickplace3d
    QP's size, and vectorised tests over many samples (as in Monte Carlo).
    """
    t0 = time.thread_time()
    acc = 0.0
    for i in range(60):
        x = np.linalg.solve(_K_SMALL, _K_RHS)
        acc += math.sqrt(abs(float(x @ x) - float(x[i % 4])))
    for _ in range(2):
        acc += float(np.linalg.cholesky(_K_QP)[-1, -1])
    for d in _K_DIRECTIONS:
        acc += float(np.count_nonzero(_K_POINTS @ d > 0.1))
    elapsed = time.thread_time() - t0
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return elapsed


class Stopwatch:
    """Context manager that samples the machine's speed while work is timed
    inside it.

    With ``interrupt``, an interval timer samples every SAMPLE_EVERY_S
    during the work. Without it, the caller may call ``tick()`` between
    short pieces of work, which samples as often; the certificate loop does,
    because samples inside single certificates added a cache refill to each.
    One more sample is taken on exit. Inside, ``cpu()`` is CPU seconds less
    the sampler's own; after exit, ``scale()`` turns differences of
    ``cpu()`` into seconds at the reference speed, and ``kernel_s`` holds
    every kernel time taken, in order.
    """

    def __init__(self, interrupt=False):
        self.interrupt = interrupt
        self.kernel_s = []
        self._own_s = 0.0
        self._busy = False
        self._previous = None
        self._last = None

    def cpu(self):
        return cpu_seconds() - self._own_s

    def tick(self):
        """Sample now if SAMPLE_EVERY_S has passed since the last sample."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.kernel_s.append(reference_kernel())
            self._last = time.perf_counter()

    def scale(self, first=0, end=None):
        """Factor to the reference speed from the samples
        ``kernel_s[first:end]`` (from all of them by default)."""
        window = self.kernel_s[max(first, 0):end]
        return REFERENCE_KERNEL_S / statistics.harmonic_mean(window)

    def _on_timer(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.thread_time()
        self.kernel_s.append(reference_kernel())
        self._own_s += time.thread_time() - t0
        self._busy = False

    def __enter__(self):
        self._last = time.perf_counter()
        if self.interrupt:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.kernel_s.append(reference_kernel())
        return False
