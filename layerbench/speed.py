"""Time at a fixed reference speed of the host, measured alongside the work.

The sandboxes this benchmark runs in share physical cores with other
tenants: the same pure-Python work runs up to 1.7x slower for stretches of
seconds to minutes, and a slow stretch can cover a whole run.  Wall times then
differ more between runs than any bound worth enforcing.

``SpeedClock`` interrupts the measured code every ``INTERVAL_S`` (SIGALRM, in
the main thread: no extra threads) and times a fixed calibration kernel of
the same kind of work lgmf does: Fraction products and sums into dicts keyed
by exponent tuples.  Each stretch of measured time between two kernel runs is
scaled by ``REFERENCE_KERNEL_S`` over the mean kernel time at its two ends,
and the kernel runs themselves are left out.  ``read()`` is therefore
"seconds had the host run at the reference speed throughout"; on an idle
host it is within a few percent of wall time.
"""

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.025
# the kernel's time, run between slices of lgmf work (so with cold caches),
# on this host type when no other tenant contends
REFERENCE_KERNEL_S = 0.00055

_A = {(i, j, (i * j) % 3): Fraction(i + 1, j + 2)
      for i in range(4) for j in range(3)}
_B = {(j, i % 3, i): Fraction(2 * i - 3, i + j + 1)
      for i in range(4) for j in range(3)}


def kernel():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return out


def _timed_kernel():
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    return t0, t1


class SpeedClock:
    """A clock in reference seconds; active inside ``with``."""

    def __init__(self):
        self.norm = 0.0     # reference seconds up to the last kernel run
        self.end = 0.0      # wall time the last kernel run ended
        self.k = 1.0        # its duration

    def _tick(self, signum, frame):
        t0, t1 = _timed_kernel()
        k = t1 - t0
        self.norm += ((t0 - self.end) * REFERENCE_KERNEL_S * 2
                      / (self.k + k))
        self.end, self.k = t1, k

    def __enter__(self):
        t0, t1 = _timed_kernel()
        self.end, self.k = t1, t1 - t0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def read(self) -> float:
        """Reference seconds since the clock started."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = time.perf_counter()
            return self.norm + (now - self.end) * REFERENCE_KERNEL_S / self.k
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
