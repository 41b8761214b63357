"""Host speed probe: CPU time scaled to a reference speed of the host.

On a shared virtual machine the same deterministic work takes up to twice
as much CPU time in some stretches as in others, and a slow stretch
can last minutes, longer than a run.  Such a stretch also slows a fixed
probe written on the standard library alone.  While a worker measures,
a profiling timer runs the probe every PERIOD_S seconds of the process's
CPU time, and every measured interval of the thread's CPU time (the
package is single-threaded) is scaled by REF_PROBE_S over the
median probe time around it:

    scaled = (CPU time of the interval - probe time inside it)
             * REF_PROBE_S / median probe time in the window

The window is the interval itself, widened to the WINDOW_S seconds of
CPU time that end with it when the interval is shorter.  The probe calls
no hilbfock code, so a change to the package never changes the scale.
REF_PROBE_S is the probe's median time on the reference machine (2-vCPU
Xeon VM, Python 3.11.7) in its fast stretches, so a scaled time reads as
CPU time there.

Intervals are read from the thread's CPU clock: while a process-wide CPU
timer is armed, Linux advances the process's CPU clock only at scheduler
ticks, so time.process_time() would read whole ticks.
"""

import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.01
WINDOW_S = 0.5
REF_PROBE_S = 1.85e-4


def probe():
    """Fixed work: a loop of small-integer arithmetic.  Of three probes
    tried against set-up and the heis suite on k3 over slow and fast
    stretches (a sum of exact fractions, lookups in a large dict, and this
    loop), only this one slowed in proportion to the package: log-log
    slope 1.0, against 0.7 and 0.8 for the other two."""
    s = 0
    for i in range(2000):
        s = (s * 31 + i) & 0xFFFFFFFF
    return s


class Clock:
    """CPU-time intervals of the main thread, scaled by the probe once started.

    Before start(), or when never started (traced runs, whose spans must
    not include probe time), seconds() is plain CPU time.
    """

    def __init__(self):
        self.at = []        # thread time at the end of each probe
        self.took = []      # each probe's duration
        self.running = False

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # A SIGPROF still pending must not kill the process at exit.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def _tick(self, signum, frame):
        # A collection of the package's heap inside the probe would be
        # charged to the probe; with the collector off it runs just after.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.thread_time()
        probe()
        took = time.thread_time() - t0
        if collecting:
            gc.enable()
        self.at.append(time.thread_time())
        self.took.append(took)

    def _probes(self, c0, c1):
        """Index range of the probes that ended between c0 and c1."""
        return (bisect.bisect_right(self.at, c0),
                bisect.bisect_right(self.at, c1))

    def busy(self, c0, c1):
        """CPU seconds between thread times c0 and c1, less probe time."""
        lo, hi = self._probes(c0, c1)
        return c1 - c0 - sum(self.took[lo:hi])

    def seconds(self, c0, c1):
        """busy(c0, c1) scaled to the reference speed."""
        if not self.running:
            return c1 - c0
        lo, hi = self._probes(min(c0, c1 - WINDOW_S), c1)
        if lo == hi:
            raise RuntimeError("no speed probe in the %.3f s before %.3f"
                               % (WINDOW_S, c1))
        return (self.busy(c0, c1) * REF_PROBE_S
                / statistics.median(self.took[lo:hi]))

    def slowdown(self):
        """Median probe time over the whole process, over the reference."""
        return statistics.median(self.took) / REF_PROBE_S
