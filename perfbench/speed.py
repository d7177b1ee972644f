"""Host-speed normalisation of measured times.

On a shared host the same deterministic work can take 1.6 times longer
while neighbouring machines load the processor, and the host switches
between fast and slow phases within seconds.  CPU time rises with wall
time, so neither shows the program's own cost.  A :class:`SpeedSampler`
times a fixed pure-Python kernel every 40 ms of wall time, from a
``SIGALRM`` handler inside the measured process, so the samples are taken
on the same processor at the same moments as the program's work.

:meth:`SpeedSampler.normalize` turns an interval into reference seconds:
the interval minus the kernel time inside it, times the mean of
``REFERENCE_KERNEL_S / kernel time`` over the samples inside it or within
``PAD_S`` of it.  A reference second is a second at the
speed where the kernel takes ``REFERENCE_KERNEL_S``, about the unloaded
speed of a 2.1 GHz Xeon virtual machine under CPython 3.11.  The kernel
costs about 2% of a run, and its time is subtracted.
"""

import bisect
import gc
import itertools
import signal
import time

INTERVAL_S = 0.04
REFERENCE_KERNEL_S = 4.5e-4
# a short call takes its speed from the samples this close to it
PAD_S = 0.1


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key):
        self.key = key
        self.kids = []


def kernel():
    """Fixed pure-Python work in four kinds the program does: a counting
    loop over a dictionary, sorting and grouping tuples, building small
    dictionaries and sorted tuples as graph construction does, and a
    graph search over objects.  Each kind slows by a different factor in
    a slow phase, and so does each workload; their sum tracks all four
    ``verify`` and ``trop`` workloads within a few percent."""
    counts = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + i

    items = sorted((i * 7919 % 211, i) for i in range(150))
    groups = {}
    for key, value in items:
        groups.setdefault(key, []).append(value)
    pairs = set()
    for key, values in groups.items():
        pairs |= {(key, v % 13) for v in values}

    shapes = set()
    for i in range(20):
        weight = {v: v % 3 for v in range(8)}
        involution = {h: h ^ 1 for h in range(16)}
        shapes.add((tuple(sorted(weight.items())),
                    tuple(sorted((h, k) for h, k in involution.items()
                                 if h < k))))

    nodes = [_Node(i) for i in range(100)]
    for i, node in enumerate(nodes):
        node.kids = [nodes[(i * 31 + j) % 100] for j in range(3)]
    seen = {0}
    stack = [nodes[0]]
    while stack:
        for kid in stack.pop().kids:
            if kid.key not in seen:
                seen.add(kid.key)
                stack.append(kid)
    return len(counts) + len(pairs) + len(shapes) + len(seen)


class SpeedSampler:
    """Kernel timings at regular moments of one process's life."""

    def __init__(self):
        self.at = []
        self.took = []
        # running sums of kernel time and of speed, set by stop()
        self._busy_sum = self._speed_sum = None

    def sample(self, *_):
        # no collection inside the kernel: it would move the program's
        # own collections, and with them its peak memory
        collecting = gc.isenabled()
        gc.disable()
        start = time.monotonic()
        kernel()
        took = time.monotonic() - start
        if collecting:
            gc.enable()
        self.at.append(start)
        self.took.append(took)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop sampling and index the samples for busy() and factor()."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        self._busy_sum = [0.0, *itertools.accumulate(self.took)]
        self._speed_sum = [0.0, *itertools.accumulate(
            REFERENCE_KERNEL_S / k for k in self.took)]

    def busy(self, t0, t1):
        """Kernel seconds spent inside ``[t0, t1]``."""
        return (self._busy_sum[bisect.bisect_right(self.at, t1)]
                - self._busy_sum[bisect.bisect_left(self.at, t0)])

    def factor(self, t0, t1):
        """Mean speed relative to the reference over ``[t0, t1]``, widened
        by ``PAD_S`` on each side so a short interval averages a few
        samples."""
        lo = bisect.bisect_left(self.at, t0 - PAD_S)
        hi = bisect.bisect_right(self.at, t1 + PAD_S)
        if hi == lo:  # no sample near: the two around the interval
            lo, hi = max(0, lo - 1), min(len(self.at), lo + 1)
        return (self._speed_sum[hi] - self._speed_sum[lo]) / (hi - lo)

    def normalize(self, t0, t1):
        """Reference seconds of program work in ``[t0, t1]``."""
        return (t1 - t0 - self.busy(t0, t1)) * self.factor(t0, t1)
