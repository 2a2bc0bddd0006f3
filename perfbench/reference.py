"""A reference loop that measures how fast the machine runs Python right now.

The benchmark runs on shared machines whose other tenants slow a
single-threaded Python process by 20-80% for seconds to minutes at a time;
runs of identical work differ by as much.  A fixed pure-Python loop, timed
every INTERVAL seconds while a pass runs, slows down by about the same share.
So every time the benchmark reports is multiplied by REF_S / (the loop's time
around it) and reads as seconds on a machine where the loop takes REF_S.  On
an idle core of the machine the loop was sized on (an Intel Xeon, 2 vCPUs,
Python 3.11) the loop takes about REF_S, so the factor there is close to 1.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

REF_S = 0.005
REF_ITERATIONS = 14_000
INTERVAL = 0.05


def reference_loop(n: int = REF_ITERATIONS):
    """A mix of the library's staple work: small-integer arithmetic, dict
    updates, bitmask shifts wider than a machine word, and Fractions."""
    acc, table, mask, frac = 0, {}, 0, Fraction(0)
    for i in range(n):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 255] = table.get(i & 255, 0) + 1
        mask = (mask << 1 | acc & 1) & ((1 << 96) - 1)
        if i % 64 == 0:
            frac += Fraction(acc, 3 ** (i % 7 + 1))
    return acc, mask, frac


class Reference:
    """Reference-loop samples for one pass.

    tick() is called after each set of a pass: it notes when the set ended,
    and when INTERVAL has passed since the last sample it takes one.
    The time it spends is kept in `spent`, so that callers can take it out of
    the time they measured around it.  With a tracer, each loop is a span of
    its own, so it never adds to the self time of a library span around it.
    """

    def __init__(self, tracer=None, clock=time.perf_counter):
        self.tracer = tracer
        self.clock = clock
        self.times: list[float] = []  # when each sample was taken
        self.samples: list[float] = []  # the loop's time at each sample
        self.marks: list[float] = []  # when each tick() was called
        self.spent = 0.0
        self.due = 0.0

    def tick(self) -> None:
        now = self.clock()
        self.marks.append(now)
        if now >= self.due:
            self.sample()

    def sample(self) -> None:
        """Time the loop once, now."""
        begin = self.clock()
        if self.tracer is not None:
            self.tracer.enter("perfbench.reference")
        start = self.clock()
        reference_loop()
        end = self.clock()
        if self.tracer is not None:
            self.tracer.exit()
        self.times.append(end)
        self.samples.append(end - start)
        done = self.clock()
        self.spent += done - begin
        self.due = done + INTERVAL

    def scale(self) -> float:
        """Factor from measured seconds to reference seconds, over the pass."""
        return REF_S * len(self.samples) / sum(self.samples)

    def mark_scales(self) -> list[float]:
        """The factor at each tick(), from the samples just before and after it."""
        out = []
        for mark in self.marks:
            j = bisect.bisect_right(self.times, mark)
            near = self.samples[max(j - 1, 0) : j + 1]
            out.append(REF_S * len(near) / sum(near))
        return out
