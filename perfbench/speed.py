"""CPU time scaled to a reference machine speed.

The shared machines this benchmark runs on switch between a fast and a
slow mode, about 1.6x apart, for spans from a fraction of a second to
tens of seconds.  The slow mode shows in CPU time too, not only in wall
time, and it slows the package's code and a plain Python loop alike.  One
15 s run can fall mostly in either mode, so raw CPU times of the same work
spread by about 25% from run to run.

A probe runs a fixed piece of pure-Python work five times and takes the
median CPU time.  The work is like the package's hot loops: it builds a
tree of small slotted objects, hashes them into a dict, walks the tree
recursively, and updates a dict keyed by tuples built through a function
call.  Package time measured next to probes is scaled by
``REF_PROBE_S / probe``: it reads as the time the same work would take on
a machine where the probe takes ``REF_PROBE_S``.  The probe does not
depend on the package, so the scaled times of two commits compare as
their raw times would on a steady machine.

Measured on a shared 2-vCPU x86-64 virtual machine: with a probe of the
dict loop alone, scaling cut the quartile spread of ``puzzle-statespace``
boards per second over eight 6 s runs from 0.21 to 0.03, and of its
median latency from 0.29 to 0.02.  Over 100 s of probes interleaved with
``grammar.parse`` and ``macro_tables.macro_solve`` calls on fixed inputs,
dividing by the present probe narrowed the 5-95% range of those calls'
times from 0.42-0.47 of their median to 0.17-0.19, and by the dict loop
alone to 0.24.  Memory-bound work speeds up less than the probe in the
machine's fast mode, so it is scaled less well (see README.md).
"""

from __future__ import annotations

import gc
import time

# Probe time at the reference speed: about the median probe over a timed
# phase on a shared 2-vCPU x86-64 virtual machine with CPython 3.11, so that
# scaled times there read about as the raw ones do.
REF_PROBE_S = 225e-6
PROBE_EVERY_S = 0.04  # wall time between probes while package calls run
PROBE_REPEATS = 5


def _pair(x, y):
    return (x, y)


class _Node:
    __slots__ = ("op", "kids", "h")

    def __init__(self, op, kids):
        self.op = op
        self.kids = kids
        self.h = hash((op, kids))

    def size(self):
        return 1 + sum(k.size() for k in self.kids)


def _kernel():
    leaf = _Node("x", ())
    tree = leaf
    memo = {}
    for i in range(120):
        tree = _Node("+" if i & 1 else "*", (tree, leaf)) if i % 8 else leaf
        memo[tree.h] = tree
    d = {}
    kept = []
    for i in range(250):
        k = _pair(i & 63, i & 7)
        d[k] = d.get(k, 0) + 1
        if i & 3 == 0:
            kept.append(k)
    return len(memo) + tree.size() + len(d) + len(kept)


def probe() -> float:
    """CPU seconds of one run of the fixed work (median of five).  The
    cyclic garbage collector is off meanwhile: the probe's allocations
    would otherwise trigger collections whose cost grows with the
    package's heap, and the probe must not depend on the package."""
    xs = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            t0 = time.process_time()
            _kernel()
            xs.append(time.process_time() - t0)
    finally:
        if enabled:
            gc.enable()
    xs.sort()
    return xs[PROBE_REPEATS // 2]


class SpeedLog:
    """Probes the machine's speed between package calls, at most every
    ``PROBE_EVERY_S`` of wall time and after any call longer than that.

    Consecutive probes bound a segment, and every call falls in one
    segment.  A call is scaled by the slower of the segment's two probes.
    If the machine changed mode inside the segment, the calls made in the
    slow mode are then scaled correctly and those made in the fast mode
    read a little fast; none reads slow, so mode changes do not inflate the
    latency tail.
    """

    def __init__(self):
        self.probes: list = []
        self._probe()

    def _probe(self):
        self.probes.append(probe())
        self.at = time.perf_counter()

    @property
    def segment(self) -> int:
        return len(self.probes) - 1

    def before(self) -> int:
        """Call before a timed call; returns the segment it falls in."""
        if time.perf_counter() - self.at > PROBE_EVERY_S:
            self._probe()
        return self.segment

    def after(self, raw_s: float):
        """Call after a timed call that took ``raw_s`` CPU seconds."""
        if raw_s > PROBE_EVERY_S:
            self._probe()

    def factor(self, segment: int) -> float:
        """Scale factor of the calls in ``segment``; closes the segment
        with a probe if it is still open."""
        if segment == self.segment:
            self._probe()
        return REF_PROBE_S / max(self.probes[segment], self.probes[segment + 1])
