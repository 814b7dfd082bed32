"""A frozen reference kernel that measures how fast the machine is right now.

The benchmark runs on shared machines whose speed drifts by tens of
percent within a minute.  Each pass therefore times this kernel between
its queries and rescales every stretch of query time by how long the
kernel took around it.  The kernel is pure stdlib Python of the same
kind arrlie spends its time in: dense integer row operations on a small
and on a cache-sized matrix, sparse dict elimination and dot products.
It never changes, so a change to arrlie cannot move it.  Editing it
redefines every time metric.
"""

from __future__ import annotations

import gc
import random
import time

REFERENCE_S = 0.012   # kernel time that defines one reference second
STRETCH_S = 0.25      # query time between two kernel timings
_P = 32003


def _inputs():
    rng = random.Random(20190612)
    dense = [[rng.randint(-9, 9) for _ in range(44)] for _ in range(44)]
    sparse = [{rng.randrange(70): rng.randint(1, _P - 1) for _ in range(5)}
              for _ in range(90)]
    vec = [rng.randint(-5, 5) for _ in range(120)]
    mat = [[rng.randint(-5, 5) for _ in range(120)] for _ in range(60)]
    # a matrix too big for the fastest caches, as the SNF transforms are
    big = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(400)]
           for _ in range(400)]
    moves = [(rng.randrange(400), rng.randrange(400), rng.choice((1, -1, 2)))
             for _ in range(120)]
    return dense, sparse, vec, mat, big, moves


_DENSE, _SPARSE, _VEC, _MAT, _BIG, _MOVES = _inputs()


def _work():
    m = [row[:] for row in _DENSE]
    n = len(m)
    for t in range(n):
        piv = next((i for i in range(t, n) if m[i][t]), None)
        if piv is None:
            continue
        m[t], m[piv] = m[piv], m[t]
        mt, p = m[t], m[t][t]
        for i in range(t + 1, n):
            f = m[i][t]
            if f:
                mi = m[i]
                for j in range(t, n):
                    mi[j] = (mi[j] * p - f * mt[j]) % _P
    live = [dict(r) for r in _SPARSE]
    rank = 0
    while live:
        row = live.pop()
        if not row:
            continue
        col = min(row)
        inv = pow(row[col], -1, _P)
        rank += 1
        for other in live:
            f = other.get(col)
            if f:
                f = f * inv % _P
                for c, v in row.items():
                    w = (other.get(c, 0) - f * v) % _P
                    if w:
                        other[c] = w
                    else:
                        other.pop(c, None)
    dots = [sum(a * b for a, b in zip(r, _VEC) if b) for r in _MAT]
    big = [row[:] for row in _BIG]
    for i, k, c in _MOVES:
        bi, bk = big[i], big[k]
        for j in range(len(bk)):
            if bk[j]:
                bi[j] += c * bk[j]
    return rank, m[-1][-1], dots[0], big[-1][-1]


def kernel_s():
    """Seconds the kernel takes now: the faster of two timings.

    The collector is paused so that a full collection of the caller's
    heap is not charged to the machine.
    """
    best = None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            _work()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
    finally:
        if was_enabled:
            gc.enable()
    return best


class Clock:
    """Query time in reference seconds, calibrated stretch by stretch.

    add() collects raw query time; once a stretch reaches STRETCH_S the
    kernel is timed again and the stretch is rescaled by REFERENCE_S over
    the mean of the kernel times at its two ends.
    """

    def __init__(self):
        self.last = kernel_s()
        self.pending = 0.0
        self.raw_s = 0.0
        self.ref_s = 0.0

    def add(self, seconds):
        self.pending += seconds
        self.raw_s += seconds
        if self.pending >= STRETCH_S:
            self.close()

    def close(self):
        if not self.pending:
            return
        now = kernel_s()
        self.ref_s += self.pending * REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.pending = 0.0
