"""Keep the benchmark's main thread on the least contended of its CPUs.

On a shared host a vCPU slows down by up to about 1.5x, for seconds to
minutes, while a neighbour loads the physical core under it, and the slow
spells of different vCPUs seldom overlap. A closed loop that stays on one
vCPU can spend a whole run in such a spell. ``pin`` times a fixed
reference loop on every CPU the process may use and pins the calling
thread to the fastest, so that the timed calls that follow measure the
program rather than the neighbour. It acts on this process's own thread
only; ``release`` gives the thread back every CPU it started with.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

ALLOWED = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
_REF = np.add.outer(np.arange(12.0), np.arange(12.0)) ** 0.5


def _reference_s() -> float:
    """About 2 ms of interpreter and small-eigensolve work, like the
    program's own inner loops."""
    t0 = perf_counter()
    x = 0
    for i in range(4000):
        x += i * i
    for _ in range(40):
        np.linalg.eigvalsh(_REF)
    return perf_counter() - t0


def pin() -> int:
    """Pin the calling thread to the CPU that runs the reference loop
    fastest right now and return that CPU, or -1 when there is no choice."""
    if len(ALLOWED) < 2:
        return -1
    best, best_s = -1, float("inf")
    for cpu in ALLOWED:
        os.sched_setaffinity(0, {cpu})
        _reference_s()  # first run after a migration warms the caches
        s = min(_reference_s() for _ in range(3))
        if s < best_s:
            best, best_s = cpu, s
    os.sched_setaffinity(0, {best})
    return best


def release() -> None:
    if len(ALLOWED) >= 2:
        os.sched_setaffinity(0, ALLOWED)
