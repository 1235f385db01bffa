"""Host-speed probe: a fixed pure-Python loop timed between the jobs of a pass.

The benchmark host is shared.  When other tenants are busy, every job runs
up to twice as slowly for stretches of seconds to minutes, so raw wall times
of one commit spread far beyond any useful regression bound.  The probe
runs the same kind of work as the program (dictionary updates and big-int
products) and is timed right before and right after each job; a job's time
is scaled by ``REFERENCE_S / probe time`` to what it would take on an idle
host.  The probe is independent of c2n3, runs with the garbage collector
off and allocates no tracked objects, so nothing the program leaves on its
heap changes the probe's time.
"""

from __future__ import annotations

import gc
import time

# Fastest probe() time seen on the host that defined the benchmark (a shared
# 2-vCPU VM, CPython 3.11.7): scaled times read as seconds on that host when
# idle.  Only the scale of the reported times depends on it.
REFERENCE_S = 0.0176

_A = {i * 64 + j: ((i * 7919 + j * 104729) << 64) + i for i in range(48) for j in range(12)}
_B = {i * 64 + j: i - j + 3 for i in range(6) for j in range(4)}
_ROUNDS = 8


def _product() -> dict[int, int]:
    out: dict[int, int] = {}
    for ka, ca in _A.items():
        for kb, cb in _B.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return out


def probe() -> float:
    """Seconds this host takes for a fixed amount of work, now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            _product()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
