"""A fixed pure-Python kernel that gauges how fast the host runs right now.

The benchmark's host is shared.  Other tenants slow its CPUs down in
bursts that last from a fraction of a second to minutes, by as much as a
half, so a study timed on its own mostly measures the neighbours.  Timed
between two runs of this kernel, the study's time divided by the
kernel's cancels most of that: the two slow down together.

The kernel does what the study does most -- seeds a ``random.Random``
from a string, draws from it, looks up and fills a dictionary of small
lists and tuples -- and never calls the program, so no change to the
program can change it.  A kernel of dictionary and list work alone
tracked the host worse: it slowed down under load almost twice as much
as the study did.
"""

from __future__ import annotations

import random
import time

#: Kernel repetitions in one reference measurement (about
#: 0.035 s each on a 2-vCPU VM).  A burst of load from a neighbour can
#: last a second, so a measurement must span a good part of one to tell
#: how fast the host ran around a study.
REPS = 12


def kernel() -> float:
    # A few thousand small entries, so the kernel never raises the peak
    # RSS the benchmark reports for the program.
    table: dict = {}
    total = 0.0
    for i in range(3_000):
        key = (i * 2654435761) % 1499
        rng = random.Random(f"hop:{key}:{i & 3}")
        hops = table.get(key)
        if hops is None:
            hops = table[key] = []
        hops.append((key, rng.random(), str(i)))
        total += rng.expovariate(1.0) + len(hops)
    return total + len(sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0])))


def reference_seconds(reps: int = REPS) -> float:
    """Wall time per kernel, over ``reps`` kernels run back to back."""
    start = time.perf_counter()
    for _ in range(reps):
        kernel()
    return (time.perf_counter() - start) / reps
