"""An order-keeping map for the plane-branch sweeps, serial or on a fork pool.

``roundtrip`` and ``conjecture-sweep`` map one small check over thousands of
generator chains.  ``sweep`` runs it on every usable CPU once the list is long
enough to pay for the workers, and in this process otherwise; both routes
return the same list.  No flag or environment variable chooses the route.
"""
from __future__ import annotations

import os
import threading

# A sweep splits across worker processes once every worker gets at least this
# many items.  Serial against a 2-worker fork pool, min of 7 (shared 2-core
# VM, Python 3.11).  roundtrip, about 200 us an item, min of 7 over two runs:
# 43 semigroups (c <= 30) 3.6-4.0 vs 15-19 ms, 294 (c <= 80) 30-33 vs 31-43 ms,
# 380 (c <= 90) 43-47 vs 36-46 ms, 483 (c <= 100) 61-65 vs 52-60 ms, 615
# (c <= 110) 83 vs 66-72 ms, 2778 (c <= 200) 543-544 vs 343-360 ms: break-even
# near 150-240 per worker.  conjecture-sweep, about 100 us an item and one
# int back, min of 7 or 15 over three runs: 294 (c <= 80) 12 vs 28-29 ms, 380
# (c <= 90) 18-25 vs 23-34 ms, 483 23-37 vs 25-40 ms, 615 (c <= 110) 33-44 vs
# 30-43 ms, 757 (c <= 120) 48-63 vs 44-49 ms, 2778 286 vs 211 ms: break-even
# between 483 and 615, 240-310 per worker.  One threshold serves both: at 200
# a conjecture sweep of 400-599 semigroups pools at a loss of a few ms, where
# 250 would keep roundtrips of 400-499 serial at a loss of up to 13 ms.
MIN_PER_WORKER = 200


def sweep(fn, items: list) -> list:
    """``fn`` over items, in order: on every usable CPU when the list is long
    enough to pay for the workers and this process can fork, else serially.

    Workers are forked, so ``fn`` and whatever it reads are those of this
    process at the call; only the items go out and only the results come
    back, so both should be small.  A worker that dies raises
    ``BrokenProcessPool``; an exception in ``fn`` reaches the caller with its
    type.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(items) // MIN_PER_WORKER)
    # a forked child gets no copy of another thread, nor a lock it held
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return list(map(fn, items))
    # imported here: about 20 ms, a quarter of importing the CLI itself
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the conductor grows along the list, so small chunks keep workers even
    chunk = max(1, len(items) // (8 * workers))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
