"""Measurement helpers: percentiles, CPU and memory, the machine stanza."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time

__all__ = [
    "cpu_scaling",
    "cpu_seconds",
    "machine_stanza",
    "peak_rss_mb",
    "percentiles",
    "proc_cpu_seconds",
    "quiesce_pool",
    "reset_peak_rss",
    "stop_helpers",
]


#: Percentiles :func:`percentiles` considers.
QUANTILES = (0.5, 0.9, 0.99)
#: The CPU-scaling probe: loop iterations per process, and rounds.
SPIN_ITERS = 2_000_000
SPIN_ROUNDS = 3


def percentiles(samples) -> dict[str, float]:
    """Nearest-rank percentiles, keeping only those with at least ten
    samples above them: p50 needs 20 samples, p90 100, p99 1000."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {}
    for q in QUANTILES:
        rank = math.ceil(q * n)
        if n and n - rank >= 10:
            out[f"p{round(q * 100)}"] = ordered[rank - 1]
    return out


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def proc_cpu_seconds(pid: int) -> float:
    """User plus system time of a live child process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def reset_peak_rss(pid: int | str = "self") -> None:
    """Restart a live process's resident-set high-water mark (``VmHWM``)
    from its current resident set, so a later peak leaves set-up out."""
    with open(f"/proc/{pid}/clear_refs", "w") as fh:
        fh.write("5")


def _vm_hwm_kb(pid: int | str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def peak_rss_mb(*pids: int) -> float:
    """The largest resident set since the last :func:`reset_peak_rss`
    of this process and of the live ``pids``, or of any child reaped
    so far (pool workers reach it through the reaped forkserver)."""
    peak_kb = max(_vm_hwm_kb(pid) for pid in ("self", *pids))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(peak_kb, children_kb) / 1024.0


def quiesce_pool() -> None:
    """Stop the parked worker pool and the forkserver, and reap both.

    Pool workers are children of the forkserver, so their CPU time
    reaches ``RUSAGE_CHILDREN`` only once the workers have been reaped
    by the forkserver and the forkserver by this process.  The next
    parallel run starts a fresh forkserver, as a new ``repro`` process
    would.
    """
    import multiprocessing.forkserver as forkserver

    from repro.exec import pool as exec_pool

    parked = exec_pool.warm_pool_stats()
    if parked["parked"]:
        exec_pool.acquire_pool(parked["workers"]).shutdown(wait=True)
    stop = getattr(forkserver._forkserver, "_stop", None)
    if stop is not None:
        stop()


def stop_helpers() -> None:
    """Stop every helper process multiprocessing started for this run
    (pool, forkserver, resource tracker) and wait for each to end."""
    from multiprocessing import resource_tracker

    quiesce_pool()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _spin(iters: int) -> int:
    acc = 0
    for i in range(iters):
        acc += i * i
    return acc


def _spin_wall(procs: int, iters: int) -> float:
    start = time.perf_counter()
    pids = []
    for _ in range(procs):
        pid = os.fork()
        if pid == 0:
            _spin(iters)
            os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    return time.perf_counter() - start


def cpu_scaling() -> float:
    """Measured speedup of a pure-CPU loop from one process to two."""
    ratios = []
    for _ in range(SPIN_ROUNDS):
        one = _spin_wall(1, SPIN_ITERS)
        two = _spin_wall(2, SPIN_ITERS)
        ratios.append(2 * one / two)
    return statistics.median(ratios)


def machine_stanza() -> dict:
    """Where the run happened: CPUs, affinity, versions, CPU scaling."""
    import numpy

    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "machine.cpu_scaling": cpu_scaling(),
    }
