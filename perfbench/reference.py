"""A fixed slice of work, timed between jobs, that tracks the host's speed.

The benchmark runs on small guests of shared hosts, where the same job's wall
time drifts by up to 1.5x over minutes while its CPU time drifts with it.
The end-to-end times are therefore reported in *reference seconds*: each
measured time is scaled by ``NOMINAL_S / t_ref``, where ``t_ref`` is the time
of this slice measured next to it.  The slice is the kind of work a `verify`
job does — interpreted float arithmetic and dict traffic, and many small
numpy products — and it is the benchmark's own code, so no change to
qsc_lab can make it faster or slower.
"""

from __future__ import annotations

import time

import numpy as np

# `work()` takes 0.020-0.032 s on a 2-vCPU Sapphire Rapids KVM guest
# (Python 3.11, numpy 2.4, one BLAS thread).  Only the ratio matters; this
# constant keeps reported figures close to plain seconds.
NOMINAL_S = 0.025

_A = np.random.default_rng(0).standard_normal((4, 4)) * 0.25


def work() -> float:
    total = 0.0
    table: dict[int, float] = {}
    for i in range(60_000):
        x = i * 0.5
        total += x * x - total * 1e-9
        table[i & 255] = total
    b = _A
    for _ in range(4_000):
        b = np.einsum("ij,jk->ik", _A, b) + _A
    return total + float(b.sum())


def seconds() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference timings into
    reference seconds."""
    return NOMINAL_S / (0.5 * (before + after))
