"""The benchmark's workloads and the `verify` job list a seed gives.

A workload cycles through its charts: job i runs chart ``i mod len(charts)``.
Runs stop only at the end of a rotation, so every run holds each chart equally
often and per-point counts repeat exactly from run to run.  The program sees
only the generated argv; the sampling seed of job i is a hash of the workload
name, the benchmark seed and i.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

THREE_GENERATORS = "zero,linear_j,random_poly:3"
SEVEN_GENERATORS = (
    "zero,linear_j,grad,const:0.3,-0.2,0.1,0.5,random_poly:1,random_poly:2,random_poly:3"
)


@dataclass(frozen=True)
class Workload:
    name: str
    charts: tuple[str, ...]
    k: int
    generators: str
    points: int
    scheme_flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Job:
    index: int
    chart: str
    seed: int
    points: int
    argv: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # Jet2 Taylor arithmetic and the n^3 random_poly loop dominate at n = 16.
        Workload("jets-k8", ("fs",), 8, THREE_GENERATORS, 1),
        # Finite-difference sampling dominates; no Jet2 work.  The flat fd4 jobs
        # exit 1 today (fd4 noise-floor defect) and count as failed jobs.
        Workload(
            "fd-k4",
            ("flat", "fs", "hyperbolic"),
            4,
            THREE_GENERATORS,
            1,
            ("--diff", "fd4", "--richardson"),
        ),
        # Cheap jets at n = 4: the identity driver, evaluators and report rows
        # dominate; the non-Kahler chart runs the expected-fail branch.
        Workload(
            "suite-k2",
            ("flat", "fs", "hyperbolic", "conformal-nonkahler"),
            2,
            SEVEN_GENERATORS,
            5,
        ),
    )
}


def job_seed(workload: str, seed: int, index: int) -> int:
    """Sampling seed of one job, below 2**64 as `verify --seed` requires."""
    digest = hashlib.blake2b(f"{workload}/{seed}/{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def job(w: Workload, seed: int, index: int, report: str) -> Job:
    chart = w.charts[index % len(w.charts)]
    s = job_seed(w.name, seed, index)
    argv = (
        "verify",
        "--manifold", chart,
        "--k", str(w.k),
        "--generators", w.generators,
        "--points", str(w.points),
        "--seed", str(s),
        *w.scheme_flags,
        "--report", report,
    )
    return Job(index, chart, s, w.points, argv)


def rotation(w: Workload, seed: int, number: int, report: str) -> list[Job]:
    """The jobs of rotation `number`: one per chart, in chart order."""
    first = number * len(w.charts)
    return [job(w, seed, first + i, report) for i in range(len(w.charts))]
