"""Workload definitions: which scenario each job runs, and on which problems.

Every job is one `volterra-lq run` of a generated config file with
beta = 0.75, T = 1 and a uniform grid.  The benchmark seed fixes each
workload's pool of catalog problem seeds and the order in which jobs walk
through it; the program only ever sees the generated config files.
Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["Workload", "WORKLOADS", "problem_pool", "job_order", "config_text"]


def _is_control_check(name: str) -> bool:
    return name.startswith("control:")


def _is_substitution_check(name: str) -> bool:
    # The reduction's `control:` check compares the projected gain, whose error
    # is a Galerkin approximation error (1e-15 to 1e-7 across catalog seeds),
    # not round-off; its check tolerance still gates every job.
    return name.startswith("optimal controls")


def _is_resolvent_identity(name: str) -> bool:
    return name.startswith("resolvent:") and name.endswith("identity residual")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    family: str  # catalog problem name, seeded per job
    n: int
    tiny_n: int  # grid size used by the benchmark's own smoke tests
    pool: int  # distinct problem seeds per run
    oracle_check: object  # predicate on report check names: oracle comparisons
    extra: dict = field(default_factory=dict)
    # True: one cache, filled in set-up, that every timed job must hit;
    # False: an empty cache directory per job
    warm: bool = False
    # True: the set-up's warm-up job runs at tiny_n, so set-up stays short;
    # the run's repeated config then comes from the timed loop cycling the pool
    small_warmup: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lq-direct",
            scenario="equivalence",
            family="random-smooth",
            n=128,
            tiny_n=24,
            pool=4,
            oracle_check=_is_control_check,
            extra={"m_solver": "direct"},
            small_warmup=True,
        ),
        Workload(
            name="lq-projected-cross",
            scenario="reduction",
            family="cross-term",
            n=128,
            tiny_n=24,
            pool=4,
            oracle_check=_is_substitution_check,
            extra={"m_solver": "superconvergent", "galerkin_dim": 16, "iterations": 2},
            small_warmup=True,
        ),
        Workload(
            name="kernel-cold",
            scenario="convergence",
            family="random-smooth",
            n=65,
            tiny_n=17,
            pool=32,
            oracle_check=_is_resolvent_identity,
        ),
        Workload(
            name="kernel-warm",
            scenario="convergence",
            family="random-smooth",
            n=65,
            tiny_n=17,
            pool=4,
            oracle_check=_is_resolvent_identity,
            warm=True,
        ),
    )
}


def problem_pool(workload: Workload, seed: int) -> list:
    """Catalog problem seeds of one run.

    Workloads on the same catalog family and scenario draw from the same
    stream, so kernel-warm's pool is the head of kernel-cold's pool.
    """
    rng = random.Random(f"volterra-lq-bench:{workload.family}:{workload.scenario}:{seed}")
    seeds = []
    while len(seeds) < workload.pool:
        s = rng.randrange(1, 1_000_000)
        if s not in seeds:
            seeds.append(s)
    return seeds


def job_order(workload: Workload, seed: int) -> list:
    """The pool in the order jobs visit it (cycled when a run outlasts it)."""
    order = problem_pool(workload, seed)
    random.Random(f"volterra-lq-bench-order:{workload.name}:{seed}").shuffle(order)
    return order


def config_text(workload: Workload, problem_seed: int, n: int, outdir, cache_dir) -> str:
    lines = [
        f"problem = {workload.family}({problem_seed})",
        f"scenario = {workload.scenario}",
        "beta = 0.75",
        "T = 1.0",
        f"n = {n}",
        "grid = uniform",
    ]
    lines += [f"{k} = {v}" for k, v in workload.extra.items()]
    lines += [f"outdir = {outdir}", f"cache_dir = {cache_dir}"]
    return "\n".join(lines) + "\n"
