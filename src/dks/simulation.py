# simulation.py
# Seeded Monte Carlo engine: draw samples from a known p.m.f., select a
# bandwidth per replicate, estimate, and score against the truth.
#
# Reproducibility contract: each (sample size, replicate index) pair gets
# its own counter-based Philox stream derived from the study seed, so
# replicates are order-independent, parallel-safe, and every kernel sees
# the same sample at a given (n, replicate).

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from multiprocessing.util import Finalize

import numpy as np

from .estimation import (
    PmfEstimate,
    Sample,
    SearchConfig,
    default_eval_hi,
    default_search_config,
    kernel_estimate_raw,
    normalize_estimate,
    select_bandwidths,
)
from .kernels import KernelFamily, KernelSpec
from .risk import TruePmf

__all__ = [
    "SimulationConfig",
    "ReplicateResult",
    "StudyCell",
    "StudyReport",
    "replicate_stream",
    "sample_from_pmf",
    "ise",
    "run_replicate",
    "run_study",
]


@dataclass
class SimulationConfig:
    """Study protocol: truth, sizes, replicate count, kernels, seed.

    ``search`` of None means each kernel uses its family default domain;
    a mapping from family to SearchConfig overrides per family.
    ``normalize`` controls whether replicate estimates are rescaled to unit
    mass before scoring.
    """

    true_pmf: TruePmf
    sample_sizes: tuple[int, ...]
    replicates: int
    kernels: tuple[KernelSpec, ...]
    seed: int
    search: dict[KernelFamily, SearchConfig] | None = None
    normalize: bool = True

    def __post_init__(self):
        self.sample_sizes = tuple(int(n) for n in self.sample_sizes)
        self.kernels = tuple(self.kernels)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if any(n < 2 for n in self.sample_sizes):
            raise ValueError("sample sizes must be >= 2")

    def search_for(self, kernel: KernelSpec) -> SearchConfig:
        if self.search and kernel.family in self.search:
            return self.search[kernel.family]
        return default_search_config(kernel.family)


@dataclass
class ReplicateResult:
    h_cv: float
    ise: float
    estimate: PmfEstimate


@dataclass
class StudyCell:
    """Aggregates for one (kernel, sample size) pair."""

    kernel: str
    n: int
    mean_mise: float
    ibias: float
    ivar: float
    h_mean: float
    h_sd: float
    h_values: list[float] = field(default_factory=list)


@dataclass
class StudyReport:
    truth: str
    replicates: int
    seed: int
    normalize: bool
    cells: list[StudyCell] = field(default_factory=list)

    def cell(self, kernel_label: str, n: int) -> StudyCell:
        for c in self.cells:
            if c.kernel == kernel_label and c.n == n:
                return c
        raise KeyError(f"no cell for ({kernel_label!r}, {n})")


def replicate_stream(seed: int, n: int, replicate_index: int) -> np.random.Generator:
    """Independent Philox stream for one (sample size, replicate) pair."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(n, replicate_index))
    return np.random.Generator(np.random.Philox(ss))


def sample_from_pmf(f: TruePmf, n: int, rng: np.random.Generator) -> Sample:
    """Draw n observations by inversion: for each uniform u, the smallest x
    with CDF(x) >= u."""
    if n < 1:
        raise ValueError("n must be >= 1")
    hi = f.tail_cutoff(1e-15)
    cdf = np.cumsum(f.pmf(np.arange(0, hi + 1)))
    u = rng.random(n)
    draws = np.minimum(np.searchsorted(cdf, u, side="left"), hi)
    return Sample.from_values(draws)


def ise(estimate: PmfEstimate, reference) -> float:
    """Integrated squared error against a PmfEstimate or a TruePmf.

    Both sides are extended (by zeros, or by the reference tail) to the
    union of their ranges.
    """
    if isinstance(reference, TruePmf):
        lo = min(estimate.eval_lo, 0)
        hi = max(estimate.eval_hi, reference.tail_cutoff(1e-12))
        xs = np.arange(lo, hi + 1)
        ref_vals = reference.pmf(xs)
    elif isinstance(reference, PmfEstimate):
        lo = min(estimate.eval_lo, reference.eval_lo)
        hi = max(estimate.eval_hi, reference.eval_hi)
        ref_vals = np.zeros(hi - lo + 1)
        ref_vals[reference.eval_lo - lo : reference.eval_hi - lo + 1] = reference.values
    else:
        raise TypeError(f"unsupported reference type: {type(reference)!r}")
    est_vals = np.zeros(hi - lo + 1)
    est_vals[estimate.eval_lo - lo : estimate.eval_hi - lo + 1] = estimate.values
    diff = est_vals - ref_vals
    return float(np.dot(diff, diff))


def run_replicate(config: SimulationConfig, kernel: KernelSpec, n: int, replicate_index: int) -> ReplicateResult:
    """One draw-select-estimate-score cycle.

    The sample depends only on (seed, n, replicate_index), never on the
    kernel, so results are paired across kernels.
    """
    return _run_replicates(config, kernel, n, [replicate_index])[0]


def _run_replicates(config: SimulationConfig, kernel: KernelSpec, n: int, indices) -> list[ReplicateResult]:
    # run_replicate at each replicate index, with the bandwidths of all of
    # them selected in lockstep, batch by batch; each result equals the one
    # run alone
    samples = [sample_from_pmf(config.true_pmf, n, replicate_stream(config.seed, n, r)) for r in indices]
    if kernel.family is KernelFamily.DIRAC:
        hs = [0.0] * len(samples)
    else:
        hs = [sel.h_cv for sel in select_bandwidths(samples, kernel, config.search_for(kernel))]
    results = []
    for sample, h in zip(samples, hs):
        est = kernel_estimate_raw(sample, kernel, h, 0, default_eval_hi(sample))
        if config.normalize:
            est = normalize_estimate(est)
        results.append(ReplicateResult(h, ise(est, config.true_pmf), est))
    return results


def _workers_from_env() -> int:
    """Worker processes for run_study: DKS_THREADS, an integer in
    [1, cpu count], default 1."""
    raw = os.environ.get("DKS_THREADS", "1")
    cpus = os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"DKS_THREADS must be an integer, got {raw!r}") from None
    if not 1 <= workers <= cpus:
        raise ValueError(f"DKS_THREADS must be between 1 and the CPU count {cpus}, got {workers}")
    return workers


# The one study pool of this process, as (worker count, pool, exit
# finalizer), and the lock that a pooled study holds while it uses it.  A
# fresh pool's start and its workers' copy-on-write faults weigh heavily on a
# small study, so the workers are kept, idle, between studies;
# concurrent.futures' exit hook joins them when the interpreter exits.  A
# process that multiprocessing started joins its children before that hook
# runs, but after its finalizers, so the pool's finalizer drops it there.
_pool: tuple[int, ProcessPoolExecutor, Finalize] | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # A forked child owns neither its parent's pool (the workers and the
    # threads that feed them stay with the parent) nor a lock that another
    # thread held at the fork, so it starts without both.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


@contextmanager
def _study_pool(workers: int):
    # The cached pool, unless it has another worker count or a worker has
    # exited, which its sentinel shows at once (a pool with a dead worker
    # fails every task it is given); then a new one.  A study that fails
    # drops the pool, so that none of its queued tasks runs into the next
    # study.
    global _pool
    with _pool_lock:
        if _pool is not None:
            count, pool, _ = _pool
            if count != workers or wait([p.sentinel for p in pool._processes.values()], timeout=0):
                _drop_pool()
        if _pool is None:
            _pool = (workers, ProcessPoolExecutor(max_workers=workers), Finalize(None, _drop_pool, exitpriority=0))
        try:
            yield _pool[1]
        except BaseException:
            _drop_pool()
            raise


def _drop_pool() -> None:
    # Shut the cached pool down, its workers killed first: no study is using
    # it, or the one that was has failed.  A graceful shutdown could wait
    # forever, on workers that wait for the task queue's lock that a killed
    # worker held.
    global _pool
    if _pool is not None:
        _, pool, at_exit = _pool
        _pool = None
        at_exit.cancel()
        for p in pool._processes.values():
            p.kill()
        pool.shutdown(cancel_futures=True)


def run_study(config: SimulationConfig) -> StudyReport:
    """Run the full kernels-by-sizes-by-replicates grid.

    Per cell: mean of the replicate ISEs, the pointwise-mean bias/variance
    decomposition of those estimates, and the bandwidth statistics.
    Replicates may execute in parallel (DKS_THREADS), in the process's one
    pool: it is started by the first pooled study, reused by every later
    one with the same worker count, and replaced when the count changes or
    a worker has died.  Its idle workers are kept until the interpreter
    exits; a forked child starts a pool of its own.  A study that fails
    shuts the pool down, so none of its queued tasks runs into the next
    study, and pooled studies in several threads take the pool in turn.
    Aggregation is a deterministic reduction in replicate order either way.
    """
    workers = _workers_from_env()
    report = StudyReport(
        truth=config.true_pmf.label(),
        replicates=config.replicates,
        seed=config.seed,
        normalize=config.normalize,
    )
    truth_hi = config.true_pmf.tail_cutoff(1e-12)
    cells = [(kernel, n) for kernel in config.kernels for n in config.sample_sizes]
    R = config.replicates
    # About workers * 4 tasks for the whole study, and never more than one cell per task;
    # serially, one run per cell.  Each run's replicates select their bandwidths in lockstep.
    chunk = min(R, max(1, len(cells) * R // (workers * 4))) if workers > 1 else R
    runs = [range(start, min(start + chunk, R)) for start in range(0, R, chunk)]
    with _study_pool(workers) if workers > 1 else nullcontext() as pool:
        # Every cell's runs are queued up front, so the workers go on to the next cell while
        # this process aggregates the previous one.  Both maps yield runs in replicate order.
        pending = []
        for kernel, n in cells:
            jobs = ([config] * len(runs), [kernel] * len(runs), [n] * len(runs), runs)
            pending.append(pool.map(_run_replicates, *jobs) if pool else map(_run_replicates, *jobs))
        for (kernel, n), cell_runs in zip(cells, pending):
            results = [result for run in cell_runs for result in run]
            hs = np.array([r.h_cv for r in results])
            ises = np.array([r.ise for r in results])
            width = max(max(len(r.estimate.values) for r in results), truth_hi + 1)
            total = np.zeros(width)
            total_sq = np.zeros(width)
            for r in results:
                vals = r.estimate.values
                total[: len(vals)] += vals
                total_sq[: len(vals)] += vals * vals
            mean_vals = total / R
            xs = np.arange(0, width)
            fx = config.true_pmf.pmf(xs)
            ibias = float(np.sum((mean_vals - fx) ** 2))
            ivar = float(np.sum(total_sq / R - mean_vals**2))
            report.cells.append(
                StudyCell(
                    kernel=kernel.label,
                    n=n,
                    mean_mise=float(np.mean(ises)),
                    ibias=ibias,
                    ivar=max(ivar, 0.0),
                    h_mean=float(np.mean(hs)),
                    h_sd=float(np.std(hs, ddof=1)) if R > 1 else 0.0,
                    h_values=[float(h) for h in hs],
                )
            )
    return report
