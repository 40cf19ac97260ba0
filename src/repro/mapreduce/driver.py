"""High-level driver: ``parallel_sum`` in one call (paper §6.2's job).

Wraps block placement (simulated HDFS), executor selection, job choice
and the run into the API a downstream user reaches for::

    from repro.mapreduce import parallel_sum
    total = parallel_sum(values, workers=8)

Returns either the float or, with ``report=True``, a
:class:`~repro.mapreduce.runtime.JobResult` carrying per-phase timings,
shuffle volume and data-plane accounting (dispatch bytes, copies
avoided) — the observables the figure harness plots.

On the ``"process"`` executor the driver defaults to the zero-copy data
plane: input blocks live in shared memory, workers receive ~100-byte
descriptors, the job is installed once per worker, and the pool itself
persists across calls (``reuse_pool=True``) so spin-up is amortized.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.mapreduce.hdfs import BlockStore
from repro.mapreduce.partitioner import Partitioner
import os

from repro.mapreduce.runtime import (
    JobResult,
    MultiprocessExecutor,
    SerialExecutor,
    SimulatedClusterExecutor,
    run_job,
    shared_process_executor,
)
from repro.errors import CertificationError
from repro.kernels import kernel_names
from repro.mapreduce.sum_job import (
    AdaptiveSumJob,
    KernelSumJob,
    NaiveSumJob,
    SmallSuperaccumulatorJob,
    SparseSuperaccumulatorJob,
)
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = ["parallel_sum"]

_JOBS = {
    "adaptive": AdaptiveSumJob,
    "sparse": SparseSuperaccumulatorJob,
    "small": SmallSuperaccumulatorJob,
    "naive": NaiveSumJob,
}

#: Default items per simulated HDFS block for laptop-scale runs. Small
#: enough to give every worker several blocks at bench sizes, large
#: enough that combine dominates scheduling overhead.
DEFAULT_BLOCK_ITEMS = 1 << 17


def _select_executor_kind(executor: str, workers: int) -> str:
    """Resolve ``"auto"`` to a concrete executor kind.

    Process pools pay off only when the host can actually run the
    requested workers concurrently; otherwise the simulated cluster
    (measured per-task costs, modeled concurrency) is the honest
    substitute — see DESIGN.md §2.
    """
    if executor != "auto":
        return executor
    if workers <= 1:
        return "serial"
    if (os.cpu_count() or 1) >= workers:
        return "process"
    return "simulated"


def parallel_sum(
    values,
    *,
    workers: Optional[int] = None,
    method: str = "binned",
    block_items: int = DEFAULT_BLOCK_ITEMS,
    reducers: Optional[int] = None,
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
    partitioner: Optional[Partitioner] = None,
    executor: str = "auto",
    report: bool = False,
    zero_copy: bool = True,
    reuse_pool: bool = True,
    job: Optional[KernelSumJob] = None,
) -> Union[float, JobResult]:
    """Faithfully rounded sum via the single-round MapReduce algorithm.

    Args:
        values: finite float64 array-like.
        workers: worker count; ``None`` or 1 runs serially in-process.
        method: ``"binned"`` (the default: the generic
            :class:`~repro.mapreduce.sum_job.KernelSumJob` over the
            exponent-binned kernel, whose block folds are the fastest
            exact fold), ``"adaptive"`` (certificate-shipping combine
            with an exact fallback on certification failure),
            ``"sparse"`` (the paper's §6.2 job, which the figure
            benchmarks run), ``"small"`` (Neal comparator), ``"naive"``
            (inexact control — for demonstrations only), or any other
            registered kernel name (``repro.kernels.kernel_names()``),
            which also runs the generic kernel job.
        block_items: simulated HDFS block size in items.
        reducers: the ``p`` of §6.1; defaults to the worker count.
        radix: superaccumulator digit configuration.
        mode: final rounding direction.
        partitioner: reducer assignment (default round-robin).
        executor: ``"process"`` (multiprocessing pool), ``"simulated"``
            (serial run with a simulated p-worker makespan clock — for
            single-core hosts or modeling cluster sizes beyond the
            host), ``"serial"``, or ``"auto"`` (process when the host
            has at least ``workers`` cores, simulated otherwise).
        report: return the full :class:`JobResult` instead of the float.
        zero_copy: on the process executor, place blocks in shared
            memory and dispatch descriptors instead of pickled payloads
            (no effect on in-process executors, which already share the
            address space).
        reuse_pool: on the process executor, run on the persistent
            process-wide pool so repeated calls skip pool spin-up; see
            :func:`~repro.mapreduce.runtime.shutdown_shared_executors`.
        job: a pre-built job instance to run instead of constructing
            one from ``method`` — how the reduction engine schedules a
            :class:`~repro.mapreduce.sum_job.KernelReduceJob` whose
            driver-side state (the merged partial) it reads afterwards.
    """
    if job is None and method not in _JOBS and method not in kernel_names():
        raise ValueError(
            f"method must be one of {sorted(set(_JOBS) | set(kernel_names()))}"
        )
    if executor not in ("auto", "process", "simulated", "serial"):
        raise ValueError(f"unknown executor {executor!r}")
    arr = ensure_float64_array(values)
    if method != "naive":
        check_finite_array(arr)

    if job is not None:
        pass
    elif method == "naive":
        job = NaiveSumJob()  # type: ignore[assignment]
    elif method in _JOBS:
        job = _JOBS[method](radix=radix, mode=mode)
    else:
        # Any registered kernel runs through the generic kernel job.
        job = KernelSumJob(radix=radix, mode=mode, kernel_name=method)

    nodes = max(1, workers or 1)
    w = workers or 1
    kind = _select_executor_kind(executor, w)
    p = reducers if reducers is not None else nodes
    use_plane = kind == "process" and w > 1 and zero_copy

    with BlockStore(nodes=nodes, block_items=block_items, shared=use_plane) as store:
        store.put("input", arr)
        if use_plane:
            items = store.block_refs("input")
        else:
            items = [b.data for b in store.blocks("input")]

        def execute(the_job) -> JobResult:
            if kind == "process" and w > 1:
                if reuse_pool:
                    exe = shared_process_executor(w)
                    return run_job(
                        the_job, items, reducers=p, executor=exe,
                        partitioner=partitioner,
                    )
                with MultiprocessExecutor(w) as exe:
                    return run_job(
                        the_job, items, reducers=p, executor=exe,
                        partitioner=partitioner,
                    )
            if kind == "simulated":
                return run_job(
                    the_job,
                    items,
                    reducers=p,
                    executor=SimulatedClusterExecutor(w),
                    partitioner=partitioner,
                )
            return run_job(
                the_job,
                items,
                reducers=p,
                executor=SerialExecutor(),
                partitioner=partitioner,
            )

        try:
            result = execute(job)
        except CertificationError:
            # The adaptive job's global certificate failed: the blocks
            # are still in the store, so transparently redo the run
            # with the fully exact job — a retry, never a wrong bit.
            fallback = SparseSuperaccumulatorJob(radix=radix, mode=mode)
            result = execute(fallback)
            result.tier_counts = {
                "tier0_hits": 0,
                "escalations": result.blocks,
                "tier2_folds": 1,
                "certification_fallback": 1,
            }
    return result if report else result.value
