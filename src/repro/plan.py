"""Backend planner: pick plane x kernel x tier for a summation task.

Every execution plane in this repo — serial, streaming, serving,
MapReduce, external memory, BSP, PRAM — consumes the same
:class:`~repro.kernels.base.SumKernel` protocol, so "where should this
sum run" is a scheduling decision, not an algorithmic one. This module
makes that decision explicit and inspectable:

* :class:`DataDescriptor` says what the input looks like (size, whether
  it is already in memory or sitting in a ``.f64`` dataset file, how
  many workers the caller can spend);
* :func:`plan_sum` turns a descriptor into a :class:`SumPlan` — the
  chosen plane, kernel and tier plus a human-readable reason;
* :meth:`SumPlan.execute` runs the plan and returns the correctly
  rounded float, bit-identical across every choice the planner could
  have made (that is the whole point of the kernel protocol).

:func:`run_plane` is the shared dispatch the planner, the ``repro
plan`` CLI and the cross-plane bit-identity matrix test all use, so a
plane listed in :data:`PLANES` is by construction a plane the planner
can schedule onto and the test suite checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.kernels import get_kernel, kernel_names, kernel_sum

__all__ = [
    "DataDescriptor",
    "SumPlan",
    "KernelCandidate",
    "kernel_candidates",
    "plan_sum",
    "run_plane",
    "PLANES",
    "KERNEL_RATES",
    "OPTIONAL_KERNEL_REQUIREMENTS",
]

#: Default items per block, shared with the MapReduce driver.
DEFAULT_BLOCK_ITEMS = 1 << 17

#: In-memory inputs below this size never leave the serial plane: the
#: cost of standing up workers exceeds folding the data where it lies.
SMALL_INPUT_ITEMS = 1 << 16

#: Measured single-thread bulk-fold rates in Melem/s on the reference
#: host (``benchmarks/bench_native.py`` → ``BENCH_native.json``,
#: ``kernel_rates_melem_per_s``: the median over the largest cells,
#: n = 2**22, of the well, random, anderson and sumzero inputs). The
#: ``adaptive`` median mixes its certified tiers on the first three
#: with its exact escalation on sumzero, 7-10x slower. Only
#: the relative order matters to the planner — it ranks candidate
#: kernels by these and picks the fastest one that is actually
#: available — so a different host changes the margins, not the
#: decisions. ``binned_jit`` is credited slightly above ``binned``
#: because its deposit is the same fold run thread-parallel (it cannot
#: be measured on the reference host, which has no numba — the CI
#: optional-deps job covers it); ``running`` and ``truncated`` are
#: unbenched estimates kept below the measured folds they wrap.
KERNEL_RATES: Dict[str, float] = {
    "binned_jit": 95.0,
    "binned": 94.4,
    "adaptive": 24.8,
    "small": 4.9,
    "dense": 4.7,
    "sparse": 4.4,
    "running": 2.7,
    "truncated": 1.8,
}

#: Kernels that exist only when an optional capability is importable,
#: mapped to the capability name :mod:`repro.util.capabilities` probes.
#: The planner lists them in every candidate table (with the rejection
#: reason when absent) but never selects one that is not registered.
OPTIONAL_KERNEL_REQUIREMENTS: Dict[str, str] = {
    "binned_jit": "numba",
}

#: Kernels whose fast fold needs the vectorized int64 digit paths
#: (``w <= 31``); outside that they degrade to sparse-spill speed, so
#: the planner stops preferring them.
_VECTOR_FOLD_KERNELS = frozenset({"binned", "binned_jit"})


@dataclass(frozen=True)
class KernelCandidate:
    """One row of the planner's kernel table: accepted or rejected, why.

    Attributes:
        name: registry (or optional-backend) kernel name.
        accepted: whether the planner may auto-select this kernel for
            the requested mode/radix. Rejected candidates stay in the
            table so ``repro plan --explain`` shows *why* (missing
            capability, directed-mode certification, digit width).
        reason: one line of rationale.
        rate: measured reference rate in Melem/s (None if unbenched).
    """

    name: str
    accepted: bool
    reason: str
    rate: Optional[float] = None


def kernel_candidates(
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
    op: str = "sum",
) -> List[KernelCandidate]:
    """Rank every kernel (registered or optional) for a reduction task.

    Returns candidates sorted fastest-first by :data:`KERNEL_RATES`;
    the first accepted row is what :func:`plan_sum` picks when the
    caller does not force a kernel. Unavailable backends are present
    but rejected — the capability probe is
    :func:`repro.util.capabilities.has_numba`-cheap, so planning never
    imports an optional dependency.

    ``op`` names a registered reduction (``sum``, ``dot``, ``norm2``,
    ``mean``, ``var``). Ops that finish from the exact accumulated
    fraction (``needs_exact``) reject speculative kernels: a certified
    nearest-rounded *sum* proves nothing about the mean or the square
    root downstream of it.
    """
    from repro.reduce.ops import get_op, kernel_supports

    reduction = get_op(op)
    available = set(kernel_names())
    names = sorted(
        available | set(OPTIONAL_KERNEL_REQUIREMENTS),
        key=lambda n: (-KERNEL_RATES.get(n, 0.0), n),
    )
    out: List[KernelCandidate] = []
    for name in names:
        rate = KERNEL_RATES.get(name)
        if name not in available:
            capability = OPTIONAL_KERNEL_REQUIREMENTS[name]
            out.append(
                KernelCandidate(
                    name,
                    False,
                    f"requires {capability}, which is not installed "
                    f"(pip install 'repro[native]')",
                    rate,
                )
            )
            continue
        k = get_kernel(name, radix=radix)
        if not kernel_supports(reduction, k):
            out.append(
                KernelCandidate(
                    name,
                    False,
                    f"op {op!r} finishes from the exact fraction, which "
                    f"a speculative kernel does not keep; use an exact "
                    f"accumulator",
                    rate,
                )
            )
            continue
        if not k.exact and mode != "nearest":
            out.append(
                KernelCandidate(
                    name,
                    False,
                    f"speculative certificates prove nearest rounding only; "
                    f"mode={mode!r} needs an exact kernel",
                    rate,
                )
            )
            continue
        if name in _VECTOR_FOLD_KERNELS and not radix.supports_vectorized:
            out.append(
                KernelCandidate(
                    name,
                    False,
                    f"w={radix.w} exceeds the vectorized bin-fold limit "
                    f"(31); the fold would degrade to sparse-spill speed",
                    rate,
                )
            )
            continue
        if not k.exact:
            reason = (
                "certified fast paths with exact escalation — fastest "
                "when the input's condition admits a certificate"
            )
        else:
            reason = "exact fold"
        if rate is not None:
            reason += f"; ~{rate:g} Melem/s measured on the reference host"
        out.append(KernelCandidate(name, True, reason, rate))
    return out


# ---------------------------------------------------------------------------
# plane runners


def _chunks(arr: np.ndarray, block_items: int):
    if arr.size == 0:
        yield arr
        return
    for start in range(0, arr.size, block_items):
        yield arr[start : start + block_items]


def _run_serial(kernel_name, values, *, radix, mode, workers, block_items):
    kernel = get_kernel(kernel_name, radix=radix)
    return kernel_sum(kernel, _chunks(values, block_items), mode=mode)


def _run_streaming(kernel_name, values, *, radix, mode, workers, block_items):
    kernel = get_kernel(kernel_name, radix=radix)
    stream = kernel.new_stream()
    for chunk in _chunks(values, block_items):
        kernel.fold_into(stream, chunk)
    return stream.value(mode)


def _run_serve(kernel_name, values, *, radix, mode, workers, block_items):
    import asyncio

    from repro.serve import InProcessClient, ReproService, ServeConfig

    async def run() -> float:
        config = ServeConfig(shards=max(1, workers), kernel=kernel_name)
        async with ReproService(config, radix=radix) as service:
            client = InProcessClient(service)
            for chunk in _chunks(values, block_items):
                await client.add_array("plan", chunk)
            return await client.value("plan", mode=mode)

    return asyncio.run(run())


def _run_cluster(kernel_name, values, *, radix, mode, workers, block_items):
    import asyncio

    from repro.cluster import LocalCluster

    async def run() -> float:
        async with LocalCluster(
            nodes=max(2, workers), kernel=kernel_name, radix=radix, shards=1
        ) as lc:
            for chunk in _chunks(values, block_items):
                await lc.coordinator.scatter("plan", chunk, chunk=block_items)
            result = await lc.coordinator.gather_value("plan", mode=mode)
            return result["value"]

    return asyncio.run(run())


def _run_mapreduce(kernel_name, values, *, radix, mode, workers, block_items):
    from repro.mapreduce import parallel_sum

    return parallel_sum(
        values,
        workers=workers,
        method=kernel_name,
        block_items=block_items,
        radix=radix,
        mode=mode,
    )


def _run_extmem(kernel_name, values, *, radix, mode, workers, block_items):
    from repro.extmem import BlockDevice, ExtArray, extmem_sum_scan

    block = max(8, min(block_items, 1 << 12))
    device = BlockDevice(block_size=block, memory=block * 64)
    source = ExtArray.from_numpy(device, "plan-input", values)
    result = extmem_sum_scan(
        device, source, radix=radix, mode=mode,
        kernel=get_kernel(kernel_name, radix=radix),
    )
    return result.value


def _run_bsp(kernel_name, values, *, radix, mode, workers, block_items):
    from repro.bsp import exact_allreduce_sum

    ranks = max(2, workers)
    result = exact_allreduce_sum(
        np.array_split(np.asarray(values, dtype=np.float64), ranks),
        radix=radix, mode=mode, kernel=get_kernel(kernel_name, radix=radix),
    )
    return result.values[0]


def _run_pram(kernel_name, values, *, radix, mode, workers, block_items):
    from repro.pram import pram_exact_sum

    result = pram_exact_sum(
        values, radix=radix, mode=mode,
        kernel=get_kernel(kernel_name, radix=radix),
    )
    return result.value


#: Every schedulable plane, by name. The bit-identity matrix test walks
#: this mapping, so adding a plane here enrolls it in the invariant.
PLANES = {
    "serial": _run_serial,
    "streaming": _run_streaming,
    "serve": _run_serve,
    "cluster": _run_cluster,
    "mapreduce": _run_mapreduce,
    "extmem": _run_extmem,
    "bsp": _run_bsp,
    "pram": _run_pram,
}


def run_plane(
    plane: str,
    kernel_name: str,
    values,
    *,
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
    workers: int = 1,
    block_items: int = DEFAULT_BLOCK_ITEMS,
) -> float:
    """Sum ``values`` on one named plane with one named kernel.

    The uniform entry point behind :meth:`SumPlan.execute`; every plane
    returns the same bits for the same input, whatever the kernel.
    """
    if plane not in PLANES:
        raise ValueError(f"unknown plane {plane!r}; expected one of {sorted(PLANES)}")
    if kernel_name not in kernel_names():
        raise ValueError(
            f"unknown kernel {kernel_name!r}; expected one of {list(kernel_names())}"
        )
    arr = np.asarray(values, dtype=np.float64)
    return PLANES[plane](
        kernel_name, arr, radix=radix, mode=mode,
        workers=workers, block_items=block_items,
    )


# ---------------------------------------------------------------------------
# descriptors and plans


@dataclass
class DataDescriptor:
    """What the planner knows about the input.

    Attributes:
        n: element count (0 allowed).
        layout: ``"memory"`` (an array the caller holds) or ``"file"``
            (a ``.f64`` dataset on disk, summed without loading it all).
        workers: workers the caller is willing to spend (>= 1).
        path: dataset path when ``layout == "file"``.
        values: the array when ``layout == "memory"`` and the caller
            provided one (optional — plans can also be made from sizes
            alone and fed data at execute time).
        op: registered reduction the caller wants (``"sum"`` by
            default). Non-sum ops constrain kernel choice — see
            :func:`kernel_candidates`.
    """

    n: int
    layout: str = "memory"
    workers: int = 1
    path: Optional[str] = None
    values: Optional[np.ndarray] = field(default=None, repr=False)
    op: str = "sum"
    #: second input array for arity-2 ops (``dot``).
    values2: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.layout not in ("memory", "file"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.layout == "file" and not self.path:
            raise ValueError("file layout needs a path")
        from repro.reduce.ops import op_names

        if self.op not in op_names():
            raise ValueError(
                f"unknown op {self.op!r}; expected one of {op_names()}"
            )

    @classmethod
    def describe_array(
        cls, values, workers: int = 1, *, op: str = "sum", values2=None
    ) -> "DataDescriptor":
        arr = np.asarray(values, dtype=np.float64)
        arr2 = None if values2 is None else np.asarray(values2, dtype=np.float64)
        return cls(
            n=int(arr.size),
            layout="memory",
            workers=workers,
            values=arr,
            op=op,
            values2=arr2,
        )

    @classmethod
    def describe_file(
        cls, path: Union[str, Path], workers: int = 1
    ) -> "DataDescriptor":
        from repro.data import dataset_len

        return cls(
            n=dataset_len(path), layout="file", workers=workers, path=str(path)
        )


@dataclass
class SumPlan:
    """An executable decision: plane x kernel x tier (+ why).

    Attributes:
        plane: key into :data:`PLANES`.
        kernel: registered kernel name.
        tier: ``"speculative"`` (certified fast path, exact escalation
            on a failed proof) or ``"exact"`` (superaccumulator all the
            way down).
        workers: workers the plan will use.
        block_items: fold granularity.
        reason: one line of planner rationale, shown by ``repro plan``.
    """

    plane: str
    kernel: str
    tier: str
    workers: int
    block_items: int
    reason: str
    descriptor: DataDescriptor
    mode: str = "nearest"
    radix: RadixConfig = DEFAULT_RADIX
    #: Full kernel table the decision was made from (``--explain``).
    candidates: List[KernelCandidate] = field(default_factory=list, repr=False)

    def describe(self) -> Dict[str, Any]:
        """Flat summary for printing / JSON."""
        return {
            "plane": self.plane,
            "kernel": self.kernel,
            "op": self.descriptor.op,
            "tier": self.tier,
            "workers": self.workers,
            "block_items": self.block_items,
            "n": self.descriptor.n,
            "layout": self.descriptor.layout,
            "reason": self.reason,
        }

    def execute(
        self, values=None, values2=None, *, mode: Optional[str] = None
    ) -> float:
        """Run the plan; returns the correctly rounded reduction.

        Args:
            values: in-memory data, when the descriptor was built from
                sizes alone. File-layout plans read their dataset.
            values2: second input for arity-2 ops (``dot``).
            mode: overrides the plan's rounding mode.
        """
        if values is None:
            if self.descriptor.layout == "file":
                from repro.data import map_dataset

                values = map_dataset(self.descriptor.path)
            elif self.descriptor.values is not None:
                values = self.descriptor.values
            else:
                raise ValueError("plan has no data; pass values=")
        if values2 is None:
            values2 = self.descriptor.values2
        if self.descriptor.op != "sum":
            from repro.reduce.engine import run_reduction

            return run_reduction(
                self.plane,
                self.kernel,
                self.descriptor.op,
                values,
                values2,
                radix=self.radix,
                mode=mode if mode is not None else self.mode,
                workers=self.workers,
                block_items=self.block_items,
            )
        return run_plane(
            self.plane,
            self.kernel,
            values,
            radix=self.radix,
            mode=mode if mode is not None else self.mode,
            workers=self.workers,
            block_items=self.block_items,
        )


def plan_sum(
    descriptor: DataDescriptor,
    *,
    kernel: Optional[str] = None,
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
    block_items: int = DEFAULT_BLOCK_ITEMS,
) -> SumPlan:
    """Choose a plane, kernel and tier for a summation task.

    Heuristics (each encoded in the returned plan's ``reason``):

    * small in-memory inputs stay serial — worker spin-up costs more
      than folding the data in place;
    * multi-worker requests go to the MapReduce plane when the host has
      the cores (the driver itself falls back to its simulated executor
      otherwise);
    * file-backed data with one worker streams: one pass over the
      mapped dataset, O(1) memory;
    * the kernel is the fastest *available* candidate from
      :func:`kernel_candidates` by measured rate — the binned exponent
      fold on the reference host, in every rounding mode; optional
      backends like ``binned_jit`` are selected only when their
      capability is installed, never by assumption.
    """
    from repro.reduce.ops import get_op, kernel_supports

    op = descriptor.op
    reduction = get_op(op)
    candidates = kernel_candidates(mode=mode, radix=radix, op=op)
    if kernel is None:
        kernel = next(c.name for c in candidates if c.accepted)
    elif kernel not in kernel_names():
        if kernel in OPTIONAL_KERNEL_REQUIREMENTS:
            capability = OPTIONAL_KERNEL_REQUIREMENTS[kernel]
            raise ValueError(
                f"kernel {kernel!r} requires {capability}, which is not "
                f"installed; install the [native] extra or pick one of "
                f"{list(kernel_names())}"
            )
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {list(kernel_names())}"
        )
    k = get_kernel(kernel, radix=radix)
    if not kernel_supports(reduction, k):
        raise ValueError(
            f"kernel {kernel!r} cannot host op {op!r}: the op finishes "
            f"from the exact fraction, which a speculative kernel does "
            f"not keep"
        )
    tier = "speculative" if (not k.exact and mode == "nearest") else "exact"
    if not k.exact and mode != "nearest":
        # Directed rounding cannot ride a certificate; the plan runs
        # the kernel's exact variant implicitly (every plane swaps it
        # in), so report the truth.
        tier = "exact"

    n = descriptor.n
    workers = descriptor.workers
    cpus = os.cpu_count() or 1

    if descriptor.layout == "file":
        if workers > 1:
            plane = "mapreduce"
            reason = (
                f"file dataset (n={n:,}) with {workers} workers: map the "
                f"file and fan blocks out to the MapReduce plane"
            )
        else:
            plane = "streaming"
            reason = (
                f"file dataset (n={n:,}), single worker: one streaming "
                f"pass over the mapped data, O(1) memory"
            )
    elif workers > 1 and n >= 2 * block_items:
        plane = "mapreduce"
        exec_note = "process pool" if cpus >= workers else "simulated cluster"
        reason = (
            f"in-memory n={n:,} across {workers} workers ({exec_note}): "
            f"block folds dominate scheduling at this size"
        )
    elif workers > 1:
        plane = "serial"
        workers = 1
        reason = (
            f"in-memory n={n:,} is below {2 * block_items:,} items: "
            f"worker spin-up would cost more than the fold; running serially"
        )
    else:
        plane = "serial"
        reason = f"in-memory n={n:,}, single worker: fold in place"

    return SumPlan(
        plane=plane,
        kernel=kernel,
        tier=tier,
        workers=workers,
        block_items=block_items,
        reason=reason,
        descriptor=descriptor,
        mode=mode,
        radix=radix,
        candidates=candidates,
    )
