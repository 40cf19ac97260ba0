"""Reduction engine: any op x any capable kernel x any execution plane.

:func:`run_reduction` is the reduction analogue of
:func:`repro.plan.run_plane` — one uniform entry point the CLI, the
planner and the cross-plane bit-identity matrix test all share. The
flow is the tentpole contract of this layer:

1. the op validates its inputs and polices the error-free expansion
   domain (:class:`~repro.errors.ReductionRangeError` outside it);
2. the op expands inputs into term streams
   (:meth:`~repro.reduce.ops.ReduceOp.expand`);
3. the chosen plane folds every term through the chosen kernel's
   existing exact machinery (for the serve/cluster planes the *raw*
   inputs ship on op-tagged wire frames and the expansion happens
   server-side, so the WAL and the shards see the same deterministic
   terms);
4. the op finishes — identity for rounded-sum ops, exact rational
   algebra plus one rounding for exact-fraction ops.

The result is bit-identical across every plane and every capable
kernel, because exact folds are order-independent and certified fast
paths prove the same correctly rounded sum the exact folds compute.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.kernels import get_kernel, kernel_names, kernel_sum
from repro.kernels.binned import DEPOSIT_CHUNK
from repro.reduce.ops import ReduceOp, get_op, kernel_supports

__all__ = ["run_reduction", "REDUCE_PLANES"]

#: Default fold granularity, shared with :mod:`repro.plan`.
DEFAULT_BLOCK_ITEMS = 1 << 17


def _chunks(arr: np.ndarray, block_items: int) -> Iterator[np.ndarray]:
    if arr.size == 0:
        yield arr
        return
    for start in range(0, arr.size, block_items):
        yield arr[start : start + block_items]


def _pair_chunks(
    x: np.ndarray, y: Optional[np.ndarray], block_items: int
) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Aligned chunks of ``x`` and ``y``; ``y`` is ``None`` for unary ops."""
    if y is None:
        return ((xs, None) for xs in _chunks(x, block_items))
    return zip(_chunks(x, block_items), _chunks(y, block_items))


# ---------------------------------------------------------------------------
# exact term-sum fractions, per local plane


def _fold_fraction(
    plane: str,
    kernel_name: str,
    terms: np.ndarray,
    *,
    radix: RadixConfig,
    workers: int,
    block_items: int,
) -> Fraction:
    """Exact Fraction of one term stream, folded on the given plane.

    Each branch runs the plane's real machinery (the same code
    :func:`repro.plan.run_plane` schedules) and reads the *partial*
    back instead of the rounded float, so exact-fraction ops exercise
    the identical fold paths the sum matrix certifies.
    """
    kernel = get_kernel(kernel_name, radix=radix)
    if plane == "streaming":
        stream = kernel.new_stream()
        for chunk in _chunks(terms, block_items):
            kernel.fold_into(stream, chunk)
        return stream.exact_fraction()
    if plane == "mapreduce":
        from repro.mapreduce import parallel_sum
        from repro.mapreduce.sum_job import KernelReduceJob

        job = KernelReduceJob(radix=radix, mode="nearest", kernel_name=kernel_name)
        parallel_sum(
            terms, workers=workers, block_items=block_items, radix=radix, job=job
        )
        if job.partial_wire is None:
            return Fraction(0)
        return kernel.exact_fraction(kernel.from_wire(job.partial_wire))
    if plane == "extmem":
        from repro.extmem import BlockDevice, ExtArray, extmem_sum_scan

        block = max(8, min(block_items, 1 << 12))
        device = BlockDevice(block_size=block, memory=block * 64)
        source = ExtArray.from_numpy(device, "reduce-terms", terms)
        result = extmem_sum_scan(
            device, source, radix=radix, mode="nearest", kernel=kernel
        )
        if result.partial is None:
            return Fraction(0)
        return kernel.exact_fraction(kernel.from_wire(result.partial))
    if plane == "bsp":
        from repro.bsp import exact_allreduce_sum

        result = exact_allreduce_sum(
            np.array_split(terms, max(2, workers)),
            radix=radix,
            mode="nearest",
            kernel=kernel,
        )
        if result.partial is None:
            return Fraction(0)
        return kernel.exact_fraction(kernel.from_wire(result.partial))
    if plane == "pram":
        from repro.pram import pram_exact_sum

        result = pram_exact_sum(terms, radix=radix, mode="nearest", kernel=kernel)
        if result.partial is None:
            return Fraction(0)
        return kernel.exact_fraction(kernel.from_wire(result.partial))
    raise ValueError(f"plane {plane!r} has no local exact fold")


def _run_local(
    plane: str,
    kernel_name: str,
    op: ReduceOp,
    x: np.ndarray,
    y: Optional[np.ndarray],
    *,
    radix: RadixConfig,
    mode: str,
    workers: int,
    block_items: int,
) -> float:
    terms = op.expand(x, y)
    count = int(x.size)
    if not op.needs_exact:
        from repro.plan import run_plane

        value = run_plane(
            plane,
            kernel_name,
            terms[0],
            radix=radix,
            mode=mode,
            workers=workers,
            block_items=block_items,
        )
        return op.finish_rounded(value, count, mode)
    fracs = [
        _fold_fraction(
            plane,
            kernel_name,
            t,
            radix=radix,
            workers=workers,
            block_items=block_items,
        )
        for t in terms
    ]
    return op.finish_exact(fracs, count, mode)


def _run_serial(
    kernel_name: str,
    op: ReduceOp,
    x: np.ndarray,
    y: Optional[np.ndarray],
    *,
    radix: RadixConfig,
    mode: str,
    workers: int,
    block_items: int,
) -> float:
    """Serial plane: expand and fold one input chunk at a time.

    Chunks hold ``block_items`` inputs, capped at the binned kernel's
    :data:`DEPOSIT_CHUNK` so each chunk's terms are folded while they
    are still in cache; the 2n-term expansion of a ``dot`` or ``norm2``
    is never built. Rounded-sum ops go through
    :func:`~repro.kernels.base.kernel_sum` (speculative kernels keep
    their certify-or-escalate schedule); exact-fraction ops fold each
    term stream into its own exact stream. ``workers`` is unused, as on
    :func:`repro.plan.run_plane`'s serial plane.
    """
    kernel = get_kernel(kernel_name, radix=radix)
    count = int(x.size)
    chunk = min(block_items, DEPOSIT_CHUNK)
    chunks = (op.expand(xs, ys) for xs, ys in _pair_chunks(x, y, chunk))
    if not op.needs_exact:
        value = kernel_sum(kernel, (terms[0] for terms in chunks), mode=mode)
        return op.finish_rounded(value, count, mode)
    streams = [kernel.new_stream() for _ in range(op.streams)]
    for terms in chunks:
        for stream, t in zip(streams, terms):
            stream.add_array(t)
    return op.finish_exact([s.exact_fraction() for s in streams], count, mode)


# ---------------------------------------------------------------------------
# wire planes: raw inputs ship on op-tagged frames, expansion server-side


def _run_serve(
    kernel_name: str,
    op: ReduceOp,
    x: np.ndarray,
    y: Optional[np.ndarray],
    *,
    radix: RadixConfig,
    mode: str,
    workers: int,
    block_items: int,
) -> float:
    import asyncio

    from repro.serve import InProcessClient, ReproService, ServeConfig

    async def run() -> float:
        config = ServeConfig(shards=max(1, workers), kernel=kernel_name)
        async with ReproService(config, radix=radix) as service:
            client = InProcessClient(service)
            name = "reduce"
            if op.name == "sum":
                for chunk in _chunks(x, block_items):
                    await client.add_array(name, chunk)
                return await client.value(name, mode=mode)
            if op.name == "dot":
                for xs, ys in _pair_chunks(x, y, block_items):
                    await client.add_pairs(name, xs, ys)
                return await client.dot(name, mode=mode)
            if op.name == "norm2":
                for chunk in _chunks(x, block_items):
                    await client.add_squares(name, chunk)
                return await client.norm2(name)
            if op.name in ("mean", "var"):
                for chunk in _chunks(x, block_items):
                    await client.add_observations(name, chunk)
                ddof = getattr(op, "ddof", 0)
                stats = await client.moments(name, ddof=ddof, mode=mode)
                return stats["mean" if op.name == "mean" else "variance"]
            raise ValueError(f"op {op.name!r} has no serve route")

    return asyncio.run(run())


def _run_cluster(
    kernel_name: str,
    op: ReduceOp,
    x: np.ndarray,
    y: Optional[np.ndarray],
    *,
    radix: RadixConfig,
    mode: str,
    workers: int,
    block_items: int,
) -> float:
    import asyncio

    from repro.cluster import LocalCluster

    async def run() -> float:
        async with LocalCluster(
            nodes=max(2, workers), kernel=kernel_name, radix=radix, shards=1
        ) as lc:
            coord = lc.coordinator
            name = "reduce"
            if op.name == "sum":
                for chunk in _chunks(x, block_items):
                    await coord.scatter(name, chunk, chunk=block_items)
                return (await coord.gather_value(name, mode=mode))["value"]
            if op.name == "dot":
                for xs, ys in _pair_chunks(x, y, block_items):
                    await coord.scatter_reduce(
                        name, "pairs", xs, ys, chunk=block_items
                    )
                return (await coord.gather_value(name, mode=mode))["value"]
            if op.name == "norm2":
                for chunk in _chunks(x, block_items):
                    await coord.scatter_reduce(
                        name, "squares", chunk, chunk=block_items
                    )
                return (await coord.gather_norm2(name))["value"]
            if op.name in ("mean", "var"):
                for chunk in _chunks(x, block_items):
                    await coord.scatter_reduce(
                        name, "observations", chunk, chunk=block_items
                    )
                ddof = getattr(op, "ddof", 0)
                stats = await coord.gather_moments(name, ddof=ddof, mode=mode)
                return stats["mean" if op.name == "mean" else "variance"]
            raise ValueError(f"op {op.name!r} has no cluster route")

    return asyncio.run(run())


#: Every plane a reduction can run on — the same eight names as
#: :data:`repro.plan.PLANES`, so the matrix test walks one key set.
REDUCE_PLANES: Dict[str, object] = {
    "serial": _run_serial,
    "streaming": functools.partial(_run_local, "streaming"),
    "serve": _run_serve,
    "cluster": _run_cluster,
    "mapreduce": functools.partial(_run_local, "mapreduce"),
    "extmem": functools.partial(_run_local, "extmem"),
    "bsp": functools.partial(_run_local, "bsp"),
    "pram": functools.partial(_run_local, "pram"),
}


def run_reduction(
    plane: str,
    kernel_name: str,
    op: Union[str, ReduceOp],
    x,
    y=None,
    *,
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
    workers: int = 1,
    block_items: int = DEFAULT_BLOCK_ITEMS,
) -> float:
    """Run one reduction op on one named plane with one named kernel.

    Returns the correctly rounded value of the true mathematical
    quantity for the given float inputs — the same bits whichever
    plane/kernel pair the caller (or the planner) picks.

    Raises:
        ValueError: unknown plane/kernel/op, or a kernel that cannot
            host the op (exact-fraction finishes need ``exact`` kernels).
        ReductionRangeError: inputs outside the op's error-free
            expansion domain.
        EmptyStreamError: ``mean``/``var`` finishes on too few
            observations (sums and norms of nothing are simply 0.0).
    """
    if isinstance(op, str):
        op = get_op(op)
    if plane not in REDUCE_PLANES:
        raise ValueError(
            f"unknown plane {plane!r}; expected one of {sorted(REDUCE_PLANES)}"
        )
    if kernel_name not in kernel_names():
        raise ValueError(
            f"unknown kernel {kernel_name!r}; expected one of {list(kernel_names())}"
        )
    kernel = get_kernel(kernel_name, radix=radix)
    if not kernel_supports(op, kernel):
        raise ValueError(
            f"kernel {kernel_name!r} cannot host op {op.name!r}: the finish "
            f"needs the exact term-sum fraction and the kernel's partials "
            f"are speculative/lossy (exact=False)"
        )
    xa, ya = op.validate(x, y)
    op.check_domain(xa, ya)
    runner = REDUCE_PLANES[plane]
    return runner(
        kernel_name,
        op,
        xa,
        ya,
        radix=radix,
        mode=mode,
        workers=workers,
        block_items=block_items,
    )
