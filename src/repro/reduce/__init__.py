"""Exact reductions: dot, norm, moments — on every plane, any kernel.

The layer that converts this repo from "exact sum service" to "exact
reduction engine". Ops are declared in :mod:`repro.reduce.ops` as an
error-free expansion composed with any registered sum kernel;
:mod:`repro.reduce.engine` schedules them onto the same eight
execution planes summation runs on. Convenience one-liners::

    from repro import reduce
    d = reduce.dot(x, y)            # correctly rounded inner product
    r = reduce.norm2(x)             # correctly rounded Euclidean norm
    m = reduce.mean(x)              # exact mean, rounded once
    v = reduce.var(x, ddof=1)       # exact variance, rounded once

Each accepts ``plane=``/``kernel=``/``workers=`` to pick where the
terms fold; the bits never change with the choice. The defaults are
the serial plane and the exponent-binned kernel: the inputs are
expanded and folded one cache-sized chunk at a time, at several times
the speed of the paper's sparse fold (``kernel="sparse"``), with the
same bits.
"""

from __future__ import annotations

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.reduce.engine import DEFAULT_BLOCK_ITEMS, REDUCE_PLANES, run_reduction
from repro.reduce.ops import (
    DotOp,
    MeanOp,
    Norm2Op,
    ReduceOp,
    SumOp,
    VarOp,
    get_op,
    kernel_supports,
    op_names,
    register_op,
)

__all__ = [
    "run_reduction",
    "REDUCE_PLANES",
    "ReduceOp",
    "SumOp",
    "DotOp",
    "Norm2Op",
    "MeanOp",
    "VarOp",
    "register_op",
    "get_op",
    "op_names",
    "kernel_supports",
    "sum",
    "dot",
    "norm2",
    "mean",
    "var",
]


def sum(  # noqa: A001 - deliberate: ``reduce.sum`` mirrors the op name
    values,
    *,
    plane: str = "serial",
    kernel: str = "binned",
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
    workers: int = 1,
    block_items: int = DEFAULT_BLOCK_ITEMS,
) -> float:
    """Correctly rounded sum (the identity op, for API symmetry)."""
    return run_reduction(
        plane, kernel, "sum", values,
        radix=radix, mode=mode, workers=workers, block_items=block_items,
    )


def dot(
    x,
    y,
    *,
    plane: str = "serial",
    kernel: str = "binned",
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
    workers: int = 1,
    block_items: int = DEFAULT_BLOCK_ITEMS,
) -> float:
    """Correctly rounded inner product ``fl(sum(x_i * y_i))``."""
    return run_reduction(
        plane, kernel, "dot", x, y,
        radix=radix, mode=mode, workers=workers, block_items=block_items,
    )


def norm2(
    values,
    *,
    plane: str = "serial",
    kernel: str = "binned",
    radix: RadixConfig = DEFAULT_RADIX,
    workers: int = 1,
    block_items: int = DEFAULT_BLOCK_ITEMS,
) -> float:
    """Correctly rounded Euclidean norm ``fl(sqrt(sum(x_i^2)))``."""
    return run_reduction(
        plane, kernel, "norm2", values,
        radix=radix, mode="nearest", workers=workers, block_items=block_items,
    )


def mean(
    values,
    *,
    plane: str = "serial",
    kernel: str = "binned",
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
    workers: int = 1,
    block_items: int = DEFAULT_BLOCK_ITEMS,
) -> float:
    """Correctly rounded arithmetic mean (EmptyStreamError on no data)."""
    return run_reduction(
        plane, kernel, "mean", values,
        radix=radix, mode=mode, workers=workers, block_items=block_items,
    )


def var(
    values,
    *,
    ddof: int = 0,
    plane: str = "serial",
    kernel: str = "binned",
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
    workers: int = 1,
    block_items: int = DEFAULT_BLOCK_ITEMS,
) -> float:
    """Correctly rounded variance with the requested ``ddof``."""
    return run_reduction(
        plane, kernel, VarOp(ddof=ddof), values,
        radix=radix, mode=mode, workers=workers, block_items=block_items,
    )
