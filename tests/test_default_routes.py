"""The library defaults run the binned kernel and match sparse bit for bit.

``exact_sum`` (``method="auto"``), the ``repro.reduce`` one-liners
(default ``kernel=``) and ``parallel_sum`` (default ``method=``) all
fold through the exponent-binned kernel; ``exact_sum`` keeps the
adaptive ladder for nearest sums shorter than the kernel's fold
threshold. Each default is checked against the serial sparse
superaccumulator — the paper's reference — on inputs that straddle the
kernel's chunk and small-fold boundaries.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.reduce as reduce
from repro.core import exact_sum
from repro.data.generators import generate
from repro.errors import EmptyStreamError
from repro.kernels.binned import BINNED_FOLD_THRESHOLD, DEPOSIT_CHUNK
from repro.mapreduce import parallel_sum, shutdown_shared_executors

MODES = ("nearest", "down", "up", "zero")

#: Input sizes around one deposit chunk, plus the empty and singleton cases.
SIZES = (0, 1, DEPOSIT_CHUNK - 1, DEPOSIT_CHUNK, DEPOSIT_CHUNK + 1)


def _same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex() and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("dist", ["well", "cancel", "sumzero", "random"])
@pytest.mark.parametrize("mode", MODES)
def test_auto_matches_sparse(dist, mode):
    x = generate(dist, 3 * DEPOSIT_CHUNK + 5, delta=600, seed=13)
    assert _same_bits(
        exact_sum(x, mode=mode), exact_sum(x, method="sparse", mode=mode)
    )


@pytest.mark.parametrize("offset", [-1, 0])
@pytest.mark.parametrize("mode", MODES)
def test_auto_matches_sparse_at_the_fold_threshold(offset, mode):
    # below the threshold nearest sums run the adaptive ladder, at it the bins
    x = generate("cancel", BINNED_FOLD_THRESHOLD + offset, delta=600, seed=17)
    assert _same_bits(
        exact_sum(x, mode=mode), exact_sum(x, method="sparse", mode=mode)
    )


def _random(n: int, delta: int, seed: int) -> np.ndarray:
    return generate("random", n, delta=delta, seed=seed) if n else np.empty(0)


def _pair(n: int):
    x = _random(n, 400, n + 1)
    y = _random(n, 400, n + 2)
    if n:
        # zero-paired huge elements: an exact 0.0 product whose partner
        # would overflow Dekker's splitter if it were expanded
        x[0], y[0] = 1e300, 0.0
        x[-1], y[-1] = 0.0, -1e305
    return x, y


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("mode", MODES)
def test_reduce_rounded_ops_match_sparse(n, mode):
    x, y = _pair(n)
    assert _same_bits(
        reduce.dot(x, y, mode=mode), reduce.dot(x, y, mode=mode, kernel="sparse")
    )
    assert _same_bits(
        reduce.sum(x, mode=mode), reduce.sum(x, mode=mode, kernel="sparse")
    )


@pytest.mark.parametrize("n", SIZES)
def test_reduce_exact_ops_match_sparse(n):
    x = _random(n, 300, n + 3)
    assert _same_bits(reduce.norm2(x), reduce.norm2(x, kernel="sparse"))
    if n == 0:
        with pytest.raises(EmptyStreamError):
            reduce.mean(x)
        with pytest.raises(EmptyStreamError):
            reduce.var(x)
        return
    for mode in MODES:
        assert _same_bits(
            reduce.mean(x, mode=mode), reduce.mean(x, mode=mode, kernel="sparse")
        )
        assert _same_bits(
            reduce.var(x, mode=mode), reduce.var(x, mode=mode, kernel="sparse")
        )
    if n > 1:
        assert _same_bits(reduce.var(x, ddof=1), reduce.var(x, ddof=1, kernel="sparse"))


@pytest.fixture
def shared_pools():
    yield
    shutdown_shared_executors()


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("dist", ["well", "cancel"])
def test_parallel_sum_default_matches_sparse(shared_pools, executor, dist):
    x = generate(dist, 5 * DEPOSIT_CHUNK + 3, delta=600, seed=17)
    kwargs = dict(workers=2, executor=executor, block_items=DEPOSIT_CHUNK)
    got = parallel_sum(x, report=True, **kwargs)
    want = parallel_sum(x, method="sparse", **kwargs)
    assert _same_bits(got.value, want)
    assert _same_bits(got.value, exact_sum(x, method="sparse"))
    for mode in ("down", "up"):
        assert _same_bits(
            parallel_sum(x, mode=mode, **kwargs),
            parallel_sum(x, method="sparse", mode=mode, **kwargs),
        )
