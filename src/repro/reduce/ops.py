"""Reduction ops: error-free expansions composed with sum kernels.

The paper's machinery makes *summation* exact; the reductions users
actually need — dot products, norms, moments — are sums of error-free
transformed terms. A :class:`ReduceOp` declares exactly that
composition:

* ``expand`` turns the float inputs into one or two **term streams**
  whose exact sums equal the exact mathematical quantities (via the
  vectorized EFTs :func:`repro.core.eft.two_product_vec` /
  :func:`repro.core.eft.two_square_vec`);
* any registered :class:`~repro.kernels.base.SumKernel` folds the terms
  through the existing exact machinery on any execution plane;
* ``finish`` converts the folded result into the op's value with one
  final rounding — so the returned float is the correctly rounded value
  of the true mathematical quantity for the given inputs.

Ops split by what their finish needs:

* **rounded-sum ops** (``sum``, ``dot``): the answer *is* the correctly
  rounded sum of the terms, so every kernel — exact or speculative —
  can host them; a certified fast path stays a certified fast path.
* **exact-fraction ops** (``norm2``, ``mean``, ``var``): the finish
  performs algebra (square root, division) on the *exact* term sum
  before the single rounding, so only kernels with
  ``exact = True`` (whose partials expose
  :meth:`~repro.kernels.base.SumKernel.exact_fraction`) can host them.
  The planner's candidate table rejects the rest with a reason.

Expansion exactness has a domain: TwoProduct/TwoSquare are error-free
only while the products neither overflow nor lose bits to underflow
(and Dekker's splitter itself overflows above ``2**996``).
``check_domain`` polices that band up front and raises
:class:`~repro.errors.ReductionRangeError` instead of silently folding
an inexact term stream; the full-range (slower, Fraction-based) serial
references in :mod:`repro.stats` remain available for out-of-band
magnitudes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.eft import two_product_vec, two_square_vec
from repro.errors import EmptyStreamError, ReductionRangeError
from repro.kernels.binned import DEPOSIT_CHUNK
from repro.stats import round_fraction, sqrt_round_fraction
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = [
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
    "square_domain_mask",
    "product_domain_mask",
]

#: TwoSquare is error-free only while ``x*x`` stays comfortably inside
#: the normal range; magnitudes in this band square safely (shared with
#: the serial reference in :mod:`repro.stats`).
_SQ_LO = 2.0**-500
_SQ_HI = 2.0**500

#: TwoProduct needs the product's error term above the subnormal floor
#: and both factors below the point where Dekker's splitter overflows.
_DOT_P_LO = 2.0**-1000
_DOT_AB_HI = 2.0**996


def square_domain_mask(x: np.ndarray) -> np.ndarray:
    """True where ``x*x`` expands error-free through TwoSquare."""
    a = np.abs(x)
    # reprolint: disable-next-line=FP002 -- exact-zero mask, not a tolerance
    return ((a > _SQ_LO) & (a < _SQ_HI)) | (a == 0.0)


def product_domain_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """True where ``x*y`` expands error-free through TwoProduct.

    Zero-paired elements are always in domain: their product term is an
    exact 0.0 regardless of the partner's magnitude (the expansion
    masks them out before the splitter can overflow on the partner).
    """
    with np.errstate(over="ignore", under="ignore"):
        p = x * y
    safe = (
        np.isfinite(p)
        & (np.abs(p) > _DOT_P_LO)
        & (np.abs(x) < _DOT_AB_HI)
        & (np.abs(y) < _DOT_AB_HI)
    )
    # reprolint: disable-next-line=FP002 -- exact-zero mask, not a tolerance
    return safe | (x == 0.0) | (y == 0.0)


def _require_domain(
    mask_of: Callable[..., np.ndarray],
    arrays: Sequence[np.ndarray],
    op_name: str,
    primitive: str,
) -> None:
    """Raise unless ``mask_of(*arrays)`` holds for every element.

    The mask is built one :data:`~repro.kernels.binned.DEPOSIT_CHUNK`
    at a time, so its temporaries stay as cache-resident as the fold's.
    """
    n = arrays[0].size
    bad = 0
    for start in range(0, n, DEPOSIT_CHUNK):
        mask = mask_of(*(a[start : start + DEPOSIT_CHUNK] for a in arrays))
        bad += int(mask.size - np.count_nonzero(mask))
    if not bad:
        return
    raise ReductionRangeError(
        f"{op_name}: {bad} input(s) outside the error-free {primitive} "
        f"domain (product magnitude must stay inside the normal range); "
        f"use the full-range serial references in repro.stats for such data"
    )


class ReduceOp(ABC):
    """One reduction declared as expansion + kernel fold + finish.

    Class attributes:
        name: registry name.
        arity: number of input arrays (1 or 2).
        streams: independent term streams the op folds (1, or 2 when
            the finish needs two exact sums — e.g. ``var`` needs both
            ``sum(x)`` and ``sum(x^2)``).
        needs_exact: True when the finish consumes exact Fractions
            (division / square root before the single rounding), which
            restricts hosting to kernels with ``exact = True``.
    """

    name: str = "?"
    arity: int = 1
    streams: int = 1
    needs_exact: bool = False

    def validate(
        self, x, y=None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Coerce inputs to finite float64 arrays; shape-check pairs."""
        xa = ensure_float64_array(x)
        check_finite_array(xa)
        if self.arity == 2:
            if y is None:
                raise ValueError(f"op {self.name!r} needs two arrays")
            ya = ensure_float64_array(y)
            if xa.shape != ya.shape:
                raise ValueError("length mismatch")
            check_finite_array(ya)
            return xa, ya
        if y is not None:
            raise ValueError(f"op {self.name!r} takes a single array")
        return xa, None

    def check_domain(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> None:
        """Raise :class:`ReductionRangeError` if expansion would be inexact."""

    @abstractmethod
    def expand(
        self, x: np.ndarray, y: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, ...]:
        """Inputs -> ``streams`` term arrays whose exact sums finish the op."""

    def finish_rounded(self, value: float, count: int, mode: str) -> float:
        """Finish from the correctly rounded term sum (rounded-sum ops)."""
        if self.needs_exact:
            raise TypeError(
                f"op {self.name!r} finishes from exact fractions, not a "
                f"rounded term sum"
            )
        return value

    @abstractmethod
    def finish_exact(
        self, fracs: Sequence[Fraction], count: int, mode: str
    ) -> float:
        """Finish from the exact term-sum Fractions (one per stream)."""

    def describe(self) -> Dict[str, object]:
        """Flat summary for CLIs and candidate tables."""
        return {
            "op": self.name,
            "arity": self.arity,
            "streams": self.streams,
            "needs_exact": self.needs_exact,
        }


class SumOp(ReduceOp):
    """Plain summation — the identity expansion.

    Exists so "sum" is just another op: every plane's reduction path
    degenerates to exactly the PR-1..8 sum pipeline.
    """

    name = "sum"

    def expand(self, x, y=None):
        return (x,)

    def finish_exact(self, fracs, count, mode):
        return round_fraction(fracs[0], mode)


class DotOp(ReduceOp):
    """Inner product: terms are TwoProduct ``(p, e)`` pairs.

    ``sum(x*y) == sum(terms)`` exactly, so the correctly rounded dot is
    the correctly rounded term sum — hostable by every kernel,
    certificates included.
    """

    name = "dot"
    arity = 2

    def check_domain(self, x, y=None):
        _require_domain(product_domain_mask, (x, y), self.name, "TwoProduct")

    def expand(self, x, y=None):
        # Zero-paired elements are exact but the huge partner would
        # overflow Dekker's splitter into a nan error term: mask those
        # term pairs to an exact 0.0 after the vectorized expansion.
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            p, e = two_product_vec(x, y)
        # reprolint: disable-next-line=FP002 -- exact-zero mask, not a tolerance
        zero = (x == 0.0) | (y == 0.0)
        if zero.any():
            p = np.where(zero, 0.0, p)
            e = np.where(zero, 0.0, e)
        return (np.concatenate([p, e]),)

    def finish_exact(self, fracs, count, mode):
        return round_fraction(fracs[0], mode)


class Norm2Op(ReduceOp):
    """Euclidean norm: terms are TwoSquare pairs; finish is an exact sqrt.

    The square root of the exact rational sum-of-squares is rounded by
    comparing candidate floats' exact squares against it
    (:func:`repro.stats.sqrt_round_fraction`) — no double rounding.
    Only nearest rounding is defined; the norm of nothing is 0.0.
    """

    name = "norm2"
    needs_exact = True

    def check_domain(self, x, y=None):
        _require_domain(square_domain_mask, (x,), self.name, "TwoSquare")

    def expand(self, x, y=None):
        p, e = two_square_vec(x)
        return (np.concatenate([p, e]),)

    def finish_exact(self, fracs, count, mode):
        if mode != "nearest":
            raise ValueError(
                f"norm2 defines nearest rounding only, not mode={mode!r}"
            )
        return sqrt_round_fraction(fracs[0])


class MeanOp(ReduceOp):
    """Arithmetic mean: identity expansion, exact division at finish."""

    name = "mean"
    needs_exact = True

    def expand(self, x, y=None):
        return (x,)

    def finish_exact(self, fracs, count, mode):
        if count == 0:
            raise EmptyStreamError("mean of empty reduction")
        return round_fraction(fracs[0] / count, mode)


class VarOp(ReduceOp):
    """Variance: two term streams (values, TwoSquare terms).

    Finishes as ``(sum(x^2) - sum(x)^2/n) / (n - ddof)`` entirely in
    exact rational arithmetic — immune to the catastrophic cancellation
    of the textbook float formulas — then rounds once.
    """

    name = "var"
    streams = 2
    needs_exact = True

    def __init__(self, ddof: int = 0) -> None:
        self.ddof = int(ddof)

    def check_domain(self, x, y=None):
        _require_domain(square_domain_mask, (x,), self.name, "TwoSquare")

    def expand(self, x, y=None):
        p, e = two_square_vec(x)
        return (x, np.concatenate([p, e]))

    def finish_exact(self, fracs, count, mode):
        n = count
        if n - self.ddof <= 0:
            raise EmptyStreamError("need more observations than ddof")
        s, ss = fracs
        return round_fraction((ss - s * s / n) / (n - self.ddof), mode)

    def describe(self):
        out = super().describe()
        out["ddof"] = self.ddof
        return out


# ---------------------------------------------------------------------------
# registry

_OPS: Dict[str, ReduceOp] = {}


def register_op(op: ReduceOp) -> ReduceOp:
    """Add an op to the registry (last registration wins, like kernels)."""
    _OPS[op.name] = op
    return op


def get_op(name: str) -> ReduceOp:
    """Look up a registered op by name."""
    try:
        return _OPS[name]
    except KeyError:
        raise ValueError(
            f"unknown reduction op {name!r}; expected one of {op_names()}"
        ) from None


def op_names() -> List[str]:
    """Sorted names of all registered ops."""
    return sorted(_OPS)


def kernel_supports(op: ReduceOp, kernel) -> bool:
    """Whether ``kernel`` can host ``op``.

    Rounded-sum ops ride any kernel; exact-fraction ops need an exact
    accumulator behind :meth:`~repro.kernels.base.SumKernel.exact_fraction`.
    """
    return (not op.needs_exact) or bool(kernel.exact)


register_op(SumOp())
register_op(DotOp())
register_op(Norm2Op())
register_op(MeanOp())
register_op(VarOp(ddof=0))
