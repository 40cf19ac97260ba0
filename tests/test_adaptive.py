"""The condition-adaptive tiered engine: certificates, tiers, wiring.

The engine's one contract is brutal: whatever tier serves a request,
the result is bit-identical to the sparse superaccumulator's correctly
rounded sum. These tests attack that contract from every angle —
property-based soundness of the Tier-0 certificate (a certified value
must match the exact Fraction reference, including inputs parked one
quantum either side of a rounding-cell midpoint), tier-decision
behaviour across the experimental distributions, the Tier-1 truncated
path, escalation, counters, and the MapReduce certificate shipping with
its certification-failure fallback.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adaptive import (
    AdaptiveConfig,
    AdaptiveFolder,
    TierCounters,
    adaptive_sum,
    adaptive_sum_detail,
    certified_cascade_sum,
)
from repro.adaptive.cascade import _cascade
from repro.core import exact_sum
from repro.core.truncated import TruncatedSparseSuperaccumulator
from repro.data.generators import generate
from repro.errors import CertificationError, NonFiniteInputError
from tests.conftest import exact_fraction, ref_sum

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)
float_lists = st.lists(finite_floats, min_size=0, max_size=60)


def _bits_equal(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestCascadeTransformation:
    def test_empty_and_singleton(self):
        c = certified_cascade_sum(np.zeros(0))
        assert c.certified and c.value == 0.0 and c.error_bound == 0.0
        c = certified_cascade_sum(np.array([3.5]))
        assert c.certified and c.value == 3.5

    @given(values=float_lists)
    def test_error_free_transformation(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.size < 2:
            return
        buf = np.empty(arr.size)
        with np.errstate(over="ignore", invalid="ignore"):
            root, count = _cascade(arr, buf)
        if not math.isfinite(root) or not np.isfinite(buf[:count]).all():
            return  # overflow poisons the tree; certificate fails closed
        got = Fraction(root) + sum(Fraction(float(v)) for v in buf[:count])
        assert got == exact_fraction(arr)

    @given(values=float_lists)
    def test_certified_means_correctly_rounded(self, values):
        arr = np.asarray(values, dtype=np.float64)
        cert = certified_cascade_sum(arr)
        if cert.certified:
            assert _bits_equal(cert.value, ref_sum(arr))

    def test_negative_zero_normalized(self):
        cert = certified_cascade_sum(np.array([-0.0, -0.0]))
        assert math.copysign(1.0, cert.value) == 1.0

    def test_intermediate_overflow_fails_closed(self):
        cert = certified_cascade_sum(np.array([1e308, 1e308]))
        assert not cert.certified

    def test_exact_tie_certifies_via_hardware(self):
        # 1 + 2^-53 is the exact midpoint of 1.0's upper cell: the
        # cascade captures it exactly (beta == 0), so the hardware's
        # nearest-even decision *is* the correct rounding.
        cert = certified_cascade_sum(np.array([1.0, 2.0**-53]))
        assert cert.certified and cert.value == 1.0
        assert cert.margin_bits == math.inf

    def test_benign_margin_is_wide(self):
        x = generate("well", 4096, delta=100, seed=1)
        cert = certified_cascade_sum(x)
        assert cert.certified and cert.margin_bits > 20

    def test_remainder_refines_value(self):
        x = generate("well", 4096, delta=800, seed=2)
        cert = certified_cascade_sum(x)
        refined = exact_fraction([cert.value, cert.remainder])
        assert abs(exact_fraction(x) - refined) <= Fraction(cert.residual_bound)


class TestTierMarginBoundary:
    """Inputs straddling the Tier-0 acceptance boundary, bit-for-bit."""

    @pytest.mark.parametrize("offset", [54, 55, 60, 80, 105, 106, 107])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_midpoint_epsilon_sweep(self, offset, sign):
        # True sum = 1 + 2^-53 +/- 2^-offset: one quantum either side
        # of the midpoint, down into (and past) the subnormal-precision
        # tail. Whatever the engine decides, bits must match sparse.
        x = np.array([1.0, 2.0**-53, sign * 2.0**-offset])
        assert _bits_equal(adaptive_sum(x), exact_sum(x, method="sparse"))

    @pytest.mark.parametrize("seed", range(12))
    def test_tie_distribution_bitwise(self, seed):
        x = generate("tie", 257, delta=45, seed=seed)
        detail = adaptive_sum_detail(x)
        assert _bits_equal(detail.value, exact_sum(x, method="sparse"))
        if detail.tier == 0:
            # a certified tie decision must also be *soundly* certified
            exact = exact_fraction(x)
            lo = Fraction(math.nextafter(detail.value, -math.inf))
            hi = Fraction(math.nextafter(detail.value, math.inf))
            v = Fraction(detail.value)
            assert (v + lo) / 2 <= exact <= (v + hi) / 2

    def test_just_inside_and_outside_cascade_bound(self):
        # Build an input whose uncaptured mass is nonzero, then verify
        # the reported bound really contains the exact sum.
        x = generate("random", 2048, delta=900, seed=5)
        cert = certified_cascade_sum(x)
        assert cert.residual_bound >= 0.0
        exact = exact_fraction(x)
        interval = Fraction(cert.value) + Fraction(cert.remainder)
        assert abs(exact - interval) <= Fraction(max(cert.residual_bound, 0.0))


class TestTierDecisions:
    @pytest.mark.parametrize("dist", ["well", "random", "anderson", "sumzero", "cancel", "tie"])
    @pytest.mark.parametrize("n", [1, 2, 100, 4097])
    def test_bitwise_identity_all_distributions(self, dist, n):
        x = generate(dist, n, delta=700, seed=n)
        assert _bits_equal(adaptive_sum(x), exact_sum(x, method="sparse"))

    @pytest.mark.parametrize("mode", ["nearest", "down", "up", "zero"])
    def test_rounding_modes(self, mode):
        x = generate("random", 999, delta=400, seed=8)
        assert adaptive_sum(x, mode=mode) == exact_sum(x, method="sparse", mode=mode)

    def test_well_conditioned_serves_from_tier0(self):
        x = generate("well", 8192, delta=200, seed=3)
        detail = adaptive_sum_detail(x)
        assert detail.tier == 0 and detail.escalations == 0

    def test_massive_cancellation_escalates(self):
        x = generate("cancel", 8192, delta=900, seed=3)
        detail = adaptive_sum_detail(x)
        assert detail.tier > 0
        assert _bits_equal(detail.value, exact_sum(x, method="sparse"))

    def test_tier0_disabled_skips_certificate(self):
        x = generate("well", 1024, delta=100, seed=4)
        cfg = AdaptiveConfig(enable_tier0=False)
        detail = adaptive_sum_detail(x, config=cfg)
        assert detail.tier > 0
        assert detail.value == exact_sum(x, method="sparse")

    def test_tier1_multiblock_truncated_path(self):
        cfg = AdaptiveConfig(block_items=1 << 10, enable_tier0=False)
        x = generate("well", 5000, delta=300, seed=5)
        detail = adaptive_sum_detail(x, config=cfg)
        assert detail.tier == 1 and detail.r_used is not None
        assert detail.value == exact_sum(x, method="sparse")

    def test_tier1_disabled_by_negative_doublings(self):
        cfg = AdaptiveConfig(block_items=1 << 10, enable_tier0=False, r_doublings=-1)
        x = generate("well", 5000, delta=300, seed=5)
        detail = adaptive_sum_detail(x, config=cfg)
        assert detail.tier == 2
        assert detail.value == exact_sum(x, method="sparse")

    def test_non_nearest_goes_exact(self):
        x = generate("well", 4096, delta=100, seed=6)
        detail = adaptive_sum_detail(x, mode="down")
        assert detail.tier == 2
        assert detail.value == exact_sum(x, method="sparse", mode="down")

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            adaptive_sum(np.array([1.0, math.inf]))

    @given(values=float_lists)
    @settings(max_examples=60)
    def test_property_bitwise_identity(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if not np.isfinite(arr).all():
            return
        assert _bits_equal(adaptive_sum(arr), exact_sum(arr, method="sparse"))


class TestExactSumWiring:
    def test_adaptive_method(self):
        x = generate("random", 3000, delta=600, seed=9)
        assert exact_sum(x, method="adaptive") == exact_sum(x, method="sparse")

    def test_auto_routes_through_binned(self, monkeypatch):
        from repro.kernels.binned import BinnedKernel

        folded = []
        fold = BinnedKernel.fold

        def spy(kernel, block):
            folded.append(len(block))
            return fold(kernel, block)

        monkeypatch.setattr(BinnedKernel, "fold", spy)
        x = generate("well", 3000, delta=100, seed=9)
        assert _bits_equal(exact_sum(x, method="auto"), exact_sum(x, method="sparse"))
        assert folded == [3000]

    def test_short_auto_keeps_the_ladder(self, monkeypatch):
        import repro.adaptive
        from repro.kernels.binned import BINNED_FOLD_THRESHOLD

        laddered = []
        ladder = repro.adaptive.adaptive_sum

        def spy(values, **kwargs):
            laddered.append(len(values))
            return ladder(values, **kwargs)

        monkeypatch.setattr(repro.adaptive, "adaptive_sum", spy)
        x = generate("cancel", BINNED_FOLD_THRESHOLD - 1, delta=300, seed=9)
        assert _bits_equal(exact_sum(x), exact_sum(x, method="sparse"))
        assert _bits_equal(
            exact_sum(x, mode="down"), exact_sum(x, method="sparse", mode="down")
        )
        assert laddered == [x.size]

    def test_auto_non_nearest_still_exact(self):
        x = generate("random", 500, delta=300, seed=2)
        for mode in ("down", "up", "zero"):
            assert exact_sum(x, method="auto", mode=mode) == exact_sum(
                x, method="sparse", mode=mode
            )


class TestCounters:
    def test_counters_record_tiers_and_margins(self):
        tc = TierCounters()
        folder = AdaptiveFolder(counters=tc)
        folder.sum(generate("well", 2048, delta=100, seed=0))
        folder.sum(generate("cancel", 2048, delta=800, seed=1))
        snap = tc.as_dict()
        assert snap["tier0_hits"] == 1
        assert snap["tier0_hits"] + snap["tier1_hits"] + snap["escalations"] >= 2 or (
            snap["escalations"] >= 1
        )
        assert snap["certificate_margin_last_bits"] is not None

    def test_counters_unseen_margin_is_none(self):
        snap = TierCounters().as_dict()
        assert snap["certificate_margin_min_bits"] is None
        assert snap["certificate_margin_last_bits"] is None

    def test_folder_fold_into_counts_bulk_folds(self):
        from repro.streaming import ExactRunningSum

        tc = TierCounters()
        folder = AdaptiveFolder(counters=tc)
        rs = ExactRunningSum()
        x = generate("random", 1000, delta=200, seed=3)
        folder.fold_into(rs, x)
        assert rs.value() == exact_sum(x, method="sparse")
        assert tc.as_dict()["tier2_folds"] == 1


class TestTruncatedDropAccounting:
    def test_drop_accounting_bounds_mass(self):
        x = generate("well", 3000, delta=600, seed=7)
        from repro.core.sparse import SparseSuperaccumulator

        full = SparseSuperaccumulator.from_floats(x)
        t = TruncatedSparseSuperaccumulator(4, acc=full)
        if t.truncated:
            dropped = full.to_fraction() - t.acc.to_fraction()
            assert abs(dropped) <= t.truncation_mass_bound()

    def test_untruncated_bound_is_zero(self):
        t = TruncatedSparseSuperaccumulator.from_floats([1.0, 2.0, 4.0], 64)
        assert not t.truncated
        assert t.truncation_mass_bound() == 0


class TestMapReduceAdaptive:
    def test_parallel_sum_adaptive_bitwise(self):
        from repro.mapreduce import parallel_sum

        x = generate("random", 1 << 15, delta=500, seed=11)
        r = parallel_sum(x, workers=2, method="adaptive", executor="simulated",
                        report=True)
        assert r.value == exact_sum(x, method="sparse")
        assert r.tier_counts is not None
        assert r.tier_counts["tier0_hits"] + r.tier_counts["escalations"] > 0

    def test_adversarial_blocks_ship_exact(self):
        from repro.mapreduce import parallel_sum

        x = generate("cancel", 1 << 14, delta=900, seed=12)
        r = parallel_sum(x, workers=2, method="adaptive", executor="simulated",
                        report=True)
        assert r.value == exact_sum(x, method="sparse")
        assert r.tier_counts["escalations"] >= 1

    def test_certification_failure_falls_back_to_exact(self, monkeypatch):
        from repro.mapreduce import parallel_sum
        from repro.mapreduce.sum_job import AdaptiveSumJob

        def boom(self, values):
            raise CertificationError("forced for the fallback test")

        monkeypatch.setattr(AdaptiveSumJob, "postprocess", boom)
        x = generate("random", 1 << 13, delta=400, seed=13)
        r = parallel_sum(x, workers=2, method="adaptive", executor="simulated",
                        report=True)
        assert r.value == exact_sum(x, method="sparse")
        assert r.tier_counts["certification_fallback"] == 1

    def test_global_certify_raises_on_straddle(self):
        from repro.core.sparse import SparseSuperaccumulator
        from repro.mapreduce.sum_job import AdaptiveSumJob

        # retained sum exactly 1.0, but a bound of a full ulp straddles
        # both midpoints: the proof must refuse.
        acc = SparseSuperaccumulator.from_floats(np.array([1.0]))
        with pytest.raises(CertificationError):
            AdaptiveSumJob._certify(acc, 1.0, math.ulp(1.0))

    def test_global_certify_zero_bound_is_exact(self):
        from repro.core.sparse import SparseSuperaccumulator
        from repro.mapreduce.sum_job import AdaptiveSumJob

        acc = SparseSuperaccumulator.from_floats(np.array([1.0]))
        assert AdaptiveSumJob._certify(acc, 1.0, 0.0) == math.inf
