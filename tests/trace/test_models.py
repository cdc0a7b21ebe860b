"""Tests for the statistical traffic models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.five_tuple import PROTO_TCP, PROTO_UDP
from repro.trace.models import (
    FlowPopulation,
    PacketSizeModel,
    TRIMODAL_INTERNET_SIZES,
    capped_zipf_weights,
    elephant_mice_weights,
    zipf_weights,
)


class TestZipfWeights:
    def test_sums_to_one(self):
        assert zipf_weights(100, 1.1).sum() == pytest.approx(1.0)

    def test_sorted_descending(self):
        w = zipf_weights(50, 0.8)
        assert np.all(np.diff(w) <= 0)

    def test_alpha_zero_uniform(self):
        np.testing.assert_allclose(zipf_weights(4, 0.0), [0.25] * 4)

    def test_single_flow(self):
        np.testing.assert_allclose(zipf_weights(1, 2.0), [1.0])

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(10, -0.5)

    @given(st.integers(2, 200), st.floats(0.0, 2.5))
    def test_rank_size_law(self, n, alpha):
        w = zipf_weights(n, alpha)
        # w_r / w_1 == r^-alpha
        assert w[n // 2] / w[0] == pytest.approx((n // 2 + 1) ** -alpha, rel=1e-9)


class TestCappedZipf:
    def test_respects_cap(self):
        w = capped_zipf_weights(100, 1.5, cap=0.05)
        assert w.max() <= 0.05 + 1e-12

    def test_sums_to_one(self):
        assert capped_zipf_weights(100, 1.5, cap=0.05).sum() == pytest.approx(1.0)

    def test_no_clipping_when_cap_loose(self):
        raw = zipf_weights(10, 0.5)
        capped = capped_zipf_weights(10, 0.5, cap=1.0)
        np.testing.assert_allclose(capped, raw)

    def test_infeasible_cap_rejected(self):
        with pytest.raises(ValueError):
            capped_zipf_weights(10, 1.0, cap=0.05)  # 10 * 0.05 < 1

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            capped_zipf_weights(10, 1.0, cap=0.0)

    @given(
        st.integers(10, 300),
        st.floats(0.0, 2.0),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=50)
    def test_waterfill_invariants(self, n, alpha, cap):
        if cap * n < 1.0:
            cap = 1.5 / n
        w = capped_zipf_weights(n, alpha, cap)
        assert w.sum() == pytest.approx(1.0)
        assert w.max() <= cap * (1 + 1e-9)
        assert np.all(w >= 0)
        # still non-increasing
        assert np.all(np.diff(w) <= 1e-12)


class TestElephantMice:
    def test_shares(self):
        w = elephant_mice_weights(1000, 20, 0.5)
        assert w[:20].sum() == pytest.approx(0.5)
        assert w.sum() == pytest.approx(1.0)

    def test_classes_separated(self):
        w = elephant_mice_weights(1000, 20, 0.5)
        assert w[19] > w[20]

    def test_sorted_descending(self):
        w = elephant_mice_weights(500, 10, 0.4)
        assert np.all(np.diff(w) <= 1e-15)

    def test_overlap_rejected(self):
        # tiny elephant share over many elephants vs few heavy mice
        with pytest.raises(ValueError):
            elephant_mice_weights(30, 20, 0.05, alpha_elephants=2.0, alpha_mice=0.0)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            elephant_mice_weights(10, 0, 0.5)
        with pytest.raises(ValueError):
            elephant_mice_weights(10, 10, 0.5)

    def test_bad_share_rejected(self):
        with pytest.raises(ValueError):
            elephant_mice_weights(10, 2, 1.0)


class TestPacketSizeModel:
    def test_trimodal_valid(self):
        assert TRIMODAL_INTERNET_SIZES.mean == pytest.approx(
            40 * 0.58 + 576 * 0.33 + 1500 * 0.09
        )

    def test_sample_support(self, rng):
        out = TRIMODAL_INTERNET_SIZES.sample(500, rng)
        assert set(np.unique(out)) <= {40, 576, 1500}
        assert out.dtype == np.int32

    def test_sample_zero(self):
        assert TRIMODAL_INTERNET_SIZES.sample(0, 1).shape == (0,)

    def test_sample_negative_rejected(self):
        with pytest.raises(ValueError):
            TRIMODAL_INTERNET_SIZES.sample(-1, 1)

    def test_deterministic_model(self):
        m = PacketSizeModel((64,), (1.0,))
        assert set(m.sample(10, 0)) == {64}

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PacketSizeModel((1, 2), (0.5, 0.6))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PacketSizeModel((1, 2), (1.0,))

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            PacketSizeModel((0,), (1.0,))

    def test_sample_distribution_roughly_matches(self, rng):
        out = TRIMODAL_INTERNET_SIZES.sample(20_000, rng)
        frac_40 = float((out == 40).mean())
        assert frac_40 == pytest.approx(0.58, abs=0.03)


class TestFlowPopulation:
    def test_sample_shape(self, rng):
        pop = FlowPopulation.sample(100, 1.0, rng)
        assert pop.num_flows == 100
        assert pop.weights.shape == (100,)

    def test_five_tuples_distinct(self, rng):
        pop = FlowPopulation.sample(200, 1.0, rng)
        keys = set(
            zip(pop.src_ip.tolist(), pop.dst_ip.tolist(), pop.src_port.tolist(),
                pop.dst_port.tolist(), pop.proto.tolist())
        )
        assert len(keys) == 200

    def test_deterministic(self):
        a = FlowPopulation.sample(50, 1.0, 3)
        b = FlowPopulation.sample(50, 1.0, 3)
        np.testing.assert_array_equal(a.src_ip, b.src_ip)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_explicit_weights(self, rng):
        w = np.array([0.5, 0.3, 0.2])
        pop = FlowPopulation.sample(3, 0.0, rng, weights=w)
        np.testing.assert_allclose(pop.weights, w)

    def test_weights_length_checked(self, rng):
        with pytest.raises(ValueError):
            FlowPopulation.sample(3, 0.0, rng, weights=np.array([1.0]))

    def test_weight_cap_applied(self, rng):
        pop = FlowPopulation.sample(100, 2.0, rng, weight_cap=0.05)
        assert pop.weights.max() <= 0.05 + 1e-12

    def test_tcp_fraction_bounds(self, rng):
        with pytest.raises(ValueError):
            FlowPopulation.sample(10, 1.0, rng, tcp_fraction=1.5)

    def test_protocols_valid(self, rng):
        pop = FlowPopulation.sample(100, 1.0, rng)
        assert set(np.unique(pop.proto)) <= {6, 17}


def _sample_loop(num_flows, rng, tcp_fraction=0.85):
    """The per-tuple ``set`` dedup ``FlowPopulation.sample`` used to
    run, kept as the oracle for the vectorized one."""
    seen = set()
    cols = (
        np.empty(num_flows, dtype=np.uint32),
        np.empty(num_flows, dtype=np.uint32),
        np.empty(num_flows, dtype=np.uint16),
        np.empty(num_flows, dtype=np.uint16),
        np.empty(num_flows, dtype=np.uint8),
    )
    filled = 0
    while filled < num_flows:
        need = num_flows - filled
        batch = max(need, 16)
        src = rng.integers(0x0A000000, 0x0AFFFFFF, size=batch, dtype=np.uint32)
        dst = rng.integers(0xC0A80000, 0xDFFFFFFF, size=batch, dtype=np.uint32)
        sport = rng.integers(1024, 65535, size=batch, dtype=np.uint16)
        dport = rng.choice(
            np.array([80, 443, 53, 22, 25, 8080, 5060, 1194], dtype=np.uint16),
            size=batch,
        )
        proto = np.where(
            rng.random(batch) < tcp_fraction, PROTO_TCP, PROTO_UDP
        ).astype(np.uint8)
        for i in range(batch):
            key = (int(src[i]), int(dst[i]), int(sport[i]), int(dport[i]), int(proto[i]))
            if key in seen:
                continue
            seen.add(key)
            for col, drawn in zip(cols, (src, dst, sport, dport, proto)):
                col[filled] = drawn[i]
            filled += 1
            if filled == num_flows:
                break
    return cols


class _RepeatingRng(np.random.Generator):
    """A generator whose integer draws (``choice`` included) land on
    only *span* values per field, so 5-tuples repeat both inside one
    batch and across the redraw batches."""

    def __init__(self, seed: int, span: int) -> None:
        super().__init__(np.random.PCG64(seed))
        self.span = span

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        return (low + super().integers(0, self.span, size=size)).astype(dtype)


def _columns(pop):
    return (pop.src_ip, pop.dst_ip, pop.src_port, pop.dst_port, pop.proto)


class TestFlowPopulationDedupTwin:
    """The vectorized 5-tuple dedup against the loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        span=st.integers(1, 4),
        frac=st.sampled_from([0.0, 0.5, 0.85, 1.0]),
        data=st.data(),
    )
    def test_matches_loop_under_forced_collisions(self, seed, span, frac, data):
        protos = 1 if frac in (0.0, 1.0) else 2
        # ``choice`` draws through ``integers`` too, so the stub can
        # produce span**4 * protos distinct tuples; ask for at most
        # half of them so the redraw loop ends quickly
        space = span**4 * protos
        num_flows = data.draw(st.integers(1, max(1, min(space // 2, 200))))
        got = FlowPopulation.sample(
            num_flows, 1.0, _RepeatingRng(seed, span), tcp_fraction=frac
        )
        want = _sample_loop(num_flows, _RepeatingRng(seed, span), frac)
        for g, w in zip(_columns(got), want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def test_stub_forces_redraws(self):
        """The stub really does collide: with 2 values per field (32
        distinct tuples) 16 flows take more than one batch."""
        rng = _RepeatingRng(5, 2)
        batches = []
        random = rng.random

        def counting(n):
            batches.append(n)
            return random(n)

        rng.random = counting
        FlowPopulation.sample(16, 1.0, rng, tcp_fraction=0.5)
        assert len(batches) > 1

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000))
    def test_matches_loop_on_real_generator(self, seed, n):
        got = FlowPopulation.sample(n, 1.0, np.random.default_rng(seed))
        want = _sample_loop(n, np.random.default_rng(seed))
        for g, w in zip(_columns(got), want):
            np.testing.assert_array_equal(g, w)
